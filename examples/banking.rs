//! Banking: concurrent debit/credit transactions from real threads, with a
//! deadlock detector running as the Section 3.1 "system process".
//!
//! Run with: `cargo run --example banking`
//!
//! Eight tellers transfer money between 16 accounts in a ledger stored at
//! site 0, from processes at sites 0 and 1. Transfers lock both account
//! records exclusively — in ascending order to avoid deadlock, except for a
//! couple of deliberately disordered rogues that the deadlock detector must
//! resolve. The invariant: total money is conserved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use locus::deadlock::DeadlockDetector;
use locus::harness::{Cluster, ThreadCtx};
use locus::types::{Error, LockRequestMode};

const ACCOUNTS: u64 = 16;
const INITIAL: u64 = 1_000;
const TRANSFERS_PER_TELLER: usize = 20;

fn read_u64(ctx: &ThreadCtx, ch: locus::types::Channel, at: u64) -> u64 {
    ctx.seek(ch, at * 8).unwrap();
    let v = ctx.read(ch, 8).unwrap();
    u64::from_le_bytes(v.try_into().unwrap())
}

fn write_u64(ctx: &ThreadCtx, ch: locus::types::Channel, at: u64, v: u64) {
    ctx.seek(ch, at * 8).unwrap();
    ctx.write(ch, &v.to_le_bytes()).unwrap();
}

fn main() {
    let cluster = Arc::new(Cluster::new(2));

    // Create the ledger at site 0.
    let setup = ThreadCtx::new(cluster.site(0).clone());
    let ch = setup.creat("/ledger").unwrap();
    for i in 0..ACCOUNTS {
        write_u64(&setup, ch, i, INITIAL);
    }
    setup.close(ch).unwrap();
    println!("ledger created: {ACCOUNTS} accounts × {INITIAL}");

    // The deadlock detector: a user-level system process scanning the
    // exported lock tables (Section 3.1).
    let stop = Arc::new(AtomicBool::new(false));
    let detector_sites = cluster.sites.clone();
    let det_stop = stop.clone();
    let detector = std::thread::spawn(move || {
        let det = DeadlockDetector::new(detector_sites);
        let mut resolved = 0;
        while !det_stop.load(Ordering::Relaxed) {
            let mut acct = locus::sim::Account::new(locus::types::SiteId(0));
            resolved += det.run_once(&mut acct).len();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        resolved
    });

    let mut tellers = Vec::new();
    for t in 0..8usize {
        let cluster = cluster.clone();
        tellers.push(std::thread::spawn(move || {
            let site = cluster.site(t % 2).clone();
            let mut committed = 0;
            let mut aborted = 0;
            for i in 0..TRANSFERS_PER_TELLER {
                let a = ((t * 7 + i * 3) as u64) % ACCOUNTS;
                let b = ((t * 5 + i * 11) as u64 + 1) % ACCOUNTS;
                if a == b {
                    continue;
                }
                // Tellers 6 and 7 are rogues: they lock in descending order,
                // manufacturing deadlocks for the detector to break.
                let (first, second) = if t >= 6 {
                    (a.max(b), a.min(b))
                } else {
                    (a.min(b), a.max(b))
                };
                let ctx = ThreadCtx::new(site.clone());
                let result = (|| -> Result<(), Error> {
                    ctx.begin_trans()?;
                    let ch = ctx.open("/ledger", true)?;
                    ctx.seek(ch, first * 8)?;
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive)?;
                    ctx.seek(ch, second * 8)?;
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive)?;
                    if !ctx.in_transaction() {
                        // The deadlock detector aborted us while we were
                        // blocked; do not write outside the transaction.
                        return Err(Error::NotInTransaction);
                    }
                    let from = read_u64(&ctx, ch, a);
                    let to = read_u64(&ctx, ch, b);
                    let amount = 1 + (i as u64 % 10);
                    if from < amount {
                        ctx.abort_trans()?;
                        return Ok(());
                    }
                    write_u64(&ctx, ch, a, from - amount);
                    write_u64(&ctx, ch, b, to + amount);
                    ctx.end_trans()?;
                    Ok(())
                })();
                match result {
                    Ok(()) => committed += 1,
                    Err(_) => aborted += 1, // Deadlock victim or raced abort.
                }
                let _ = ctx.exit();
            }
            (committed, aborted)
        }));
    }

    let mut committed = 0;
    let mut aborted = 0;
    for t in tellers {
        let (c, a) = t.join().unwrap();
        committed += c;
        aborted += a;
    }
    stop.store(true, Ordering::Relaxed);
    let resolved = detector.join().unwrap();
    cluster.drain_async();

    // Verify conservation.
    let auditor = ThreadCtx::new(cluster.site(0).clone());
    let ch = auditor.open("/ledger", false).unwrap();
    let mut total = 0;
    for i in 0..ACCOUNTS {
        total += read_u64(&auditor, ch, i);
    }
    println!(
        "transfers committed: {committed}, aborted: {aborted}, deadlocks resolved: {resolved}"
    );
    println!("ledger total = {total} (expected {})", ACCOUNTS * INITIAL);
    assert_eq!(total, ACCOUNTS * INITIAL, "money was created or destroyed!");
    println!("invariant holds: money conserved under concurrency, aborts and deadlock resolution");
}
