//! A transaction's implicit lock rides the read or write that needs it when
//! both go to the same remote site. That must be invisible except in the
//! message count: these tests hold the folded path against the explicit one
//! (`lock(wait)` before every access, which leaves every access covered and
//! so sends it bare), and follow a folded write whose reply is lost through
//! the abort that has to clean up after it.
//!
//! They live here rather than in `kernel/src/tests.rs` because they need the
//! transaction manager (abort, commit) and proptest, neither of which the
//! kernel crate has.

use std::sync::Arc;

use proptest::prelude::*;

use locus_harness::cluster::Cluster;
use locus_kernel::LockOpts;
use locus_net::{FaultDecision, FaultInjector, Msg};
use locus_sim::{Account, DetRng};
use locus_types::{ByteRange, Fid, LockRequestMode, Owner, Pid, SiteId};

const SITES: usize = 2;
const FILE_LEN: u64 = 2048;

/// `/eq0` at site 0 and `/eq1` at site 1, each `FILE_LEN` committed 1s.
fn build_cluster() -> Cluster {
    let c = Cluster::new(SITES);
    for f in 0..SITES {
        let k = &c.site(f).kernel;
        let mut a = c.account(f);
        let p = k.spawn();
        let ch = k.creat(p, &format!("/eq{f}"), &mut a).unwrap();
        k.write(p, ch, &vec![1; FILE_LEN as usize], &mut a).unwrap();
        k.close(p, ch, &mut a).unwrap();
        k.exit(p, &mut a).unwrap();
    }
    c
}

fn fid_of(c: &Cluster, name: &str) -> Fid {
    c.catalog.resolve(name).unwrap().fid
}

/// Drops the reply to the first message of the named kind.
struct DropReplyTo(&'static str, std::sync::atomic::AtomicBool);

impl FaultInjector for DropReplyTo {
    fn decide(&self, _: SiteId, _: SiteId, msg: &Msg, _: bool) -> FaultDecision {
        let first = msg.kind() == self.0 && !self.1.swap(true, std::sync::atomic::Ordering::SeqCst);
        if first {
            FaultDecision::DropReply
        } else {
            FaultDecision::Deliver
        }
    }
}

/// The storage site granted the lock and wrote the bytes, and the writer
/// never heard: the site must still be a participant, or the abort leaves a
/// lock nobody will release over bytes nobody will roll back.
#[test]
fn abort_reaches_a_site_whose_folded_reply_was_lost() {
    let c = build_cluster();
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = c.account(1);
    let p = s1.kernel.spawn();
    // Opened outside the transaction: only the access can name the site.
    let ch = s1.kernel.open(p, "/eq0", true, &mut a1).unwrap();
    let tid = s1.txn.begin_trans(p, &mut a1).unwrap();
    let fid = fid_of(&c, "/eq0");

    c.transport
        .set_fault_injector(Some(Arc::new(DropReplyTo("WriteReq+Lock", false.into()))));
    assert!(s1.kernel.write(p, ch, b"lost", &mut a1).is_err());
    c.transport.set_fault_injector(None);
    let holds = |k: &locus_kernel::Kernel| {
        k.held_locks()
            .iter()
            .any(|(_, d)| d.owner() == Owner::Trans(tid))
    };
    assert!(holds(&s0.kernel), "the request itself was served");
    let listed = s1.kernel.procs.get(p).unwrap().file_list;
    assert!(listed
        .iter()
        .any(|e| e.fid == fid && e.storage_site == SiteId(0)));

    s1.txn.abort_trans(p, &mut a1).unwrap();
    c.drain_async();
    assert!(!holds(&s0.kernel), "the abort released the lock");
    let vol = s0.kernel.volume(fid.volume).unwrap();
    let nobody = Owner::Proc(Pid::new(SiteId(9), 9));
    assert!(vol
        .uncommitted_mods_overlapping(fid, ByteRange::new(0, FILE_LEN), nobody)
        .is_empty());
    let mut a0 = c.account(0);
    assert_eq!(
        vol.read(fid, ByteRange::new(0, 8), &mut a0).unwrap(),
        [1; 8]
    );
}

// ----- Equivalence with the explicit path ------------------------------------

#[derive(Debug, Clone)]
enum Access {
    Seek(u64),
    Read(u64),
    Write(Vec<u8>),
}

/// One step: which transaction (0 at site 0, 1 at site 1), which file, what.
type Step = (usize, usize, Access);

/// Records are 32 bytes on a 64-byte grid over the first 512 bytes, so the
/// two transactions meet on the same records often: queueing, the spurious
/// retry of a queued request and the upgrade of a shared lock all occur.
fn gen_script(seed: u64) -> Vec<Step> {
    let mut rng = DetRng::seeded(seed);
    let mut script = Vec::new();
    for _ in 0..12 + rng.below(20) {
        let (txn, file) = (rng.below(2) as usize, rng.below(2) as usize);
        let pos = rng.below(8) * 64 + rng.below(2) * 16;
        script.push((txn, file, Access::Seek(pos)));
        let len = 1 + rng.below(32);
        let write = |fill: u8| Access::Write(vec![txn as u8 + fill; len as usize]);
        match rng.below(3) {
            0 => script.push((txn, file, Access::Read(len))),
            1 => script.push((txn, file, write(2))),
            // Read-modify-write of one record.
            _ => {
                script.push((txn, file, Access::Read(len)));
                script.push((txn, file, Access::Seek(pos)));
                script.push((txn, file, write(4)));
            }
        }
    }
    script
}

const WAIT: LockOpts = LockOpts {
    wait: true,
    non_transaction: false,
    append: false,
};

/// Everything the two paths must agree on, rendered, and what they may not.
struct Run {
    seen: String,
    messages: u64,
}

/// Runs `script` on a fresh cluster, in order, on one thread — a queued lock
/// is an error result like any other, so nothing blocks and the two runs
/// take the same steps. With `explicit`, every read and write is preceded by
/// the `lock(wait)` call that takes its lock the old way, unless the lock
/// cache already covers it.
fn run(script: &[Step], explicit: bool) -> Run {
    let c = build_cluster();
    let fids = [fid_of(&c, "/eq0"), fid_of(&c, "/eq1")];
    let mut accts: Vec<Account> = (0..SITES).map(|s| c.account(s)).collect();
    let (mut procs, mut tids) = (Vec::new(), Vec::new());
    for (s, a) in accts.iter_mut().enumerate() {
        let site = c.site(s);
        let p = site.kernel.spawn();
        let chs = [
            site.kernel.open(p, "/eq0", true, a).unwrap(),
            site.kernel.open(p, "/eq1", true, a).unwrap(),
        ];
        tids.push(site.txn.begin_trans(p, a).unwrap());
        procs.push((p, chs));
    }

    let mut seen = String::new();
    for (i, (txn, file, access)) in script.iter().enumerate() {
        let (k, a) = (&c.site(*txn).kernel, &mut accts[*txn]);
        let (p, ch) = (procs[*txn].0, procs[*txn].1[*file]);
        let lock = |len: u64, write: bool, a: &mut Account| {
            // What `ensure_locked` asks before it asks the storage site: a
            // second request for a covered range would be granted, but it
            // would split the entry that covers it.
            let of = k.procs.get(p).unwrap().open_files[&ch];
            let covered = k.cache.covers(
                of.fid,
                Owner::Trans(tids[*txn]),
                ByteRange::new(of.pos, len),
                write,
            );
            if explicit && !covered {
                let mode = if write {
                    LockRequestMode::Exclusive
                } else {
                    LockRequestMode::Shared
                };
                // Its own result is the access's lock step, told apart: a
                // queued lock shows again in the access below.
                let _ = k.lock(p, ch, len, mode, WAIT, a);
            }
        };
        let result = match access {
            Access::Seek(pos) => format!("{:?}", k.lseek(p, ch, *pos, a)),
            Access::Read(len) => {
                lock(*len, false, a);
                format!("{:?}", k.read(p, ch, *len, a))
            }
            Access::Write(data) => {
                lock(data.len() as u64, true, a);
                format!("{:?}", k.write(p, ch, data, a))
            }
        };
        seen.push_str(&format!("{i}: {result}\n"));
    }

    let render = |label: &str, seen: &mut String| {
        for s in 0..SITES {
            let k = &c.site(s).kernel;
            // Per file: the table's own order is a hash map's.
            let table = k.locks.snapshot();
            for (f, fid) in fids.iter().enumerate() {
                let held: Vec<_> = table.held.iter().filter(|(h, _)| h == fid).collect();
                let edges: Vec<_> = table.edges.iter().filter(|e| e.fid == *fid).collect();
                seen.push_str(&format!(
                    "{label} locks of /eq{f} at site {s}: {held:?}, waits {edges:?}\n"
                ));
            }
            let bytes = k
                .volume(fids[s].volume)
                .and_then(|v| v.read(fids[s], ByteRange::new(0, FILE_LEN), &mut c.account(s)));
            seen.push_str(&format!("{label} bytes of /eq{s}: {bytes:?}\n"));
            let list = k.procs.get(procs[s].0).map(|r| r.file_list);
            seen.push_str(&format!("{label} file list of txn {s}: {list:?}\n"));
        }
    };
    render("open", &mut seen);
    let messages = accts.iter().map(|a| a.messages).sum();
    for (s, (p, _)) in procs.iter().enumerate() {
        let end = c.site(s).txn.end_trans(*p, &mut accts[s]);
        c.drain_async();
        seen.push_str(&format!("end of txn {s}: {end:?}\n"));
    }
    render("ended", &mut seen);
    Run { seen, messages }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same script, bare and with an explicit `lock(wait)` before every
    /// access: identical result per call, lock tables (granted descriptors
    /// and wait-for edges), file bytes and file lists, before and after both
    /// transactions end. Only the message count may differ, and only
    /// downwards.
    #[test]
    fn riding_locks_match_explicit_locks(seed in any::<u64>()) {
        let script = gen_script(seed);
        let bare = run(&script, false);
        let explicit = run(&script, true);
        prop_assert_eq!(&bare.seen, &explicit.seen, "seed {}", seed);
        prop_assert!(bare.messages <= explicit.messages);
    }
}

/// The generator drives what it is meant to compare: first touches of remote
/// records that the bare run folds and the explicit run does not, and
/// conflicts that queue.
#[test]
fn the_scripts_fold_lock_requests_and_meet_conflicts() {
    let (mut saved, mut queued) = (0, 0);
    for seed in 0..16 {
        let script = gen_script(seed);
        let (bare, explicit) = (run(&script, false), run(&script, true));
        saved += explicit.messages - bare.messages;
        queued += bare.seen.matches("WouldBlock").count();
    }
    assert!(
        saved > 50,
        "only {saved} lock requests folded in 16 scripts"
    );
    assert!(queued > 10, "only {queued} accesses queued in 16 scripts");
}
