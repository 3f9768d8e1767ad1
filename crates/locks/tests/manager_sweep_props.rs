//! Lock-manager sweep order: for any command sequence over many files on
//! two volumes, [`LockManager`] must behave exactly like the reference model
//! below — one `HashMap<Fid, FileLocks>` swept in sorted-fid order — with the
//! same per-request outcomes, the same *sequence* of waiters granted by the
//! cross-file sweeps (`release_owner`, `drop_waiters_of`), and the same final
//! lock tables. The sequence is what the trace events and grant
//! notifications of a sweep are emitted in, so it is what replay pins.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use locus_locks::{FileLocks, GrantedWaiter, LockManager, LockRequest};
use locus_sim::{Account, CostModel, Counters, EventLog};
use locus_types::{
    ByteRange, Fid, LockClass, LockRequestMode, Owner, Pid, SiteId, TransId, VolumeId,
};

const FILES: u8 = 12;

#[derive(Debug, Clone)]
enum Cmd {
    Lock {
        file: u8,
        who: u8,
        txn: bool,
        excl: bool,
        at: u8,
        len: u8,
        wait: bool,
    },
    Unlock {
        file: u8,
        who: u8,
        txn: bool,
        at: u8,
        len: u8,
    },
    ReleaseOwner {
        who: u8,
        txn: bool,
    },
    DropWaiters {
        who: u8,
    },
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        5 => (0..FILES, 0u8..4, any::<bool>(), any::<bool>(), 0u8..64, 1u8..32, any::<bool>())
            .prop_map(|(file, who, txn, excl, at, len, wait)| {
                Cmd::Lock { file, who, txn, excl, at, len, wait }
            }),
        2 => (0..FILES, 0u8..4, any::<bool>(), 0u8..64, 1u8..32)
            .prop_map(|(file, who, txn, at, len)| Cmd::Unlock { file, who, txn, at, len }),
        2 => (0u8..4, any::<bool>()).prop_map(|(who, txn)| Cmd::ReleaseOwner { who, txn }),
        1 => (0u8..4,).prop_map(|(who,)| Cmd::DropWaiters { who }),
    ]
}

/// Files alternate between two volumes, so that fid order — volume first —
/// is not inode order, nor the order of any hash of the two.
fn fid(file: u8) -> Fid {
    Fid::new(VolumeId(u32::from(file % 2)), u32::from(file / 2) + 1)
}

fn pid(who: u8) -> Pid {
    Pid::new(SiteId(0), u32::from(who) + 1)
}

fn owner(who: u8, txn: bool) -> Owner {
    if txn {
        Owner::Trans(TransId::new(SiteId(0), u64::from(who) + 1))
    } else {
        Owner::Proc(pid(who))
    }
}

fn request(who: u8, txn: bool, mode: LockRequestMode, at: u8, len: u8, wait: bool) -> LockRequest {
    LockRequest {
        pid: pid(who),
        tid: txn.then(|| TransId::new(SiteId(0), u64::from(who) + 1)),
        class: if txn {
            LockClass::Transaction
        } else {
            LockClass::NonTransaction
        },
        mode,
        range: ByteRange::new(u64::from(at), u64::from(len)),
        append: false,
        wait,
        reply_site: SiteId(0),
    }
}

fn manager() -> (LockManager, Account) {
    (
        LockManager::new(
            Arc::new(CostModel::default()),
            Arc::new(Counters::default()),
            Arc::new(EventLog::new()),
        ),
        Account::new(SiteId(0)),
    )
}

/// The manager's semantics, stated independently: one map, cross-file sweeps
/// in sorted fid order, pump after every mutation that can unblock waiters.
#[derive(Default)]
struct SortedFidModel {
    files: HashMap<Fid, FileLocks>,
}

impl SortedFidModel {
    fn request(&mut self, fid: Fid, req: LockRequest) -> locus_locks::LockOutcome {
        self.files
            .entry(fid)
            .or_insert_with(|| FileLocks::new(0))
            .request(req)
    }

    fn sorted_fids(&self) -> Vec<Fid> {
        let mut fids: Vec<Fid> = self.files.keys().copied().collect();
        fids.sort_unstable();
        fids
    }

    fn release_owner(&mut self, owner: Owner) -> Vec<GrantedWaiter> {
        let mut granted = Vec::new();
        for fid in self.sorted_fids() {
            let fl = self.files.get_mut(&fid).expect("listed");
            fl.release_owner(owner);
            for (request, range) in fl.pump() {
                granted.push(GrantedWaiter {
                    fid,
                    request,
                    range,
                });
            }
        }
        granted
    }

    fn drop_waiters_of(&mut self, pid: Pid) -> Vec<GrantedWaiter> {
        let mut granted = Vec::new();
        for fid in self.sorted_fids() {
            let fl = self.files.get_mut(&fid).expect("listed");
            let before = fl.waiters.len();
            fl.drop_waiters_of(pid);
            if fl.waiters.len() != before {
                for (request, range) in fl.pump() {
                    granted.push(GrantedWaiter {
                        fid,
                        request,
                        range,
                    });
                }
            }
        }
        granted
    }
}

/// The one sweep the generator below all but never makes grant on two files
/// at once. A shared holder, then `who` 1 queued exclusive behind it, then
/// `who` 2 queued shared behind that — blocked by the queue alone — on a
/// file of each volume, requested in the opposite of fid order.
#[test]
fn drop_waiters_of_grants_in_fid_order_across_volumes() {
    let (m, mut acct) = manager();
    let files = [fid(1), fid(0)];
    assert!(files[0] > files[1]);
    for f in files {
        for (who, mode) in [
            (0, LockRequestMode::Shared),
            (1, LockRequestMode::Exclusive),
            (2, LockRequestMode::Shared),
        ] {
            m.request(f, request(who, false, mode, 0, 8, true), &mut acct);
        }
    }
    let granted = m.drop_waiters_of(pid(1));
    let order: Vec<(Fid, Pid)> = granted.iter().map(|g| (g.fid, g.request.pid)).collect();
    assert_eq!(order, [(fid(0), pid(2)), (fid(1), pid(2))]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sweeps_grant_in_sorted_fid_order(
        cmds in proptest::collection::vec(cmd(), 1..200),
    ) {
        let (m, mut acct) = manager();
        let mut model = SortedFidModel::default();

        for c in cmds {
            match c {
                Cmd::Lock { file, who, txn, excl, at, len, wait } => {
                    let mode = if excl {
                        LockRequestMode::Exclusive
                    } else {
                        LockRequestMode::Shared
                    };
                    let got = m.request(fid(file), request(who, txn, mode, at, len, wait), &mut acct);
                    let want = model.request(fid(file), request(who, txn, mode, at, len, wait));
                    prop_assert_eq!(got, want, "lock outcome diverged");
                }
                Cmd::Unlock { file, who, txn, at, len } => {
                    let got = m.request(
                        fid(file),
                        request(who, txn, LockRequestMode::Unlock, at, len, false),
                        &mut acct,
                    );
                    let want =
                        model.request(fid(file), request(who, txn, LockRequestMode::Unlock, at, len, false));
                    prop_assert_eq!(got, want, "unlock outcome diverged");
                    // An explicit unlock may unblock waiters; both sides pump.
                    let got = m.pump_file(fid(file), &mut acct);
                    let mut want = Vec::new();
                    if let Some(fl) = model.files.get_mut(&fid(file)) {
                        for (request, range) in fl.pump() {
                            want.push(GrantedWaiter { fid: fid(file), request, range });
                        }
                    }
                    prop_assert_eq!(got, want, "pump grants diverged");
                }
                Cmd::ReleaseOwner { who, txn } => {
                    let got = m.release_owner(owner(who, txn), &mut acct);
                    let want = model.release_owner(owner(who, txn));
                    prop_assert_eq!(got, want, "release_owner grants diverged");
                }
                Cmd::DropWaiters { who } => {
                    let got = m.drop_waiters_of(pid(who));
                    let want = model.drop_waiters_of(pid(who));
                    prop_assert_eq!(got, want, "drop_waiters_of grants diverged");
                }
            }
        }

        // Final state: every file's descriptors and the full snapshot agree.
        for file in 0..FILES {
            let got = m.descriptors(fid(file));
            let want = model
                .files
                .get(&fid(file))
                .map(|fl| fl.descriptors())
                .unwrap_or_default();
            prop_assert_eq!(got, want, "descriptors diverged for file {}", file);
        }
        let snap = m.snapshot();
        let held: Vec<Fid> = snap.held.iter().map(|(f, _)| *f).collect();
        let mut want_held: Vec<Fid> = model
            .files
            .iter()
            .filter(|(_, fl)| !fl.entries.is_empty())
            .map(|(f, _)| *f)
            .collect();
        want_held.sort_unstable();
        prop_assert_eq!(held, want_held, "snapshot held-list diverged");
    }
}
