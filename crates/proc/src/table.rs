//! The per-site process table.
//!
//! Owns every [`ProcessRecord`] currently hosted at the site, allocates
//! pids, implements fork inheritance, and drives the migration state
//! machine (mark in-transit → export → install at destination → remove).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use locus_types::{Error, FileListEntry, Pid, Result, SiteId, TransId};

use crate::record::{ProcState, ProcessRecord};

/// Number of process-table stripes: every system call reads the caller's
/// record, so unrelated processes must not share a mutex.
const PROC_SHARDS: usize = 16;

/// `Pid::new` packs the per-site sequence number into the low bits, so
/// consecutive spawns land on different stripes.
fn shard_of(pid: Pid) -> usize {
    pid.0 as usize % PROC_SHARDS
}

/// Process table of one site, striped by pid.
#[derive(Debug)]
pub struct ProcessTable {
    site: SiteId,
    shards: [Mutex<HashMap<Pid, ProcessRecord>>; PROC_SHARDS],
    next_seq: AtomicU32,
}

impl ProcessTable {
    pub fn new(site: SiteId) -> Self {
        ProcessTable {
            site,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            next_seq: AtomicU32::new(1),
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    fn shard(&self, pid: Pid) -> &Mutex<HashMap<Pid, ProcessRecord>> {
        &self.shards[shard_of(pid)]
    }

    /// Creates a brand-new process (no parent), hosted here.
    pub fn spawn(&self) -> Pid {
        let pid = Pid::new(self.site, self.next_seq.fetch_add(1, Ordering::Relaxed));
        self.shard(pid).lock().insert(pid, ProcessRecord::new(pid));
        pid
    }

    /// Forks `parent`, creating a child *hosted at this site* that inherits
    /// the parent's open files (Unix semantics: "child processes inherit
    /// file access from their parents", Section 3.1) and transaction
    /// membership. The parent must be hosted here.
    pub fn fork(&self, parent: Pid) -> Result<Pid> {
        // Build the child and link it under the parent's stripe, then insert
        // it into its own stripe. The caller *is* the parent, so the parent
        // cannot exit or migrate between the two critical sections; a site
        // crash in the window just drains both records anyway.
        let child = {
            let mut shard = self.shard(parent).lock();
            let parent_rec = shard.get_mut(&parent).ok_or(Error::NoSuchProcess(parent))?;
            if parent_rec.state != ProcState::Running {
                return Err(Error::InTransit(parent));
            }
            let child_pid = Pid::new(self.site, self.next_seq.fetch_add(1, Ordering::Relaxed));
            let mut child = ProcessRecord::new(child_pid);
            child.parent = Some(parent);
            child.tid = parent_rec.tid;
            child.nest = parent_rec.nest;
            child.top = parent_rec.top;
            child.open_files = parent_rec.open_files.clone();
            child.next_channel = parent_rec.next_channel;
            parent_rec.children.insert(child_pid);
            child
        };
        let child_pid = child.pid;
        self.shard(child_pid).lock().insert(child_pid, child);
        Ok(child_pid)
    }

    /// Whether the pid is hosted here and running.
    pub fn is_running(&self, pid: Pid) -> bool {
        self.shard(pid)
            .lock()
            .get(&pid)
            .map(|r| r.state == ProcState::Running)
            .unwrap_or(false)
    }

    /// Read access to a record.
    pub fn get(&self, pid: Pid) -> Option<ProcessRecord> {
        self.shard(pid).lock().get(&pid).cloned()
    }

    /// Runs `f` with mutable access to the record, or errors if the process
    /// is not hosted here.
    pub fn with_mut<T>(&self, pid: Pid, f: impl FnOnce(&mut ProcessRecord) -> T) -> Result<T> {
        let mut procs = self.shard(pid).lock();
        let rec = procs.get_mut(&pid).ok_or(Error::NoSuchProcess(pid))?;
        Ok(f(rec))
    }

    /// Applies a member's report to the (top-level) process `top` hosted
    /// here: `member` joined (`exited` is `None`), or completed with the
    /// file-list `exited` carries, which merges into the top's. Fails with
    /// [`Error::InTransit`] if the target is mid-migration — the sender must
    /// retry (Section 4.1); fails with [`Error::NoSuchProcess`] if it has
    /// moved on, so the sender re-resolves the location. Either refusal
    /// changes nothing, and a report applied twice counts once.
    pub fn member_report(
        &self,
        top: Pid,
        member: Pid,
        exited: Option<&[FileListEntry]>,
    ) -> Result<()> {
        let mut procs = self.shard(top).lock();
        let rec = procs.get_mut(&top).ok_or(Error::NoSuchProcess(top))?;
        if rec.state == ProcState::InTransit {
            return Err(Error::InTransit(top));
        }
        // The paper "locks the process from migrating, for a short duration,
        // until the operation has been completed" — holding the record's
        // stripe mutex across the update is exactly that.
        if let Some(entries) = exited {
            rec.members.remove(&member);
            rec.file_list.extend(entries.iter().copied());
        } else {
            rec.members.insert(member);
        }
        Ok(())
    }

    /// Begins migrating `pid` away: marks it in-transit and returns the
    /// serialized record. Fails if it is already migrating or has children
    /// state that forbids it.
    pub fn begin_migrate(&self, pid: Pid) -> Result<Vec<u8>> {
        let mut procs = self.shard(pid).lock();
        let rec = procs.get_mut(&pid).ok_or(Error::NoSuchProcess(pid))?;
        if rec.state != ProcState::Running {
            return Err(Error::InTransit(pid));
        }
        rec.state = ProcState::InTransit;
        Ok(rec.encode())
    }

    /// Completes an outbound migration: removes the local record.
    pub fn finish_migrate_out(&self, pid: Pid) {
        self.shard(pid).lock().remove(&pid);
    }

    /// Aborts an outbound migration (destination unreachable): the process
    /// resumes running here.
    pub fn cancel_migrate(&self, pid: Pid) {
        if let Some(rec) = self.shard(pid).lock().get_mut(&pid) {
            rec.state = ProcState::Running;
        }
    }

    /// Installs an inbound migrated process.
    pub fn finish_migrate_in(&self, blob: &[u8]) -> Result<Pid> {
        let rec = ProcessRecord::decode(blob)
            .ok_or_else(|| Error::InvalidArgument("corrupt migration blob".into()))?;
        let pid = rec.pid;
        self.shard(pid).lock().insert(pid, rec);
        Ok(pid)
    }

    /// Removes an exited process, returning its final record.
    pub fn remove(&self, pid: Pid) -> Option<ProcessRecord> {
        self.shard(pid).lock().remove(&pid)
    }

    /// Pids of all local member processes of transaction `tid`.
    pub fn members_of(&self, tid: TransId) -> Vec<Pid> {
        // Sorted for the same reason as `all_pids`: callers act on members
        // while emitting trace events.
        let mut pids = Vec::new();
        for s in &self.shards {
            let procs = s.lock();
            pids.extend(procs.values().filter(|r| r.tid == Some(tid)).map(|r| r.pid));
        }
        pids.sort_unstable();
        pids
    }

    /// All pids hosted here.
    pub fn all_pids(&self) -> Vec<Pid> {
        // Sorted: callers iterate this while emitting trace events, and the
        // event order must be reproducible from a seed (the backing maps are
        // HashMaps whose order varies run to run).
        let mut pids = Vec::new();
        for s in &self.shards {
            pids.extend(s.lock().keys().copied());
        }
        pids.sort_unstable();
        pids
    }

    /// Site crash: every hosted process dies with the volatile kernel state.
    pub fn crash(&self) -> Vec<ProcessRecord> {
        let mut dead = Vec::new();
        for s in &self.shards {
            dead.extend(s.lock().drain().map(|(_, r)| r));
        }
        // Deterministic order for callers that trace the casualties.
        dead.sort_unstable_by_key(|r| r.pid);
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{Fid, VolumeId};

    fn table() -> ProcessTable {
        ProcessTable::new(SiteId(1))
    }

    #[test]
    fn spawn_allocates_unique_pids() {
        let t = table();
        let a = t.spawn();
        let b = t.spawn();
        assert_ne!(a, b);
        assert!(t.is_running(a));
    }

    #[test]
    fn fork_inherits_transaction_and_files() {
        let t = table();
        let parent = t.spawn();
        t.with_mut(parent, |r| {
            r.tid = Some(TransId::new(SiteId(1), 4));
            r.top = Some(parent);
            r.nest = 1;
            r.add_open(crate::record::OpenFile {
                fid: Fid::new(VolumeId(0), 9),
                storage_site: SiteId(2),
                epoch: 0,
                pos: 10,
                append: false,
                write: true,
            });
        })
        .unwrap();
        let child = t.fork(parent).unwrap();
        let c = t.get(child).unwrap();
        assert_eq!(c.tid, Some(TransId::new(SiteId(1), 4)));
        assert_eq!(c.top, Some(parent));
        assert_eq!(c.nest, 1);
        assert_eq!(c.open_files.len(), 1);
        assert!(t.get(parent).unwrap().children.contains(&child));
    }

    #[test]
    fn merge_bounces_off_in_transit_process() {
        let t = table();
        let top = t.spawn();
        let member = Pid::new(SiteId(1), 99);
        let entry = FileListEntry {
            fid: Fid::new(VolumeId(0), 1),
            storage_site: SiteId(1),
            epoch: 0,
        };
        let exited = Some(&[entry][..]);
        assert!(t.member_report(top, member, exited).is_ok());
        t.begin_migrate(top).unwrap();
        assert_eq!(
            t.member_report(top, member, exited),
            Err(Error::InTransit(top))
        );
        t.finish_migrate_out(top);
        assert_eq!(
            t.member_report(top, member, exited),
            Err(Error::NoSuchProcess(top))
        );
    }

    #[test]
    fn migration_roundtrip_preserves_record() {
        let src = ProcessTable::new(SiteId(1));
        let dst = ProcessTable::new(SiteId(2));
        let pid = src.spawn();
        src.with_mut(pid, |r| {
            r.note_file(Fid::new(VolumeId(0), 3), SiteId(1), 0);
        })
        .unwrap();
        let blob = src.begin_migrate(pid).unwrap();
        let moved = dst.finish_migrate_in(&blob).unwrap();
        src.finish_migrate_out(pid);
        assert_eq!(moved, pid);
        assert!(dst.is_running(pid));
        assert!(!src.is_running(pid));
        assert_eq!(dst.get(pid).unwrap().file_list.len(), 1);
    }

    #[test]
    fn cancel_migrate_resumes_locally() {
        let t = table();
        let pid = t.spawn();
        t.begin_migrate(pid).unwrap();
        assert!(!t.is_running(pid));
        t.cancel_migrate(pid);
        assert!(t.is_running(pid));
    }

    #[test]
    fn double_migrate_fails() {
        let t = table();
        let pid = t.spawn();
        t.begin_migrate(pid).unwrap();
        assert_eq!(t.begin_migrate(pid), Err(Error::InTransit(pid)));
    }

    #[test]
    fn members_of_finds_transaction_processes() {
        let t = table();
        let tid = TransId::new(SiteId(1), 8);
        let a = t.spawn();
        let b = t.spawn();
        let _c = t.spawn();
        for p in [a, b] {
            t.with_mut(p, |r| r.tid = Some(tid)).unwrap();
        }
        let mut got = t.members_of(tid);
        got.sort();
        let mut want = vec![a, b];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn crash_drains_everything() {
        let t = table();
        t.spawn();
        t.spawn();
        let dead = t.crash();
        assert_eq!(dead.len(), 2);
        assert!(t.all_pids().is_empty());
    }
}
