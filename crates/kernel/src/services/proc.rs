//! The process service: fork/exit/migrate on the client side; migration
//! intake, file-list merging toward the top-level process (Section 4.1), and
//! transaction-member counting (Section 4.2) on the server side.

use locus_net::{FileMsg, LockMsg, Msg, ProcMsg};
use locus_sim::{Account, Event};
use locus_types::{Error, Owner, Pid, Result, SiteId, TransId};

use crate::kernel::Kernel;
use crate::services::ServiceHandler;

/// How many times a file-list merge or member-count update is retried around
/// in-transit processes before giving up.
const MERGE_RETRY_LIMIT: usize = 16;

/// Handler for process-machinery requests.
pub(crate) struct ProcService;

impl ServiceHandler for ProcService {
    type Request = ProcMsg;

    fn handle(k: &Kernel, _from: SiteId, req: ProcMsg, _acct: &mut Account) -> Result<Msg> {
        match req {
            ProcMsg::Migrate { pid: _, blob } => {
                let pid = k.procs.finish_migrate_in(&blob)?;
                k.registry.set(pid, k.site);
                Ok(Msg::Ok)
            }
            ProcMsg::FileListMerge {
                tid: _,
                top,
                from: _,
                entries,
            } => {
                k.procs.merge_file_list(top, &entries)?;
                Ok(Msg::Ok)
            }
            ProcMsg::MemberAdded { tid: _, top } => {
                k.procs.adjust_members(top, 1)?;
                Ok(Msg::Ok)
            }
            ProcMsg::MemberExited { tid: _, top } => {
                k.procs.adjust_members(top, -1)?;
                // The top-level process may be blocked in EndTrans waiting
                // for its children to complete (Section 4.2).
                k.wake(top);
                Ok(Msg::Ok)
            }
            ProcMsg::ChildExited { top, child, .. } => {
                // `top` carries the parent pid for tree unlinking.
                let _ = k.procs.with_mut(top, |rec| {
                    rec.children.remove(&child);
                });
                Ok(Msg::Ok)
            }
        }
    }
}

impl Kernel {
    /// Forks `pid`, inheriting open files and transaction membership
    /// (Section 3.1). The new process runs at this site.
    pub fn fork(&self, pid: Pid, acct: &mut Account) -> Result<Pid> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let child = self.procs.fork(pid)?;
        self.registry.set(child, self.site);
        let rec = self.procs.get(child).ok_or(Error::NoSuchProcess(child))?;
        if let (Some(tid), Some(top)) = (rec.tid, rec.top) {
            self.send_member_delta(tid, top, 1, acct)?;
        }
        Ok(child)
    }

    /// Migrates a process to `dest` (Section 4.1). The process must be idle
    /// (between system calls) — migration appears atomic to the rest of the
    /// protocol thanks to the in-transit marking.
    pub fn migrate(&self, pid: Pid, dest: SiteId, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        if dest == self.site {
            return Ok(());
        }
        let blob = self.procs.begin_migrate(pid)?;
        self.events.push(Event::MigrateStart {
            pid,
            from: self.site,
            to: dest,
        });
        match self.rpc(dest, Msg::Proc(ProcMsg::Migrate { pid, blob }), acct) {
            Ok(_) => {
                self.procs.finish_migrate_out(pid);
                self.registry.set(pid, dest);
                // The process now runs elsewhere, and may release its locks
                // there: neither its cached locks nor its cached pages here
                // vouch for anything once it is back.
                self.drop_owner_caches(Owner::Proc(pid));
                self.counters.migrations();
                self.events.push(Event::MigrateEnd { pid, at: dest });
                Ok(())
            }
            Err(e) => {
                // Destination unreachable: the process resumes here.
                self.procs.cancel_migrate(pid);
                Err(e)
            }
        }
    }

    /// Terminates a process: closes its files (committing non-transaction
    /// changes, Unix-style), releases its process-owned locks, merges its
    /// file-list toward the transaction's top-level process, and unlinks it
    /// from the process tree. The per-file commit and unlock-all messages
    /// for one storage site travel as a single batched network message.
    pub fn exit(&self, pid: Pid, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let rec = self.procs.get(pid).ok_or(Error::NoSuchProcess(pid))?;
        let in_txn = rec.tid.is_some();
        // Coalesce the teardown traffic per storage site: commit (outside a
        // transaction — base Locus commits files atomically as its default
        // mode) plus unlock-all for every file served there, one RTT total.
        let mut by_site: std::collections::BTreeMap<SiteId, Vec<Msg>> =
            std::collections::BTreeMap::new();
        for of in rec.open_files.values() {
            let msgs = by_site.entry(of.storage_site).or_default();
            if !in_txn {
                acct.cpu_instrs(&self.model, self.model.commit_requester_instrs);
                msgs.push(Msg::File(FileMsg::CommitReq {
                    fid: of.fid,
                    owner: Owner::Proc(pid),
                }));
            }
            msgs.push(Msg::Lock(LockMsg::UnlockAll { fid: of.fid, pid }));
        }
        for (site, msgs) in by_site {
            // Failures tearing down individual files are tolerated, as in
            // the unbatched protocol (the site may be down; its volatile
            // lock state died with it).
            let _ = self.rpc_batch(site, msgs, acct);
        }
        self.drop_owner_caches(Owner::Proc(pid));
        // A transaction member reports its completion and its file-list to
        // the top-level process (Section 4.1).
        if let (Some(tid), Some(top)) = (rec.tid, rec.top) {
            if top != pid {
                let entries: Vec<_> = rec.file_list.iter().copied().collect();
                self.merge_file_list_with_retry(tid, top, pid, entries, acct)?;
                self.send_member_delta(tid, top, -1, acct)?;
            }
        }
        // Unlink from the parent's children set.
        if let Some(parent) = rec.parent {
            if let Some(psite) = self.registry.lookup(parent) {
                let _ = self.notify(
                    psite,
                    Msg::Proc(ProcMsg::ChildExited {
                        tid: rec.tid.unwrap_or(TransId::new(self.site, 0)),
                        top: parent,
                        child: pid,
                    }),
                    acct,
                );
            }
        }
        self.procs.remove(pid);
        self.registry.remove(pid);
        self.drop_wake_slot(pid);
        let granted = self.locks.drop_waiters_of(pid);
        self.push_grants(granted, acct);
        Ok(())
    }

    /// Sends a completed child's file-list to the top-level process, with
    /// the bounce-and-retry protocol around in-transit targets
    /// (Section 4.1).
    pub fn merge_file_list_with_retry(
        &self,
        tid: TransId,
        top: Pid,
        from: Pid,
        entries: Vec<locus_types::FileListEntry>,
        acct: &mut Account,
    ) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        for _ in 0..MERGE_RETRY_LIMIT {
            let site = self.registry.lookup(top).ok_or(Error::NoSuchProcess(top))?;
            match self.rpc(
                site,
                Msg::Proc(ProcMsg::FileListMerge {
                    tid,
                    top,
                    from,
                    entries: entries.clone(),
                }),
                acct,
            ) {
                Ok(_) => {
                    self.counters.file_list_merges();
                    self.events.push(Event::FileListMerged { tid, from });
                    return Ok(());
                }
                Err(Error::InTransit(_)) | Err(Error::NoSuchProcess(_)) => {
                    // The top-level process is migrating (or already moved):
                    // re-resolve and retry (Section 4.1's failure message).
                    self.counters.file_list_retries();
                    self.events.push(Event::FileListRetry { tid, from });
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(Error::ProtocolViolation(format!(
            "file-list merge for {tid} could not reach {top}"
        )))
    }

    fn send_member_delta(
        &self,
        tid: TransId,
        top: Pid,
        delta: i64,
        acct: &mut Account,
    ) -> Result<()> {
        for _ in 0..MERGE_RETRY_LIMIT {
            let site = self.registry.lookup(top).ok_or(Error::NoSuchProcess(top))?;
            let msg = if delta >= 0 {
                Msg::Proc(ProcMsg::MemberAdded { tid, top })
            } else {
                Msg::Proc(ProcMsg::MemberExited { tid, top })
            };
            match self.rpc(site, msg, acct) {
                Ok(_) => return Ok(()),
                Err(Error::InTransit(_)) | Err(Error::NoSuchProcess(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(Error::ProtocolViolation(format!(
            "member update for {tid} could not reach {top}"
        )))
    }
}
