//! The process service: fork/exit/migrate on the client side; migration
//! intake and the members' reports to the top-level process — its member
//! set (Section 4.2) and its file-list (Section 4.1) — on the server side.

use locus_net::{FileMsg, LockMsg, Msg, ProcMsg};
use locus_proc::ProcessRecord;
use locus_sim::{Account, Event};
use locus_types::{Error, FileListEntry, Owner, Pid, Result, SiteId, TransId};

use crate::kernel::Kernel;
use crate::services::ServiceHandler;

/// How many times a member's report is retried around an in-transit
/// top-level process before giving up.
const REPORT_RETRY_LIMIT: usize = 16;

/// Handler for process-machinery requests.
pub(crate) struct ProcService;

impl ServiceHandler for ProcService {
    type Request = ProcMsg;

    fn handle(k: &Kernel, _from: SiteId, req: ProcMsg, _acct: &mut Account) -> Result<Msg> {
        match req {
            ProcMsg::Migrate { blob } => {
                let pid = k.procs.finish_migrate_in(&blob)?;
                k.registry.set(pid, k.site);
                Ok(Msg::Ok)
            }
            ProcMsg::MemberAdded { top, member } => {
                k.procs.member_report(top, member, None)?;
                Ok(Msg::Ok)
            }
            ProcMsg::MemberExited {
                top,
                member,
                entries,
            } => {
                k.procs.member_report(top, member, Some(&entries))?;
                // The top-level process may be blocked in EndTrans waiting
                // for its children to complete (Section 4.2).
                k.wake(top);
                Ok(Msg::Ok)
            }
            ProcMsg::ChildExited { parent, child } => {
                let _ = k.procs.with_mut(parent, |rec| {
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
            self.report_to_top(tid, top, child, None, acct)?;
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
        match self.rpc(dest, Msg::Proc(ProcMsg::Migrate { blob }), acct) {
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

    /// Ends a process: a transaction member first reports its completion
    /// and its file-list to the top-level process (Section 4.1), and only
    /// then is the process torn down ([`Kernel::terminate`]). An exit the
    /// top-level process never heard of tears nothing down.
    pub fn exit(&self, pid: Pid, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let rec = self.procs.get(pid).ok_or(Error::NoSuchProcess(pid))?;
        if let (Some(tid), Some(top)) = (rec.tid, rec.top.filter(|&top| top != pid)) {
            let entries = rec.file_list.iter().copied().collect();
            self.report_to_top(tid, top, pid, Some(entries), acct)?;
        }
        self.terminate(&rec, acct);
        Ok(())
    }

    /// Tears a process down, whether it exited or an abort killed it: closes
    /// its files (committing non-transaction changes, Unix-style), releases
    /// its process-owned locks, and unlinks it from the process tree. The
    /// per-file commit and unlock-all messages for one storage site travel
    /// as a single batched network message.
    pub fn terminate(&self, rec: &ProcessRecord, acct: &mut Account) {
        let pid = rec.pid;
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
        // Unlink from the parent's children set.
        if let Some(parent) = rec.parent {
            if let Some(psite) = self.registry.lookup(parent) {
                let _ = self.notify(
                    psite,
                    Msg::Proc(ProcMsg::ChildExited { parent, child: pid }),
                    acct,
                );
            }
        }
        self.procs.remove(pid);
        self.registry.remove(pid);
        self.drop_wake_slot(pid);
        let granted = self.locks.drop_waiters_of(pid);
        self.push_grants(granted, acct);
    }

    /// Reports member `from` of `tid` to the top-level process `top`: it
    /// joined (`exited` is `None`), or it completed with the file-list
    /// `exited` carries. The report chases `top` with the bounce-and-retry
    /// protocol around an in-transit target (Section 4.1).
    pub fn report_to_top(
        &self,
        tid: TransId,
        top: Pid,
        from: Pid,
        exited: Option<Vec<FileListEntry>>,
        acct: &mut Account,
    ) -> Result<()> {
        // Only a report that carries a file-list counts as a merge.
        let merge = exited.as_ref().is_some_and(|e| !e.is_empty());
        let report = Msg::Proc(match exited {
            None => ProcMsg::MemberAdded { top, member: from },
            Some(entries) => ProcMsg::MemberExited {
                top,
                member: from,
                entries,
            },
        });
        for _ in 0..REPORT_RETRY_LIMIT {
            let site = self.registry.lookup(top).ok_or(Error::NoSuchProcess(top))?;
            match self.rpc(site, report.clone(), acct) {
                Ok(_) => {
                    if merge {
                        self.counters.file_list_merges();
                        self.events.push(Event::FileListMerged { tid, from });
                    }
                    return Ok(());
                }
                Err(Error::InTransit(_)) | Err(Error::NoSuchProcess(_)) => {
                    // The top-level process is migrating (or already moved):
                    // re-resolve and retry (Section 4.1's failure message).
                    if merge {
                        self.counters.file_list_retries();
                        self.events.push(Event::FileListRetry { tid, from });
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(Error::ProtocolViolation(format!(
            "member report for {tid} could not reach {top}"
        )))
    }
}
