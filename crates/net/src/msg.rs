//! The kernel-to-kernel message vocabulary, grouped by service.
//!
//! Each subsystem owns its wire surface as a typed request/response enum —
//! [`FileMsg`] for the filesystem data plane, [`LockMsg`] for the distributed
//! lock protocol, [`ProcMsg`] for migration and file-list merging, [`TxnMsg`]
//! for the two-phase-commit control plane, and [`ReplicaMsg`] for primary-site
//! replication pushes. [`Msg`] is the envelope that unites them, plus the
//! protocol plumbing: [`Msg::Batch`] coalesces several messages destined for
//! one site into a single network message (one RTT), and `Ok`/`Err` are the
//! generic acknowledgement and error responses.
//!
//! Payload structures live in `locus-types` so both the kernel and
//! transaction crates can build and consume them. This file is the
//! vocabulary only; what each message looks like as bytes is stated in
//! [`crate::wire`].

use locus_types::{
    ByteRange, Error, Fid, FileListEntry, GrantPage, LockClass, LockRequestMode, Owner, PageData,
    PageNo, Pid, Service, SiteId, TransId, TxnStatus,
};

/// Filesystem data plane: remote open/read/write and the single-file
/// commit/abort mechanism (the non-transaction path: base Locus commits
/// files atomically as its default operating mode, Section 4).
#[derive(Debug, Clone, PartialEq)]
pub enum FileMsg {
    /// Open `fid` at its storage site, which answers with what the opener
    /// needs to know of it.
    OpenReq { fid: Fid },
    /// Open succeeded; current file length and the storage site's boot
    /// epoch returned (the epoch feeds the transaction file-list so commit
    /// can detect a mid-transaction storage-site reboot).
    OpenResp { len: u64, epoch: u64 },
    /// Read `range` of `fid` on behalf of `owner`. `range` is what the
    /// requesting kernel wants shipped — the caller's bytes, widened to the
    /// covered pages around them when it will cache the reply — and all of
    /// it is validated against the lock list. `lock` asks the storage site
    /// to take the owning transaction's implicit shared lock on `range`
    /// first (Section 3.1: a transaction locks "at the time of record
    /// access"), waiting if it must; a lock that is queued or refused fails
    /// the request with the file untouched.
    ReadReq {
        fid: Fid,
        pid: Pid,
        owner: Owner,
        range: ByteRange,
        lock: bool,
    },
    /// Data returned from a read. `committed_len` is the file's *committed*
    /// length at the storage site (monotone under the serving inode), and
    /// `vers` carries the per-page install counters for every page of the
    /// requested range — together they let the requesting site cache the
    /// returned bytes coherently (only sub-committed spans are cacheable,
    /// and the version stamps resolve racing populations).
    ReadResp {
        data: Vec<u8>,
        committed_len: u64,
        vers: Vec<u64>,
    },
    /// Write `data` at `range.start` of `fid` on behalf of `owner`. `lock`
    /// is [`FileMsg::ReadReq`]'s, for the exclusive lock.
    WriteReq {
        fid: Fid,
        pid: Pid,
        owner: Owner,
        range: ByteRange,
        data: Vec<u8>,
        lock: bool,
    },
    /// Write accepted; new file length and the storage site's boot epoch
    /// returned.
    WriteResp { new_len: u64, epoch: u64 },
    /// Commit one owner's changes to a file via the single-file commit.
    CommitReq { fid: Fid, owner: Owner },
    /// Discard one owner's uncommitted changes to a file.
    AbortReq { fid: Fid, owner: Owner },
}

/// What the requester of a shared grant already holds of the pages the grant
/// would ship, in [`ReplicaMsg::PullReq`]'s form: the install version of each
/// page of the ship window from its first (0: nothing held), and the
/// incarnation of the storage site they were shipped by.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Held {
    /// The storage site's boot epoch when it shipped the held pages.
    pub boot_epoch: u64,
    /// The file's replication epoch then.
    pub repl_epoch: u64,
    pub have: Vec<u64>,
}

/// Record locking: `Lock(file, length, mode)` forwarding (Section 5.1) and
/// grant pushes.
#[derive(Debug, Clone, PartialEq)]
pub enum LockMsg {
    /// Lock request forwarded to the storage site. `append` requests the
    /// atomic extend-and-lock of Section 3.2; `wait` selects queueing over a
    /// conflict error. `fetch` asks for the first pages of the granted range
    /// to come back with the grant (Section 5.2 "prefetches the locked
    /// pages"), except those it holds a current copy of: a shared, non-append
    /// lock outside any transaction only.
    Req {
        fid: Fid,
        pid: Pid,
        tid: Option<TransId>,
        mode: LockRequestMode,
        class: LockClass,
        range: ByteRange,
        append: bool,
        wait: bool,
        reply_site: SiteId,
        fetch: Option<Held>,
    },
    /// Lock granted; the effective range is returned (append-mode locks are
    /// placed relative to end-of-file by the storage site), with the storage
    /// site's boot epoch, and — for a `fetch` — the file's committed length
    /// and the window's pages, else none.
    Resp {
        granted: ByteRange,
        epoch: u64,
        committed_len: u64,
        pages: Vec<GrantPage>,
    },
    /// One-way notification: a queued lock request of `pid` has been
    /// granted, so it may retry its call.
    Granted { pid: Pid },
    /// Release all locks held by a process on a file (close / exit path).
    UnlockAll { fid: Fid, pid: Pid },
}

/// Process machinery: migration, file-list merging toward the top-level
/// process (Section 4.1), and transaction-member tracking (Section 4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum ProcMsg {
    /// Carry a migrating process to its new site (opaque to the transport;
    /// the kernel serializes its process record).
    Migrate { blob: Vec<u8> },
    /// One-way: process `child` exited, so `parent` drops it from its
    /// children set.
    ChildExited { parent: Pid, child: Pid },
    /// Process `member` joined the transaction (fork inside a transaction):
    /// the top-level process adds it to its member set.
    MemberAdded { top: Pid, member: Pid },
    /// Process `member` completed: the top-level process merges its
    /// file-list and drops it from the member set its `EndTrans` waits on.
    /// Both member reports bounce with [`Error::InTransit`] when the
    /// top-level process is mid-migration.
    MemberExited {
        top: Pid,
        member: Pid,
        entries: Vec<FileListEntry>,
    },
}

/// Two-phase commit control plane (Section 4.2) plus the cascading-abort and
/// recovery inquiries of Sections 4.3/4.4.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnMsg {
    /// Coordinator → participant: prepare these files of `tid`. `epoch` is
    /// the participant's boot epoch as first observed by the transaction; a
    /// participant whose current epoch differs rebooted mid-transaction
    /// (losing volatile buffers that may have held acked writes) and must
    /// vote no.
    Prepare {
        tid: TransId,
        coordinator: SiteId,
        files: Vec<Fid>,
        epoch: u64,
    },
    /// Participant → coordinator: prepare completed (or failed).
    PrepareDone { tid: TransId, ok: bool },
    /// Coordinator → participant, phase two: commit these files and release
    /// their retained locks.
    Commit { tid: TransId, files: Vec<Fid> },
    /// Coordinator → participant: roll these files back.
    AbortFiles { tid: TransId, files: Vec<Fid> },
    /// Abort the transaction's processes at a site (cascading abort).
    AbortProc { tid: TransId, pid: Pid },
    /// Recovery inquiry: what was the outcome of `tid`?
    StatusInquiry { tid: TransId },
    /// Outcome answer; `None` when the coordinator log has been purged
    /// (which can only happen after all participants finished).
    StatusAnswer { status: Option<TxnStatus> },
    /// Requester → each storage site of `tid`'s files, when it holds none
    /// of them: prepare yours and decide the transaction, here alone or
    /// with the other sites `files` names. Answered by a `PrepareDone`
    /// whose `ok` is the outcome from a site that decides alone and the
    /// site's durable vote from one of several. `files` is the whole file
    /// list, with the epochs [`TxnMsg::Prepare`] carries per site; `forget`
    /// names earlier delegated transactions of the sender whose outcome it
    /// has learned, so their records may go.
    Delegate {
        tid: TransId,
        files: Vec<FileListEntry>,
        forget: Vec<TransId>,
    },
    /// Requester → delegate, as a member of a phase-two batch that goes
    /// there anyway: [`TxnMsg::Delegate`]'s `forget`, with no delegation.
    Forget { tids: Vec<TransId> },
}

/// Primary update site ↔ replica site protocol (Section 5.2 replication; the
/// primary-site strategy funnels updates through one site, which then
/// refreshes the others). Every message carries the file's replication
/// *epoch*: a counter bumped on each primary promotion, so pushes and pulls
/// from a deposed primary (or to a site that missed a promotion) are refused
/// instead of silently diverging the copies.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaMsg {
    /// Primary → replica: install the committed image of the file's changed
    /// pages.
    Sync {
        fid: Fid,
        new_len: u64,
        /// Replication epoch the primary believes is current.
        epoch: u64,
        /// Committed `(page, install version, image)` triples; [`PageData`]
        /// so the primary builds each image once and every replica push
        /// shares the same buffer. The install version lets the replica
        /// adopt the primary's per-page counters verbatim, keeping version
        /// comparisons meaningful across sites.
        pages: Vec<(PageNo, u64, PageData)>,
    },
    /// New primary → other replicas: `site` took over as primary update
    /// site under `epoch`. Recipients drop cached pages of the file; a
    /// recipient that already observed a later epoch refuses.
    Promote { fid: Fid, site: SiteId, epoch: u64 },
    /// Stale replica → primary: catch-up pull. `have` carries the replica's
    /// install versions for pages `start .. start + have.len()`; `tail`
    /// marks the final chunk, asking the primary to also send every
    /// committed page past the enumerated range.
    PullReq {
        fid: Fid,
        epoch: u64,
        start: PageNo,
        have: Vec<u64>,
        tail: bool,
    },
    /// Primary → stale replica: the pages whose versions differed.
    PullResp {
        epoch: u64,
        new_len: u64,
        pages: Vec<(PageNo, u64, PageData)>,
    },
}

/// A kernel-to-kernel message: one service's request/response/notification,
/// a batch of them, or a generic acknowledgement/error.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    File(FileMsg),
    Lock(LockMsg),
    Proc(ProcMsg),
    Txn(TxnMsg),
    Replica(ReplicaMsg),
    /// Several messages for the same destination site, delivered in order as
    /// one network message (one round trip). The response is a `Batch` of
    /// the per-message responses, positionally matched. Batches do not nest.
    Batch(Vec<Msg>),
    /// Positive acknowledgement with no payload.
    Ok,
    /// Remote error returned as a response.
    Err(Error),
}

impl From<FileMsg> for Msg {
    fn from(m: FileMsg) -> Msg {
        Msg::File(m)
    }
}

impl From<LockMsg> for Msg {
    fn from(m: LockMsg) -> Msg {
        Msg::Lock(m)
    }
}

impl From<ProcMsg> for Msg {
    fn from(m: ProcMsg) -> Msg {
        Msg::Proc(m)
    }
}

impl From<TxnMsg> for Msg {
    fn from(m: TxnMsg) -> Msg {
        Msg::Txn(m)
    }
}

impl From<ReplicaMsg> for Msg {
    fn from(m: ReplicaMsg) -> Msg {
        Msg::Replica(m)
    }
}

impl Msg {
    /// The service this message belongs to.
    pub fn service(&self) -> Service {
        match self {
            Msg::File(_) => Service::File,
            Msg::Lock(_) => Service::Lock,
            Msg::Proc(_) => Service::Proc,
            Msg::Txn(_) => Service::Txn,
            Msg::Replica(_) => Service::Replica,
            Msg::Batch(_) | Msg::Ok | Msg::Err(_) => Service::Control,
        }
    }

    /// Stable message-kind tag for traces and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::File(m) => match m {
                FileMsg::OpenReq { .. } => "OpenReq",
                FileMsg::OpenResp { .. } => "OpenResp",
                // A data request that carries its lock says so, so a trace
                // shows where the lock request went.
                FileMsg::ReadReq { lock: true, .. } => "ReadReq+Lock",
                FileMsg::ReadReq { .. } => "ReadReq",
                FileMsg::ReadResp { .. } => "ReadResp",
                FileMsg::WriteReq { lock: true, .. } => "WriteReq+Lock",
                FileMsg::WriteReq { .. } => "WriteReq",
                FileMsg::WriteResp { .. } => "WriteResp",
                FileMsg::CommitReq { .. } => "CommitReq",
                FileMsg::AbortReq { .. } => "AbortReq",
            },
            Msg::Lock(m) => match m {
                LockMsg::Req { fetch: Some(_), .. } => "LockReq+Fetch",
                LockMsg::Req { .. } => "LockReq",
                LockMsg::Resp { .. } => "LockResp",
                LockMsg::Granted { .. } => "LockGranted",
                LockMsg::UnlockAll { .. } => "UnlockAll",
            },
            Msg::Proc(m) => match m {
                ProcMsg::Migrate { .. } => "Migrate",
                ProcMsg::ChildExited { .. } => "ChildExited",
                ProcMsg::MemberAdded { .. } => "MemberAdded",
                ProcMsg::MemberExited { .. } => "MemberExited",
            },
            Msg::Txn(m) => match m {
                TxnMsg::Prepare { .. } => "Prepare",
                TxnMsg::PrepareDone { .. } => "PrepareDone",
                TxnMsg::Commit { .. } => "Commit",
                TxnMsg::AbortFiles { .. } => "AbortFiles",
                TxnMsg::AbortProc { .. } => "AbortProc",
                TxnMsg::StatusInquiry { .. } => "StatusInquiry",
                TxnMsg::StatusAnswer { .. } => "StatusAnswer",
                TxnMsg::Delegate { .. } => "Delegate",
                TxnMsg::Forget { .. } => "Forget",
            },
            Msg::Replica(m) => match m {
                ReplicaMsg::Sync { .. } => "ReplicaSync",
                ReplicaMsg::Promote { .. } => "ReplicaPromote",
                ReplicaMsg::PullReq { .. } => "ReplicaPullReq",
                ReplicaMsg::PullResp { .. } => "ReplicaPullResp",
            },
            Msg::Batch(_) => "Batch",
            Msg::Ok => "Ok",
            Msg::Err(_) => "Err",
        }
    }

    /// Approximate number of data pages carried, used by the transport to
    /// charge per-page transfer time on top of the base round trip.
    pub fn pages_carried(&self, page_size: usize) -> u64 {
        let bytes = match self {
            Msg::File(FileMsg::ReadResp { data, .. })
            | Msg::File(FileMsg::WriteReq { data, .. }) => data.len(),
            Msg::Lock(LockMsg::Resp { pages, .. }) => pages
                .iter()
                .map(|p| match p {
                    GrantPage::Shipped { data, .. } => data.len(),
                    GrantPage::Current => 0,
                })
                .sum(),
            Msg::Proc(ProcMsg::Migrate { blob, .. }) => blob.len(),
            Msg::Replica(ReplicaMsg::Sync { pages, .. })
            | Msg::Replica(ReplicaMsg::PullResp { pages, .. }) => {
                pages.iter().map(|(_, _, d)| d.len()).sum()
            }
            Msg::Batch(msgs) => {
                return msgs.iter().map(|m| m.pages_carried(page_size)).sum();
            }
            _ => 0,
        };
        (bytes as u64).div_ceil(page_size as u64)
    }

    /// Whether this is a response-kind message.
    pub fn is_response(&self) -> bool {
        match self {
            Msg::File(m) => matches!(
                m,
                FileMsg::OpenResp { .. } | FileMsg::ReadResp { .. } | FileMsg::WriteResp { .. }
            ),
            Msg::Lock(m) => matches!(m, LockMsg::Resp { .. }),
            Msg::Txn(m) => matches!(m, TxnMsg::PrepareDone { .. } | TxnMsg::StatusAnswer { .. }),
            Msg::Replica(m) => matches!(m, ReplicaMsg::PullResp { .. }),
            Msg::Batch(msgs) => msgs.iter().all(Msg::is_response),
            Msg::Ok | Msg::Err(_) => true,
            _ => false,
        }
    }

    /// Converts an `Err` response into a Rust error, passing others through.
    pub fn into_result(self) -> Result<Msg, Error> {
        match self {
            Msg::Err(e) => Err(e),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::VolumeId;

    #[test]
    fn pages_carried_counts_payload() {
        let m = Msg::File(FileMsg::ReadResp {
            data: vec![0; 2500],
            committed_len: 2500,
            vers: vec![1, 1, 1],
        });
        assert_eq!(m.pages_carried(1024), 3);
        assert_eq!(Msg::Ok.pages_carried(1024), 0);
        // A grant pays for the pages it carries — not for those it names
        // current — and a bare one for none.
        let shipped = |len| GrantPage::Shipped {
            vers: 1,
            clean: true,
            data: PageData::new(vec![0; len]),
        };
        let grant = |pages: Vec<GrantPage>| {
            Msg::Lock(LockMsg::Resp {
                granted: ByteRange::new(0, 4096),
                epoch: 0,
                committed_len: 4096,
                pages,
            })
        };
        assert_eq!(grant(vec![shipped(1024); 4]).pages_carried(1024), 4);
        let mixed = vec![shipped(24), GrantPage::Current, shipped(1024)];
        assert_eq!(grant(mixed).pages_carried(1024), 2);
        assert_eq!(grant(vec![GrantPage::Current; 4]).pages_carried(1024), 0);
        assert_eq!(grant(vec![]).pages_carried(1024), 0);
    }

    #[test]
    fn pages_carried_sums_batch_members() {
        let batch = Msg::Batch(vec![
            Msg::File(FileMsg::ReadResp {
                data: vec![0; 2048],
                committed_len: 2048,
                vers: vec![1, 1],
            }),
            Msg::Replica(ReplicaMsg::Sync {
                fid: Fid::new(VolumeId(0), 1),
                new_len: 1024,
                epoch: 0,
                pages: vec![(PageNo(0), 1, PageData::new(vec![0; 1024]))],
            }),
            Msg::Ok,
        ]);
        assert_eq!(batch.pages_carried(1024), 3);
    }

    #[test]
    fn into_result_unwraps_errors() {
        let e = Msg::Err(Error::VolumeFull);
        assert_eq!(e.into_result(), Err(Error::VolumeFull));
        assert!(Msg::Ok.into_result().is_ok());
    }

    #[test]
    fn service_tags_match_variants() {
        let m = Msg::Txn(TxnMsg::StatusInquiry {
            tid: TransId::new(SiteId(1), 4),
        });
        assert_eq!(m.service(), Service::Txn);
        assert_eq!(m.kind(), "StatusInquiry");
        assert_eq!(Msg::Batch(vec![]).service(), Service::Control);
        // A data request that carries its lock stays a file-service message
        // and says what it carries.
        let read = |lock| {
            Msg::File(FileMsg::ReadReq {
                fid: Fid::new(VolumeId(0), 1),
                pid: Pid::new(SiteId(1), 1),
                owner: Owner::Trans(TransId::new(SiteId(1), 4)),
                range: ByteRange::new(0, 8),
                lock,
            })
        };
        assert_eq!(read(false).kind(), "ReadReq");
        assert_eq!(read(true).kind(), "ReadReq+Lock");
        assert_eq!(read(true).service(), Service::File);
        // So does a lock request that asks for its pages.
        let lock = |fetch| {
            Msg::Lock(LockMsg::Req {
                fid: Fid::new(VolumeId(0), 1),
                pid: Pid::new(SiteId(1), 1),
                tid: None,
                mode: LockRequestMode::Shared,
                class: LockClass::NonTransaction,
                range: ByteRange::new(0, 8),
                append: false,
                wait: false,
                reply_site: SiteId(1),
                fetch,
            })
        };
        assert_eq!(lock(None).kind(), "LockReq");
        assert_eq!(lock(Some(Held::default())).kind(), "LockReq+Fetch");
        assert_eq!(lock(Some(Held::default())).service(), Service::Lock);
        assert_eq!(
            Msg::from(LockMsg::UnlockAll {
                fid: Fid::new(VolumeId(0), 1),
                pid: Pid::new(SiteId(1), 1),
            })
            .service(),
            Service::Lock
        );
    }

    #[test]
    fn batch_response_detection() {
        assert!(Msg::Batch(vec![Msg::Ok, Msg::Err(Error::VolumeFull)]).is_response());
        assert!(!Msg::Batch(vec![
            Msg::Ok,
            Msg::Txn(TxnMsg::StatusInquiry {
                tid: TransId::new(SiteId(1), 4),
            })
        ])
        .is_response());
    }
}
