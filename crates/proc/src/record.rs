//! Process records: identity, process-tree links, transaction membership,
//! open files, and the per-process file-list (Section 4.1).

use std::collections::{BTreeMap, BTreeSet};

use locus_types::codec::{from_bytes, to_bytes};
use locus_types::{wire, Channel, Fid, FileListEntry, Pid, SiteId, TransId};

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    Running,
    /// Mid-migration: member reports addressed here must bounce and retry
    /// (Section 4.1's race-avoidance marking).
    InTransit,
}

/// One open file of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    pub fid: Fid,
    /// The (primary update) storage site serving this open.
    pub storage_site: SiteId,
    /// The storage site's boot epoch observed at open time; recorded in the
    /// file-list so two-phase commit can detect a mid-transaction reboot of
    /// the storage site (which discards its volatile buffers).
    pub epoch: u64,
    /// Current file offset, as maintained by read/write/lseek.
    pub pos: u64,
    /// Section 3.2 append mode: lock requests are end-of-file relative.
    pub append: bool,
    /// Opened with write permission (required to issue lock requests).
    pub write: bool,
}

wire!(struct OpenFile { fid, storage_site, epoch, pos, append, write });

/// The kernel's record of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessRecord {
    pub pid: Pid,
    pub parent: Option<Pid>,
    /// Live children (maintained at whichever site currently hosts this
    /// process).
    pub children: BTreeSet<Pid>,
    /// Transaction this process belongs to, if any.
    pub tid: Option<TransId>,
    /// `BeginTrans`/`EndTrans` nesting depth (Section 2's pairing counter).
    pub nest: u32,
    /// The transaction's top-level process (self, for the top level).
    pub top: Option<Pid>,
    /// Live member processes of the transaction *below* this process —
    /// meaningful only on the top-level record; `EndTrans` waits for none.
    pub members: BTreeSet<Pid>,
    /// Files used under the transaction, with their storage sites; merged to
    /// the top-level process as children complete (Section 4.1).
    pub file_list: BTreeSet<FileListEntry>,
    pub open_files: BTreeMap<Channel, OpenFile>,
    pub next_channel: u32,
    pub state: ProcState,
}

// `state` does not travel: a record is encoded only to migrate, and the
// process it describes is running once it arrives.
wire!(struct ProcessRecord {
    pid, parent, children, tid, nest, top, members, file_list, open_files, next_channel
} + { state: ProcState::Running });

impl ProcessRecord {
    pub fn new(pid: Pid) -> Self {
        ProcessRecord {
            pid,
            parent: None,
            children: BTreeSet::new(),
            tid: None,
            nest: 0,
            top: None,
            members: BTreeSet::new(),
            file_list: BTreeSet::new(),
            open_files: BTreeMap::new(),
            next_channel: 0,
            state: ProcState::Running,
        }
    }

    /// Whether this process is the top-level process of its transaction.
    pub fn is_top_level(&self) -> bool {
        self.tid.is_some() && self.top == Some(self.pid)
    }

    /// Leaves transaction `tid`, if this process is still in it: the process
    /// continues as a non-transaction process (after a commit, or a
    /// top-level process after an abort).
    pub fn leave(&mut self, tid: TransId) {
        if self.tid == Some(tid) {
            self.tid = None;
            self.top = None;
            self.nest = 0;
            self.members.clear();
            self.file_list.clear();
        }
    }

    /// Records a file use in the process's file-list, keyed by the storage
    /// site's boot epoch observed at the time of use. Entries that differ
    /// only in epoch coexist; the coordinator takes the per-site minimum at
    /// prepare time, so the earliest observation wins.
    pub fn note_file(&mut self, fid: Fid, storage_site: SiteId, epoch: u64) {
        self.file_list.insert(FileListEntry {
            fid,
            storage_site,
            epoch,
        });
    }

    /// Allocates a channel for a new open file.
    pub fn add_open(&mut self, of: OpenFile) -> Channel {
        let ch = Channel(self.next_channel);
        self.next_channel += 1;
        self.open_files.insert(ch, of);
        ch
    }

    /// Serializes the record for a migration message. The blob length is
    /// what the transport charges transfer time for.
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes a migration blob. Returns `None` on corruption.
    pub fn decode(bytes: &[u8]) -> Option<ProcessRecord> {
        from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::codec::assert_pinned;
    use locus_types::VolumeId;

    fn sample() -> ProcessRecord {
        let mut r = ProcessRecord::new(Pid::new(SiteId(1), 7));
        r.parent = Some(Pid::new(SiteId(1), 3));
        r.children.insert(Pid::new(SiteId(2), 1));
        r.tid = Some(TransId::new(SiteId(1), 99));
        r.nest = 2;
        r.top = Some(r.pid);
        r.members.insert(Pid::new(SiteId(2), 1));
        r.note_file(Fid::new(VolumeId(0), 5), SiteId(2), 3);
        r.add_open(OpenFile {
            fid: Fid::new(VolumeId(0), 5),
            storage_site: SiteId(2),
            epoch: 3,
            pos: 128,
            append: true,
            write: true,
        });
        r
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample();
        let blob = r.encode();
        let got = ProcessRecord::decode(&blob).unwrap();
        assert_eq!(got, r);
    }

    /// Golden vector from the hand-written encoder this layout replaced,
    /// re-recorded when the member count became the member set (an empty set still encodes as the count 0 did). The sample is
    /// inside a transaction, with a child, a member, a file-list entry and
    /// an open file.
    #[test]
    fn layouts_are_pinned() {
        assert_pinned(
            &sample(),
            "07000000010000000103000000010000000100000001000000020000000101000000630000000000\
             00000200000001070000000100000001000000010000000200000001000000000000000500000002\
             00000003000000000000000100000000000000000000000500000002000000030000000000000080\
             00000000000000010101000000",
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let blob = sample().encode();
        for cut in [1, 8, blob.len() - 1] {
            assert!(ProcessRecord::decode(&blob[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decode_refuses_a_trailing_byte() {
        let mut blob = sample().encode();
        blob.push(0);
        assert!(ProcessRecord::decode(&blob).is_none());
    }

    #[test]
    fn lifecycle_state_does_not_travel() {
        let mut r = sample();
        r.state = ProcState::InTransit;
        let got = ProcessRecord::decode(&r.encode()).unwrap();
        assert_eq!(got.state, ProcState::Running);
    }

    #[test]
    fn top_level_detection() {
        let mut r = sample();
        assert!(r.is_top_level());
        r.top = Some(Pid::new(SiteId(9), 9));
        assert!(!r.is_top_level());
        r.tid = None;
        assert!(!r.is_top_level());
    }

    #[test]
    fn channels_are_sequential() {
        let mut r = ProcessRecord::new(Pid::new(SiteId(1), 1));
        let of = OpenFile {
            fid: Fid::new(VolumeId(0), 1),
            storage_site: SiteId(1),
            epoch: 0,
            pos: 0,
            append: false,
            write: false,
        };
        assert_eq!(r.add_open(of), Channel(0));
        assert_eq!(r.add_open(of), Channel(1));
    }
}
