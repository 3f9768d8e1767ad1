//! Lock-list state transfer, for the Section 5.2 lock-control migration
//! optimization: "the storage site \[may\] *temporarily* transfer its ability
//! to manage a group of locks to another site ... Control of these locks,
//! and current locking information, would migrate if the locking patterns
//! changed."
//!
//! The encoded form carries the granted entries, the wait queue, and the
//! end-of-file hint — everything the delegate needs to continue granting.

use std::collections::VecDeque;

use locus_types::codec::{from_bytes, to_bytes, Dec, Enc, Wire};
use locus_types::wire;

use crate::lock_list::{EntryList, FileLocks, LockEntry, LockRequest, Waiter};

wire!(struct LockEntry { pid, tid, mode, class, range, retained });

wire!(struct LockRequest { pid, tid, class, mode, range, append, wait, reply_site });

wire!(struct Waiter { request, seq });

/// Entries go back in through `push`, which re-establishes the start order
/// and the probe bound whatever order the image lists them in.
impl Wire for EntryList {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter(), LockEntry::put);
    }

    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let mut list = EntryList::default();
        for entry in d.seq(LockEntry::get)? {
            list.push(entry);
        }
        Some(list)
    }
}

// The waiter sequence does not travel: it restarts past the largest
// sequence in the queue, so new waiters sort after transferred ones.
wire!(struct FileLocks { eof, entries, waiters } + { next_seq: seq_after(&waiters)? });

/// The first sequence number past every queued waiter's. An image whose
/// largest sequence leaves no successor is refused.
fn seq_after(waiters: &VecDeque<Waiter>) -> Option<u64> {
    waiters
        .iter()
        .try_fold(0, |next, w| Some(w.seq.checked_add(1)?.max(next)))
}

/// Serializes the complete lock state of one file.
pub fn encode_file_locks(fl: &FileLocks) -> Vec<u8> {
    to_bytes(fl)
}

/// Rebuilds a lock list from its transfer image.
pub fn decode_file_locks(bytes: &[u8]) -> Option<FileLocks> {
    from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_list::LockOutcome;
    use locus_types::codec::assert_pinned;
    use locus_types::{ByteRange, LockClass, LockRequestMode, Pid, SiteId, TransId};

    fn sample() -> FileLocks {
        let mut fl = FileLocks::new(512);
        let req = |p: u32, mode, start, len, wait| LockRequest {
            pid: Pid::new(SiteId(1), p),
            tid: Some(TransId::new(SiteId(1), u64::from(p))),
            class: LockClass::Transaction,
            mode,
            range: ByteRange::new(start, len),
            append: false,
            wait,
            reply_site: SiteId(2),
        };
        assert!(matches!(
            fl.request(req(1, LockRequestMode::Exclusive, 0, 64, false)),
            LockOutcome::Granted { .. }
        ));
        assert_eq!(
            fl.request(req(2, LockRequestMode::Exclusive, 0, 64, true)),
            LockOutcome::Queued
        );
        fl
    }

    #[test]
    fn roundtrip_preserves_entries_waiters_and_eof() {
        let fl = sample();
        let bytes = encode_file_locks(&fl);
        let got = decode_file_locks(&bytes).unwrap();
        assert_eq!(got.eof, fl.eof);
        assert_eq!(got.entries, fl.entries);
        assert_eq!(got.waiters, fl.waiters);
    }

    #[test]
    fn decoded_list_keeps_enforcing() {
        let fl = sample();
        let mut got = decode_file_locks(&encode_file_locks(&fl)).unwrap();
        // The transferred exclusive lock still conflicts.
        let outcome = got.request(LockRequest {
            pid: Pid::new(SiteId(3), 9),
            tid: None,
            class: LockClass::NonTransaction,
            mode: LockRequestMode::Shared,
            range: ByteRange::new(10, 4),
            append: false,
            wait: false,
            reply_site: SiteId(3),
        });
        assert!(matches!(outcome, LockOutcome::Denied { .. }));
    }

    #[test]
    fn fresh_waiters_get_unique_seq_after_transfer() {
        let fl = sample();
        let mut got = decode_file_locks(&encode_file_locks(&fl)).unwrap();
        // Enqueue a new waiter; its seq must exceed the transferred one.
        let outcome = got.request(LockRequest {
            pid: Pid::new(SiteId(3), 9),
            tid: None,
            class: LockClass::NonTransaction,
            mode: LockRequestMode::Exclusive,
            range: ByteRange::new(0, 8),
            append: false,
            wait: true,
            reply_site: SiteId(3),
        });
        assert_eq!(outcome, LockOutcome::Queued);
        let seqs: Vec<u64> = got.waiters.iter().map(|w| w.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs.len(), sorted.len(), "duplicate waiter seq");
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = encode_file_locks(&sample());
        assert!(decode_file_locks(&bytes[..bytes.len() - 3]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_file_locks(&padded).is_none(), "trailing byte");
    }

    /// The image ends with the queued waiter's sequence number. All ones
    /// leaves no number for the next waiter: refused, where `seq + 1` used
    /// to overflow (a panic in debug, a sequence that wraps below the queued
    /// waiter's in release).
    #[test]
    fn decode_refuses_a_waiter_sequence_with_no_successor() {
        let mut bytes = encode_file_locks(&sample());
        let at = bytes.len() - 8;
        bytes[at..].fill(0xff);
        assert!(decode_file_locks(&bytes).is_none());
    }

    /// Golden vector from the hand-written encoder this layout replaced
    /// (PR 18's parent): one granted entry, one queued waiter.
    #[test]
    fn layouts_are_pinned() {
        assert_pinned(
            &sample(),
            "00020000000000000100000001000000010000000101000000010000000000000002000000000000\
             00000040000000000000000001000000020000000100000001010000000200000000000000000100\
             0000000000000040000000000000000001020000000000000000000000",
        );
    }
}
