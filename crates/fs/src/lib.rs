//! The Locus filesystem substrate: volumes with shadow-page files,
//! intentions-list single-file commit, record-level page differencing
//! (Figure 4), and the per-volume transaction logs of Section 4.
//!
//! The transaction facility in `locus-core` "relies only on the
//! functionality of the record commit mechanism, and not on the specific
//! implementation" (Section 4) — the interface here ([`Volume::prepare`],
//! [`Volume::commit_prepared`], [`Volume::abort_owner`]) is that boundary;
//! `locus-wal` implements the same shape over a write-ahead log for the
//! baseline comparison.

pub mod inode;
pub mod pagebuf;
pub mod volume;

pub use inode::Inode;
pub use pagebuf::PageBuf;
pub use volume::Volume;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use locus_disk::SimDisk;
    use locus_sim::{Account, CostModel, Counters, EventLog};
    use locus_types::{
        ByteRange, Fid, GrantPage, Owner, Pid, SiteId, TransId, TxnStatus, VolumeId,
    };

    use super::*;

    fn vol() -> (Arc<Volume>, Account) {
        vol_with(CostModel::default())
    }

    fn vol_with(model: CostModel) -> (Arc<Volume>, Account) {
        let model = Arc::new(model);
        let counters = Arc::new(Counters::default());
        let disk = Arc::new(SimDisk::new(512, model.clone(), counters.clone()));
        let v = Arc::new(Volume::new(
            VolumeId(0),
            SiteId(0),
            disk,
            model,
            counters,
            Arc::new(EventLog::new()),
        ));
        (v, Account::new(SiteId(0)))
    }

    fn proc_owner(n: u32) -> Owner {
        Owner::Proc(Pid::new(SiteId(0), n))
    }

    fn txn_owner(n: u64) -> Owner {
        Owner::Trans(TransId::new(SiteId(0), n))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = proc_owner(1);
        v.write(fid, o, ByteRange::new(0, 5), b"hello", &mut a)
            .unwrap();
        assert_eq!(v.read(fid, ByteRange::new(0, 5), &mut a).unwrap(), b"hello");
        assert_eq!(v.len(fid, &mut a).unwrap(), 5);
    }

    #[test]
    fn uncommitted_data_is_visible_but_not_durable() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        v.write(fid, proc_owner(1), ByteRange::new(0, 3), b"abc", &mut a)
            .unwrap();
        // Visible before commit...
        assert_eq!(v.read(fid, ByteRange::new(0, 3), &mut a).unwrap(), b"abc");
        // ...but a crash loses it.
        v.crash();
        v.reboot();
        assert_eq!(v.len(fid, &mut a).unwrap(), 0);
        assert!(v
            .read(fid, ByteRange::new(0, 3), &mut a)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_file_commit_survives_crash() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = proc_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"data", &mut a)
            .unwrap();
        v.commit_file(fid, o, &mut a).unwrap();
        v.crash();
        v.reboot();
        assert_eq!(v.read(fid, ByteRange::new(0, 4), &mut a).unwrap(), b"data");
        assert_eq!(v.len(fid, &mut a).unwrap(), 4);
    }

    #[test]
    fn commit_writes_shadow_then_inode() {
        // Figure 4a: single-writer commit = page flush + inode install.
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = proc_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"data", &mut a)
            .unwrap();
        let before = a.clone();
        v.commit_file(fid, o, &mut a).unwrap();
        let d = a.delta_since(&before);
        assert_eq!(d.disk_writes, 2, "shadow page + inode");
        assert_eq!(d.pages_differenced, 0);
    }

    #[test]
    fn multi_page_commit_repeats_only_the_flush() {
        // Section 6.1: "when records on multiple pages in a single file are
        // updated in one transaction ... Only the intrinsically necessary
        // I/O (step 2) is repeated."
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        for page in 0..4u64 {
            v.write(fid, o, ByteRange::new(page * 1024, 4), b"page", &mut a)
                .unwrap();
        }
        let before = a.clone();
        v.commit_file(fid, o, &mut a).unwrap();
        let d = a.delta_since(&before);
        assert_eq!(d.disk_writes, 5, "4 page flushes + 1 inode");
    }

    #[test]
    fn overlap_commit_differences_and_preserves_other_writers() {
        // Figure 4b: two owners on one page; committing one must not commit
        // the other's bytes.
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let (t1, t2) = (txn_owner(1), txn_owner(2));
        v.write(fid, t1, ByteRange::new(0, 4), b"AAAA", &mut a)
            .unwrap();
        v.write(fid, t2, ByteRange::new(8, 4), b"BBBB", &mut a)
            .unwrap();
        let before = a.clone();
        v.commit_file(fid, t1, &mut a).unwrap();
        assert_eq!(a.delta_since(&before).pages_differenced, 1);
        // Crash: only t1's bytes are durable — t2's write (which also
        // extended the file) is gone, so the committed length is 4.
        v.crash();
        v.reboot();
        assert_eq!(v.len(fid, &mut a).unwrap(), 4);
        let data = v.read(fid, ByteRange::new(0, 12), &mut a).unwrap();
        assert_eq!(data, b"AAAA");
    }

    #[test]
    fn second_committer_lands_on_first_commit() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let (t1, t2) = (txn_owner(1), txn_owner(2));
        v.write(fid, t1, ByteRange::new(0, 4), b"AAAA", &mut a)
            .unwrap();
        v.write(fid, t2, ByteRange::new(8, 4), b"BBBB", &mut a)
            .unwrap();
        v.commit_file(fid, t1, &mut a).unwrap();
        v.commit_file(fid, t2, &mut a).unwrap();
        v.crash();
        v.reboot();
        let data = v.read(fid, ByteRange::new(0, 12), &mut a).unwrap();
        assert_eq!(&data[0..4], b"AAAA");
        assert_eq!(&data[8..12], b"BBBB");
    }

    #[test]
    fn abort_sole_writer_rolls_back_page() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"XXXX", &mut a)
            .unwrap();
        v.abort_owner(fid, o, &mut a).unwrap();
        assert_eq!(v.len(fid, &mut a).unwrap(), 0);
        assert!(!v.owner_dirty(fid, o));
    }

    #[test]
    fn abort_with_conflicts_restores_only_aborters_records() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let (t1, t2) = (txn_owner(1), txn_owner(2));
        v.write(fid, t1, ByteRange::new(0, 4), b"AAAA", &mut a)
            .unwrap();
        v.write(fid, t2, ByteRange::new(8, 4), b"BBBB", &mut a)
            .unwrap();
        v.abort_owner(fid, t1, &mut a).unwrap();
        let data = v.read(fid, ByteRange::new(0, 12), &mut a).unwrap();
        assert_eq!(&data[0..4], &[0, 0, 0, 0]);
        assert_eq!(&data[8..12], b"BBBB");
    }

    #[test]
    fn abort_after_prepare_frees_shadow_blocks() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"XXXX", &mut a)
            .unwrap();
        let allocated_before = v.disk().allocated_count();
        let il = v.prepare(fid, o, &mut a).unwrap();
        assert_eq!(il.entries.len(), 1);
        assert_eq!(v.disk().allocated_count(), allocated_before + 1);
        v.abort_owner(fid, o, &mut a).unwrap();
        assert_eq!(v.disk().allocated_count(), allocated_before);
    }

    #[test]
    fn stale_prepare_merges_even_when_block_number_is_recycled() {
        // ABA on physical block numbers: t1 prepares against block B, two
        // other owners then commit the same page — the first install frees
        // B, the next prepare's first-fit shadow allocation hands B out
        // again — so at t1's (late, e.g. in-doubt across a coordinator
        // crash) install the inode points at a block *numbered* B with
        // entirely different content. Judging staleness by block number
        // would skip the Figure-4b merge and wipe the interleaved commits;
        // the per-page install counter must force it.
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let p = proc_owner(9);
        v.write(fid, p, ByteRange::new(0, 4), b"base", &mut a)
            .unwrap();
        v.commit_file(fid, p, &mut a).unwrap();

        let (t1, t2, t3) = (txn_owner(1), txn_owner(2), txn_owner(3));
        v.write(fid, t1, ByteRange::new(8, 4), b"AAAA", &mut a)
            .unwrap();
        let il = v.prepare(fid, t1, &mut a).unwrap();
        let old = il.entries[0].old_phys.expect("page existed");

        v.write(fid, t2, ByteRange::new(16, 4), b"BBBB", &mut a)
            .unwrap();
        v.commit_file(fid, t2, &mut a).unwrap(); // frees `old`
        v.write(fid, t3, ByteRange::new(24, 4), b"CCCC", &mut a)
            .unwrap();
        v.commit_file(fid, t3, &mut a).unwrap(); // first-fit recycles `old`
        assert!(
            v.disk().is_allocated(old),
            "test premise: the freed block number must be recycled"
        );

        v.commit_prepared(fid, t1, &mut a).unwrap();
        let data = v.read(fid, ByteRange::new(0, 28), &mut a).unwrap();
        assert_eq!(&data[0..4], b"base");
        assert_eq!(&data[8..12], b"AAAA");
        assert_eq!(&data[16..20], b"BBBB", "t2's commit must survive t1");
        assert_eq!(&data[24..28], b"CCCC", "t3's commit must survive t1");
    }

    #[test]
    fn prepare_is_idempotent() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"XXXX", &mut a)
            .unwrap();
        let il1 = v.prepare(fid, o, &mut a).unwrap();
        let il2 = v.prepare(fid, o, &mut a).unwrap();
        assert_eq!(il1, il2);
    }

    #[test]
    fn recovery_installs_logged_intentions() {
        // Crash after prepare: the prepare log alone must suffice to commit
        // (Section 4.2: participants store "enough of the intentions lists
        // ... to guarantee that the files can be committed ... regardless of
        // local failures").
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"data", &mut a)
            .unwrap();
        let il = v.prepare(fid, o, &mut a).unwrap();
        let rec = locus_types::PrepareLogRecord {
            tid: TransId::new(SiteId(0), 1),
            coordinator: SiteId(0),
            intentions: il,
            locks: vec![],
        };
        v.prepare_log_put(&rec, &mut a).unwrap();
        // The participant's pre-vote flush: without it the record would die
        // in the journal's buffered tail.
        v.log_barrier(&mut a).unwrap();
        v.crash(); // Buffers gone; prepared shadow blocks + log survive.
        v.reboot();
        let got = v
            .prepare_log_get(TransId::new(SiteId(0), 1), fid, &mut a)
            .unwrap();
        v.install_intentions(got.tid, &got.intentions, &mut a)
            .unwrap();
        assert_eq!(v.read(fid, ByteRange::new(0, 4), &mut a).unwrap(), b"data");
    }

    #[test]
    fn coord_log_roundtrip_and_status_update() {
        let (v, mut a) = vol();
        let tid = TransId::new(SiteId(0), 7);
        let rec = locus_types::CoordLogRecord {
            tid,
            files: vec![],
            status: TxnStatus::Voted,
        };
        let before = a.clone();
        v.coord_log_put(&rec, &mut a).unwrap();
        v.coord_log_note_status(tid, TxnStatus::Committed, &mut a)
            .unwrap();
        assert_eq!(
            a.delta_since(&before).total_ios(),
            0,
            "a yes and a note are buffered appends"
        );
        // One group-commit flush makes the record *and* the status delta
        // durable — one sequential I/O where the KV layout paid a barrier
        // per record.
        let before = a.clone();
        v.log_barrier(&mut a).unwrap();
        let d = a.delta_since(&before);
        assert_eq!((d.seq_ios, d.disk_writes), (1, 0));
        assert_eq!(
            v.coord_log_get(tid, &mut a).unwrap().status,
            TxnStatus::Committed
        );
        let scanned = v.coord_log_scan(&mut a);
        assert_eq!(scanned.len(), 1);
        v.coord_log_delete(tid, &mut a);
        assert!(v.coord_log_scan(&mut a).is_empty());
    }

    #[test]
    fn commit_mark_survives_crash_only_after_barrier() {
        let (v, mut a) = vol();
        let tid = TransId::new(SiteId(0), 9);
        let rec = locus_types::CoordLogRecord {
            tid,
            files: vec![],
            status: TxnStatus::Voted,
        };
        v.coord_log_put(&rec, &mut a).unwrap();
        // Crash with the yes still in the buffered tail: gone — which is
        // safe, it was never cast.
        v.crash();
        v.reboot();
        assert!(v.coord_log_get(tid, &mut a).is_none());
        // A record born committed is forced as the mark itself.
        let rec = locus_types::CoordLogRecord {
            status: TxnStatus::Committed,
            ..rec
        };
        v.coord_log_put(&rec, &mut a).unwrap();
        v.crash();
        v.reboot();
        assert_eq!(
            v.coord_log_get(tid, &mut a).unwrap().status,
            TxnStatus::Committed
        );
    }

    #[test]
    fn footnote9_log_writes_cost_double() {
        let (v, mut a) = vol_with(CostModel::paper_1985());
        let tid = TransId::new(SiteId(0), 7);
        let rec = locus_types::CoordLogRecord {
            tid,
            files: vec![],
            status: TxnStatus::Voted,
        };
        let before = a.clone();
        v.coord_log_put(&rec, &mut a).unwrap();
        assert_eq!(a.delta_since(&before).total_ios(), 0);
        v.log_barrier(&mut a).unwrap();
        let d = a.delta_since(&before);
        assert_eq!(d.seq_ios, 1, "the journal flush");
        assert_eq!(d.disk_writes, 1, "footnote 9: the log's inode rewrite");
    }

    #[test]
    fn adoption_moves_mods_to_transaction() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let p = proc_owner(5);
        let t = txn_owner(9);
        v.write(fid, p, ByteRange::new(0, 8), b"UUUUUUUU", &mut a)
            .unwrap();
        let mods = v.uncommitted_mods_overlapping(fid, ByteRange::new(0, 4), t);
        assert_eq!(mods, vec![(p, ByteRange::new(0, 4))]);
        let adopted = v.adopt(fid, ByteRange::new(0, 4), t);
        assert_eq!(adopted, vec![ByteRange::new(0, 4)]);
        assert!(v.owner_dirty(fid, t));
        // Committing the transaction now commits the adopted bytes.
        v.commit_file(fid, t, &mut a).unwrap();
        v.crash();
        v.reboot();
        let data = v.read(fid, ByteRange::new(0, 8), &mut a).unwrap();
        assert_eq!(&data[0..4], b"UUUU");
    }

    #[test]
    fn reads_spanning_pages_work() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = proc_owner(1);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        v.write(fid, o, ByteRange::new(0, 3000), &data, &mut a)
            .unwrap();
        v.commit_file(fid, o, &mut a).unwrap();
        let got = v.read(fid, ByteRange::new(500, 2000), &mut a).unwrap();
        assert_eq!(got, &data[500..2500]);
    }

    #[test]
    fn read_clips_at_visible_length() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        v.write(fid, proc_owner(1), ByteRange::new(0, 4), b"abcd", &mut a)
            .unwrap();
        let got = v.read(fid, ByteRange::new(2, 100), &mut a).unwrap();
        assert_eq!(got, b"cd");
    }

    /// `read_grant` for a reader that holds nothing: its bytes, per-page
    /// versions and committed length, and what it charged.
    fn shipped_to(
        v: &Volume,
        fid: locus_types::Fid,
        owner: Owner,
        range: ByteRange,
        a: &mut Account,
    ) -> (Vec<u8>, Vec<u64>, u64, Account) {
        let before = a.clone();
        let (committed_len, pages) = v.read_grant(fid, owner, range, &[], a).unwrap();
        let (mut bytes, mut versions) = (Vec::new(), Vec::new());
        for page in pages {
            let GrantPage::Shipped { vers, data, .. } = page else {
                panic!("a page named current to a reader that holds none");
            };
            bytes.extend_from_slice(&data);
            versions.push(vers);
        }
        (bytes, versions, committed_len, a.delta_since(&before))
    }

    #[test]
    fn a_reader_that_holds_nothing_is_shipped_what_read_returns() {
        let (v, mut a) = vol();
        let ps = CostModel::default().page_size as u64;
        let fid = v.create_file(&mut a).unwrap();
        let (me, other) = (proc_owner(1), proc_owner(2));
        // Committed: four bytes on page 0 and four on page 2; page 1 is a
        // hole no write materialized.
        v.write(fid, me, ByteRange::new(0, 4), b"abcd", &mut a)
            .unwrap();
        v.write(fid, me, ByteRange::new(2 * ps, 4), b"efgh", &mut a)
            .unwrap();
        v.commit_file(fid, me, &mut a).unwrap();
        let committed = v.replica_versions(fid, &mut a);
        // Uncommitted: the reader's own bytes on page 0, another owner's on
        // page 2, which they extend.
        v.write(fid, me, ByteRange::new(8, 2), b"MM", &mut a)
            .unwrap();
        v.write(fid, other, ByteRange::new(2 * ps + 4, 4), b"OOOO", &mut a)
            .unwrap();
        // Clipped mid-page 2 at the visible length, 2 * ps + 8.
        let range = ByteRange::new(2, 3 * ps);
        let want = v.read(fid, range, &mut a).unwrap();
        let before = a.clone();
        v.read(fid, range, &mut a).unwrap();
        let read_cost = a.delta_since(&before);
        let (data, vers, committed_len, cost) = shipped_to(&v, fid, me, range, &mut a);
        assert_eq!(data, want);
        assert_eq!(data.len() as u64, 2 * ps + 6);
        assert_eq!(&data[..8], b"cd\0\0\0\0MM");
        assert!(data[8..2 * ps as usize - 2].iter().all(|b| *b == 0));
        assert_eq!(&data[2 * ps as usize - 2..], b"efghOOOO");
        // The reader's own bytes keep the page's version; another owner's
        // make it uncacheable.
        let page1 = committed.get(1).copied().unwrap_or(0);
        assert_eq!(vers, [committed[0], page1, Volume::VERS_UNCACHEABLE]);
        assert_eq!(committed_len, 2 * ps + 4);
        // One buffer hit per page, as the read paid.
        assert_eq!(
            (cost.elapsed, cost.cpu_home, cost.disk_reads),
            (read_cost.elapsed, read_cost.cpu_home, read_cost.disk_reads)
        );
        // An empty range, and one past the visible length, ship nothing.
        for range in [ByteRange::new(5, 0), ByteRange::new(4 * ps, 10)] {
            let (data, vers, committed_len, _) = shipped_to(&v, fid, me, range, &mut a);
            assert!(data.is_empty() && vers.is_empty());
            assert_eq!(committed_len, 2 * ps + 4);
        }
    }

    #[test]
    fn scavenge_reclaims_orphaned_shadow_blocks() {
        let (v, mut a) = vol();
        let fid = v.create_file(&mut a).unwrap();
        let o = txn_owner(1);
        v.write(fid, o, ByteRange::new(0, 4), b"XXXX", &mut a)
            .unwrap();
        v.prepare(fid, o, &mut a).unwrap();
        let before_crash = v.disk().allocated_count();
        // Crash WITHOUT writing the prepare log: the shadow block is orphaned.
        v.crash();
        v.reboot();
        assert_eq!(v.disk().allocated_count(), before_crash);
        let reclaimed = v.scavenge(&mut a);
        assert_eq!(reclaimed, 1);
    }

    /// `fid` committed by a single-file commit to hold `base`, and `tid`'s
    /// write of `data` over it prepared and logged durably: the state a
    /// participant's phase two starts from.
    fn logged(v: &Volume, base: &[u8], tid: u64, data: &[u8], a: &mut Account) -> Fid {
        let fid = v.create_file(a).unwrap();
        let p = proc_owner(9);
        let len = base.len() as u64;
        v.write(fid, p, ByteRange::new(0, len), base, a).unwrap();
        v.commit_file(fid, p, a).unwrap();
        let o = txn_owner(tid);
        v.write(fid, o, ByteRange::new(0, data.len() as u64), data, a)
            .unwrap();
        let intentions = v.prepare(fid, o, a).unwrap();
        let rec = locus_types::PrepareLogRecord {
            tid: TransId::new(SiteId(0), tid),
            coordinator: SiteId(0),
            intentions,
            locks: vec![],
        };
        v.prepare_log_put(&rec, a).unwrap();
        v.log_barrier(a).unwrap();
        fid
    }

    /// Logs `tid`'s durable commit mark on `v`.
    fn mark(v: &Volume, tid: u64, a: &mut Account) {
        let rec = locus_types::CoordLogRecord {
            tid: TransId::new(SiteId(0), tid),
            files: vec![],
            status: TxnStatus::Committed,
        };
        v.coord_log_put(&rec, a).unwrap();
    }

    #[test]
    fn an_install_rides_the_next_force_and_has_landed_where_its_mark_is_durable() {
        let (v, mut a) = vol();
        // No mark here: the install is an append, not landed until the next
        // force carries it.
        let fid = logged(&v, b"base", 1, b"one!", &mut a);
        let before = a.clone();
        v.commit_prepared(fid, txn_owner(1), &mut a).unwrap();
        assert_eq!(
            a.delta_since(&before).total_ios(),
            0,
            "no force, no inode write"
        );
        assert!(!v.landed(TransId::new(SiteId(0), 1)));
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"base");
        v.log_barrier(&mut a).unwrap();
        assert!(v.landed(TransId::new(SiteId(0), 1)));
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"one!");
        // A durable mark here: the install is an append too, and counts as
        // landed at once — recovery redoes it from the mark until the next
        // force lands it.
        let fid = logged(&v, b"base", 2, b"two!", &mut a);
        mark(&v, 2, &mut a);
        let before = a.clone();
        v.commit_prepared(fid, txn_owner(2), &mut a).unwrap();
        assert_eq!(a.delta_since(&before).total_ios(), 0);
        assert!(v.landed(TransId::new(SiteId(0), 2)));
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"base");
        v.log_barrier(&mut a).unwrap();
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"two!");
    }

    #[test]
    fn after_a_crash_a_journaled_inode_reads_its_committed_bytes() {
        let (v, mut a) = vol();
        let fid = logged(&v, b"base", 1, b"new!", &mut a);
        v.commit_prepared(fid, txn_owner(1), &mut a).unwrap();
        v.log_barrier(&mut a).unwrap();
        v.crash();
        v.reboot();
        // The stable copy is the single-file commit's; the journal record,
        // a generation newer, is the file.
        let stable = Inode::decode(&v.disk().stable_peek("inode/1").unwrap()).unwrap();
        assert_eq!(stable.gen, 1);
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"new!");
        assert_eq!(v.read(fid, ByteRange::new(0, 4), &mut a).unwrap(), b"new!");
        assert_eq!(v.scavenge(&mut a), 0);
        assert_eq!(v.read(fid, ByteRange::new(0, 4), &mut a).unwrap(), b"new!");
    }

    #[test]
    fn scavenge_after_a_lost_inode_record_keeps_what_recovery_needs() {
        let (v, mut a) = vol();
        let fid = logged(&v, b"base", 1, b"redo", &mut a);
        mark(&v, 1, &mut a);
        // Phase two rides the next force; the crash comes first, and takes
        // the inode record, the prepare record's truncation and the frees.
        let il = v.commit_prepared(fid, txn_owner(1), &mut a).unwrap();
        let shadow = il.entries[0].new_phys;
        let base = il.entries[0].old_phys.unwrap();
        // And a shadow block nothing logged names.
        let orphan = txn_owner(2);
        v.write(fid, orphan, ByteRange::new(8, 4), b"lost", &mut a)
            .unwrap();
        v.prepare(fid, orphan, &mut a).unwrap();
        let allocated = v.disk().allocated_count();
        v.crash();
        v.reboot();
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"base");
        assert_eq!(v.scavenge(&mut a), 1, "the orphan only");
        assert_eq!(v.disk().allocated_count(), allocated - 1);
        assert!(v.disk().is_allocated(base), "the durable inode names it");
        assert!(v.disk().is_allocated(shadow), "the prepare record names it");
        // Recovery's redo from the surviving record, against the durable
        // inode's block, and the block it replaces is freed once it lands.
        let rec = v
            .prepare_log_get(TransId::new(SiteId(0), 1), fid, &mut a)
            .unwrap();
        v.install_intentions(rec.tid, &rec.intentions, &mut a)
            .unwrap();
        assert!(v.prepare_log_scan(&mut a).is_empty());
        assert_eq!(v.read(fid, ByteRange::new(0, 4), &mut a).unwrap(), b"redo");
        v.log_barrier(&mut a).unwrap();
        assert!(!v.disk().is_allocated(base));
        assert_eq!(v.durable_peek(fid, ByteRange::new(0, 4)).unwrap(), b"redo");
        assert_eq!(v.scavenge(&mut a), 0);
    }

    #[test]
    fn a_single_file_commit_supersedes_a_journaled_inode() {
        let (v, mut a) = vol();
        let fid = logged(&v, b"base", 1, b"txn!", &mut a);
        v.commit_prepared(fid, txn_owner(1), &mut a).unwrap();
        let p = proc_owner(3);
        v.write(fid, p, ByteRange::new(4, 4), b"file", &mut a)
            .unwrap();
        v.commit_file(fid, p, &mut a).unwrap();
        // The stable copy is a generation newer than the journal record,
        // whose truncation is still in the tail.
        assert_eq!(v.journal().inode_scan().len(), 0);
        v.crash();
        v.reboot();
        assert_eq!(v.journal().inode_scan().len(), 1, "the truncation was lazy");
        assert_eq!(
            v.durable_peek(fid, ByteRange::new(0, 8)).unwrap(),
            b"txn!file"
        );
        assert_eq!(
            v.read(fid, ByteRange::new(0, 8), &mut a).unwrap(),
            b"txn!file"
        );
    }

    #[test]
    fn stale_fid_is_rejected() {
        let (v, mut a) = vol();
        let bogus = locus_types::Fid::new(VolumeId(9), 1);
        assert!(matches!(
            v.read(bogus, ByteRange::new(0, 1), &mut a),
            Err(locus_types::Error::StaleFid(_))
        ));
    }
}
