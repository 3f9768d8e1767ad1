//! Crash-recovery torture: enumerate every commit-path crash point and
//! prove no acknowledged write is ever lost.
//!
//! A clean recording run captures the complete durable-mutation stream of
//! every site's home volume (block writes, stable-store operations and
//! commit-journal operations, in order). Each workload-phase mutation is
//! classified by what the commit protocol was doing — writing a
//! shadow/intentions block, buffering a journal record, flushing the
//! journal tail (the group-commit barrier that makes prepare records and
//! the commit mark durable; a flush that also releases a dead prefix of the
//! log is a class of its own), appending the inode record that installs a
//! transaction's intentions list, or the atomic stable inode overwrite of a
//! single-file commit — and the same seed is then replayed once per selected
//! point with the disk armed to die *at* that mutation (cleanly, torn, or
//! losing unbarriered buffered writes). The harness crashes the site when
//! the point fires, recovers it in the epilogue, and the durability
//! ledger asserts that every acked committed write survived.
//!
//! This is the mechanized form of the paper's Section 4.3 argument: the
//! commit record is the single commit point, everything before it must be
//! invisible after a crash, everything after it must be completed by
//! recovery from the logs.

use std::collections::BTreeMap;
use std::fmt;

use locus_disk::{CrashPointMode, MutationKind};
use locus_types::{JournalEntry, JournalOp};

use super::{run_torture, ChaosConfig, DiskCrashPoint, Schedule, TortureRun};

/// What the commit protocol was writing when a crash point hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashClass {
    /// A data / shadow (intentions) block write.
    BlockWrite,
    /// A commit-journal append landing in the volatile tail (a prepare
    /// record, coordinator record, status delta, or lazy truncation that
    /// is not yet durable).
    JournalAppend,
    /// A commit-journal append carrying a file's whole inode: a
    /// transaction's install, which the next force of that journal lands
    /// (a later vote's, or a phase-two resend's: phase two acks only once
    /// it has landed).
    InstallAppend,
    /// The group-commit flush of the journal tail — the one barrier that
    /// makes a prepare vote or the commit mark durable. Dying here is the
    /// paper's commit-point window: the whole batch must land or vanish.
    JournalFlush,
    /// A group-commit flush that also carries a low-water mark past dead
    /// frames: the same commit-point window, plus the reclamation boundary —
    /// dying here must land (a prefix of) the batch and release nothing.
    JournalReclaim,
    /// The atomic stable inode overwrite installing an intentions list —
    /// the commit point of a single-file commit (and of a replica install).
    InodeFlush,
}

impl fmt::Display for CrashClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashClass::BlockWrite => "block-write",
            CrashClass::JournalAppend => "journal-append",
            CrashClass::InstallAppend => "install-append",
            CrashClass::JournalFlush => "journal-flush",
            CrashClass::JournalReclaim => "journal-reclaim",
            CrashClass::InodeFlush => "inode-flush",
        };
        f.write_str(s)
    }
}

/// Classifies one recorded durable mutation. Every mutation the commit
/// path can issue maps to a class; `None` is reserved for mutations that
/// are not part of any commit (the match is total on purpose so new
/// stable keys fail soft).
pub fn classify(m: &MutationKind) -> Option<CrashClass> {
    match m {
        MutationKind::Write(_) => Some(CrashClass::BlockWrite),
        MutationKind::StablePut(key) => {
            if key.starts_with("inode/") {
                Some(CrashClass::InodeFlush)
            } else {
                None
            }
        }
        MutationKind::JournalAppend { frame, .. } => {
            Some(match JournalEntry::decode(frame).map(|e| e.op) {
                Some(JournalOp::InodePut { .. }) => CrashClass::InstallAppend,
                _ => CrashClass::JournalAppend,
            })
        }
        MutationKind::JournalFlush { released: 0, .. } => Some(CrashClass::JournalFlush),
        MutationKind::JournalFlush { .. } => Some(CrashClass::JournalReclaim),
    }
}

/// One enumerated crash point: site, absolute mutation index, class.
#[derive(Debug, Clone, Copy)]
pub struct TorturePoint {
    pub site: usize,
    pub at: u64,
    pub class: CrashClass,
}

/// The outcome of one armed replay.
pub struct TortureCase {
    pub point: TorturePoint,
    pub mode: CrashPointMode,
    /// Whether the armed point actually fired (it must: armed replays are
    /// byte-identical to the recording run up to the trip).
    pub fired: bool,
    pub violations: usize,
    pub detail: String,
}

/// A full torture campaign over one seed.
pub struct TortureReport {
    pub seed: u64,
    /// Commit-path mutations found per (site, class) in the recording run.
    pub coverage: BTreeMap<(usize, CrashClass), usize>,
    pub cases: Vec<TortureCase>,
}

impl TortureReport {
    pub fn ok(&self) -> bool {
        self.cases.iter().all(|c| c.fired && c.violations == 0)
    }

    /// How many armed replays died at a point of `class`.
    pub fn armed(&self, class: CrashClass) -> usize {
        self.cases.iter().filter(|c| c.point.class == class).count()
    }

    pub fn failed(&self) -> Vec<&TortureCase> {
        self.cases
            .iter()
            .filter(|c| !c.fired || c.violations > 0)
            .collect()
    }
}

impl fmt::Display for TortureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "torture seed {}: {} ({} crash points, {} armed replays)",
            self.seed,
            if self.ok() { "ok" } else { "FAILED" },
            self.coverage.values().sum::<usize>(),
            self.cases.len(),
        )?;
        let mut by_class: BTreeMap<CrashClass, usize> = BTreeMap::new();
        for ((_, class), n) in &self.coverage {
            *by_class.entry(*class).or_default() += n;
        }
        for (class, n) in &by_class {
            writeln!(f, "  {class}: {n} point(s)")?;
        }
        for c in self.failed() {
            writeln!(
                f,
                "  FAIL site {} mutation {} {} {:?}: {}",
                c.point.site,
                c.point.at,
                c.point.class,
                c.mode,
                if c.fired {
                    &c.detail
                } else {
                    "point never fired"
                },
            )?;
        }
        Ok(())
    }
}

/// Enumerates the commit-path crash points of a clean run of `cfg`'s seed
/// (fault-free schedule, so every enumerated point is reachable in every
/// armed replay).
pub fn enumerate_points(cfg: &ChaosConfig) -> (Vec<TorturePoint>, TortureRun) {
    let clean = run_torture(cfg, &Schedule::default(), true, None);
    let mut points = Vec::new();
    for (site, log) in clean.mutation_logs.iter().enumerate() {
        let boundary = clean.setup_boundary[site];
        for (i, m) in log.iter().enumerate() {
            let at = i as u64;
            if at < boundary {
                continue; // setup traffic, not the commit path
            }
            if let Some(class) = classify(m) {
                points.push(TorturePoint { site, at, class });
            }
        }
    }
    (points, clean)
}

/// The fault modes each class is tortured with. Torn pages make sense for
/// block writes and for the journal flush, reclaiming or not (a torn flush
/// lands only a whole-frame prefix of the batch) — other stable operations are
/// sector-atomic and torn degrades to clean there. A lost buffered write
/// needs preceding unbarriered block writes to roll back.
fn modes_for(class: CrashClass, page_size: usize) -> Vec<CrashPointMode> {
    match class {
        CrashClass::BlockWrite | CrashClass::JournalFlush | CrashClass::JournalReclaim => vec![
            CrashPointMode::Clean,
            CrashPointMode::Torn {
                keep_bytes: page_size / 2,
            },
            CrashPointMode::LostBuffer { max_rollback: 4 },
        ],
        _ => vec![
            CrashPointMode::Clean,
            CrashPointMode::LostBuffer { max_rollback: 4 },
        ],
    }
}

/// Runs the torture campaign. `quick` samples the first point of every
/// (site, class) pair in clean mode only; the full campaign replays every
/// enumerated point under every applicable fault mode.
pub fn run_campaign(cfg: &ChaosConfig, quick: bool, page_size: usize) -> TortureReport {
    let (points, _clean) = enumerate_points(cfg);
    let mut coverage: BTreeMap<(usize, CrashClass), usize> = BTreeMap::new();
    for p in &points {
        *coverage.entry((p.site, p.class)).or_default() += 1;
    }

    let selected: Vec<(TorturePoint, CrashPointMode)> = if quick {
        let mut first: BTreeMap<(usize, CrashClass), TorturePoint> = BTreeMap::new();
        for p in &points {
            first.entry((p.site, p.class)).or_insert(*p);
        }
        first
            .into_values()
            .map(|p| (p, CrashPointMode::Clean))
            .collect()
    } else {
        points
            .iter()
            .flat_map(|p| {
                modes_for(p.class, page_size)
                    .into_iter()
                    .map(move |m| (*p, m))
            })
            .collect()
    };

    let mut cases = Vec::with_capacity(selected.len());
    for (point, mode) in selected {
        let run = run_torture(
            cfg,
            &Schedule::default(),
            false,
            Some(DiskCrashPoint {
                site: point.site,
                at: point.at,
                mode,
            }),
        );
        let detail = if run.report.violations.is_empty() {
            String::new()
        } else {
            run.report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        };
        cases.push(TortureCase {
            point,
            mode,
            fired: run.fired,
            violations: run.report.violations.len(),
            detail,
        });
    }

    TortureReport {
        seed: cfg.seed,
        coverage,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_every_commit_path_key() {
        assert_eq!(
            classify(&MutationKind::StablePut("inode/3".into())),
            Some(CrashClass::InodeFlush)
        );
        let append = |op| MutationKind::JournalAppend {
            index: 7,
            frame: JournalEntry { seq: 9, op }.encode(),
        };
        let fid = locus_types::Fid::new(locus_types::VolumeId(0), 1);
        assert_eq!(
            classify(&append(JournalOp::Truncate(
                locus_types::JournalKey::Inode(fid)
            ))),
            Some(CrashClass::JournalAppend)
        );
        assert_eq!(
            classify(&append(JournalOp::InodePut {
                fid,
                inode: vec![1, 2]
            })),
            Some(CrashClass::InstallAppend)
        );
        assert_eq!(
            classify(&MutationKind::JournalFlush {
                frames: 3,
                released: 0
            }),
            Some(CrashClass::JournalFlush)
        );
        assert_eq!(
            classify(&MutationKind::JournalFlush {
                frames: 3,
                released: 2
            }),
            Some(CrashClass::JournalReclaim)
        );
        // A reclaiming flush is still the commit-point flush: it gets the
        // torn and lost-buffer replays too.
        assert_eq!(
            modes_for(CrashClass::JournalReclaim, 1024),
            modes_for(CrashClass::JournalFlush, 1024)
        );
        assert_eq!(
            classify(&MutationKind::StablePut("site/boot_epoch".into())),
            None
        );
    }

    #[test]
    fn clean_run_enumerates_every_commit_path_class() {
        let cfg = ChaosConfig::with_seed(1);
        let (points, clean) = enumerate_points(&cfg);
        assert!(clean.report.ok(), "{}", clean.report);
        for class in [
            CrashClass::BlockWrite,
            CrashClass::JournalAppend,
            CrashClass::InstallAppend,
            CrashClass::JournalFlush,
            CrashClass::JournalReclaim,
        ] {
            assert!(
                points.iter().any(|p| p.class == class),
                "no {class} crash point found in clean run"
            );
        }
        // Every write of the workload is a transaction's, and a
        // transaction's install is an `install-append`: the stable inode is
        // overwritten only by single-file commits — the setup's fills, which
        // lie before the campaign's boundary — and by replica installs,
        // which campaigns (unreplicated) do not make.
        assert!(!points.iter().any(|p| p.class == CrashClass::InodeFlush));
    }

    /// Seed 1's workload has a transaction whose home, site 2, holds none of
    /// its files: sites 0 and 1 decide it by their votes. The campaign's
    /// points at site 1 include the force of that vote and the force that
    /// lands the install following the commit, with the delegate's note of
    /// it — site 1 acks only then. No later transaction votes at site 1
    /// before the run drains, so that force is the resend's. A replay dying
    /// at either loses nothing.
    #[test]
    fn the_campaign_crashes_a_vote_decided_commit_at_a_vote_force_and_an_install() {
        use locus_sim::Event;
        use locus_types::{SiteId, TransId, TxnStatus};

        let cfg = ChaosConfig::with_seed(1);
        let (points, clean) = enumerate_points(&cfg);
        let tid = TransId::new(SiteId(2), 1);
        let (d, site) = (1usize, SiteId(1));
        let has = |trace: &str, e: Event| trace.lines().any(|l| l == format!("{e:?}"));
        for to in [SiteId(0), site] {
            assert!(has(&clean.report.trace, Event::DelegateSent { tid, to }));
        }
        assert!(has(&clean.report.trace, Event::CommitMark { tid }));
        // Whether a replay wrote `tid`'s record at site 1 with `status`
        // before the armed point took the site down.
        let noted_before_crash = |trace: &str, status| {
            let note = format!("{:?}", Event::CoordLog { site, tid, status });
            let crash = format!("{:?}", Event::SiteCrash { site });
            let crash_at = trace.lines().position(|l| l == crash);
            let note_at = trace.lines().position(|l| l == note);
            matches!((note_at, crash_at), (Some(n), Some(c)) if n < c)
        };
        // A force at site 1: a flush, reclaiming or not. One that lands an
        // install follows its inode record and the truncation appended with
        // it.
        let forces = || {
            points.iter().filter(|p| {
                p.site == d
                    && matches!(
                        p.class,
                        CrashClass::JournalFlush | CrashClass::JournalReclaim
                    )
            })
        };
        let after_install = |at: u64| {
            points
                .iter()
                .any(|q| q.site == d && q.class == CrashClass::InstallAppend && q.at < at)
        };
        // The first force at site 1 whose replay dies just after the note —
        // the yes behind it, or the commit note, which with the install
        // rides the next force there — must fire and lose nothing.
        for (what, status, install) in [
            ("vote force", TxnStatus::Voted, false),
            ("force carrying the install", TxnStatus::Committed, true),
        ] {
            let hit = forces()
                .filter(|p| !install || after_install(p.at))
                .map(|p| {
                    let crash = DiskCrashPoint {
                        site: d,
                        at: p.at,
                        mode: CrashPointMode::Clean,
                    };
                    run_torture(&cfg, &Schedule::default(), false, Some(crash))
                })
                .find(|run| noted_before_crash(&run.report.trace, status))
                .unwrap_or_else(|| panic!("no {what} of {tid} at site 1"));
            assert!(hit.fired, "{what}");
            assert!(hit.report.ok(), "{what}: {}", hit.report);
        }
    }

    #[test]
    fn quick_campaign_loses_no_acked_writes() {
        let report = run_campaign(&ChaosConfig::with_seed(1), true, 1024);
        assert!(report.ok(), "{report}");
        assert!(!report.cases.is_empty());
    }
}
