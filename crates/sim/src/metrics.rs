//! Global, thread-safe operation counters.
//!
//! One [`Counters`] instance is shared by all components of a site (disk,
//! lock manager, transaction manager). They complement the per-activity
//! [`crate::Account`]: accounts answer "what did *this* operation cost",
//! counters answer "what did the *system* do overall".

use std::sync::atomic::{AtomicU64, Ordering};

use locus_types::Service;

use crate::account::Account;
use crate::cost::CostModel;

/// States a site's event counters, once. Each name in the list becomes an
/// `AtomicU64` of [`Counters`], the method of the same name that adds one to
/// it, a `u64` field of [`CountersSnapshot`], and its line in
/// [`Counters::snapshot`] and [`CountersSnapshot::since`]; the doc comment
/// goes on both fields.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Monotonically increasing event counters for one site.
        #[derive(Debug, Default)]
        pub struct Counters {
            /// Per-phase latency spans with cost-axis decomposition (Figure 6).
            pub spans: SpanRegistry,
            /// Logical messages per service (batch members counted individually).
            service_msgs: [AtomicU64; 6],
            $($(#[$doc])* $name: AtomicU64,)*
        }

        impl Counters {
            $(
                #[doc = concat!("Increments `", stringify!($name), "` by one.")]
                pub fn $name(&self) {
                    self.$name.fetch_add(1, Ordering::Relaxed);
                }
            )*

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    service_msgs: std::array::from_fn(|i| {
                        self.service_msgs[i].load(Ordering::Relaxed)
                    }),
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        /// Plain-data snapshot of [`Counters`], supporting subtraction to
        /// measure a window of activity.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            pub service_msgs: [u64; 6],
            $($(#[$doc])* pub $name: u64,)*
        }

        impl CountersSnapshot {
            /// Counter deltas over a window: `self − earlier`.
            pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
                CountersSnapshot {
                    service_msgs: std::array::from_fn(|i| {
                        self.service_msgs[i] - earlier.service_msgs[i]
                    }),
                    $($name: self.$name - earlier.$name,)*
                }
            }
        }
    };
}

counters!(
    disk_reads,
    disk_writes,
    disk_seq_writes,
    messages_sent,
    messages_handled,
    /// Network messages that were batches (each also counts once in
    /// `messages_sent`); the batch members are counted per service in
    /// `service_msgs`.
    batches_sent,
    locks_granted,
    locks_denied,
    locks_queued,
    locks_released,
    lock_cache_hits,
    pages_committed_direct,
    pages_committed_diff,
    pages_rolled_back,
    txns_started,
    txns_committed,
    txns_aborted,
    migrations,
    file_list_merges,
    file_list_retries,
    buffer_hits,
    buffer_misses,
    /// Pages shipped ahead of demand: carried back by a shared lock's grant,
    /// or riding a remote read's reply past the pages the caller asked for
    /// (readahead).
    prefetches,
    /// Reads served entirely from the per-site coherent page cache (no
    /// storage-site RPC issued).
    page_cache_hits,
    /// Reads that went to the storage site because the page cache could not
    /// cover them (cache disabled, uncovered, or partially cached).
    page_cache_misses,
    /// Reads/writes that bypassed message construction and dispatch because
    /// the caller is the storage site.
    local_fast_paths,
);

impl Counters {
    /// Increments the logical-message counter for `service`.
    pub fn service_msg(&self, service: Service) {
        self.service_msgs[service.index()].fetch_add(1, Ordering::Relaxed);
    }
}

impl CountersSnapshot {
    /// Total physical disk operations.
    pub fn total_ios(&self) -> u64 {
        self.disk_reads + self.disk_writes + self.disk_seq_writes
    }

    /// Logical message count for one service.
    pub fn msgs_for(&self, service: Service) -> u64 {
        self.service_msgs[service.index()]
    }

    /// Per-service logical message counts, in `Service::ALL` order, for
    /// reporting tables.
    pub fn per_service(&self) -> [(Service, u64); 6] {
        std::array::from_fn(|i| (Service::ALL[i], self.service_msgs[i]))
    }
}

// ---------------------------------------------------------------------------
// Spans and histograms (latency decomposition)
// ---------------------------------------------------------------------------

/// Values below `1 << LINEAR_BITS` nanoseconds get one bucket each.
const LINEAR_BITS: u32 = 4;
/// Sub-buckets per power-of-two octave above the linear region.
const SUB_BUCKETS: u32 = 16;
/// Highest octave before clamping (2^42 ns ≈ 73 min — far beyond any span).
const MAX_OCTAVE: u32 = 42;
/// Total bucket count of every [`Histogram`].
pub const HIST_BUCKETS: usize =
    ((1 << LINEAR_BITS) + (MAX_OCTAVE - LINEAR_BITS + 1) * SUB_BUCKETS) as usize;

/// Maps a nanosecond value to its fixed bucket index.
///
/// Log-linear: exact below 16 ns, then 16 sub-buckets per octave (≤ 6.25%
/// relative bucket width). The mapping is a pure function of the value, so
/// two histograms recording the same multiset of values are byte-identical
/// regardless of recording or merge order.
fn bucket_of(v: u64) -> usize {
    if v < (1 << LINEAR_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > MAX_OCTAVE {
        return HIST_BUCKETS - 1;
    }
    let sub = ((v >> (msb - LINEAR_BITS)) - (1 << LINEAR_BITS)) as u32;
    ((1 << LINEAR_BITS) + (msb - LINEAR_BITS) * SUB_BUCKETS + sub) as usize
}

/// Lowest value that maps into bucket `idx` (the reported representative —
/// deterministic, never interpolated).
fn bucket_floor(idx: usize) -> u64 {
    if idx < (1 << LINEAR_BITS) {
        return idx as u64;
    }
    let oct = (idx as u32 - (1 << LINEAR_BITS)) / SUB_BUCKETS + LINEAR_BITS;
    let sub = (idx as u32 - (1 << LINEAR_BITS)) % SUB_BUCKETS;
    (1u64 << oct) + ((sub as u64) << (oct - LINEAR_BITS))
}

/// Fixed-bucket log-linear latency histogram (values in nanoseconds).
///
/// All mutation is relaxed atomic adds, so concurrent recorders never
/// contend on a lock and the final contents depend only on the multiset of
/// recorded values — merge is associative and commutative by construction.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum_ns", &s.sum)
            .finish()
    }
}

impl Histogram {
    /// Records one value (nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], supporting merge and quantiles.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Occupancy per fixed bucket (length [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values, for means.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum_ns", &self.sum)
            .finish()
    }
}

impl HistogramSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Element-wise merge of another snapshot into this one. Associative and
    /// commutative: any merge tree over the same set of per-thread snapshots
    /// yields byte-identical contents. The value sum saturates (saturation
    /// is itself associative/commutative over non-negative addends).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (e.g. 0.5, 0.99) as the floor of the bucket holding
    /// the rank-`⌈q·n⌉` value. Deterministic: no interpolation.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }

    /// Canonical little-endian byte encoding (sum, then every bucket), for
    /// byte-determinism assertions.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (1 + self.buckets.len()));
        out.extend_from_slice(&self.sum.to_le_bytes());
        for b in &self.buckets {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }
}

/// The commit-path phases a span can cover.
///
/// The first six follow a transaction through `begin_trans` →
/// prepare fan-out → group-commit flush → commit point → async phase two →
/// participant install; the rest cover the locking and transport layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// `begin_trans`: process-family checks + coordinator setup.
    Begin,
    /// One participant site's prepare (diff/shadow write + vote).
    Prepare,
    /// Group-commit journal flush barrier (includes wait for the leader).
    Flush,
    /// Asynchronous phase-two pump: commit/abort fan-out + coord-log GC.
    PhaseTwo,
    /// Participant install of prepared intentions into stable pages.
    Install,
    /// Whole `end_trans` commit: prepare fan-out through commit record.
    Commit,
    /// Client-visible lock acquisition (`Kernel::lock`), network included.
    LockAcquire,
    /// Lock-site transfer: a queued waiter's grant.
    LockTransfer,
    /// Remote RPC exchange as seen by the sender (RTT + remote service).
    RpcSend,
    /// Remote handler dispatch as seen by the serving site.
    RpcRecv,
}

impl SpanPhase {
    /// Every phase, in reporting order.
    pub const ALL: [SpanPhase; 10] = [
        SpanPhase::Begin,
        SpanPhase::Prepare,
        SpanPhase::Flush,
        SpanPhase::PhaseTwo,
        SpanPhase::Install,
        SpanPhase::Commit,
        SpanPhase::LockAcquire,
        SpanPhase::LockTransfer,
        SpanPhase::RpcSend,
        SpanPhase::RpcRecv,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for array-backed registries.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSON reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Begin => "begin",
            SpanPhase::Prepare => "prepare",
            SpanPhase::Flush => "flush",
            SpanPhase::PhaseTwo => "phase_two",
            SpanPhase::Install => "install",
            SpanPhase::Commit => "commit",
            SpanPhase::LockAcquire => "lock_acquire",
            SpanPhase::LockTransfer => "lock_transfer",
            SpanPhase::RpcSend => "rpc_send",
            SpanPhase::RpcRecv => "rpc_recv",
        }
    }
}

/// Accumulated spans for one phase: the paper's cost axes plus a latency
/// histogram. All fields are relaxed atomics — order-independent.
#[derive(Debug, Default)]
pub struct PhaseSpans {
    count: AtomicU64,
    instr_ns: AtomicU64,
    disk_ns: AtomicU64,
    net_ns: AtomicU64,
    lock_wait_ns: AtomicU64,
    overlapped_ns: AtomicU64,
    total_ns: AtomicU64,
    latency: Histogram,
}

impl PhaseSpans {
    fn record(&self, axes: &PhaseSpanSnapshot) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.instr_ns.fetch_add(axes.instr_ns, Ordering::Relaxed);
        self.disk_ns.fetch_add(axes.disk_ns, Ordering::Relaxed);
        self.net_ns.fetch_add(axes.net_ns, Ordering::Relaxed);
        self.lock_wait_ns
            .fetch_add(axes.lock_wait_ns, Ordering::Relaxed);
        self.overlapped_ns
            .fetch_add(axes.overlapped_ns, Ordering::Relaxed);
        self.total_ns.fetch_add(axes.total_ns, Ordering::Relaxed);
        self.latency.record(axes.total_ns);
    }

    fn snapshot(&self) -> PhaseSpanSnapshot {
        PhaseSpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            instr_ns: self.instr_ns.load(Ordering::Relaxed),
            disk_ns: self.disk_ns.load(Ordering::Relaxed),
            net_ns: self.net_ns.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            overlapped_ns: self.overlapped_ns.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// Plain-data copy of one phase's accumulated spans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseSpanSnapshot {
    /// Spans recorded.
    pub count: u64,
    /// CPU instruction time (the paper's "service time" axis).
    pub instr_ns: u64,
    /// Disk rotation/transfer wait.
    pub disk_ns: u64,
    /// Network flight time (RTT + page transfer + injected delay).
    pub net_ns: u64,
    /// Time parked waiting for a lock (wall-clock spans only).
    pub lock_wait_ns: u64,
    /// Axis time that ran on overlapping branches and is therefore not in
    /// `total_ns` (virtual spans only): `instr_ns + disk_ns + net_ns -
    /// overlapped_ns == total_ns`.
    pub overlapped_ns: u64,
    /// End-to-end span latency.
    pub total_ns: u64,
    /// Distribution of `total_ns` across spans.
    pub latency: HistogramSnapshot,
}

impl PhaseSpanSnapshot {
    /// Element-wise merge (associative, commutative).
    pub fn merge(&mut self, other: &PhaseSpanSnapshot) {
        self.count += other.count;
        self.instr_ns += other.instr_ns;
        self.disk_ns += other.disk_ns;
        self.net_ns += other.net_ns;
        self.lock_wait_ns += other.lock_wait_ns;
        self.overlapped_ns += other.overlapped_ns;
        self.total_ns += other.total_ns;
        self.latency.merge(&other.latency);
    }
}

/// Per-site span registry: one bank of [`PhaseSpans`] per clock domain.
///
/// Virtual-clock spans come from deterministic drivers (latency is
/// [`Account::elapsed`] deltas); wall-clock spans come from the threaded
/// driver (latency is `Instant` deltas). The banks are never mixed — a
/// virtual 26 ms disk wait and a wall-clock 26 ms stall are different
/// phenomena, and summing them would corrupt both decompositions.
#[derive(Debug)]
pub struct SpanRegistry {
    virt: [PhaseSpans; SpanPhase::COUNT],
    wall: [PhaseSpans; SpanPhase::COUNT],
}

impl Default for SpanRegistry {
    fn default() -> Self {
        SpanRegistry {
            virt: std::array::from_fn(|_| PhaseSpans::default()),
            wall: std::array::from_fn(|_| PhaseSpans::default()),
        }
    }
}

impl SpanRegistry {
    /// Records a virtual-clock span from an [`Account`] delta.
    ///
    /// Axis decomposition: instruction time is the delta's CPU total; disk
    /// wait is reconstructed exactly from I/O counts × model latencies (the
    /// disk charges precisely those); network time is the rest of the time
    /// the work took (RTT, page transfer, injected delays — all of which are
    /// `wait`s the account cannot otherwise classify). `lock_wait` is zero
    /// here: deterministic drivers suspend a blocked process instead of
    /// waiting. Under a wave the axes sum over branches while elapsed is the
    /// slowest branch: the difference is the account's `overlapped`, which
    /// the row carries, so `instr + disk + net - overlapped == total` holds
    /// with and without overlap.
    pub fn record_virt(&self, phase: SpanPhase, model: &CostModel, delta: &Account) {
        let total = delta.elapsed.as_nanos();
        let overlapped = delta.overlapped.as_nanos();
        let instr = delta.cpu_total().as_nanos();
        let disk = (delta.disk_reads + delta.disk_writes) * model.disk_io.as_nanos()
            + delta.seq_ios * model.disk_seq_io.as_nanos();
        let net = (total + overlapped).saturating_sub(instr + disk);
        self.virt[phase.index()].record(&PhaseSpanSnapshot {
            count: 1,
            instr_ns: instr,
            disk_ns: disk,
            net_ns: net,
            lock_wait_ns: 0,
            overlapped_ns: overlapped,
            total_ns: total,
            latency: HistogramSnapshot::default(),
        });
    }

    /// Records a wall-clock span from the threaded driver. Only the total
    /// and the time parked waiting on a lock are observable; the model axes
    /// stay zero.
    pub fn record_wall(&self, phase: SpanPhase, total_ns: u64, lock_wait_ns: u64) {
        self.wall[phase.index()].record(&PhaseSpanSnapshot {
            count: 1,
            lock_wait_ns,
            total_ns,
            ..PhaseSpanSnapshot::default()
        });
    }

    /// Point-in-time copy of both banks.
    pub fn snapshot(&self) -> SpanRegistrySnapshot {
        SpanRegistrySnapshot {
            virt: self.virt.iter().map(|p| p.snapshot()).collect(),
            wall: self.wall.iter().map(|p| p.snapshot()).collect(),
        }
    }
}

/// Plain-data copy of a [`SpanRegistry`]; `virt`/`wall` are indexed by
/// [`SpanPhase::index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRegistrySnapshot {
    /// Virtual-clock bank (deterministic drivers).
    pub virt: Vec<PhaseSpanSnapshot>,
    /// Wall-clock bank (threaded driver).
    pub wall: Vec<PhaseSpanSnapshot>,
}

impl Default for SpanRegistrySnapshot {
    fn default() -> Self {
        SpanRegistrySnapshot {
            virt: vec![PhaseSpanSnapshot::default(); SpanPhase::COUNT],
            wall: vec![PhaseSpanSnapshot::default(); SpanPhase::COUNT],
        }
    }
}

impl SpanRegistrySnapshot {
    /// Phase-wise merge of another snapshot into this one.
    pub fn merge(&mut self, other: &SpanRegistrySnapshot) {
        for (a, b) in self.virt.iter_mut().zip(&other.virt) {
            a.merge(b);
        }
        for (a, b) in self.wall.iter_mut().zip(&other.wall) {
            a.merge(b);
        }
    }

    /// Virtual-bank totals for one phase.
    pub fn virt_phase(&self, phase: SpanPhase) -> &PhaseSpanSnapshot {
        &self.virt[phase.index()]
    }

    /// Wall-bank totals for one phase.
    pub fn wall_phase(&self, phase: SpanPhase) -> &PhaseSpanSnapshot {
        &self.wall[phase.index()]
    }
}

/// Open virtual-clock span: clones the account at `begin`, records the
/// delta at `finish`. Cheap (an `Account` is a handful of words) and safe
/// to drop without recording.
#[derive(Debug)]
pub struct VirtSpan {
    phase: SpanPhase,
    start: Account,
}

impl VirtSpan {
    /// Opens a span over `acct`'s subsequent activity.
    pub fn begin(phase: SpanPhase, acct: &Account) -> Self {
        VirtSpan {
            phase,
            start: acct.clone(),
        }
    }

    /// Closes the span, recording `acct − start` into `reg`.
    pub fn finish(self, reg: &SpanRegistry, model: &CostModel, acct: &Account) {
        let delta = acct.delta_since(&self.start);
        reg.record_virt(self.phase, model, &delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let c = Counters::default();
        c.disk_writes();
        c.disk_writes();
        c.locks_granted();
        let s = c.snapshot();
        assert_eq!(s.disk_writes, 2);
        assert_eq!(s.locks_granted, 1);
        assert_eq!(s.total_ios(), 2);
    }

    #[test]
    fn since_computes_window() {
        let c = Counters::default();
        c.disk_reads();
        let before = c.snapshot();
        c.disk_reads();
        c.txns_committed();
        let after = c.snapshot();
        let d = after.since(&before);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(d.txns_committed, 1);
    }

    #[test]
    fn per_service_counts() {
        let c = Counters::default();
        c.service_msg(Service::Txn);
        c.service_msg(Service::Txn);
        c.service_msg(Service::Lock);
        c.batches_sent();
        let s = c.snapshot();
        assert_eq!(s.msgs_for(Service::Txn), 2);
        assert_eq!(s.msgs_for(Service::Lock), 1);
        assert_eq!(s.msgs_for(Service::File), 0);
        assert_eq!(s.batches_sent, 1);
        assert_eq!(s.per_service()[Service::Txn.index()], (Service::Txn, 2));
    }

    #[test]
    fn bucket_mapping_is_monotone_and_inverts() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            1 << 20,
            (1 << 42) + 5,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            assert!(b < HIST_BUCKETS);
            // The bucket floor maps back into the same bucket and is <= v
            // (except in the clamp region, where floor is the last bucket's).
            assert!(bucket_floor(b) <= v || v >= (1 << (MAX_OCTAVE + 1)));
            assert_eq!(bucket_of(bucket_floor(b)), b);
            prev = b;
        }
        // Every bucket index round-trips through its floor.
        for idx in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_floor(idx)), idx);
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.quantile_ns(0.50);
        let p99 = s.quantile_ns(0.99);
        // Bucket-floor quantiles: within one bucket width (6.25%) below.
        assert!((46_000..=50_000).contains(&p50), "p50 = {p50}");
        assert!((92_000..=99_000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert_eq!(s.mean_ns(), 50_500);
    }

    #[test]
    fn histogram_merge_matches_single_recorder() {
        let a = Histogram::default();
        let b = Histogram::default();
        let all = Histogram::default();
        for v in 0..1000u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.to_bytes(), all.snapshot().to_bytes());
    }

    #[test]
    fn virt_span_decomposes_axes() {
        use locus_types::SiteId;
        let model = CostModel::paper_1985();
        let reg = SpanRegistry::default();
        let mut acct = Account::new(SiteId(1));
        let span = VirtSpan::begin(SpanPhase::Commit, &acct);
        acct.cpu_instrs(&model, 1000);
        acct.wait(model.disk_io);
        acct.disk_writes += 1;
        acct.wait(model.net_rtt);
        acct.messages += 1;
        span.finish(&reg, &model, &acct);

        let s = reg.snapshot();
        let c = s.virt_phase(SpanPhase::Commit);
        assert_eq!(c.count, 1);
        assert_eq!(c.instr_ns, model.instrs(1000).as_nanos());
        assert_eq!(c.disk_ns, model.disk_io.as_nanos());
        assert_eq!(c.net_ns, model.net_rtt.as_nanos());
        assert_eq!(c.lock_wait_ns, 0);
        assert_eq!(c.total_ns, c.instr_ns + c.disk_ns + c.net_ns);
        assert_eq!(c.latency.count(), 1);
        // Other phases and the wall bank untouched.
        assert_eq!(s.virt_phase(SpanPhase::Prepare).count, 0);
        assert_eq!(s.wall_phase(SpanPhase::Commit).count, 0);
    }

    #[test]
    fn virt_span_over_a_wave_still_adds_up() {
        use locus_types::SiteId;
        let model = CostModel::paper_1985();
        let reg = SpanRegistry::default();
        let mut acct = Account::new(SiteId(0));
        let span = VirtSpan::begin(SpanPhase::Commit, &acct);
        acct.cpu_instrs(&model, 1000);
        // Two sites work at once, one of them with an extra disk write.
        let branches: Vec<Account> = (0..2)
            .map(|extra| {
                let mut b = Account::new(SiteId(0));
                b.cpu_instrs(&model, 500);
                b.wait(model.net_rtt);
                b.messages += 1;
                b.wait(model.disk_io * (1 + extra));
                b.disk_writes += 1 + extra;
                b
            })
            .collect();
        acct.absorb_parallel(&branches);
        span.finish(&reg, &model, &acct);

        let s = reg.snapshot();
        let c = s.virt_phase(SpanPhase::Commit);
        // Every axis counts both branches; the total only the slower one.
        assert_eq!(c.instr_ns, model.instrs(2000).as_nanos());
        assert_eq!(c.disk_ns, 3 * model.disk_io.as_nanos());
        assert_eq!(c.net_ns, 2 * model.net_rtt.as_nanos());
        assert_eq!(c.overlapped_ns, branches[0].elapsed.as_nanos());
        assert_eq!(
            c.total_ns,
            (model.instrs(1000) + branches[1].elapsed).as_nanos()
        );
        assert_eq!(
            c.instr_ns + c.disk_ns + c.net_ns - c.overlapped_ns,
            c.total_ns
        );
    }

    #[test]
    fn wall_span_records_total_and_lock_wait_only() {
        let reg = SpanRegistry::default();
        reg.record_wall(SpanPhase::LockAcquire, 5_000, 3_000);
        let s = reg.snapshot();
        let l = s.wall_phase(SpanPhase::LockAcquire);
        assert_eq!(l.count, 1);
        assert_eq!(l.total_ns, 5_000);
        assert_eq!(l.lock_wait_ns, 3_000);
        assert_eq!(l.instr_ns, 0);
        assert_eq!(l.disk_ns, 0);
    }

    #[test]
    fn registry_snapshot_merge_is_phasewise() {
        let r1 = SpanRegistry::default();
        let r2 = SpanRegistry::default();
        r1.record_wall(SpanPhase::Commit, 100, 0);
        r2.record_wall(SpanPhase::Commit, 200, 50);
        r2.record_wall(SpanPhase::Flush, 10, 0);
        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.wall_phase(SpanPhase::Commit).count, 2);
        assert_eq!(m.wall_phase(SpanPhase::Commit).total_ns, 300);
        assert_eq!(m.wall_phase(SpanPhase::Commit).lock_wait_ns, 50);
        assert_eq!(m.wall_phase(SpanPhase::Flush).count, 1);
    }

    #[test]
    fn phase_names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in SpanPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(seen.insert(p.name()));
        }
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = std::sync::Arc::new(Counters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.messages_sent();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().messages_sent, 4000);
    }
}
