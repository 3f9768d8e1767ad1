//! The benchmark's own spans: one around every call it makes into the
//! system, kept in memory and written out when the run ends. Spans inside
//! the program are a later change; these are recorded from outside, at the
//! system-call boundary a process sees.

use std::time::Instant;

use crate::json::Json;

/// What a span covers. `Op` is one client request; the rest are the calls an
/// op makes, and `Park` is the part of a call spent parked on the kernel's
/// wakeup slot waiting for a lock grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    Op,
    BeginTrans,
    Seek,
    Lock,
    Read,
    Write,
    Unlock,
    EndTrans,
    RunAsyncWork,
    Park,
}

impl SpanKind {
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Op,
        SpanKind::BeginTrans,
        SpanKind::Seek,
        SpanKind::Lock,
        SpanKind::Read,
        SpanKind::Write,
        SpanKind::Unlock,
        SpanKind::EndTrans,
        SpanKind::RunAsyncWork,
        SpanKind::Park,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::BeginTrans => "begin_trans",
            SpanKind::Seek => "seek",
            SpanKind::Lock => "lock",
            SpanKind::Read => "read",
            SpanKind::Write => "write",
            SpanKind::Unlock => "unlock",
            SpanKind::EndTrans => "end_trans",
            SpanKind::RunAsyncWork => "run_async_work",
            SpanKind::Park => "park",
        }
    }
}

/// One recorded interval. `parent` indexes the span that caused this one
/// (`None` for an op); every span of one request carries that request's
/// `op` identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// In-memory span recorder for one client thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so recording does not
    /// reallocate inside the timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(4),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts request `op`: opens its `Op` span, and stamps every span
    /// opened until the next call with `op`.
    pub fn begin_op(&mut self, op: u32) -> SpanId {
        self.op = op;
        self.begin(SpanKind::Op)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, kind: SpanKind) -> SpanId {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            kind,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Everything recorded, in the order the spans were opened.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals over a trace, per span kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Requests traced.
    pub ops: u64,
    /// Summed duration per kind, indexed like [`SpanKind::ALL`].
    pub total_ns: [u64; SpanKind::ALL.len()],
    /// Summed self time per kind: duration minus what child spans cover.
    pub self_ns: [u64; SpanKind::ALL.len()],
}

impl TraceSummary {
    pub fn total(&self, kind: SpanKind) -> u64 {
        self.total_ns[kind as usize]
    }

    pub fn self_time(&self, kind: SpanKind) -> u64 {
        self.self_ns[kind as usize]
    }

    /// Mean duration of `kind` per request, in microseconds.
    pub fn us_per_op(&self, kind: SpanKind) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total(kind) as f64 / self.ops as f64 / 1_000.0
        }
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Children of one parent run one after another on
/// the recording thread, so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let mut out = TraceSummary::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        out.total_ns[s.kind as usize] += s.duration_ns();
        out.self_ns[s.kind as usize] += own;
        if s.kind == SpanKind::Op {
            out.ops += 1;
        }
    }
    out
}

/// The trace file: the summary over every span, and the raw spans of the
/// first `max_ops` requests (a whole read-heavy trace runs to millions of
/// spans; the head shows the shape and the summary carries the totals).
pub fn to_json(workload: &str, seed: u64, spans: &[Span], max_ops: u32) -> Json {
    let sum = summarize(spans);
    let per_kind = SpanKind::ALL.iter().map(|k| {
        (
            k.name(),
            Json::obj([
                ("total_ns", Json::Num(sum.total(*k) as f64)),
                ("self_ns", Json::Num(sum.self_time(*k) as f64)),
            ]),
        )
    });
    let raw = spans
        .iter()
        .enumerate()
        .take_while(|(_, s)| s.op < max_ops)
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.kind.name())),
                ("op", Json::Num(f64::from(s.op))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(sum.ops as f64)),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans_written_for_first_ops", Json::Num(f64::from(max_ops))),
        ("summary", Json::obj(per_kind)),
        ("spans", Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(SpanKind::Op, None, 0, 100),
            span(SpanKind::Lock, Some(0), 10, 50),
            span(SpanKind::Park, Some(1), 20, 45),
            span(SpanKind::Write, Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 25, 30]);
        let sum = summarize(&spans);
        assert_eq!(sum.ops, 1);
        assert_eq!(sum.total(SpanKind::Op), 100);
        assert_eq!(sum.self_time(SpanKind::Op), 30);
        assert_eq!(sum.self_time(SpanKind::Lock), 15);
        assert_eq!(sum.total(SpanKind::Park), 25);
        // The op's direct children plus its own self time are the op.
        let children = sum.total(SpanKind::Lock) + sum.total(SpanKind::Write);
        assert_eq!(
            children + sum.self_time(SpanKind::Op),
            sum.total(SpanKind::Op)
        );
    }

    #[test]
    fn tracer_nests_and_stamps_the_op() {
        let mut t = Tracer::with_capacity(8);
        let op = t.begin_op(7);
        let lock = t.begin(SpanKind::Lock);
        let park = t.begin(SpanKind::Park);
        t.end(park);
        t.end(lock);
        t.end(op);
        let s = t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.op == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn trace_file_caps_raw_spans_but_not_the_summary() {
        let mut spans = Vec::new();
        for op in 0..4u32 {
            spans.push(Span {
                kind: SpanKind::Op,
                op,
                parent: None,
                start_ns: u64::from(op) * 10,
                end_ns: u64::from(op) * 10 + 5,
            });
        }
        let j = to_json("w", 1, &spans, 2);
        assert_eq!(j.get("ops").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
