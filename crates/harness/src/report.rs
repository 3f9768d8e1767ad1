//! The Figure-6-style latency decomposition table: one row per (clock bank,
//! span phase) with the span count, bucket-floor p50/p99, and the paper's
//! cost axes (instructions, disk wait, network) plus lock wait. A virtual
//! row adds up: instr + disk + net - overlapped = total, where `overlapped`
//! is the axis time that ran on several sites at once.

use locus_sim::{SpanPhase, SpanRegistrySnapshot};

use crate::table::Table;

/// Renders the Figure-6-style per-phase decomposition table: where each
/// phase's time went, split into the paper's cost axes.
pub fn decomposition_table(title: &str, snap: &SpanRegistrySnapshot) -> String {
    let mut t = Table::new(title).header([
        "clock",
        "phase",
        "count",
        "p50 µs",
        "p99 µs",
        "instr ms",
        "disk ms",
        "net ms",
        "lock-wait ms",
        "overlapped ms",
        "total ms",
    ]);
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for (clock, bank) in [("virtual", &snap.virt), ("wall", &snap.wall)] {
        for phase in SpanPhase::ALL {
            let p = &bank[phase.index()];
            if p.count == 0 {
                continue;
            }
            t.row([
                clock.to_string(),
                phase.name().to_string(),
                p.count.to_string(),
                format!("{:.2}", p.latency.quantile_ns(0.50) as f64 / 1e3),
                format!("{:.2}", p.latency.quantile_ns(0.99) as f64 / 1e3),
                ms(p.instr_ns),
                ms(p.disk_ns),
                ms(p.net_ns),
                ms(p.lock_wait_ns),
                ms(p.overlapped_ns),
                ms(p.total_ns),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_sim::SpanRegistry;

    fn sample_snapshot() -> SpanRegistrySnapshot {
        let reg = SpanRegistry::default();
        reg.record_wall(SpanPhase::Commit, 2_000_000, 500_000);
        reg.record_wall(SpanPhase::Commit, 4_000_000, 0);
        reg.record_wall(SpanPhase::LockAcquire, 800, 0);
        reg.snapshot()
    }

    #[test]
    fn table_lists_nonempty_rows() {
        let s = decomposition_table("Decomposition", &sample_snapshot());
        assert!(s.contains("commit"));
        assert!(s.contains("lock_acquire"));
        assert!(s.contains("total ms"));
        assert!(s.contains("0.500"), "the commit row carries its lock wait");
        assert!(!s.contains("rpc_send"));
        assert!(!s.contains("virtual"));
    }
}
