//! The statistics every reported number goes through: nearest-rank
//! percentiles, median and quartiles over rounds, and the `/proc` readers
//! for processor time and peak memory.

/// The `p`-quantile of an ascending slice by nearest rank (the value at rank
/// `ceil(p * n)`); 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency sample is read at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// ten samples beyond it among `n` samples; `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(0, n)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so the
/// spread printed here is the one the acceptance rule computes. A single
/// value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Median of `values` (the middle quartile above).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Distance between the quartiles as a share of the median; 0 when the
/// median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Clock ticks per second of `/proc/self/stat` times. Linux has fixed
/// `USER_HZ` at 100 on every architecture this repository builds for; there
/// is no libc here to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// User and system processor time of a process, in seconds, from the text of
/// its `/proc/<pid>/stat`. The command name (field 2) may itself hold spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name come state (field 3) ... utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

/// This process's (user, system) processor seconds so far.
pub fn process_cpu() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or((0.0, 0.0))
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn process_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_peak_rss_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(5_000_000), Some(0.9999));
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(1_001, 0.99), 10);
        assert_eq!(samples_beyond(32_000, 0.99), 320);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (locus) bench) x) R 1 4242 4242 0 -1 4194304 731 0 0 0 \
                    1234 567 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((12.34, 5.67)));
        assert_eq!(parse_stat_cpu("no paren here"), None);
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
    }
}
