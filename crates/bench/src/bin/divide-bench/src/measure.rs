//! What the benchmark reads off the process and how it summarises runs:
//! wall and CPU clocks, the resident-set high-water mark, FNV-64 output
//! digests, and the order statistics the reports use.

use std::io;
use std::time::Instant;

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_S: f64 = 100.0;

/// One timed phase: wall and CPU seconds plus the RSS high-water mark.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub ended: Instant,
}

/// Brackets a timed phase. Starting resets the kernel's RSS high-water
/// mark, so the peak read at the end belongs to this phase.
pub struct Clock {
    started: Instant,
    cpu_ticks: u64,
}

impl Clock {
    pub fn start() -> Self {
        reset_peak_rss();
        Self {
            cpu_ticks: cpu_ticks(),
            started: Instant::now(),
        }
    }

    pub fn stop(&self) -> Timing {
        let ended = Instant::now();
        Timing {
            wall_s: ended.duration_since(self.started).as_secs_f64(),
            cpu_s: cpu_ticks().saturating_sub(self.cpu_ticks) as f64 / TICKS_PER_S,
            peak_rss_mb: status_kb("VmHWM:") as f64 / 1024.0,
            ended,
        }
    }
}

/// Resets VmHWM to the current RSS (`clear_refs` value 5). Kernels that
/// refuse it leave the mark at the process peak, which only overstates.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User plus system ticks of the whole process (all threads).
fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// A `/proc/self/status` field in kB (0 when unreadable).
pub fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name is
/// parenthesised and may hold spaces, so fields are counted after the
/// last `)`: state is field 3, utime 14 and stime 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of `key` (e.g. `VmHWM:`) in a `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Failures over attempts; a run whose output check failed counts as
/// failing everything it attempted.
pub fn failed_frac(attempted: u64, failed: u64, correct: bool) -> f64 {
    if !correct {
        return 1.0;
    }
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First, second and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the spread checks use.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, from the usual ladder; `None` below 20 samples.
pub fn tail_percentile(n: u64) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// FNV-1a 64 over everything written, standing in for a file when only
/// byte identity matters.
#[derive(Debug, Clone, Copy)]
pub struct Fnv {
    pub hash: u64,
    pub len: u64,
}

impl Fnv {
    pub fn new() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
            len: 0,
        }
    }

    pub fn bytes(&mut self, buf: &[u8]) {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.len += buf.len() as u64;
    }

    pub fn of(text: &str) -> u64 {
        bbsim_net::fnv1a(text.as_bytes())
    }
}

impl io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command_name() {
        let stat = "4242 (divide bench (x)) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 96 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 96));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (a) R 1"), None);
    }

    #[test]
    fn status_parsing_reads_the_named_kb_field() {
        let status = "Name:\tdivide-bench\nVmPeak:\t  900000 kB\nVmHWM:\t  242816 kB\n\
                      VmRSS:\t  120000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(242_816));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(120_000));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_process_files_parse() {
        assert!(status_kb("VmRSS:") > 0);
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs mounted");
        assert!(parse_stat_cpu_ticks(&stat).is_some());
    }

    #[test]
    fn failed_frac_counts_a_failed_check_as_total_failure() {
        assert_eq!(failed_frac(1000, 0, true), 0.0);
        assert_eq!(failed_frac(1000, 25, true), 0.025);
        assert_eq!(failed_frac(1000, 0, false), 1.0);
        assert_eq!(failed_frac(0, 0, true), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn fnv_matches_the_workspace_hash() {
        let mut h = Fnv::new();
        h.bytes(b"decoding ");
        h.bytes(b"the divide");
        assert_eq!(h.hash, Fnv::of("decoding the divide"));
        assert_eq!(h.len, 19);
    }
}
