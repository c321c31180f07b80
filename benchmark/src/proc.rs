//! Process-level counters read from `/proc/self` (Linux only; every
//! reader returns 0 where the file is missing, so the harness still runs
//! elsewhere and the proc.* metrics read 0 there).

use std::fs;

use crate::report::Samples;
use crate::stats::median;

/// Kernel clock ticks per second for `/proc/self/stat` times. 100 on
/// every Linux this repository builds on (`getconf CLK_TCK`); there is no
/// libc binding here to ask `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (tick() + tick()) / CLK_TCK
}

/// Voluntary context switches summed over the live threads.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| status_field(&status, "voluntary_ctxt_switches:"))
        .sum()
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| status_field(&status, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// What every workload notes per segment for the traced pass: how fast
/// the segment went (any rate: predictions per second), whether it
/// recorded spans, and what the process did meanwhile.
#[derive(Debug, Default)]
pub struct Diagnostics {
    speeds: Vec<(f64, bool)>,
    cores_busy: Vec<f64>,
    ctx_per_pred: Vec<f64>,
}

impl Diagnostics {
    pub fn segment(&mut self, speed: f64, traced: bool, cores_busy: f64, ctx_per_pred: f64) {
        self.speeds.push((speed, traced));
        self.cores_busy.push(cores_busy);
        self.ctx_per_pred.push(ctx_per_pred);
    }

    /// The speeds of the segments that did (or did not) record spans.
    fn speeds(&self, traced: bool) -> Vec<f64> {
        self.speeds
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(speed, _)| *speed)
            .collect()
    }

    /// `trace.overhead_ratio` (untraced over traced median speed; 1 when
    /// one kind is missing) and the proc.* metrics.
    pub fn layers(&self, samples: &mut Samples) {
        let (traced, untraced) = (self.speeds(true), self.speeds(false));
        let overhead = if traced.is_empty() || untraced.is_empty() {
            1.0
        } else {
            median(&untraced) / median(&traced)
        };
        let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        samples.layer("trace.overhead_ratio", overhead);
        samples.layer("proc.cores_busy", or_zero(&self.cores_busy));
        samples.layer("proc.vol_ctx_per_pred", or_zero(&self.ctx_per_pred));
        samples.layer("proc.peak_rss_mb", peak_rss_mb());
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_field_parses_value_and_ignores_unit() {
        let status = "Name:\tx\nVmHWM:\t    1732 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(1732));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(status_field(status, "missing:"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() >= 0.0);
    }

    #[test]
    fn overhead_is_untraced_over_traced_speed() {
        let mut diagnostics = Diagnostics::default();
        let mut samples = Samples::default();
        diagnostics.layers(&mut samples);
        assert_eq!(samples.per_layer["trace.overhead_ratio"], 1.0);
        assert_eq!(samples.per_layer["proc.cores_busy"], 0.0);
        for (speed, traced) in [(100.0, false), (80.0, true), (120.0, false), (90.0, true)] {
            diagnostics.segment(speed, traced, 1.5, 0.25);
        }
        diagnostics.layers(&mut samples);
        assert_eq!(samples.per_layer["trace.overhead_ratio"], 110.0 / 85.0);
        assert_eq!(samples.per_layer["proc.cores_busy"], 1.5);
        assert_eq!(samples.per_layer["proc.vol_ctx_per_pred"], 0.25);
        assert_eq!(diagnostics.speeds(true), [80.0, 90.0]);
    }
}
