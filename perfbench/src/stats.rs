//! Sample bookkeeping shared by every workload: percentiles, the mode
//! guard, the input generator, peak RSS and the result line.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// produces do not depend on the program's random streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE0C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    sorted_percentile(&v, p)
}

fn rank_index(len: usize, p: f64) -> usize {
    ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len) - 1
}

fn sorted_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank_index(sorted.len(), p)]
}

/// Nearest-rank percentile of integer samples.
pub fn percentile_u64(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    v[rank_index(v.len(), p)]
}

/// Timed samples tagged with a deterministic *kind*: a label the
/// seeded schedule assigns before anything is timed (which slot a fleet
/// round refreshes, which class a query belongs to). Kinds are what
/// make mode boundaries a property of the schedule rather than of the
/// noise.
#[derive(Default)]
pub struct Tagged {
    pub samples: Vec<(f64, &'static str)>,
}

/// A group of kinds whose medians lie within [`MODE_RATIO`] of each
/// other: one mode of the distribution.
pub struct Mode {
    pub kinds: Vec<&'static str>,
    pub share: f64,
    pub median: f64,
}

/// Adjacent kinds (sorted by median) whose medians differ by at least
/// this factor belong to different modes.
pub const MODE_RATIO: f64 = 1.5;
/// A named percentile must sit at least this many rank points away
/// from every mode boundary.
pub const GUARD_POINTS: f64 = 5.0;
/// ... and have at least this many samples above it.
pub const TAIL_SAMPLES: usize = 10;

impl Tagged {
    pub fn push(&mut self, value: f64, kind: &'static str) {
        self.samples.push((value, kind));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(v, _)| v).collect()
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values(), p)
    }

    /// Groups kinds into modes: kinds sorted by their median, a new mode
    /// starting wherever the next kind's median is at least
    /// [`MODE_RATIO`] times the current mode's last median.
    pub fn modes(&self) -> Vec<Mode> {
        let mut kinds: Vec<(&'static str, f64, usize)> = Vec::new();
        let mut names: Vec<&'static str> = self.samples.iter().map(|&(_, k)| k).collect();
        names.sort_unstable();
        names.dedup();
        for k in names {
            let v: Vec<f64> = self
                .samples
                .iter()
                .filter(|&&(_, kk)| kk == k)
                .map(|&(v, _)| v)
                .collect();
            kinds.push((k, percentile(&v, 50.0), v.len()));
        }
        kinds.sort_by(|a, b| a.1.total_cmp(&b.1));
        let total = self.samples.len().max(1) as f64;
        let mut modes: Vec<Mode> = Vec::new();
        let mut last_median = f64::NAN;
        for (k, med, n) in kinds {
            let split = modes.is_empty() || med >= last_median * MODE_RATIO;
            if split {
                modes.push(Mode {
                    kinds: Vec::new(),
                    share: 0.0,
                    median: med,
                });
            }
            let m = modes.last_mut().expect("a mode was just pushed");
            m.kinds.push(k);
            m.share += n as f64 / total;
            last_median = med;
        }
        modes
    }

    /// Rank points (0..100) at which one mode ends and the next begins.
    pub fn boundaries(&self) -> Vec<f64> {
        let modes = self.modes();
        let mut acc = 0.0;
        let mut out = Vec::new();
        for m in &modes[..modes.len().saturating_sub(1)] {
            acc += m.share * 100.0;
            out.push(acc);
        }
        out
    }

    /// Checks a named percentile against the mode guard; `Err` names the
    /// violation.
    pub fn guard(&self, name: &str, p: f64) -> Result<(), String> {
        let beyond = self.len() - rank_index(self.len().max(1), p) - 1;
        if beyond < TAIL_SAMPLES {
            return Err(format!(
                "{name}: p{p} has {beyond} samples above it (< {TAIL_SAMPLES})"
            ));
        }
        for b in self.boundaries() {
            if (b - p).abs() < GUARD_POINTS {
                return Err(format!(
                    "{name}: p{p} lies {:.1} rank points from a mode boundary at p{b:.1}",
                    (b - p).abs()
                ));
            }
        }
        Ok(())
    }

    /// One line per mode: its kinds, share and median, plus a log2
    /// histogram of the whole sample (in microseconds).
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let mut s = format!("  {name}: {} samples", self.len());
        for m in self.modes() {
            let _ = write!(
                s,
                "\n    mode {:>5.1}% median {:>10.4} {unit} kinds {:?}",
                m.share * 100.0,
                m.median,
                m.kinds
            );
        }
        let mut hist: Vec<(u32, usize)> = Vec::new();
        for &(v, _) in &self.samples {
            let us = (v * unit_to_us(unit)).max(0.0) as u64;
            let b = 64 - us.leading_zeros();
            match hist.iter_mut().find(|(bb, _)| *bb == b) {
                Some(e) => e.1 += 1,
                None => hist.push((b, 1)),
            }
        }
        hist.sort_unstable();
        let _ = write!(s, "\n    deciles:");
        for p in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0] {
            let _ = write!(s, " {:.4}", self.percentile(p));
        }
        let _ = write!(s, "\n    histogram (us, log2 buckets):");
        for (b, c) in hist {
            let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
            let _ = write!(s, " [{lo}+]={c}");
        }
        s
    }
}

fn unit_to_us(unit: &str) -> f64 {
    match unit {
        "ms" => 1e3,
        "s" => 1e6,
        _ => 1.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Minor page faults of this process so far (`/proc/self/stat`).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            s.rsplit(')')
                .next()?
                .split_whitespace()
                .nth(7)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Deterministic for a given seed and `--seconds`: must repeat
    /// byte-for-byte across runs.
    pub exact: bool,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Mode-guard violations; any makes the run invalid.
    pub guard_violations: Vec<String>,
}

impl Report {
    pub fn timed(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            exact: false,
        });
    }

    pub fn exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            exact: true,
        });
    }

    /// Records a named percentile's guard outcome.
    pub fn guard(&mut self, samples: &Tagged, name: &str, p: f64) {
        if let Err(e) = samples.guard(name, p) {
            self.guard_violations.push(e);
        }
    }

    /// The exact metrics as one canonical line, for the determinism
    /// self-check.
    pub fn exact_line(&self) -> String {
        let mut s = String::from("exact:");
        for m in self.metrics.iter().filter(|m| m.exact) {
            let _ = write!(s, " {}={}", m.name, m.value);
        }
        s
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
