//! Small helpers: the seeded generator, FNV-1a hashing, percentiles,
//! repeat shares and the process's peak resident memory.

use std::collections::HashSet;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields one set of inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_CA95_7A00_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Incremental FNV-1a-64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a value's `Debug` text. Rust prints floats in `Debug` as
    /// the shortest text that parses back to the same bits, so this is
    /// exact for the plain-data config and report structs it is used on.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Percentile `q` of `samples` (`q` in `(0, 1)`), estimated as the mean
/// of the sorted samples whose rank lies within `w = min(0.05, (1 - q) /
/// 4)` of `q`. Call costs cluster by app and config; averaging this
/// narrow window keeps a percentile from jumping across the gap between
/// two clusters when noise swaps neighbouring samples. With few samples
/// it is the middle sample, or the mean of the middle two. 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let w = 0.05f64.min((1.0 - q) / 4.0);
    // The nudges keep float rounding from widening the window by a rank.
    let lo = (((q - w) * n + 1e-9).floor() as usize).min(sorted.len() - 1);
    let hi = (((q + w) * n - 1e-9).ceil() as usize).clamp(lo + 1, sorted.len());
    let window = &sorted[lo..hi];
    window.iter().sum::<f64>() / window.len() as f64
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts calls into one layer and the distinct inputs among them.
#[derive(Debug, Default)]
pub struct RepeatCounter {
    calls: u64,
    distinct: HashSet<u64>,
}

impl RepeatCounter {
    pub fn record(&mut self, input_hash: u64) {
        self.calls += 1;
        self.distinct.insert(input_hash);
    }

    /// `1 - distinct / calls`: the share of calls whose exact input an
    /// earlier call already had.
    pub fn share(&self) -> f64 {
        ratio(
            self.calls as f64 - self.distinct.len() as f64,
            self.calls as f64,
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
