//! Statistics primitives: counters, ratios, and histograms.
//!
//! Every component of the simulated memory hierarchy exposes its behaviour
//! through these types, and the experiment drivers aggregate them into the
//! rows and series the paper reports.

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Counter;
///
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/total ratio, used for TLB and cache hit rates.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Ratio;
///
/// let mut hit_rate = Ratio::default();
/// hit_rate.record(true);
/// hit_rate.record(true);
/// hit_rate.record(false);
/// assert!((hit_rate.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Records one event; `hit` selects the numerator.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of hits recorded.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.total - self.hits
    }

    /// Total events recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The hit fraction in `[0, 1]`; `1.0` when no events were recorded
    /// (an empty TLB has not missed).
    #[inline]
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: &Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}% ({}/{})", self.rate() * 100.0, self.hits, self.total)
    }
}

/// A latency/size histogram with power-of-two buckets plus exact mean.
///
/// Tracks count, sum, min, and max exactly; the bucketed view is for
/// distribution-shaped reporting (e.g., page-walk latency spread).
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Histogram;
///
/// let mut h = Histogram::default();
/// h.record(10);
/// h.record(20);
/// assert_eq!(h.count(), 2);
/// assert!((h.mean() - 15.0).abs() < 1e-12);
/// assert_eq!(h.min(), Some(10));
/// assert_eq!(h.max(), Some(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
    /// bucket index `i` counts samples in `[2^i, 2^(i+1))`; index 0 also
    /// holds zero-valued samples. One slot per possible `u64` magnitude,
    /// so `record` is an indexed add.
    buckets: [u64; 64],
}

// Hand-written: `[u64; 64]` has no `Default` impl.
impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: None, max: None, buckets: [0; 64] }
    }
}

impl Histogram {
    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        let bucket = if value == 0 { 0 } else { 63 - value.leading_zeros() as usize };
        self.buckets[bucket] += 1;
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of all samples; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any were recorded.
    #[inline]
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any were recorded.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Iterates `(bucket_floor, count)` pairs in ascending order, where
    /// `bucket_floor` is the inclusive lower bound of the bucket. Empty
    /// buckets are skipped.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << b }, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// A named, ordered collection of scalar statistics, used to dump any
/// component's counters as one machine-readable blob.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::StatSet;
///
/// let mut s = StatSet::new("l1_tlb");
/// s.set("hits", 90.0);
/// s.set("misses", 10.0);
/// assert_eq!(s.get("hits"), Some(90.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    name: String,
    values: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty set labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StatSet { name: name.into(), values: BTreeMap::new() }
    }

    /// The label of this set.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts or overwrites the statistic `key`.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Looks up a statistic by name.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.name)?;
        for (k, v) in self.iter() {
            writeln!(f, "  {k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn ratio_empty_is_full_hit_rate() {
        let r = Ratio::default();
        assert_eq!(r.rate(), 1.0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn ratio_counts_hits_and_misses() {
        let mut r = Ratio::default();
        for i in 0..10 {
            r.record(i % 2 == 0);
        }
        assert_eq!(r.hits(), 5);
        assert_eq!(r.misses(), 5);
        assert!((r.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_merge_adds() {
        let mut a = Ratio::default();
        a.record(true);
        let mut b = Ratio::default();
        b.record(false);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.hits(), 2);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1024));
        assert!((h.mean() - (1.0 + 2.0 + 4.0 + 8.0 + 1024.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(3); // bucket [2,4)
        h.record(1000); // bucket [512, 1024)
        let buckets: Vec<_> = h.buckets().collect();
        // Bucket 0 holds both the zero sample and the sample of value 1.
        assert!(buckets.contains(&(0, 2)));
        assert!(buckets.contains(&(2, 1)));
        assert!(buckets.contains(&(512, 1)));
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::default();
        a.record(5);
        let mut b = Histogram::default();
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(50));
    }

    #[test]
    fn statset_roundtrip() {
        let mut s = StatSet::new("dram");
        s.set("row_hits", 7.0);
        s.set("row_misses", 3.0);
        assert_eq!(s.name(), "dram");
        assert_eq!(s.get("row_hits"), Some(7.0));
        assert_eq!(s.get("absent"), None);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs.len(), 2);
    }
}
