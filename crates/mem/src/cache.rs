//! Set-associative caches with LRU replacement.
//!
//! Used for both the per-SM private L1 data cache (16 KB, 4-way, 1-cycle)
//! and each slice of the shared L2 (2 MB total across six partitions,
//! 16-way, 10-cycle) from Table 1. The cache is physically indexed and
//! tagged: requests arrive after address translation, which is exactly why
//! TLB misses sit on the critical path the paper measures.

use mosaic_sim_core::Ratio;

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Associativity (ways).
    pub assoc: usize,
    /// Hit latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's private L1 data cache: 16 KB, 4-way, 128 B lines,
    /// 1-cycle latency.
    pub fn paper_l1() -> Self {
        CacheConfig { capacity: 16 * 1024, line_size: 128, assoc: 4, latency: 1 }
    }

    /// One slice of the paper's shared L2: 2 MB total over six partitions
    /// (≈341 KB per slice, rounded to 384 KB to keep power-of-two sets),
    /// 16-way, 128 B lines, 10-cycle latency.
    pub fn paper_l2_slice() -> Self {
        CacheConfig {
            capacity: 2 * 1024 * 1024 / 6 / 128 * 128,
            line_size: 128,
            assoc: 16,
            latency: 10,
        }
    }

    /// Number of lines in the cache.
    pub fn lines(&self) -> u64 {
        self.capacity / self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.lines() / self.assoc as u64).max(1)
    }
}

/// One cache line in 16 bytes: the dirty bit rides in the low bit of the
/// recency word, `stamp = tick << 1 | dirty`. Ticks are unique within a
/// cache, so ordering lines by `stamp` orders them by recency and picks
/// the same LRU victim a separate `last_used` field would.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    stamp: u64,
}

impl Line {
    const EMPTY: Line = Line { tag: 0, stamp: 0 };

    fn new(tag: u64, tick: u64, dirty: bool) -> Self {
        Line { tag, stamp: tick << 1 | u64::from(dirty) }
    }

    fn dirty(self) -> bool {
        self.stamp & 1 == 1
    }
}

/// Upper bound on associativity supported by [`Cache::access_logged`]'s
/// inline set snapshot. Both shipped geometries (the 4-way L1 and the
/// 16-way L2 slice) fit; the bound keeps the journal record `Copy` and
/// allocation-free so reused journal vectors never touch the heap on
/// the speculation path.
const LOGGED_ASSOC_MAX: usize = 16;

/// Saved pre-state of one [`Cache::access_logged`] call, sufficient to
/// reverse it exactly: the touched set's lines and live count plus the
/// tick/stat scalars. An access mutates nothing outside its own set, so
/// snapshotting the set makes hit-refresh, free-way fill, and
/// LRU-replace all trivially reversible. Undo is only valid while no
/// other mutation of this cache intervenes — the speculative engine
/// rolls back every un-committed step before shared-path work runs.
#[derive(Debug, Clone, Copy)]
pub struct CacheAccessUndo {
    tick: u64,
    stats: Ratio,
    writebacks: u64,
    set: usize,
    len: u16,
    lines: [Line; LOGGED_ASSOC_MAX],
}

/// A set-associative, physically-indexed cache with LRU replacement.
///
/// This is a structural model: [`Cache::access`] reports hit/miss and
/// updates contents; the caller charges [`CacheConfig::latency`] on a hit
/// and forwards misses to the next level.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::paper_l1());
/// assert!(!l1.access(0x1000, false)); // cold miss, line is filled
/// assert!(l1.access(0x1040, false));  // same 128 B line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All sets in one contiguous slab, `assoc` slots per set (no per-set
    /// heap indirection); `lens[s]` is the live-line count of set `s`.
    /// Live lines occupy the front of their set's slice, in the same
    /// order the per-set vectors held them.
    lines: Vec<Line>,
    lens: Vec<u16>,
    num_sets: u64,
    /// `log2(line_size)` when the line size is a power of two, so the
    /// per-access address split is a shift instead of a division. Both
    /// shipped geometries qualify; odd test geometries fall back.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two (mask instead of
    /// modulo). The L2 slice has a non-power-of-two set count, so this
    /// stays a genuine fallback, not dead code.
    set_mask: Option<u64>,
    tick: u64,
    stats: Ratio,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size or associativity is zero, or the capacity
    /// is not a multiple of `line_size * assoc`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size > 0, "line size must be non-zero");
        assert!(config.assoc > 0, "associativity must be non-zero");
        let sets = config.sets();
        Cache {
            config,
            lines: vec![Line::EMPTY; sets as usize * config.assoc],
            lens: vec![0; sets as usize],
            num_sets: sets,
            line_shift: config
                .line_size
                .is_power_of_two()
                .then_some(config.line_size.trailing_zeros()),
            set_mask: sets.is_power_of_two().then_some(sets - 1),
            tick: 0,
            stats: Ratio::default(),
            writebacks: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit latency in core cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_size,
        };
        let set = match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets) as usize,
        };
        (set, line)
    }

    /// Accesses the line containing `addr`; on a miss the line is filled
    /// (allocate-on-miss for both reads and writes). Returns `true` on hit.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let assoc = self.config.assoc;
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * assoc;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.lines[base..base + len];
        // One pass finds the hit and the LRU victim together. Stamps are
        // unique within the cache, so strict `<` keeps the same
        // (first-minimum) victim the separate `min_by_key` pass chose.
        let mut lru_idx = 0;
        let mut lru_stamp = u64::MAX;
        for (i, line) in set.iter_mut().enumerate() {
            if line.tag == tag {
                *line = Line::new(tag, tick, line.dirty() || write);
                self.stats.record(true);
                return true;
            }
            if line.stamp < lru_stamp {
                lru_stamp = line.stamp;
                lru_idx = i;
            }
        }
        self.stats.record(false);
        if len < assoc {
            self.lines[base + len] = Line::new(tag, tick, write);
            self.lens[set_idx] += 1;
        } else {
            let victim = &mut self.lines[base + lru_idx];
            if victim.dirty() {
                self.writebacks += 1;
            }
            *victim = Line::new(tag, tick, write);
        }
        false
    }

    /// [`Cache::access`] with an undo record appended to `undo`: the
    /// intra-run speculative engine accesses in place and rolls an
    /// aborted step back via [`Cache::undo_access`]. The access itself
    /// is performed by `access` directly, so the two paths cannot drift.
    ///
    /// # Panics
    ///
    /// Panics if the cache is more than [`LOGGED_ASSOC_MAX`]-way
    /// associative (the record's inline set snapshot would not fit).
    pub fn access_logged(
        &mut self,
        addr: u64,
        write: bool,
        undo: &mut Vec<CacheAccessUndo>,
    ) -> bool {
        let assoc = self.config.assoc;
        assert!(
            assoc <= LOGGED_ASSOC_MAX,
            "access_logged supports at most {LOGGED_ASSOC_MAX} ways"
        );
        let (set_idx, _) = self.split(addr);
        let base = set_idx * assoc;
        let mut lines = [Line::EMPTY; LOGGED_ASSOC_MAX];
        lines[..assoc].copy_from_slice(&self.lines[base..base + assoc]);
        undo.push(CacheAccessUndo {
            tick: self.tick,
            stats: self.stats,
            writebacks: self.writebacks,
            set: set_idx,
            len: self.lens[set_idx],
            lines,
        });
        self.access(addr, write)
    }

    /// Reverses one [`Cache::access_logged`] call. Records must be
    /// undone in reverse logging order, with no intervening mutations —
    /// see [`CacheAccessUndo`].
    pub fn undo_access(&mut self, rec: &CacheAccessUndo) {
        let assoc = self.config.assoc;
        let base = rec.set * assoc;
        self.lines[base..base + assoc].copy_from_slice(&rec.lines[..assoc]);
        self.lens[rec.set] = rec.len;
        self.tick = rec.tick;
        self.stats = rec.stats;
        self.writebacks = rec.writebacks;
    }

    /// Probes without filling or updating recency.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.config.assoc;
        self.lines[base..base + self.lens[set_idx] as usize].iter().any(|l| l.tag == tag)
    }

    /// Invalidates every line (e.g., at kernel boundaries). Dirty lines
    /// count as writebacks.
    pub fn flush(&mut self) {
        let assoc = self.config.assoc;
        for (set_idx, len) in self.lens.iter_mut().enumerate() {
            let base = set_idx * assoc;
            let live = &self.lines[base..base + *len as usize];
            self.writebacks += live.iter().filter(|l| l.dirty()).count() as u64;
            *len = 0;
        }
    }

    /// Hit-rate statistics.
    pub fn hit_rate(&self) -> Ratio {
        self.stats
    }

    /// Number of dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B, 2-way: 2 sets.
        Cache::new(CacheConfig { capacity: 256, line_size: 64, assoc: 2, latency: 1 })
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(63, false));
        assert!(!c.access(64, false), "next line misses");
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 (line numbers 0,2,4) all map to set 0.
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // line 0 most recent
        c.access(256, false); // evicts line 2 (addr 128)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        c.access(256, false); // evicts LRU (addr 0, dirty)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn flush_empties_and_writes_back() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.writebacks(), 1);
        assert!(!c.contains(0));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.hit_rate().hits(), 2);
        assert_eq!(c.hit_rate().misses(), 1);
    }

    #[test]
    fn paper_configs_are_sane() {
        let l1 = Cache::new(CacheConfig::paper_l1());
        assert_eq!(l1.config().lines(), 128);
        assert_eq!(l1.config().sets(), 32);
        let l2 = Cache::new(CacheConfig::paper_l2_slice());
        assert!(l2.config().lines() > 2000);
        assert_eq!(l2.config().assoc, 16);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn zero_line_size_rejected() {
        let _ = Cache::new(CacheConfig { capacity: 256, line_size: 0, assoc: 2, latency: 1 });
    }

    /// Round-trip contract of the speculation journal: a chain of logged
    /// accesses behaves exactly like plain accesses, and undoing it in
    /// reverse restores the cache to its pre-chain state (compared via
    /// `Debug`, covering lines, lens, tick, stats, and writebacks).
    #[test]
    fn logged_access_matches_plain_and_undoes_exactly() {
        use mosaic_sim_core::SimRng;
        let mut rng = SimRng::from_seed(0xCAC4E);
        let mut cache = tiny();
        for _ in 0..300 {
            // Churn with plain accesses (fills, evictions, dirty lines).
            for _ in 0..rng.below(4) {
                cache.access(rng.below(16) * 64, rng.chance(0.3));
            }
            let snapshot = format!("{cache:?}");
            let mut twin = cache.clone();
            let mut undo = Vec::new();
            for _ in 0..rng.below(4) + 1 {
                let addr = rng.below(16) * 64;
                let write = rng.chance(0.3);
                assert_eq!(
                    cache.access_logged(addr, write, &mut undo),
                    twin.access(addr, write),
                    "logged access outcome must match the plain path"
                );
            }
            assert_eq!(format!("{cache:?}"), format!("{twin:?}"), "forward states must match");
            for rec in undo.iter().rev() {
                cache.undo_access(rec);
            }
            assert_eq!(format!("{cache:?}"), snapshot, "undo must restore the pre-chain state");
            cache = twin;
        }
    }

    /// The pre-packing line layout (`last_used` and `dirty` as separate
    /// fields), with the LRU policy it ran, as the reference for the
    /// packed `stamp`.
    struct ReferenceCache {
        sets: Vec<Vec<(u64, u64, bool)>>,
        assoc: usize,
        line_size: u64,
        tick: u64,
        writebacks: u64,
    }

    impl ReferenceCache {
        fn new(config: CacheConfig) -> Self {
            ReferenceCache {
                sets: vec![Vec::new(); config.sets() as usize],
                assoc: config.assoc,
                line_size: config.line_size,
                tick: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> bool {
            self.tick += 1;
            let line = addr / self.line_size;
            let set_idx = (line % self.sets.len() as u64) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(l) = set.iter_mut().find(|l| l.0 == line) {
                l.1 = self.tick;
                l.2 |= write;
                return true;
            }
            if set.len() < self.assoc {
                set.push((line, self.tick, write));
            } else {
                let victim = set.iter_mut().min_by_key(|l| l.1).expect("full set");
                self.writebacks += u64::from(victim.2);
                *victim = (line, self.tick, write);
            }
            false
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                self.writebacks += set.iter().filter(|l| l.2).count() as u64;
                set.clear();
            }
        }
    }

    /// Every set of `cache`, unpacked to `(tag, tick, dirty)` in way order.
    fn unpacked_sets(cache: &Cache) -> Vec<Vec<(u64, u64, bool)>> {
        let assoc = cache.config.assoc;
        (0..cache.lens.len())
            .map(|s| {
                let live = &cache.lines[s * assoc..s * assoc + cache.lens[s] as usize];
                live.iter().map(|l| (l.tag, l.stamp >> 1, l.dirty())).collect()
            })
            .collect()
    }

    #[test]
    fn packed_stamps_match_a_separate_dirty_bit_reference() {
        use mosaic_sim_core::SimRng;
        let tiny = CacheConfig { capacity: 256, line_size: 64, assoc: 2, latency: 1 };
        for config in [CacheConfig::paper_l1(), CacheConfig::paper_l2_slice(), tiny] {
            let mut rng = SimRng::from_seed(0x057A_49ED);
            let mut cache = Cache::new(config);
            let mut reference = ReferenceCache::new(config);
            // A footprint of ~3x the capacity keeps every set evicting.
            let lines = config.lines() * 3;
            for step in 0..20_000 {
                let addr = rng.below(lines) * config.line_size + rng.below(config.line_size);
                let write = rng.chance(0.3);
                let hit = cache.access(addr, write);
                assert_eq!(hit, reference.access(addr, write), "hit/miss at step {step}");
                assert_eq!(cache.writebacks(), reference.writebacks, "step {step}");
                if step % 997 == 0 {
                    // Same lines in the same ways: the same victims.
                    assert_eq!(unpacked_sets(&cache), reference.sets, "step {step}");
                }
            }
            assert_eq!(unpacked_sets(&cache), reference.sets);
            cache.flush();
            reference.flush();
            assert_eq!(cache.writebacks(), reference.writebacks, "flush writes back dirty lines");
            assert_eq!(cache.occupancy(), 0);
        }
    }

    #[test]
    fn split_fast_paths_match_division() {
        // The L2 slice geometry has a non-power-of-two set count, the L1 a
        // power-of-two one; both must index identically to plain div/mod.
        for config in [CacheConfig::paper_l1(), CacheConfig::paper_l2_slice()] {
            let c = Cache::new(config);
            for addr in (0..4096u64).map(|i| i * 7919) {
                let (set, line) = c.split(addr);
                assert_eq!(line, addr / config.line_size);
                assert_eq!(set as u64, line % c.num_sets);
            }
        }
    }
}
