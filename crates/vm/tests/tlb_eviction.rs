//! Eviction-notification round-trips for the two paper TLB geometries.
//!
//! `fill` returns the `(asid, page)` pair it displaced so the MMU can keep
//! shadow state coherent; `flush_large` is the invalidation a splinter
//! must issue (Section 4.4), and `flush_range` the one an unmap or
//! eviction shootdown issues. These tests pin the round-trips, LRU
//! recency, multi-ASID conflict behavior, and the equivalence of
//! `flush_range` with the per-page flush sequence for `paper_l1`
//! (128-entry fully-associative base / 16-entry fully-associative large)
//! and `paper_l2` (512-entry 16-way base / 256-entry fully-associative
//! large).

use mosaic_sim_core::SimRng;
use mosaic_vm::{
    AppId, LargePageNum, PageSize, Tlb, TlbConfig, TlbLookup, VirtPageNum,
    BASE_PAGES_PER_LARGE_PAGE,
};

const A0: AppId = AppId(0);
const A1: AppId = AppId(1);
const A2: AppId = AppId(2);

/// Address of large page `lpn` (its first base page).
fn laddr(lpn: u64) -> mosaic_vm::VirtAddr {
    LargePageNum(lpn).base_page(0).addr()
}

/// Address of base page `vpn`.
fn baddr(vpn: u64) -> mosaic_vm::VirtAddr {
    VirtPageNum(vpn).addr()
}

/// Filling the large array to capacity evicts nothing; the next fill
/// reports exactly the LRU victim, which then misses while the newcomer
/// hits.
fn large_fill_evicts_lru(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        assert_eq!(tlb.fill(A0, laddr(lpn), PageSize::Large), None, "no eviction while filling");
    }
    let evicted = tlb.fill(A0, laddr(capacity), PageSize::Large);
    assert_eq!(evicted, Some((A0, 0)), "LRU entry (first filled) is the victim");
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::Miss);
    assert_eq!(tlb.peek(A0, laddr(capacity)), TlbLookup::HitLarge);
}

#[test]
fn paper_l1_large_fill_evicts_lru() {
    large_fill_evicts_lru(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_large_fill_evicts_lru() {
    large_fill_evicts_lru(TlbConfig::paper_l2());
}

/// A lookup refreshes recency: after touching the oldest entry, the next
/// fill evicts the second-oldest instead.
fn lookup_refreshes_recency(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    assert_eq!(tlb.lookup(A0, laddr(0)), TlbLookup::HitLarge);
    let evicted = tlb.fill(A0, laddr(capacity), PageSize::Large);
    assert_eq!(evicted, Some((A0, 1)), "entry 0 was refreshed, entry 1 is now LRU");
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::HitLarge);
}

#[test]
fn paper_l1_lookup_refreshes_recency() {
    lookup_refreshes_recency(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_lookup_refreshes_recency() {
    lookup_refreshes_recency(TlbConfig::paper_l2());
}

/// `flush_large` round-trip: present → flushed (true), absent → false;
/// the slot freed by the flush absorbs the next fill without an eviction.
fn flush_large_round_trip(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    assert!(tlb.flush_large(A0, laddr(3)), "entry was present");
    assert!(!tlb.flush_large(A0, laddr(3)), "second flush finds nothing");
    assert_eq!(tlb.peek(A0, laddr(3)), TlbLookup::Miss);
    assert_eq!(tlb.occupancy(), capacity as usize - 1);
    // The freed slot absorbs a new fill with no victim.
    assert_eq!(tlb.fill(A0, laddr(capacity), PageSize::Large), None);
    assert_eq!(tlb.occupancy(), capacity as usize);
}

#[test]
fn paper_l1_flush_large_round_trip() {
    flush_large_round_trip(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_flush_large_round_trip() {
    flush_large_round_trip(TlbConfig::paper_l2());
}

/// The base and large arrays are independent: flushing the large entry
/// covering an address leaves its base entry intact, and vice versa.
fn arrays_are_independent(config: TlbConfig) {
    let mut tlb = Tlb::new(config);
    let addr = laddr(7);
    tlb.fill(A0, addr, PageSize::Base);
    tlb.fill(A0, addr, PageSize::Large);
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitLarge, "large entries probe first");

    assert!(tlb.flush_large(A0, addr));
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitBase, "base entry survives");

    tlb.fill(A0, addr, PageSize::Large);
    assert!(tlb.flush_base(A0, addr));
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitLarge, "large entry survives");
}

#[test]
fn paper_l1_arrays_are_independent() {
    arrays_are_independent(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_arrays_are_independent() {
    arrays_are_independent(TlbConfig::paper_l2());
}

/// Entries are tagged by ASID: the same page number held by two address
/// spaces occupies two slots, conflicts evict across ASIDs with the
/// correct tag in the notification, and a flush only hits its own ASID.
fn multi_asid_conflicts(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    // Fill to capacity from ASID 0.
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    // Same page number, different ASID: a distinct entry, so the fill
    // conflicts and the notification names the *other* address space.
    let evicted = tlb.fill(A1, laddr(0), PageSize::Large);
    assert_eq!(evicted, Some((A0, 0)), "victim tag carries the evicted ASID");
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::HitLarge);
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::Miss);

    // flush_large is ASID-selective: flushing ASID 2 (absent) and ASID 0
    // (absent at page 0 now) must not disturb ASID 1's entry.
    assert!(!tlb.flush_large(A2, laddr(0)));
    assert!(!tlb.flush_large(A0, laddr(0)));
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::HitLarge);
    assert!(tlb.flush_large(A1, laddr(0)));
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::Miss);
}

#[test]
fn paper_l1_multi_asid_conflicts() {
    multi_asid_conflicts(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_multi_asid_conflicts() {
    multi_asid_conflicts(TlbConfig::paper_l2());
}

/// `flush_asid` drops exactly one address space's entries (both arrays)
/// and reports the count; the other address space is untouched.
fn flush_asid_is_selective(config: TlbConfig) {
    let mut tlb = Tlb::new(config);
    for lpn in 0..4 {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
        tlb.fill(A1, laddr(lpn), PageSize::Large);
        tlb.fill(A0, baddr(lpn), PageSize::Base);
    }
    assert_eq!(tlb.occupancy(), 12);
    assert_eq!(tlb.flush_asid(A0), 8, "4 large + 4 base entries dropped");
    assert_eq!(tlb.occupancy(), 4);
    for lpn in 0..4 {
        assert_eq!(tlb.peek(A1, laddr(lpn)), TlbLookup::HitLarge);
    }
}

#[test]
fn paper_l1_flush_asid_is_selective() {
    flush_asid_is_selective(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_flush_asid_is_selective() {
    flush_asid_is_selective(TlbConfig::paper_l2());
}

/// paper_l2's base array is 16-way set-associative (32 sets): pages that
/// share a set conflict after 16 fills while other sets are unaffected,
/// and the victim is the set's LRU entry.
#[test]
fn paper_l2_base_set_conflicts() {
    let config = TlbConfig::paper_l2();
    let sets = (config.base_entries / config.base_assoc) as u64; // 32
    let mut tlb = Tlb::new(config);
    // 16 pages, all hashing to set 0, plus one in another set.
    for i in 0..16 {
        assert_eq!(tlb.fill(A0, baddr(i * sets), PageSize::Base), None);
    }
    tlb.fill(A0, baddr(1), PageSize::Base); // set 1, unaffected below
                                            // The 17th same-set fill evicts that set's LRU (the first fill).
    let evicted = tlb.fill(A0, baddr(16 * sets), PageSize::Base);
    assert_eq!(evicted, Some((A0, 0)));
    assert_eq!(tlb.peek(A0, baddr(0)), TlbLookup::Miss);
    assert_eq!(tlb.peek(A0, baddr(1)), TlbLookup::HitBase, "other sets untouched");
    assert_eq!(tlb.peek(A0, baddr(16 * sets)), TlbLookup::HitBase);
}

/// Regions the range-flush histories draw pages from.
const RANGE_REGIONS: u64 = 6;

/// One random TLB operation over three ASIDs and [`RANGE_REGIONS`]
/// regions, applied to `tlb`; returns its observable outcome (lookup
/// result or fill victim) so two TLBs can be compared step by step.
fn random_op(tlb: &mut Tlb, rng: &mut SimRng) -> (Option<TlbLookup>, Option<(AppId, u64)>) {
    let asid = AppId(rng.below(3) as u16);
    let addr = baddr(rng.below(RANGE_REGIONS * BASE_PAGES_PER_LARGE_PAGE));
    match rng.below(4) {
        0 => (None, tlb.fill(asid, addr, PageSize::Base)),
        1 if rng.chance(0.3) => (None, tlb.fill(asid, addr, PageSize::Large)),
        _ => (Some(tlb.lookup(asid, addr)), None),
    }
}

/// The per-page sequence `flush_range` replaces: `flush_large` on each
/// overlapped 2 MB region, then `flush_base` on each page. Returns the
/// number of `true` results.
fn flush_per_page(tlb: &mut Tlb, asid: AppId, start: u64, pages: u64) -> usize {
    let mut dropped = 0;
    if pages > 0 {
        let first = VirtPageNum(start).large_page().raw();
        let last = VirtPageNum(start + pages - 1).large_page().raw();
        for lpn in first..=last {
            dropped += usize::from(tlb.flush_large(asid, laddr(lpn)));
        }
    }
    for vpn in start..start + pages {
        dropped += usize::from(tlb.flush_base(asid, baddr(vpn)));
    }
    dropped
}

/// `flush_range` leaves a TLB in exactly the state the per-page sequence
/// does: same entries in the same order, same count, and the same
/// outcomes and victims for the next 1,000 random operations.
fn flush_range_matches_per_page(config: TlbConfig, seed: u64) {
    let per_region = BASE_PAGES_PER_LARGE_PAGE;
    // (start, pages): unaligned inside a region, crossing a region
    // boundary, exactly one region, several regions, one page, empty.
    let spans = [
        (per_region + 37, 100),
        (2 * per_region - 10, 30),
        (3 * per_region, per_region),
        (100, 3 * per_region + 5),
        (4 * per_region + 511, 1),
        (5 * per_region + 7, 0),
    ];
    let mut rng = SimRng::from_seed(seed);
    let mut total_dropped = 0;
    for (start, pages) in spans {
        let mut old = Tlb::new(config);
        for _ in 0..4000 {
            random_op(&mut old, &mut rng);
        }
        let mut new = old.clone();
        let asid = AppId(rng.below(3) as u16);
        let expected = flush_per_page(&mut old, asid, start, pages);
        let dropped = new.flush_range(asid, VirtPageNum(start), pages);
        assert_eq!(dropped, expected, "span ({start}, {pages}): dropped-entry count");
        total_dropped += dropped;
        let old_entries: Vec<_> = old.entries().collect();
        let new_entries: Vec<_> = new.entries().collect();
        assert_eq!(old_entries, new_entries, "span ({start}, {pages}): entries and order");
        // Ticks, filter, stats and the last-hit cache match too.
        assert_eq!(format!("{old:?}"), format!("{new:?}"), "span ({start}, {pages}): state");
        let mut replay = rng.clone();
        for step in 0..1000 {
            assert_eq!(
                random_op(&mut old, &mut rng),
                random_op(&mut new, &mut replay),
                "span ({start}, {pages}): op {step} after the flush"
            );
        }
    }
    assert!(total_dropped > 0, "the histories must leave entries in the flushed spans");
}

#[test]
fn paper_l1_flush_range_matches_per_page() {
    flush_range_matches_per_page(TlbConfig::paper_l1(), 0xF1);
}

#[test]
fn paper_l2_flush_range_matches_per_page() {
    flush_range_matches_per_page(TlbConfig::paper_l2(), 0xF2);
}

#[test]
fn small_set_associative_flush_range_matches_per_page() {
    let config =
        TlbConfig { base_entries: 32, base_assoc: 4, large_entries: 8, large_assoc: 2, latency: 1 };
    flush_range_matches_per_page(config, 0xF3);
}
