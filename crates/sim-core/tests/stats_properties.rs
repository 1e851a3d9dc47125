//! Property tests for the statistics primitives' merge algebra.
//!
//! The parallel sweep executor and the per-SM/per-phase accumulation
//! paths fold partial statistics with `merge`, in whatever grouping the
//! driver happens to use — so `merge` must behave like stream
//! concatenation: associative, commutative (for these order-insensitive
//! aggregates), and in agreement with recording the concatenated sample
//! stream into a single accumulator.

use mosaic_sim_core::{Histogram, Ratio, SimRng};

/// Random sample streams for one property-test case.
fn sample_streams(seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = SimRng::from_seed(seed);
    let mut stream = |max_len: u64| {
        let len = rng.below(max_len + 1) as usize;
        (0..len)
            .map(|_| {
                // Mix tiny, mid-range, and huge samples so bucket indices,
                // zero handling, and the u128 sum all get exercised.
                match rng.below(4) {
                    0 => rng.below(3),
                    1 => rng.below(1 << 12),
                    2 => rng.below(1 << 40),
                    _ => u64::MAX - rng.below(1 << 20),
                }
            })
            .collect::<Vec<u64>>()
    };
    (stream(40), stream(40), stream(40))
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

fn ratio_of(samples: &[u64]) -> Ratio {
    let mut r = Ratio::default();
    for &s in samples {
        r.record(s % 2 == 0);
    }
    r
}

#[test]
fn histogram_merge_is_associative_commutative_and_matches_concatenation() {
    for seed in 0..64u64 {
        let (a, b, c) = sample_streams(seed);
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associativity failed for seed {seed}");

        // a ⊔ b == b ⊔ a
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab, ba, "commutativity failed for seed {seed}");

        // Merged partials agree with one accumulator over the
        // concatenated stream — including the derived mean.
        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = hist_of(&concat);
        assert_eq!(left, whole, "concatenation agreement failed for seed {seed}");
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.sum(), whole.sum());
        assert_eq!(left.mean().to_bits(), whole.mean().to_bits(), "seed {seed}");
        assert_eq!(
            left.buckets().collect::<Vec<_>>(),
            whole.buckets().collect::<Vec<_>>(),
            "seed {seed}"
        );

        // Merging an empty histogram is the identity.
        let mut with_empty = left.clone();
        with_empty.merge(&Histogram::default());
        assert_eq!(with_empty, left, "empty-merge identity failed for seed {seed}");
    }
}

#[test]
fn ratio_merge_is_associative_commutative_and_matches_concatenation() {
    for seed in 0..64u64 {
        let (a, b, c) = sample_streams(seed);
        let (ra, rb, rc) = (ratio_of(&a), ratio_of(&b), ratio_of(&c));

        let mut left = ra;
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb;
        bc.merge(&rc);
        let mut right = ra;
        right.merge(&bc);
        assert_eq!(left, right, "associativity failed for seed {seed}");

        let mut ab = ra;
        ab.merge(&rb);
        let mut ba = rb;
        ba.merge(&ra);
        assert_eq!(ab, ba, "commutativity failed for seed {seed}");

        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = ratio_of(&concat);
        assert_eq!(left, whole, "concatenation agreement failed for seed {seed}");
        assert_eq!(left.rate().to_bits(), whole.rate().to_bits(), "seed {seed}");

        let mut with_empty = left;
        with_empty.merge(&Ratio::default());
        assert_eq!(with_empty, left, "empty-merge identity failed for seed {seed}");
    }
}

#[test]
fn empty_aggregates_are_well_defined() {
    let h = Histogram::default();
    assert_eq!(h.mean(), 0.0, "empty histogram mean is 0.0, not NaN");
    assert!(h.mean().is_finite());
    assert_eq!(h.count(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.buckets().count(), 0);

    let r = Ratio::default();
    assert_eq!(r.rate(), 1.0, "an empty TLB has not missed");
    assert!(r.rate().is_finite());
}

/// The `BTreeMap<u8, u64>` bucket map `Histogram` used to keep, as the
/// reference for its flat bucket array.
fn reference_buckets(samples: &[u64]) -> std::collections::BTreeMap<u8, u64> {
    let mut map = std::collections::BTreeMap::new();
    for &v in samples {
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() as u8 };
        *map.entry(bucket).or_insert(0) += 1;
    }
    map
}

fn reference_view(map: &std::collections::BTreeMap<u8, u64>) -> Vec<(u64, u64)> {
    map.iter().map(|(&b, &c)| (if b == 0 { 0 } else { 1u64 << b }, c)).collect()
}

#[test]
fn histogram_buckets_merge_and_eq_match_a_btreemap_reference() {
    for seed in 0..64u64 {
        let (mut a, mut b, _) = sample_streams(seed);
        // The extremes of the bucket range are always present.
        a.extend([0, 1, u64::MAX]);
        b.push(u64::MAX);
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        assert_eq!(ha.buckets().collect::<Vec<_>>(), reference_view(&reference_buckets(&a)));
        assert_eq!(hb.buckets().collect::<Vec<_>>(), reference_view(&reference_buckets(&b)));

        let mut merged = ha.clone();
        merged.merge(&hb);
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(
            merged.buckets().collect::<Vec<_>>(),
            reference_view(&reference_buckets(&concat)),
            "merge must add bucket-wise, seed {seed}"
        );

        // `==` agrees with equality of the reference maps: a reordered
        // stream is equal, one extra sample in any bucket is not.
        let mut shuffled = a.clone();
        shuffled.reverse();
        assert_eq!(hist_of(&shuffled), ha, "seed {seed}");
        for extra in [0, 5, 1 << 40, u64::MAX] {
            let mut longer = a.clone();
            longer.push(extra);
            assert_ne!(reference_buckets(&longer), reference_buckets(&a));
            assert_ne!(hist_of(&longer), ha, "seed {seed}, extra {extra}");
        }
        assert_eq!(
            ha == hb,
            reference_buckets(&a) == reference_buckets(&b)
                && (ha.count(), ha.sum(), ha.min(), ha.max())
                    == (hb.count(), hb.sum(), hb.min(), hb.max()),
            "seed {seed}"
        );
    }
}
