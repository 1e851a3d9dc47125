//! The determinism contract of the sweep executor: a figure driver's
//! rendered output is byte-identical at any worker count.
//!
//! Each test compares a figure rendered with multiple workers against a
//! shared serial fixture and pins the serial report to a golden FNV-1a
//! digest. The serial renderings are computed exactly once per process
//! (in [`fixture`]) — previously every test re-ran its full workload
//! serially, roughly doubling the tier's wall-clock for no extra
//! coverage. The golden tier covers fig08 (job-list refactor +
//! `AloneCache` prefetch + ordered collection), fig03 (single-app
//! sweeps), fig11 (per-app normalized IPC sort), the walker-threads
//! ablation, and the stall-attribution report (exact bucket
//! decomposition on the always-on path).

use mosaic_experiments::common::Scope;
use mosaic_experiments::{ablations, fig03, fig08, fig11, multigpu, oversub, stall, sweep};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests: `sweep::set_jobs` is process-global, and these
/// tests each claim a specific worker count, so they must not overlap.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serial (jobs = 1) renderings of every report in the golden tier,
/// computed once and shared by all tests in this binary.
struct Fixture {
    fig08: String,
    fig03: String,
    fig11: String,
    walker: String,
    oversub: String,
    stall: String,
    multigpu: String,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        // Takes JOBS_LOCK itself — callers must not hold it across this
        // call (std Mutex is not reentrant).
        let _guard = lock();
        sweep::set_jobs(Some(1));
        let f = Fixture {
            fig08: fig08::run(Scope::Smoke).to_string(),
            fig03: fig03::run(Scope::Smoke).to_string(),
            fig11: fig11::run(Scope::Smoke).to_string(),
            walker: ablations::walker_threads(Scope::Smoke).to_string(),
            oversub: oversub::run(Scope::Smoke).to_string(),
            stall: stall::run(Scope::Smoke).to_string(),
            multigpu: multigpu::run(Scope::Smoke).to_string(),
        };
        sweep::set_jobs(None);
        f
    })
}

/// FNV-1a (64-bit) over the rendered report. Small and dependency-free;
/// collision resistance is irrelevant here — any accidental change to
/// the rendered output flips the digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of fig08's smoke-scope report, pinned when the flat-structure
/// hot-path rework landed. This is the cross-structure determinism
/// contract: the BTreeMap→flat-vector page table, the TLB last-hit
/// cache, the monomorphized SM loop, and the indexed frame pool must
/// all render byte-for-byte the same report as the originals. Update
/// this constant ONLY for a change that intentionally alters simulated
/// behavior or report formatting — never for a performance refactor.
const GOLDEN_FIG08_SMOKE_DIGEST: &str = "ad0fedc459c0afa6";

/// Golden smoke-scope digests for the rest of the tier, pinned when the
/// telemetry/stall-attribution instrumentation landed (which had to be
/// output-isomorphic — `GOLDEN_FIG08_SMOKE_DIGEST` predates it and did
/// not move). Same update policy as above.
const GOLDEN_FIG03_SMOKE_DIGEST: &str = "d3a367a2c8a59907";
const GOLDEN_FIG11_SMOKE_DIGEST: &str = "f0bc1943ac8bc2e5";
const GOLDEN_ABLATION_WALKER_SMOKE_DIGEST: &str = "3e03ad211b0a0142";
// Re-pinned when the stall table grew `evict`/`writeback` columns for
// the oversubscription work (the simulated behavior of fully-subscribed
// runs did not move — every pre-existing percentage is unchanged).
const GOLDEN_STALL_SMOKE_DIGEST: &str = "174dce1f1c6193c9";

/// Pinned when the oversubscription figure landed. This one exercises
/// the demand-paging engine end to end — LRU eviction, dirty write-back
/// over the I/O bus, and sequential prefetch — so it is the determinism
/// contract for the whole paging path, not just the report formatting.
const GOLDEN_OVERSUB_SMOKE_DIGEST: &str = "34029bf26e3a411f";

/// Pinned when the multi-GPU fleet landed. The figure sweeps 1/2/4-GPU
/// fleets under both managers plus every placement policy, so this is
/// the determinism contract for the whole scale-out path: placement
/// decisions, interconnect queueing, migration/replication payloads, and
/// the remote/migrate stall attribution.
const GOLDEN_MULTIGPU_SMOKE_DIGEST: &str = "eea524f5b009c7d8";

/// Renders `run` at eight workers, asserts byte-identity against the
/// shared serial fixture rendering, and checks it against `golden`.
fn golden_check(name: &str, golden: &str, serial: &str, run: impl Fn() -> String) {
    let parallel = {
        let _guard = lock();
        sweep::set_jobs(Some(8));
        let p = run();
        sweep::set_jobs(None);
        p
    };
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "{name}: parallel output must match serial byte-for-byte");
    let digest = format!("{:016x}", fnv1a(serial.as_bytes()));
    assert_eq!(
        digest, golden,
        "{name} smoke report drifted from the golden digest; report was:\n{serial}"
    );
}

#[test]
fn smoke_report_matches_golden_digest() {
    let serial = &fixture().fig08;
    let _guard = lock();
    sweep::set_jobs(Some(2));
    let report = fig08::run(Scope::Smoke).to_string();
    sweep::set_jobs(None);
    assert!(!report.is_empty());
    assert_eq!(serial, &report, "two-worker output must match serial byte-for-byte");
    let digest = format!("{:016x}", fnv1a(report.as_bytes()));
    assert_eq!(
        digest, GOLDEN_FIG08_SMOKE_DIGEST,
        "fig08 smoke report drifted from the golden digest; report was:\n{report}"
    );
}

#[test]
fn serial_vs_parallel_sweeps_are_bit_identical() {
    let serial = &fixture().fig08;
    let _guard = lock();
    sweep::set_jobs(Some(4));
    let parallel = fig08::run(Scope::Smoke).to_string();
    sweep::set_jobs(None);
    assert!(!serial.is_empty());
    assert_eq!(serial, &parallel, "parallel output must match serial byte-for-byte");
}

#[test]
fn fig03_matches_golden_digest_at_any_jobs() {
    golden_check("fig03", GOLDEN_FIG03_SMOKE_DIGEST, &fixture().fig03, || {
        fig03::run(Scope::Smoke).to_string()
    });
}

#[test]
fn fig11_matches_golden_digest_at_any_jobs() {
    golden_check("fig11", GOLDEN_FIG11_SMOKE_DIGEST, &fixture().fig11, || {
        fig11::run(Scope::Smoke).to_string()
    });
}

#[test]
fn walker_ablation_matches_golden_digest_at_any_jobs() {
    golden_check("ablation_walker", GOLDEN_ABLATION_WALKER_SMOKE_DIGEST, &fixture().walker, || {
        ablations::walker_threads(Scope::Smoke).to_string()
    });
}

#[test]
fn oversubscribed_sweep_matches_golden_digest_at_any_jobs() {
    let report = &fixture().oversub;
    golden_check("oversub", GOLDEN_OVERSUB_SMOKE_DIGEST, report, || {
        oversub::run(Scope::Smoke).to_string()
    });
    // The golden run must actually exercise the eviction engine, or the
    // digest pins nothing interesting.
    assert!(!report.contains("0 pages evicted"), "eviction engine engaged:\n{report}");
}

#[test]
fn stall_report_matches_golden_digest_at_any_jobs() {
    let report = &fixture().stall;
    golden_check("stall", GOLDEN_STALL_SMOKE_DIGEST, report, || {
        stall::run(Scope::Smoke).to_string()
    });
    // The report must cover both ends of the TLB-sensitivity spectrum.
    assert!(report.contains("MM "), "TLB-friendly workload present:\n{report}");
    assert!(report.contains("GUPS "), "TLB-sensitive workload present:\n{report}");
}

#[test]
fn multigpu_matches_golden_digest_at_any_jobs() {
    let report = &fixture().multigpu;
    golden_check("multigpu", GOLDEN_MULTIGPU_SMOKE_DIGEST, report, || {
        multigpu::run(Scope::Smoke).to_string()
    });
    // The golden run must actually cross the interconnect, or the digest
    // pins nothing beyond the single-GPU engine.
    assert!(report.contains("4 GPUs"), "placement probe present:\n{report}");
}
