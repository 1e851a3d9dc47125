//! Properties of the speculative engine's deterministic merge.
//!
//! The headline claim (DESIGN.md §12) is *bit-identity*: `--sim-threads N`
//! must produce exactly the serial engine's results — per-app IPC, system
//! statistics, stall decomposition, and the full telemetry event stream —
//! for every N. These tests pin that claim at the `run_workload` level
//! across managers, paging modes, oversubscription, multi-phase runs, and
//! seeds, plus the merge-algebra property that makes it work: commit order
//! is a pure function of (cycle, lane) keys, so any worker-side
//! reordering sorts back to the identical canonical sequence.

use mosaic_gpusim::{set_sim_threads, ManagerKind, RunConfig, RunResult};
use mosaic_telemetry::TraceSession;
use mosaic_workloads::{ScaleConfig, Workload};
use std::sync::{Mutex, MutexGuard};

/// `set_sim_threads` is process-global; tests that flip it serialize.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_cfg(manager: ManagerKind) -> RunConfig {
    let mut cfg = RunConfig::new(manager).with_scale(ScaleConfig {
        ws_divisor: 64,
        mem_ops_per_warp: 24,
        warps_per_sm: 4,
        phases: 1,
    });
    cfg.system.sm_count = 6;
    cfg
}

/// Runs `workload` under `cfg` serially and at several worker counts,
/// asserting bit-identical results (and, when `traced`, byte-identical
/// event streams).
fn assert_engine_equivalence(workload: &Workload, cfg: RunConfig, traced: bool) {
    let _guard = lock();
    set_sim_threads(None);
    let run = |threads: Option<usize>| -> (RunResult, Vec<mosaic_telemetry::Event>) {
        set_sim_threads(threads);
        let result = if traced {
            let session = TraceSession::start();
            let r = mosaic_gpusim::run_workload(workload, cfg);
            (r, session.finish())
        } else {
            (mosaic_gpusim::run_workload(workload, cfg), Vec::new())
        };
        set_sim_threads(None);
        result
    };
    let (serial, serial_events) = run(None);
    for threads in [2, 4, 8] {
        let (sharded, sharded_events) = run(Some(threads));
        assert_eq!(serial, sharded, "results diverge at --sim-threads {threads}");
        assert_eq!(
            serial_events.len(),
            sharded_events.len(),
            "event counts diverge at --sim-threads {threads}"
        );
        for (i, (a, b)) in serial_events.iter().zip(&sharded_events).enumerate() {
            assert_eq!(a, b, "event {i} diverges at --sim-threads {threads}");
        }
    }
}

#[test]
fn preloaded_mosaic_is_bit_identical_across_thread_counts() {
    let w = Workload::from_names(&["MM", "GUPS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::mosaic()).preloaded(), false);
}

#[test]
fn on_demand_gpu_mmu_is_bit_identical_across_thread_counts() {
    let w = Workload::from_names(&["HS", "CONS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::GpuMmu4K), false);
}

#[test]
fn oversubscribed_run_is_bit_identical_across_thread_counts() {
    // Eviction pressure exercises the deferred note_use path: recency and
    // dirty classification must commit in exact serial order or the LRU
    // eviction choices (and with them every downstream cycle) diverge.
    let w = Workload::from_names(&["MM", "GUPS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::mosaic()).oversubscribed(2.0), false);
}

#[test]
fn ideal_tlb_run_is_bit_identical_across_thread_counts() {
    let w = Workload::from_names(&["GUPS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::GpuMmu4K).ideal_tlb(), false);
}

#[test]
fn multi_phase_run_is_bit_identical_across_thread_counts() {
    // Between-kernel deallocations force commit barriers mid-run.
    let mut cfg = tiny_cfg(ManagerKind::mosaic());
    cfg.scale.phases = 2;
    let w = Workload::from_names(&["MM", "NN"]);
    assert_engine_equivalence(&w, cfg, false);
}

#[test]
fn traced_run_produces_byte_identical_event_stream() {
    // Telemetry is the strictest witness: every TlbLookup/WarpMem emitted
    // on a speculation worker must be forwarded in exact commit order,
    // interleaved correctly with main-thread Epoch/FarFault/Shootdown
    // events.
    let w = Workload::from_names(&["MM", "GUPS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::mosaic()), true);
}

#[test]
fn traced_oversubscribed_run_produces_byte_identical_event_stream() {
    let w = Workload::from_names(&["GUPS"]);
    assert_engine_equivalence(&w, tiny_cfg(ManagerKind::mosaic()).oversubscribed(2.0), true);
}

#[test]
fn seed_sweep_is_bit_identical_at_high_thread_counts() {
    // Eight seeds, serial vs. sharded: the determinism tier's smoke
    // matrix at the unit level.
    let w = Workload::from_names(&["HS", "MUM"]);
    for seed in 0..8u64 {
        let mut cfg = tiny_cfg(ManagerKind::mosaic());
        cfg.seed = seed;
        assert_engine_equivalence(&w, cfg, false);
    }
}

#[test]
fn thread_count_beyond_lane_count_is_clamped_and_identical() {
    let mut cfg = tiny_cfg(ManagerKind::GpuMmu4K);
    cfg.system.sm_count = 2; // fewer lanes than workers
    let w = Workload::from_names(&["MM"]);
    assert_engine_equivalence(&w, cfg, false);
}

#[test]
fn canonical_merge_order_is_invariant_under_worker_reordering() {
    // The merge applies cross-lane effects keyed by (cycle, lane-index)
    // in the scheduling heap's order: ascending cycle, descending lane on
    // ties (the scheduler's packed `clock << 16 | (0xffff - lane)` min-heap
    // pops the max lane index among equal cycles). Workers may *produce* steps in any order; the
    // commit sequence is a sort by that key, so shuffling production
    // order and re-sorting must round-trip for any interleaving.
    let canonical_key = |cycle: u64, lane: usize| (cycle, usize::MAX - lane);
    let mut rng = 0x9e37_79b9_97f4_a7c5u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for seed in 0..64u32 {
        // A plausible epoch's worth of step keys: clustered cycles (ties
        // across lanes are common — SMs run in near-lockstep), 30 lanes.
        let mut steps: Vec<(u64, usize)> = (0..512)
            .map(|i| {
                let cycle = u64::from(seed) * 1000 + next() % 32;
                let lane = (next() as usize + i) % 30;
                (cycle, lane)
            })
            .collect();
        let mut canonical = steps.clone();
        canonical.sort_by_key(|&(c, l)| canonical_key(c, l));
        // Shuffle (Fisher-Yates with the xorshift) to model arbitrary
        // worker completion order, then re-sort.
        for i in (1..steps.len()).rev() {
            let j = (next() as usize) % (i + 1);
            steps.swap(i, j);
        }
        steps.sort_by_key(|&(c, l)| canonical_key(c, l));
        assert_eq!(steps, canonical, "seed {seed}: canonical order depends on production order");
    }
}
