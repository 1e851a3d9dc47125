//! Speculative intra-run parallelism: epoch-sharded SM execution with a
//! deterministic merge, bit-identical to the serial engine at any worker
//! count.
//!
//! # Design (DESIGN.md §12)
//!
//! The serial runner advances the SM with the smallest local clock
//! through the full memory system. Most of those steps never leave the
//! SM's *lane* — its own L1 TLB and L1 cache plus read-only shared state
//! (the page tables): an L1 TLB hit followed by an L1 cache hit touches
//! nothing another SM can observe. This engine exploits that:
//!
//! 1. **Speculate in place.** Worker threads partition the lanes and run
//!    chains of up to [`SPEC_DEPTH`] `advance` steps per lane directly on
//!    the live structures, journaling every mutation (SM scheduler state,
//!    TLB probe, cache access) and buffering every cross-lane effect
//!    (recency/dirty notes, telemetry events). A step that would need the
//!    shared path — any L1 TLB miss, L1 cache miss, or fault — *aborts*:
//!    the speculative memory wrapper returns [`Cycle::MAX`] and the
//!    worker rolls the step back exactly via its journals.
//! 2. **Merge in canonical order.** The main thread replays the serial
//!    scheduling heap. While the smallest-clock lane has an unconsumed
//!    speculated step, consuming it is metadata-only: forward its
//!    buffered telemetry, apply its recency notes, take the epoch/audit
//!    snapshots — all in exactly the serial commit order.
//! 3. **Commit before shared work.** When the smallest-clock lane needs
//!    the shared path, *all* unconsumed speculation is undone first, then
//!    a burst of [`BURST`] steps runs through the ordinary serial loop
//!    body ([`SchedLoop::step_serial`]) — faults, evictions, shootdowns,
//!    deallocations and whole-GPU stall fences all execute on the single
//!    serial thread, against exactly the state the serial engine would
//!    have had.
//!
//! Determinism follows from three invariants: a consumable step reads
//! only lane-local state plus shared state no other lane's consumable
//! step can write (so its results cannot depend on worker scheduling);
//! the scheduling heap receives the identical (cycle, lane) sequence the
//! serial loop would push; and every effect with cross-lane visibility is
//! applied on the main thread in heap order. The speculative and serial
//! paths share one loop body (`Sm::advance_impl`, `GpuSystem`'s L1
//! helpers), so they cannot drift apart.

use crate::runner::{SchedLoop, EPOCH_EVERY};
use crate::system::{GpuSystem, L1Translate};
use mosaic_gpu::{AdvanceUndo, MemoryInterface, Sm, SmStats};
use mosaic_mem::{Cache, CacheAccessUndo};
use mosaic_sim_core::Cycle;
use mosaic_telemetry::{emit, AccessTimeline, Event, MemSink, StallBucket};
use mosaic_vm::{AppId, PageTableSet, PhysFrameNum, Tlb, TlbLookupUndo, VirtAddr};
use mosaic_workloads::{AppWarpStream, AppWarpStreamState};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unconsumed-step target per lane chain. Deep enough to amortize the
/// per-round thread spawns, shallow enough that a mispredicted lane
/// wastes little work.
const SPEC_DEPTH: usize = 32;

/// Serial steps run after a commit barrier before speculation resumes.
/// Shared-path steps cluster (a faulting warp usually faults again soon),
/// so re-entering speculation immediately would thrash on aborts.
const BURST: usize = 64;

/// Process-wide `--sim-threads` override; `0` means "not set".
static SIM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide intra-run worker count.
///
/// Takes precedence over `MOSAIC_SIM_THREADS`; used by the `reproduce`
/// binary's `--sim-threads N` flag and by tests that compare the serial
/// and speculative engines in one process. Results are bit-identical at
/// any count.
pub fn set_sim_threads(n: Option<usize>) {
    SIM_THREADS_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Intra-run worker count: the [`set_sim_threads`] override, else the
/// `MOSAIC_SIM_THREADS` environment variable, else 1 (serial). Unlike the
/// sweep's `--jobs`, this intentionally does *not* default to the
/// machine's parallelism: speculation pays a journaling overhead that is
/// only worth it when idle cores exist, so a single run stays serial
/// unless asked.
pub fn sim_threads() -> usize {
    let overridden = SIM_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(v) = std::env::var("MOSAIC_SIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("MOSAIC_SIM_THREADS={v:?} is not a positive integer; ignoring");
    }
    1
}

/// One speculated `advance` step: the journals that undo it and the
/// buffered cross-lane effects the merge applies when it commits.
struct Step {
    /// SM scheduler/stats journal ([`Sm::advance_logged`]).
    undo: AdvanceUndo<AppWarpStreamState>,
    /// L1 TLB probe journal, in probe order.
    tlb_undo: Vec<TlbLookupUndo>,
    /// L1 cache access journal, in access order.
    cache_undo: Vec<CacheAccessUndo>,
    /// Deferred `note_use` recency/dirty notes, in access order.
    note_use: Vec<(PhysFrameNum, bool)>,
    /// SM clock after the step (the serial loop's heap re-push key).
    post_now: Cycle,
    /// SM statistics after the step (committed epoch snapshots read
    /// these instead of the speculated-ahead live SMs).
    post_stats: SmStats,
    /// Range of this step's events within its lane's event buffer.
    ev_start: usize,
    ev_end: usize,
}

impl Step {
    fn new() -> Self {
        Step {
            undo: AdvanceUndo::default(),
            tlb_undo: Vec::new(),
            cache_undo: Vec::new(),
            note_use: Vec::new(),
            post_now: Cycle::ZERO,
            post_stats: SmStats::default(),
            ev_start: 0,
            ev_end: 0,
        }
    }

    fn reset(&mut self) {
        self.tlb_undo.clear();
        self.cache_undo.clear();
        self.note_use.clear();
        self.ev_start = 0;
        self.ev_end = 0;
    }
}

/// Per-lane speculation state: the chain of unconsumed steps and the
/// telemetry captured while speculating them.
struct Lane {
    /// Speculated steps in execution order; `steps[..consumed]` are
    /// committed, the rest are applied in place but unmerged.
    steps: Vec<Step>,
    consumed: usize,
    /// Events captured on the speculating worker, indexed by the steps'
    /// `ev_start..ev_end` ranges (monotonic, gapless).
    events: Vec<Event>,
    /// The next step needs the shared path (the chain ended on an abort
    /// or on SM retirement): it must run through the serial loop.
    barrier: bool,
    /// Recycled step buffers (journals keep their allocations).
    spare: Vec<Step>,
}

impl Lane {
    fn new() -> Self {
        Lane {
            steps: Vec::new(),
            consumed: 0,
            events: Vec::new(),
            barrier: false,
            spare: Vec::new(),
        }
    }

    fn unconsumed(&self) -> usize {
        self.steps.len() - self.consumed
    }

    /// Drops the committed prefix (steps and their already-forwarded
    /// events), recycling the step buffers.
    fn compact(&mut self) {
        if self.consumed == 0 {
            return;
        }
        let ev_cut = self.steps.get(self.consumed).map_or(self.events.len(), |s| s.ev_start);
        self.events.drain(..ev_cut);
        for s in &mut self.steps[self.consumed..] {
            s.ev_start -= ev_cut;
            s.ev_end -= ev_cut;
        }
        let drained: Vec<Step> = self.steps.drain(..self.consumed).collect();
        self.spare.extend(drained);
        self.consumed = 0;
    }

    /// Discards all bookkeeping after a commit barrier: the live
    /// structures are the committed state, so the chains are moot.
    fn reset(&mut self) {
        let drained: Vec<Step> = self.steps.drain(..).collect();
        self.spare.extend(drained);
        self.consumed = 0;
        self.events.clear();
        self.barrier = false;
    }
}

/// The speculative lane-local memory system: L1 TLB hits and L1 cache
/// hits only, journaled. Anything else — L1 TLB miss, L1 cache miss,
/// ideal-TLB fault — returns the [`Cycle::MAX`] abort sentinel, and the
/// worker rolls the step back. Shares `GpuSystem`'s L1 helper code, so a
/// serviced access charges exactly the serial cycles and emits exactly
/// the serial events.
struct SpecMem<'a> {
    ideal: bool,
    track_use: bool,
    tables: &'a PageTableSet,
    tlb: &'a mut Tlb,
    cache: &'a mut Cache,
    tlb_undo: &'a mut Vec<TlbLookupUndo>,
    cache_undo: &'a mut Vec<CacheAccessUndo>,
    note_use: &'a mut Vec<(PhysFrameNum, bool)>,
    aborted: bool,
}

impl MemoryInterface for SpecMem<'_> {
    fn warp_access(&mut self, now: Cycle, sm: usize, asid: AppId, addresses: &[VirtAddr]) -> Cycle {
        let mut scratch = AccessTimeline::default();
        self.warp_access_timed(now, sm, asid, addresses, &mut scratch)
    }

    fn warp_access_timed(
        &mut self,
        now: Cycle,
        sm: usize,
        asid: AppId,
        addresses: &[VirtAddr],
        timeline: &mut AccessTimeline,
    ) -> Cycle {
        // Mirrors `GpuSystem::warp_access_timed` exactly, minus every
        // shared-path branch (those abort instead).
        let mut worst = now + 1;
        *timeline = AccessTimeline::single(now, worst, StallBucket::Other);
        for &addr in addresses {
            let mut tl = AccessTimeline::begin(now);
            let (translated, phys) = match GpuSystem::l1_translate(
                self.ideal,
                self.tables,
                self.tlb,
                now,
                sm,
                asid,
                addr,
                &mut tl,
                Some(&mut *self.tlb_undo),
            ) {
                L1Translate::Hit { done, phys } => (done, phys),
                L1Translate::IdealFault | L1Translate::Miss { .. } => {
                    self.aborted = true;
                    return Cycle::MAX;
                }
            };
            if self.track_use {
                self.note_use
                    .push((phys.base_frame(), GpuSystem::is_store(asid, addr.base_page())));
            }
            let done = match GpuSystem::l1_data(
                self.cache,
                translated,
                phys,
                &mut tl,
                Some(&mut *self.cache_undo),
            ) {
                Ok(done) => done,
                Err(_miss) => {
                    self.aborted = true;
                    return Cycle::MAX;
                }
            };
            tl.seal(done);
            if done > worst {
                worst = done;
                *timeline = tl;
            }
        }
        timeline.seal(worst);
        worst
    }
}

/// Runs one phase's scheduling loop with `threads` speculation workers.
/// Bit-identical to `while sched.step_serial() {}` by construction.
pub(crate) fn run_phase(sched: &mut SchedLoop<'_>, threads: usize) {
    let n = sched.sms.len();
    let workers = threads.min(n).max(1);
    let mut lanes: Vec<Lane> = (0..n).map(|_| Lane::new()).collect();
    let mut refill_flags = vec![false; n];
    let mut alive = vec![false; n];
    for i in sched.heap.sms() {
        alive[i] = true;
    }
    let mut stats_committed: Vec<SmStats> = sched.sms.iter().map(|s| s.stats()).collect();
    let tracing = mosaic_telemetry::enabled();

    while let Some((_, idx)) = sched.heap.peek() {
        if lanes[idx].unconsumed() > 0 {
            consume_step(sched, &mut lanes, &mut stats_committed, idx);
        } else if lanes[idx].barrier {
            // Commit barrier: the smallest-clock lane needs the shared
            // memory/VM stack. Roll back everything unmerged, then run a
            // serial burst against the (now exactly committed) state.
            undo_unconsumed(sched, &mut lanes);
            let mut steps = 0;
            while steps < BURST && sched.step_serial() {
                steps += 1;
            }
            for lane in &mut lanes {
                lane.reset();
            }
            for (i, stats) in stats_committed.iter_mut().enumerate() {
                *stats = sched.sms[i].stats();
            }
            alive.fill(false);
            for i in sched.heap.sms() {
                alive[i] = true;
            }
        } else {
            // The smallest-clock lane's chain ran dry cleanly: top up
            // every live lane that is running low, in parallel.
            for (i, flag) in refill_flags.iter_mut().enumerate() {
                *flag = alive[i] && !lanes[i].barrier && lanes[i].unconsumed() < SPEC_DEPTH / 2;
            }
            refill(sched, &mut lanes, &refill_flags, workers, tracing);
            // Progress: the top lane now has steps or hit a barrier.
            debug_assert!(lanes[idx].barrier || lanes[idx].unconsumed() > 0);
        }
    }
    debug_assert!(lanes.iter().all(|l| l.unconsumed() == 0), "heap drained with live speculation");
}

/// Commits the next speculated step of lane `idx` in serial heap order.
/// The lane's structures already hold the post-step state; committing
/// forwards the buffered cross-lane effects and replays the serial
/// loop's bookkeeping (epoch snapshot, audit, heap re-push).
fn consume_step(
    sched: &mut SchedLoop<'_>,
    lanes: &mut [Lane],
    stats_committed: &mut [SmStats],
    idx: usize,
) {
    debug_assert!(matches!(sched.heap.peek(), Some((_, i)) if i == idx));
    let lane = &mut lanes[idx];
    let step_idx = lane.consumed;
    lane.consumed += 1;
    let step = &lane.steps[step_idx];
    // Forward the step's captured telemetry in commit order.
    for &ev in &lane.events[step.ev_start..step.ev_end] {
        emit(|| ev);
    }
    // Apply the deferred recency/dirty notes in access order.
    for &(frame, store) in &step.note_use {
        sched.system.note_use_commit(frame, store);
    }
    stats_committed[idx] = step.post_stats;
    // A committed lane-local step can never raise the whole-GPU fence.
    debug_assert!(!sched.system.has_pending_stall());
    if mosaic_telemetry::enabled() {
        let now = step.post_now.as_u64();
        if now >= *sched.next_epoch {
            let (mut instructions, mut stall_cycles) = (0u64, 0u64);
            for stats in stats_committed.iter() {
                instructions += stats.instructions;
                stall_cycles += stats.stall_cycles;
            }
            emit(|| Event::Epoch { cycle: now, instructions, stall_cycles });
            *sched.next_epoch = (now / EPOCH_EVERY + 1) * EPOCH_EVERY;
        }
    }
    if let Some(every) = sched.audit_every {
        let now = step.post_now.as_u64();
        if now >= *sched.next_audit {
            // Sound mid-speculation: speculated steps never change TLB
            // membership or page tables, so the audit sees exactly the
            // committed-state invariants the serial loop would.
            sched.system.audit().assert_clean(format_args!("cycle {now}"));
            *sched.next_audit = (now / every + 1) * every;
        }
    }
    sched.heap.rekey_top(step.post_now);
}

/// Rolls back every unconsumed speculated step, newest first per lane,
/// leaving the live structures exactly at the committed state. Lanes are
/// independent, so cross-lane undo order is irrelevant; within a lane
/// and within a step, journals undo in reverse application order (the
/// TLB and cache journals touch disjoint state, so only their internal
/// order matters).
fn undo_unconsumed(sched: &mut SchedLoop<'_>, lanes: &mut [Lane]) {
    let sms = &mut *sched.sms;
    let (_cfg, _tables, tlbs, caches) = sched.system.speculation_split();
    for (i, lane) in lanes.iter_mut().enumerate() {
        for step in lane.steps[lane.consumed..].iter().rev() {
            for rec in step.cache_undo.iter().rev() {
                caches[i].undo_access(rec);
            }
            for rec in step.tlb_undo.iter().rev() {
                tlbs[i].undo_lookup(rec);
            }
            sms[i].undo_advance(&step.undo);
        }
    }
}

/// Tops up the flagged lanes' chains in parallel: lanes are partitioned
/// into contiguous chunks, one scoped worker per chunk. Workers touch
/// only their own lanes plus the read-only page tables, so the partition
/// (and worker scheduling) cannot influence any result.
fn refill(
    sched: &mut SchedLoop<'_>,
    lanes: &mut [Lane],
    flags: &[bool],
    workers: usize,
    tracing: bool,
) {
    let sms = &mut *sched.sms;
    let (cfg, tables, tlbs, caches) = sched.system.speculation_split();
    let ideal = cfg.system.ideal_tlb;
    let track_use = cfg.oversubscription.is_some();
    let chunk = lanes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for ((((sm_c, tlb_c), cache_c), lane_c), flag_c) in sms
            .chunks_mut(chunk)
            .zip(tlbs.chunks_mut(chunk))
            .zip(caches.chunks_mut(chunk))
            .zip(lanes.chunks_mut(chunk))
            .zip(flags.chunks(chunk))
        {
            if !flag_c.iter().any(|&f| f) {
                continue;
            }
            scope.spawn(move || {
                if tracing {
                    // Workers capture their lanes' events locally; the
                    // merge forwards them in commit order on the main
                    // thread's sink.
                    mosaic_telemetry::set_sink(Some(Box::new(MemSink::new())));
                    mosaic_telemetry::set_enabled(true);
                }
                let it = sm_c
                    .iter_mut()
                    .zip(tlb_c.iter_mut())
                    .zip(cache_c.iter_mut())
                    .zip(lane_c.iter_mut())
                    .zip(flag_c.iter());
                for ((((sm, tlb), cache), lane), &flag) in it {
                    if flag {
                        refill_lane(sm, tlb, cache, lane, tables, ideal, track_use, tracing);
                    }
                }
                if tracing {
                    mosaic_telemetry::set_enabled(false);
                    mosaic_telemetry::set_sink(None);
                }
            });
        }
    });
}

/// Extends one lane's chain in place until it holds [`SPEC_DEPTH`]
/// unconsumed steps, aborting (and exactly rolling back) the first step
/// that needs the shared path.
#[allow(clippy::too_many_arguments)] // worker-side split borrows of the system
fn refill_lane(
    sm: &mut Sm<AppWarpStream>,
    tlb: &mut Tlb,
    cache: &mut Cache,
    lane: &mut Lane,
    tables: &PageTableSet,
    ideal: bool,
    track_use: bool,
    tracing: bool,
) {
    debug_assert!(!lane.barrier);
    lane.compact();
    let first_new = lane.steps.len();
    let ev_base = lane.events.len();
    while lane.steps.len() < SPEC_DEPTH {
        let mut step = lane.spare.pop().unwrap_or_else(Step::new);
        step.reset();
        let ev_start = mosaic_telemetry::sink_len();
        let (active, aborted) = {
            let mut mem = SpecMem {
                ideal,
                track_use,
                tables,
                tlb: &mut *tlb,
                cache: &mut *cache,
                tlb_undo: &mut step.tlb_undo,
                cache_undo: &mut step.cache_undo,
                note_use: &mut step.note_use,
                aborted: false,
            };
            let active = sm.advance_logged(&mut mem, &mut step.undo);
            (active, mem.aborted)
        };
        if aborted || !active {
            // Aborted (shared path needed) or the SM retired (the
            // runner's retirement/deallocation logic must run serially):
            // roll the step back exactly and stop the chain.
            for rec in step.cache_undo.iter().rev() {
                cache.undo_access(rec);
            }
            for rec in step.tlb_undo.iter().rev() {
                tlb.undo_lookup(rec);
            }
            sm.undo_advance(&step.undo);
            if tracing {
                mosaic_telemetry::truncate_sink(ev_start);
            }
            lane.barrier = true;
            lane.spare.push(step);
            break;
        }
        step.post_now = sm.now();
        step.post_stats = sm.stats();
        step.ev_start = ev_start;
        step.ev_end = mosaic_telemetry::sink_len();
        lane.steps.push(step);
    }
    if tracing {
        // This call's step ranges are relative to the (empty-at-entry)
        // worker sink; rebase them onto the lane's event buffer.
        let fresh = drain_thread_events();
        for s in &mut lane.steps[first_new..] {
            s.ev_start += ev_base;
            s.ev_end += ev_base;
        }
        lane.events.extend(fresh);
    }
}

/// Drains this worker thread's buffered events, leaving the sink
/// installed and empty for the next lane.
fn drain_thread_events() -> Vec<Event> {
    match mosaic_telemetry::set_sink(None) {
        Some(mut sink) => {
            let events = sink.take_events();
            mosaic_telemetry::set_sink(Some(sink));
            events
        }
        None => Vec::new(),
    }
}
