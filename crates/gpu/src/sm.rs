//! The streaming multiprocessor (SM) model with GTO warp scheduling.
//!
//! Each SM owns a set of resident warps (its thread blocks' warps), issues
//! at most one warp instruction per cycle, and follows the
//! greedy-then-oldest policy of the paper's configuration (Table 1): keep
//! issuing from the current warp until it stalls, then switch to the
//! oldest ready warp. When no warp is ready the SM fast-forwards to the
//! earliest wake-up — those skipped cycles are the *stall cycles* that
//! TLB misses and far-faults inflate and that Mosaic claws back.

use crate::warp::{AddrList, MemoryInterface, StreamCheckpoint, WarpOp, WarpStream};
use mosaic_sim_core::Cycle;
use mosaic_telemetry::{emit, AccessTimeline, Event, StallBreakdown, StallBucket};
use mosaic_vm::AppId;

/// SM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Resident warps per SM (warp slots across its thread blocks).
    pub warps: usize,
    /// Maximum instructions issued per [`Sm::advance`] call before
    /// returning control to the global scheduler (keeps SM clocks in
    /// lockstep with shared-resource contention).
    pub batch: usize,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig { warps: 32, batch: 8 }
    }
}

/// Per-SM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions retired.
    pub instructions: u64,
    /// Memory instructions among them.
    pub memory_instructions: u64,
    /// Cycles with no warp ready to issue.
    pub stall_cycles: u64,
    /// Memory transactions issued (post-coalescing).
    pub transactions: u64,
    /// Exact decomposition of `stall_cycles` by cause: each stalled
    /// interval is attributed to the timeline of the warp whose wake-up
    /// ends it (the critical path), so the buckets always sum to
    /// `stall_cycles`.
    pub stall_breakdown: StallBreakdown,
}

/// Journal reversing one [`Sm::advance_logged`] call: the scalar SM
/// header (clock, GTO cursor, live count, fence, stats, address buffer —
/// all mutated unconditionally) plus one record per issued op capturing
/// the picked warp's pre-issue state, including its stream checkpoint.
/// `C` is the stream's [`StreamCheckpoint::State`]. Reuse one journal
/// per speculation slot — [`Sm::advance_logged`] clears and refills the
/// op vector, so its allocation amortizes across steps.
#[derive(Debug, Clone)]
pub struct AdvanceUndo<C> {
    now: Cycle,
    current: usize,
    live: usize,
    fence: Cycle,
    fence_cause: StallBucket,
    stats: SmStats,
    addrs: AddrList,
    ops: Vec<OpUndo<C>>,
}

impl<C> Default for AdvanceUndo<C> {
    fn default() -> Self {
        AdvanceUndo {
            now: Cycle::ZERO,
            current: 0,
            live: 0,
            fence: Cycle::ZERO,
            fence_cause: StallBucket::Sync,
            stats: SmStats::default(),
            addrs: AddrList::new(),
            ops: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct OpUndo<C> {
    warp: usize,
    wake: Cycle,
    timeline: AccessTimeline,
    stream: C,
}

/// Hook the scheduler loop invokes immediately before a picked warp's
/// stream produces its next op. The serial path uses [`NoOpLog`], which
/// monomorphizes away; [`Sm::advance_logged`] installs a journal writer.
/// Keeping one shared loop body (instead of a logged copy of `advance`)
/// is what guarantees the speculative and serial paths cannot drift.
trait OpLogger<S: WarpStream> {
    fn log_op(&mut self, sm: &Sm<S>, warp: usize);
}

/// The serial no-journal logger.
struct NoOpLog;

impl<S: WarpStream> OpLogger<S> for NoOpLog {
    fn log_op(&mut self, _sm: &Sm<S>, _warp: usize) {}
}

/// Journal writer for [`Sm::advance_logged`].
struct JournalLog<'a, C> {
    ops: &'a mut Vec<OpUndo<C>>,
}

impl<S> OpLogger<S> for JournalLog<'_, S::State>
where
    S: WarpStream + StreamCheckpoint,
{
    fn log_op(&mut self, sm: &Sm<S>, warp: usize) {
        self.ops.push(OpUndo {
            warp,
            wake: sm.wake[warp],
            timeline: sm.timelines[warp],
            stream: sm.streams[warp].checkpoint(),
        });
    }
}

/// The scheduler's next move, from [`Sm::next_warp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextWarp {
    /// Issue from this ready warp.
    Issue(usize),
    /// No warp is ready; this one wakes first.
    Wait(usize),
    /// Every warp has exited.
    Done,
}

/// One streaming multiprocessor.
///
/// Drive it with [`Sm::advance`] from a loop that always advances the SM
/// with the smallest local clock; the SM is done when [`Sm::is_active`]
/// turns false.
///
/// The SM is generic over its warp-stream type. The default,
/// `Box<dyn WarpStream>`, accepts any mix of streams; callers on the hot
/// path (the full-system runner) instantiate `Sm<ConcreteStream>` instead
/// so `next_op` calls are static — no per-warp box, no vtable dispatch.
#[derive(Debug)]
pub struct Sm<S: WarpStream = Box<dyn WarpStream>> {
    id: usize,
    asid: AppId,
    config: SmConfig,
    streams: Vec<S>,
    /// When each warp can issue next, indexed like `streams`;
    /// [`Cycle::MAX`] once it has exited. Kept apart from the (large)
    /// streams so the scheduler's per-instruction scan reads one dense
    /// array.
    wake: Vec<Cycle>,
    /// Warps not yet exited (the entries of `wake` below `Cycle::MAX`).
    live: usize,
    /// Where the cycles of each warp's in-flight operation went, indexed
    /// like `streams`; consulted when an SM stall ends at that warp's
    /// wake-up.
    timelines: Vec<AccessTimeline>,
    /// The one address buffer every memory op of this SM is generated
    /// into ([`WarpStream::next_op`]).
    addrs: AddrList,
    current: usize,
    now: Cycle,
    /// External stall barrier (e.g., worst-case compaction stalls): the SM
    /// may not issue before this cycle.
    fence: Cycle,
    /// Which bucket fence-induced stall cycles are charged to.
    fence_cause: StallBucket,
    stats: SmStats,
}

impl<S: WarpStream> Sm<S> {
    /// Creates an SM for application `asid` with the given warp streams.
    /// SMs with no warps start inactive.
    pub fn new(id: usize, asid: AppId, config: SmConfig, streams: Vec<S>) -> Self {
        let n = streams.len();
        Sm {
            id,
            asid,
            config,
            streams,
            wake: vec![Cycle::ZERO; n],
            live: n,
            timelines: vec![AccessTimeline::default(); n],
            addrs: AddrList::new(),
            current: 0,
            now: Cycle::ZERO,
            fence: Cycle::ZERO,
            fence_cause: StallBucket::Sync,
            stats: SmStats::default(),
        }
    }

    /// Re-arms the SM with a new grid's warp streams, resetting the clock,
    /// fence, and statistics but keeping identity (`id`, `asid`) and the
    /// warp-slot allocation. Lets a multi-phase runner reuse its SMs
    /// instead of constructing a fresh vector per kernel phase.
    pub fn reload(&mut self, streams: impl IntoIterator<Item = S>) {
        self.streams.clear();
        self.streams.extend(streams);
        let n = self.streams.len();
        self.wake.clear();
        self.wake.resize(n, Cycle::ZERO);
        self.live = n;
        self.timelines.clear();
        self.timelines.resize(n, AccessTimeline::default());
        self.current = 0;
        self.now = Cycle::ZERO;
        self.fence = Cycle::ZERO;
        self.fence_cause = StallBucket::Sync;
        self.stats = SmStats::default();
    }

    /// This SM's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The application this SM is partitioned to.
    pub fn asid(&self) -> AppId {
        self.asid
    }

    /// The SM's local clock.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Whether any warp still has work.
    pub fn is_active(&self) -> bool {
        self.live > 0
    }

    /// Stalls the SM until `until` (used for the conservative whole-GPU
    /// compaction stalls and baseline TLB-shootdown modelling), charging
    /// the stalled cycles to [`StallBucket::Sync`].
    pub fn stall_until(&mut self, until: Cycle) {
        self.stall_until_for(until, StallBucket::Sync);
    }

    /// Stalls the SM until `until`, charging the stalled cycles to
    /// `cause`. A fence that does not extend the current one keeps the
    /// existing cause.
    pub fn stall_until_for(&mut self, until: Cycle, cause: StallBucket) {
        if until > self.fence {
            self.fence = until;
            self.fence_cause = cause;
        }
    }

    /// One scan over `wake` for the scheduler's next move: the GTO pick
    /// (the current warp if ready, else the lowest-index ready warp), or
    /// failing that the earliest-waking warp (first minimum), or
    /// [`NextWarp::Done`] once every warp has exited. An exited warp's
    /// `Cycle::MAX` is never ready and never below the running minimum.
    fn next_warp(&self) -> NextWarp {
        if self.wake[self.current] <= self.now {
            return NextWarp::Issue(self.current);
        }
        let mut earliest = None;
        let mut earliest_wake = Cycle::MAX;
        for (i, &wake) in self.wake.iter().enumerate() {
            if wake <= self.now {
                return NextWarp::Issue(i);
            }
            if wake < earliest_wake {
                earliest_wake = wake;
                earliest = Some(i);
            }
        }
        earliest.map_or(NextWarp::Done, NextWarp::Wait)
    }

    /// Runs the SM for up to `config.batch` issued instructions (or one
    /// stall jump), charging memory operations to `mem`. Returns `true`
    /// while active.
    pub fn advance(&mut self, mem: &mut dyn MemoryInterface) -> bool {
        self.advance_impl(mem, &mut NoOpLog)
    }

    fn advance_impl(&mut self, mem: &mut dyn MemoryInterface, log: &mut impl OpLogger<S>) -> bool {
        if !self.is_active() {
            return false;
        }
        if self.fence > self.now {
            let skipped = self.fence - self.now;
            self.stats.stall_cycles += skipped;
            self.stats.stall_breakdown.add(self.fence_cause, skipped);
            self.now = self.fence;
        }
        for _ in 0..self.config.batch {
            let w = match self.next_warp() {
                NextWarp::Issue(w) => w,
                NextWarp::Wait(i) => {
                    // Nothing ready: fast-forward to the next wake-up and
                    // attribute the skipped interval to the waking warp's
                    // timeline (the critical path that ends the stall).
                    let wake = self.wake[i];
                    let skipped = wake - self.now;
                    self.stats.stall_cycles += skipped;
                    self.stats.stall_breakdown.attribute(&self.timelines[i], self.now, wake);
                    self.now = wake;
                    return true;
                }
                NextWarp::Done => return false,
            };
            self.current = w;
            log.log_op(self, w);
            match self.streams[w].next_op(&mut self.addrs) {
                WarpOp::Compute { cycles } => {
                    self.stats.instructions += 1;
                    let ready = self.now + u64::from(cycles.max(1));
                    self.wake[w] = ready;
                    self.timelines[w] =
                        AccessTimeline::single(self.now, ready, StallBucket::Compute);
                    self.now += 1;
                }
                WarpOp::Memory => {
                    let addresses = &self.addrs;
                    self.stats.instructions += 1;
                    self.stats.memory_instructions += 1;
                    self.stats.transactions += addresses.len() as u64;
                    let done = mem.warp_access_timed(
                        self.now,
                        self.id,
                        self.asid,
                        addresses,
                        &mut self.timelines[w],
                    );
                    if done == Cycle::MAX {
                        // Abort sentinel: a speculative memory wrapper
                        // signals "not serviceable locally" and the
                        // engine rolls this step back via its journal.
                        // Real memory systems never produce Cycle::MAX.
                        return true;
                    }
                    debug_assert!(done >= self.now);
                    // SIMT lockstep: the warp waits for its slowest lane.
                    self.wake[w] = done;
                    emit(|| Event::WarpMem {
                        sm: self.id as u32,
                        asid: self.asid.0,
                        issue: self.now.as_u64(),
                        done: done.as_u64(),
                        transactions: addresses.len() as u32,
                    });
                    self.now += 1;
                }
                WarpOp::Exit => {
                    self.wake[w] = Cycle::MAX;
                    self.live -= 1;
                }
            }
        }
        true
    }

    /// [`Sm::advance`] with a journal: `undo` is cleared and refilled so
    /// [`Sm::undo_advance`] can reverse the step exactly. The loop body
    /// is `advance` itself (shared via the logging hook), so outcome,
    /// statistics, and scheduling are identical to the serial path.
    /// External effects of memory ops (TLB/cache state, telemetry) are
    /// *not* covered — the speculative engine journals those at the
    /// memory-wrapper layer.
    pub fn advance_logged(
        &mut self,
        mem: &mut dyn MemoryInterface,
        undo: &mut AdvanceUndo<S::State>,
    ) -> bool
    where
        S: StreamCheckpoint,
    {
        undo.ops.clear();
        undo.now = self.now;
        undo.current = self.current;
        undo.live = self.live;
        undo.addrs = self.addrs;
        undo.fence = self.fence;
        undo.fence_cause = self.fence_cause;
        undo.stats = self.stats;
        self.advance_impl(mem, &mut JournalLog { ops: &mut undo.ops })
    }

    /// Reverses one [`Sm::advance_logged`] call: per-op warp state is
    /// restored in reverse issue order, then the SM header. Only valid
    /// as the inverse of the *most recent* un-undone `advance_logged` on
    /// this SM.
    pub fn undo_advance(&mut self, undo: &AdvanceUndo<S::State>)
    where
        S: StreamCheckpoint,
    {
        for op in undo.ops.iter().rev() {
            self.wake[op.warp] = op.wake;
            self.streams[op.warp].restore(&op.stream);
            self.timelines[op.warp] = op.timeline;
        }
        self.now = undo.now;
        self.current = undo.current;
        self.live = undo.live;
        self.addrs = undo.addrs;
        self.fence = undo.fence;
        self.fence_cause = undo.fence_cause;
        self.stats = undo.stats;
    }

    /// Runs the SM to completion against `mem` (single-SM convenience for
    /// tests and microbenchmarks). Returns the final cycle.
    pub fn run_to_completion(&mut self, mem: &mut dyn MemoryInterface) -> Cycle {
        while self.advance(mem) {}
        self.now
    }

    /// Instructions per cycle retired so far.
    pub fn ipc(&self) -> f64 {
        if self.now == Cycle::ZERO {
            0.0
        } else {
            self.stats.instructions as f64 / self.now.as_u64() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::FixedLatencyMemory;
    use mosaic_vm::VirtAddr;

    /// `n` compute ops then exit.
    #[derive(Debug)]
    struct ComputeN(u64);
    impl WarpStream for ComputeN {
        fn next_op(&mut self, _addrs: &mut AddrList) -> WarpOp {
            if self.0 == 0 {
                WarpOp::Exit
            } else {
                self.0 -= 1;
                WarpOp::Compute { cycles: 1 }
            }
        }
    }

    /// Alternates memory and compute, `n` memory ops total.
    #[derive(Debug)]
    struct MemN(u64);
    impl WarpStream for MemN {
        fn next_op(&mut self, addrs: &mut AddrList) -> WarpOp {
            if self.0 == 0 {
                WarpOp::Exit
            } else {
                self.0 -= 1;
                addrs.clear();
                addrs.push(VirtAddr(self.0 * 128));
                WarpOp::Memory
            }
        }
    }
    impl StreamCheckpoint for MemN {
        type State = u64;
        fn checkpoint(&self) -> u64 {
            self.0
        }
        fn restore(&mut self, state: &u64) {
            self.0 = *state;
        }
    }

    fn sm_with(streams: Vec<Box<dyn WarpStream>>) -> Sm {
        Sm::new(0, AppId(0), SmConfig { warps: streams.len(), batch: 8 }, streams)
    }

    #[test]
    fn single_compute_warp_is_ipc_1() {
        let mut sm = sm_with(vec![Box::new(ComputeN(100))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        let end = sm.run_to_completion(&mut mem);
        assert_eq!(sm.stats().instructions, 100);
        assert_eq!(end.as_u64(), 100);
        assert!((sm.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_latency_stalls_single_warp() {
        let mut sm = sm_with(vec![Box::new(MemN(10))]);
        let mut mem = FixedLatencyMemory { latency: 100 };
        let end = sm.run_to_completion(&mut mem);
        // Each op: issue (1cy) then wait ~100: about 1000 cycles total.
        assert!(end.as_u64() >= 1000);
        assert!(sm.stats().stall_cycles > 900);
        assert_eq!(sm.stats().memory_instructions, 10);
    }

    #[test]
    fn tlp_hides_memory_latency() {
        // One warp: ~100 cycles per op. 32 warps: the SM interleaves them,
        // so total time is far less than 32x.
        let streams: Vec<Box<dyn WarpStream>> = (0..32).map(|_| Box::new(MemN(10)) as _).collect();
        let mut sm = sm_with(streams);
        let mut mem = FixedLatencyMemory { latency: 100 };
        let end = sm.run_to_completion(&mut mem);
        let single_warp_time = 1010;
        assert!(
            end.as_u64() < 2 * single_warp_time,
            "32 warps should overlap: {} cycles",
            end.as_u64()
        );
        assert_eq!(sm.stats().instructions, 320);
    }

    #[test]
    fn gto_prefers_current_warp() {
        // Two warps of compute: greedy keeps issuing warp 0 until it exits.
        #[derive(Debug)]
        struct Tagged(&'static str, u64, std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>);
        impl WarpStream for Tagged {
            fn next_op(&mut self, _addrs: &mut AddrList) -> WarpOp {
                if self.1 == 0 {
                    WarpOp::Exit
                } else {
                    self.1 -= 1;
                    self.2.borrow_mut().push(self.0);
                    WarpOp::Compute { cycles: 1 }
                }
            }
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let streams: Vec<Box<dyn WarpStream>> =
            vec![Box::new(Tagged("a", 3, log.clone())), Box::new(Tagged("b", 3, log.clone()))];
        let mut sm = sm_with(streams);
        let mut mem = FixedLatencyMemory { latency: 0 };
        sm.run_to_completion(&mut mem);
        // With 1-cycle compute, warp 0 is always ready again by the next
        // cycle, so GTO never leaves it until exit.
        assert_eq!(&log.borrow()[..3], &["a", "a", "a"]);
    }

    #[test]
    fn stall_fence_blocks_issue() {
        let mut sm = sm_with(vec![Box::new(ComputeN(10))]);
        sm.stall_until(Cycle::new(500));
        let mut mem = FixedLatencyMemory { latency: 0 };
        let end = sm.run_to_completion(&mut mem);
        assert!(end.as_u64() >= 510);
        assert!(sm.stats().stall_cycles >= 500);
    }

    #[test]
    fn stall_breakdown_sums_exactly_to_stall_cycles() {
        let mut sm = sm_with(vec![Box::new(MemN(10)), Box::new(ComputeN(30))]);
        sm.stall_until(Cycle::new(100));
        let mut mem = FixedLatencyMemory { latency: 100 };
        sm.run_to_completion(&mut mem);
        let stats = sm.stats();
        assert_eq!(stats.stall_breakdown.total(), stats.stall_cycles, "buckets tile every stall");
        assert_eq!(stats.stall_breakdown.get(StallBucket::Sync), 100, "fence charged to Sync");
        assert!(
            stats.stall_breakdown.get(StallBucket::Other) > 0,
            "mock memory waits charge Other"
        );
    }

    #[test]
    fn stall_until_for_charges_the_given_cause() {
        let mut sm = sm_with(vec![Box::new(ComputeN(5))]);
        sm.stall_until_for(Cycle::new(50), StallBucket::Shootdown);
        // A shorter fence afterwards neither moves the fence nor the cause.
        sm.stall_until(Cycle::new(10));
        let mut mem = FixedLatencyMemory { latency: 0 };
        sm.run_to_completion(&mut mem);
        assert_eq!(sm.stats().stall_breakdown.get(StallBucket::Shootdown), 50);
        assert_eq!(sm.stats().stall_breakdown.total(), sm.stats().stall_cycles);
    }

    #[test]
    fn compute_waits_attribute_to_compute_bucket() {
        #[derive(Debug)]
        struct SlowCompute(u64);
        impl WarpStream for SlowCompute {
            fn next_op(&mut self, _addrs: &mut AddrList) -> WarpOp {
                if self.0 == 0 {
                    WarpOp::Exit
                } else {
                    self.0 -= 1;
                    WarpOp::Compute { cycles: 40 }
                }
            }
        }
        let mut sm = sm_with(vec![Box::new(SlowCompute(5))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        sm.run_to_completion(&mut mem);
        let stats = sm.stats();
        assert!(stats.stall_cycles > 0);
        assert_eq!(stats.stall_breakdown.get(StallBucket::Compute), stats.stall_cycles);
        assert_eq!(stats.stall_breakdown.total(), stats.stall_cycles);
    }

    #[test]
    fn monomorphized_sm_matches_boxed_sm() {
        // The same streams through Sm<ComputeN> (static dispatch) and the
        // default Sm (boxed) must behave identically.
        let mut mono =
            Sm::new(0, AppId(0), SmConfig { warps: 2, batch: 8 }, vec![ComputeN(50), ComputeN(50)]);
        let mut boxed = sm_with(vec![Box::new(ComputeN(50)), Box::new(ComputeN(50))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        let end_mono = mono.run_to_completion(&mut mem);
        let end_boxed = boxed.run_to_completion(&mut mem);
        assert_eq!(end_mono, end_boxed);
        assert_eq!(mono.stats(), boxed.stats());
    }

    #[test]
    fn reload_rearms_for_a_new_phase() {
        let mut sm = Sm::new(3, AppId(1), SmConfig { warps: 1, batch: 8 }, vec![ComputeN(10)]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        sm.run_to_completion(&mut mem);
        assert!(!sm.is_active());
        assert_eq!(sm.stats().instructions, 10);

        sm.reload(vec![ComputeN(7), ComputeN(7)]);
        assert!(sm.is_active(), "reload rearms the SM");
        assert_eq!(sm.now(), Cycle::ZERO, "clock resets");
        assert_eq!(sm.stats(), SmStats::default(), "stats reset");
        assert_eq!(sm.id(), 3, "identity survives");
        assert_eq!(sm.asid(), AppId(1));
        sm.run_to_completion(&mut mem);
        assert_eq!(sm.stats().instructions, 14);
    }

    /// Contract of the speculation journal: every `advance_logged` step
    /// matches `advance` in lockstep (shared loop body), and undo/redo
    /// round-trips restore the SM bit-for-bit (compared via `Debug`,
    /// which covers warps, streams, timelines, clocks, fence, stats).
    #[test]
    fn advance_logged_matches_advance_and_undoes_exactly() {
        let cfg = SmConfig { warps: 4, batch: 8 };
        let streams = || vec![MemN(6), MemN(4), MemN(9), MemN(2)];
        let mut plain = Sm::new(1, AppId(0), cfg, streams());
        let mut logged = Sm::new(1, AppId(0), cfg, streams());
        plain.stall_until(Cycle::new(10));
        logged.stall_until(Cycle::new(10));
        let mut mem_plain = FixedLatencyMemory { latency: 37 };
        let mut mem_logged = FixedLatencyMemory { latency: 37 };
        let mut undo = AdvanceUndo::default();
        loop {
            let snapshot = format!("{logged:?}");
            let cont = logged.advance_logged(&mut mem_logged, &mut undo);
            logged.undo_advance(&undo);
            assert_eq!(format!("{logged:?}"), snapshot, "undo restores the pre-step state");
            assert_eq!(logged.advance_logged(&mut mem_logged, &mut undo), cont, "redo replays");
            assert_eq!(plain.advance(&mut mem_plain), cont, "shared loop body stays in lockstep");
            assert_eq!(format!("{logged:?}"), format!("{plain:?}"));
            if !cont {
                break;
            }
        }
        assert_eq!(logged.stats(), plain.stats());
    }

    /// An aborted step (memory wrapper returns the `Cycle::MAX`
    /// sentinel) returns control immediately and leaves no trace once
    /// its journal is applied.
    #[test]
    fn abort_sentinel_rolls_back_cleanly() {
        #[derive(Debug)]
        struct FailNth {
            calls: u64,
            fail_at: u64,
        }
        impl MemoryInterface for FailNth {
            fn warp_access(
                &mut self,
                now: Cycle,
                _sm: usize,
                _asid: AppId,
                _addresses: &[VirtAddr],
            ) -> Cycle {
                self.calls += 1;
                if self.calls == self.fail_at {
                    Cycle::MAX
                } else {
                    now + 5
                }
            }
        }
        let cfg = SmConfig { warps: 2, batch: 8 };
        let mut sm = Sm::new(0, AppId(0), cfg, vec![MemN(5), MemN(5)]);
        let mut mem = FailNth { calls: 0, fail_at: 4 };
        let mut undo = AdvanceUndo::default();
        loop {
            let snapshot = format!("{sm:?}");
            assert!(sm.advance_logged(&mut mem, &mut undo), "abort still reports active");
            if mem.calls >= mem.fail_at {
                // This step hit the sentinel mid-batch; roll it back.
                sm.undo_advance(&undo);
                assert_eq!(format!("{sm:?}"), snapshot, "aborted step leaves no trace");
                break;
            }
        }
    }

    #[test]
    fn empty_sm_is_inactive() {
        let mut sm = sm_with(vec![]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        assert!(!sm.advance(&mut mem));
        assert!(!sm.is_active());
        assert_eq!(sm.ipc(), 0.0);
    }

    #[test]
    fn transactions_count_divergence() {
        #[derive(Debug)]
        struct Divergent(bool);
        impl WarpStream for Divergent {
            fn next_op(&mut self, addrs: &mut AddrList) -> WarpOp {
                if self.0 {
                    self.0 = false;
                    addrs.clear();
                    for i in 0..32 {
                        addrs.push(VirtAddr(i * 4096));
                    }
                    WarpOp::Memory
                } else {
                    WarpOp::Exit
                }
            }
        }
        let mut sm = sm_with(vec![Box::new(Divergent(true))]);
        let mut mem = FixedLatencyMemory { latency: 1 };
        sm.run_to_completion(&mut mem);
        assert_eq!(sm.stats().transactions, 32);
        assert_eq!(sm.stats().memory_instructions, 1);
    }

    /// The old GTO pick over `(ready_at, finished)` warps: the current
    /// warp if ready, else the lowest-index ready warp.
    fn reference_pick(warps: &[(Cycle, bool)], current: usize, now: Cycle) -> Option<usize> {
        let ready = |w: &(Cycle, bool)| !w.1 && w.0 <= now;
        if ready(&warps[current]) {
            return Some(current);
        }
        warps.iter().position(ready)
    }

    /// The old `next_wakeup_warp`: the unfinished warp with the earliest
    /// wake-up, first index on ties.
    fn reference_next_wakeup(warps: &[(Cycle, bool)]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, w) in warps.iter().enumerate() {
            if w.1 {
                continue;
            }
            match best {
                Some(b) if warps[b].0 <= w.0 => {}
                _ => best = Some(i),
            }
        }
        best
    }

    #[test]
    fn fused_gto_scan_matches_pick_then_next_wakeup() {
        use mosaic_sim_core::SimRng;
        let mut rng = SimRng::from_seed(0x6707);
        let mut cases = [0u32; 4]; // current ready, other ready, wait, done
        for _ in 0..20_000 {
            let n = 1 + rng.below(8) as usize;
            let now = Cycle::new(100);
            // Wake-ups cluster on a few cycles around `now` so ties and
            // ready/not-ready mixes are common.
            let warps: Vec<(Cycle, bool)> =
                (0..n).map(|_| (Cycle::new(96 + rng.below(9)), rng.chance(0.3))).collect();
            let streams = (0..n).map(|_| ComputeN(0)).collect();
            let mut sm = Sm::new(0, AppId(0), SmConfig { warps: n, batch: 8 }, streams);
            sm.now = now;
            sm.current = rng.below(n as u64) as usize;
            sm.wake = warps.iter().map(|&(r, fin)| if fin { Cycle::MAX } else { r }).collect();
            sm.live = warps.iter().filter(|w| !w.1).count();

            let expected = match reference_pick(&warps, sm.current, now) {
                Some(w) => NextWarp::Issue(w),
                None => reference_next_wakeup(&warps).map_or(NextWarp::Done, NextWarp::Wait),
            };
            let got = sm.next_warp();
            assert_eq!(got, expected, "warps {warps:?}, current {}", sm.current);
            cases[match got {
                NextWarp::Issue(w) if w == sm.current => 0,
                NextWarp::Issue(_) => 1,
                NextWarp::Wait(_) => 2,
                NextWarp::Done => 3,
            }] += 1;
        }
        assert!(cases.iter().all(|&c| c > 100), "every outcome is exercised: {cases:?}");
    }
}
