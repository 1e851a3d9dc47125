//! Host-time gaps between telemetry events.
//!
//! [`GapSink`] is an [`EventSink`] the benchmark installs on its own
//! thread for the traced repetition. At every event it reads the host
//! clock and charges the time since the previous event to the [`Gap`]
//! named after the event that closes it. The simulator's existing emit
//! sites thus partition a run's host time without any change to the
//! simulator. The gap map in README.md lists the code each gap covers.
//!
//! The ledger also folds every event into exact simulated aggregates
//! (counts, hit ratios, simulated waits): these repeat bit for bit across
//! runs and machines, unlike the host times beside them.

use mosaic_telemetry::{Event, EventSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A host-time gap, named after the event that closes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gap {
    /// Closed by `warp_mem`: the event-less tail of a warp memory
    /// instruction after its last translation or DRAM event.
    WarpMem,
    /// Closed by an L1 `tlb_lookup`: SM issue and warp-stream generation
    /// up to the next translation, plus the L1 TLB probe.
    TlbL1,
    /// Closed by an L2 `tlb_lookup`: the L2 TLB port and probe.
    TlbL2,
    /// Closed by `page_walk`: walk-path computation, walker bookkeeping
    /// and the page-table accesses after the walk's last DRAM access.
    PageWalk,
    /// Closed by `far_fault`: the manager's touch, fault-side management
    /// events and the I/O-bus transfer.
    FarFault,
    /// Closed by `dram_access`: a data access's L1 cache, placement,
    /// crossbar and L2 up to the DRAM scheduler, or a walk's page-table
    /// levels up to DRAM.
    DramAccess,
    /// Closed by `page_copy`: a compaction copy in DRAM.
    PageCopy,
    /// Closed by `shootdown`: the failed touch, `evict_for` and event
    /// dispatch before a shootdown is raised, or the previous
    /// shootdown's flush loop (the event precedes its own flush loop).
    Shootdown,
    /// Closed by `page_evict`: the last shootdown's TLB flush loop and
    /// the per-region tally.
    PageEvict,
    /// Closed by `page_writeback`: the dirty write-back transfer.
    PageWriteback,
    /// Closed by `coalesce`: the manager's allocation up to coalescing.
    Coalesce,
    /// Closed by `splinter`: deallocation up to a splinter.
    Splinter,
    /// Closed by `phase_begin`, `phase_end` or `epoch`, and the run's
    /// set-up before its first event and tail after its last one.
    Phase,
}

impl Gap {
    /// Every gap, in report order.
    pub const ALL: [Gap; 13] = [
        Gap::WarpMem,
        Gap::TlbL1,
        Gap::TlbL2,
        Gap::PageWalk,
        Gap::FarFault,
        Gap::DramAccess,
        Gap::PageCopy,
        Gap::Shootdown,
        Gap::PageEvict,
        Gap::PageWriteback,
        Gap::Coalesce,
        Gap::Splinter,
        Gap::Phase,
    ];

    /// The gap `ev` closes. Exhaustive on purpose: a new event variant
    /// does not compile until it is assigned a gap.
    pub fn closed_by(ev: &Event) -> Gap {
        match ev {
            Event::WarpMem { .. } => Gap::WarpMem,
            Event::TlbLookup { level: 1, .. } => Gap::TlbL1,
            Event::TlbLookup { .. } => Gap::TlbL2,
            Event::PageWalk { .. } => Gap::PageWalk,
            Event::FarFault { .. } => Gap::FarFault,
            Event::DramAccess { .. } => Gap::DramAccess,
            Event::PageCopy { .. } => Gap::PageCopy,
            Event::Shootdown { .. } => Gap::Shootdown,
            Event::PageEvict { .. } => Gap::PageEvict,
            Event::PageWriteback { .. } => Gap::PageWriteback,
            Event::Coalesce { .. } => Gap::Coalesce,
            Event::Splinter { .. } => Gap::Splinter,
            Event::PhaseBegin { .. } | Event::PhaseEnd { .. } | Event::Epoch { .. } => Gap::Phase,
        }
    }

    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Gap::WarpMem => "warp_mem",
            Gap::TlbL1 => "tlb_l1",
            Gap::TlbL2 => "tlb_l2",
            Gap::PageWalk => "page_walk",
            Gap::FarFault => "far_fault",
            Gap::DramAccess => "dram_access",
            Gap::PageCopy => "page_copy",
            Gap::Shootdown => "shootdown",
            Gap::PageEvict => "page_evict",
            Gap::PageWriteback => "page_writeback",
            Gap::Coalesce => "coalesce",
            Gap::Splinter => "splinter",
            Gap::Phase => "phase",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Exact simulated aggregates folded from the event stream. Equal inputs
/// give equal values on any host, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Events per gap, indexed like [`Gap::ALL`].
    pub events: [u64; 13],
    /// L1 TLB probes that hit.
    pub tlb_l1_hits: u64,
    /// L2 TLB probes that hit.
    pub tlb_l2_hits: u64,
    /// DRAM data accesses that hit the open row.
    pub dram_row_hits: u64,
    /// Σ DRAM queueing cycles (`done − cycle − service`).
    pub dram_queue_cycles: u64,
    /// Σ walk latency in cycles.
    pub walk_cycles: u64,
    /// Σ far-fault service latency in cycles.
    pub fault_cycles: u64,
    /// Σ warp memory-instruction latency in cycles.
    pub warp_mem_cycles: u64,
}

impl SimCounts {
    /// Events that closed `gap`.
    pub fn count(&self, gap: Gap) -> u64 {
        self.events[gap.index()]
    }

    fn observe(&mut self, ev: &Event) {
        self.events[Gap::closed_by(ev).index()] += 1;
        match *ev {
            Event::TlbLookup { level: 1, hit, .. } => self.tlb_l1_hits += u64::from(hit),
            Event::TlbLookup { hit, .. } => self.tlb_l2_hits += u64::from(hit),
            Event::DramAccess { cycle, done, service, row_hit } => {
                self.dram_row_hits += u64::from(row_hit);
                self.dram_queue_cycles += done.saturating_sub(cycle).saturating_sub(service);
            }
            Event::PageWalk { issue, done, .. } => self.walk_cycles += done.saturating_sub(issue),
            Event::FarFault { cycle, done, .. } => self.fault_cycles += done.saturating_sub(cycle),
            Event::WarpMem { issue, done, .. } => {
                self.warp_mem_cycles += done.saturating_sub(issue)
            }
            _ => {}
        }
    }
}

/// Host time per gap plus the exact aggregates, for one traced pass.
#[derive(Debug)]
pub struct GapLedger {
    /// Host nanoseconds charged to each gap, indexed like [`Gap::ALL`].
    pub ns: [u128; 13],
    /// Exact simulated aggregates.
    pub sim: SimCounts,
    last: Instant,
}

impl Default for GapLedger {
    fn default() -> Self {
        GapLedger { ns: [0; 13], sim: SimCounts::default(), last: Instant::now() }
    }
}

impl GapLedger {
    /// Host nanoseconds charged to `gap`.
    pub fn gap_ns(&self, gap: Gap) -> u128 {
        self.ns[gap.index()]
    }

    /// Total host nanoseconds across every gap.
    pub fn total_ns(&self) -> u128 {
        self.ns.iter().sum()
    }

    /// Starts a run: time before this point is not charged to any gap.
    pub fn begin_run(&mut self) {
        self.last = Instant::now();
    }

    /// Ends a run: the tail since its last event (result collection)
    /// goes to [`Gap::Phase`], with no event counted.
    pub fn end_run(&mut self) {
        self.charge(Gap::Phase);
    }

    fn charge(&mut self, gap: Gap) {
        let now = Instant::now();
        self.ns[gap.index()] += now.duration_since(self.last).as_nanos();
        self.last = now;
    }

    fn record(&mut self, ev: Event) {
        self.charge(Gap::closed_by(&ev));
        self.sim.observe(&ev);
    }
}

/// The sink half of a shared [`GapLedger`]: installed on the thread with
/// `mosaic_telemetry::set_sink` while the benchmark keeps the other half.
#[derive(Debug)]
pub struct GapSink(pub Rc<RefCell<GapLedger>>);

impl EventSink for GapSink {
    fn record(&mut self, ev: Event) {
        self.0.borrow_mut().record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_closes_a_distinct_named_gap() {
        let samples = [
            Event::PhaseBegin { phase: 0, cycle: 0 },
            Event::PhaseEnd { phase: 0, cycle: 1 },
            Event::Epoch { cycle: 1, instructions: 2, stall_cycles: 3 },
            Event::WarpMem { sm: 0, asid: 0, issue: 1, done: 9, transactions: 1 },
            Event::TlbLookup { level: 1, sm: 0, asid: 0, cycle: 1, hit: true },
            Event::TlbLookup { level: 2, sm: 0, asid: 0, cycle: 1, hit: false },
            Event::PageWalk { asid: 0, vpn: 1, issue: 2, done: 5 },
            Event::FarFault { asid: 0, vpn: 1, cycle: 5, done: 50 },
            Event::DramAccess { cycle: 10, done: 30, service: 15, row_hit: true },
            Event::PageCopy { cycle: 1, done: 2, bulk: true },
            Event::Coalesce { asid: 0, lpn: 1 },
            Event::Splinter { asid: 0, lpn: 1 },
            Event::Shootdown { asid: 0, lpn: 1, cycle: 3 },
            Event::PageEvict { asid: 0, lpn: 1, pages: 512, cycle: 3 },
            Event::PageWriteback { bytes: 4096, cycle: 1, done: 2 },
        ];
        let mut hit = [false; 13];
        for ev in &samples {
            hit[Gap::closed_by(ev).index()] = true;
        }
        assert!(hit.iter().all(|&h| h), "every gap is closed by some event");
        for (i, g) in Gap::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
            assert_eq!(Gap::ALL.iter().filter(|o| o.name() == g.name()).count(), 1);
        }

        let mut ledger = GapLedger::default();
        for ev in samples {
            ledger.record(ev);
        }
        let sim = &ledger.sim;
        assert_eq!(sim.count(Gap::Phase), 3);
        assert_eq!((sim.count(Gap::TlbL1), sim.count(Gap::TlbL2)), (1, 1));
        assert_eq!((sim.tlb_l1_hits, sim.tlb_l2_hits), (1, 0));
        assert_eq!((sim.dram_row_hits, sim.dram_queue_cycles), (1, 5));
        assert_eq!((sim.walk_cycles, sim.fault_cycles, sim.warp_mem_cycles), (3, 45, 8));
    }
}
