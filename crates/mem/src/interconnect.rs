//! The inter-GPU interconnect.
//!
//! In a multi-GPU fleet a warp access can resolve to a frame owned by
//! another device; the request (and any migration or replication traffic)
//! then crosses an inter-GPU link fabric — NVLink-class point-to-point
//! links rather than the on-chip crossbar. We model each directed link as
//! a [`ThroughputPort`]: a fixed per-hop traversal latency plus a flit
//! serialization interval, so many-to-one bursts queue at the congested
//! link exactly like partition camping queues at the crossbar.
//!
//! Two topologies are modeled. `FullyConnected` gives every ordered GPU
//! pair a dedicated link (one hop). `Ring` connects each GPU to its two
//! neighbours; a message takes the shorter direction (ties go clockwise)
//! and occupies every link on its path, store-and-forward.

use mosaic_sim_core::{Counter, Cycle, Histogram, ThroughputPort};

/// Bytes carried by one interconnect flit (one cache line).
pub const FLIT_BYTES: u64 = 128;

/// How the GPUs of a fleet are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// A dedicated directed link between every ordered pair of GPUs.
    #[default]
    FullyConnected,
    /// Each GPU links to its two neighbours; messages take the shorter
    /// direction around the ring (ties go clockwise).
    Ring,
}

impl Topology {
    /// Number of hops a message from `from` to `to` takes in a fleet of
    /// `gpus` devices (zero when local): the length of the route
    /// [`Interconnect`] prices, so GPU indices are reduced modulo `gpus`
    /// here too.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    // Out of line on purpose: inlined, the nominal path's three calls
    // grow the per-access function that single-GPU runs spend their time
    // in, and `fig08` measured 5% slower (9 of 10 interleaved pairs).
    #[inline(never)]
    pub fn hops(self, from: usize, to: usize, gpus: usize) -> u64 {
        self.route(from, to, gpus).len() as u64
    }

    /// The directed links a message from `from` to `to` crosses in a
    /// fleet of `gpus` devices, in traversal order, each as the index
    /// `src * gpus + dst` (empty when local). GPU indices are reduced
    /// modulo `gpus`; this is the one normalisation both [`Self::hops`]
    /// and [`Interconnect`]'s link pricing use.
    fn route(self, from: usize, to: usize, gpus: usize) -> Route {
        let (from, to) = (from % gpus, to % gpus);
        let cw = (to + gpus - from) % gpus;
        let (hops, step) = match self {
            // One hop straight to the destination.
            Topology::FullyConnected => (usize::from(cw != 0), cw),
            // Neighbour hops in the shorter direction, ties clockwise.
            Topology::Ring => {
                let ccw = gpus - cw;
                if cw <= ccw {
                    (cw, 1)
                } else {
                    (ccw, gpus - 1)
                }
            }
        };
        Route { gpus, at: from, step, hops }
    }
}

/// The links of one path through the fabric: `hops` links, each
/// advancing the current GPU by `step` modulo the fleet size. Yields
/// directed-link indices without allocating.
#[derive(Debug, Clone)]
struct Route {
    gpus: usize,
    at: usize,
    step: usize,
    hops: usize,
}

impl Iterator for Route {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.hops == 0 {
            return None;
        }
        self.hops -= 1;
        // `at` and `step` are both below `gpus`: one subtraction wraps.
        let mut next = self.at + self.step;
        if next >= self.gpus {
            next -= self.gpus;
        }
        let link = self.at * self.gpus + next;
        self.at = next;
        Some(link)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.hops, Some(self.hops))
    }
}

impl ExactSizeIterator for Route {}

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// One-way traversal latency of a single link, in core cycles.
    pub link_latency: u64,
    /// Cycles between successive flit injections on one link (the
    /// bandwidth knob: 128 B every `cycles_per_flit` cycles).
    pub cycles_per_flit: u64,
    /// How the fleet is wired.
    pub topology: Topology,
}

impl InterconnectConfig {
    /// NVLink-class defaults: ~120-cycle hop latency and a quarter of
    /// local DRAM-bus bandwidth (one 128 B flit every 4 cycles).
    pub fn paper() -> Self {
        InterconnectConfig {
            link_latency: 120,
            cycles_per_flit: 4,
            topology: Topology::FullyConnected,
        }
    }
}

/// The link fabric of one fleet: per-directed-link injection ports plus
/// fixed per-hop latency.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Interconnect, InterconnectConfig};
/// use mosaic_sim_core::Cycle;
///
/// let mut icn = Interconnect::new(InterconnectConfig::paper(), 2);
/// let arrival = icn.traverse(Cycle::new(0), 0, 1);
/// assert_eq!(arrival, Cycle::new(120));
/// // Local "traversals" are free: no hop, no flit.
/// assert_eq!(icn.traverse(Cycle::new(7), 1, 1), Cycle::new(7));
/// ```
#[derive(Debug)]
pub struct Interconnect {
    config: InterconnectConfig,
    gpus: usize,
    /// Directed-link ports, indexed `src * gpus + dst`. Ring routes only
    /// ever use neighbour entries; the rest stay idle.
    ports: Vec<ThroughputPort>,
    flits: Counter,
    bytes: Counter,
    queueing: Histogram,
}

impl Interconnect {
    /// Creates an idle interconnect for a fleet of `gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn new(config: InterconnectConfig, gpus: usize) -> Self {
        assert!(gpus > 0, "a fleet needs at least one GPU");
        Interconnect {
            config,
            gpus,
            ports: (0..gpus * gpus)
                .map(|_| {
                    ThroughputPort::pipelined(
                        config.link_latency.max(1),
                        config.cycles_per_flit.max(1),
                    )
                })
                .collect(),
            flits: Counter::new(),
            bytes: Counter::new(),
            queueing: Histogram::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InterconnectConfig {
        &self.config
    }

    /// Number of GPUs this fabric connects.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// The directed links of the path from `from` to `to`, as port
    /// indices in traversal order (empty when local).
    fn route(&self, from: usize, to: usize) -> Route {
        self.config.topology.route(from, to, self.gpus)
    }

    /// Sends one flit (a cache-line request) from GPU `from` to GPU `to`
    /// starting at `now`; returns the cycle it arrives. Local traffic
    /// (`from == to`) never touches a link and arrives immediately.
    pub fn traverse(&mut self, now: Cycle, from: usize, to: usize) -> Cycle {
        let mut at = now;
        for link in self.route(from, to) {
            self.flits.inc();
            self.bytes.add(FLIT_BYTES);
            let grant = self.ports[link].acquire(at);
            self.queueing.record(grant.start.since(at));
            at = grant.start + self.config.link_latency;
        }
        at
    }

    /// Moves `bytes` of page payload from GPU `from` to GPU `to` starting
    /// at `now` (migration or replication traffic); returns the cycle the
    /// last flit lands. The payload occupies every link on the path for
    /// its full wire time, store-and-forward per hop.
    ///
    /// Each hop is priced in closed form with one
    /// [`ThroughputPort::acquire_burst`] of all the payload's flits: the
    /// same grants as injecting the flits one by one at the hop's start.
    /// Grants on one port are monotone, so the last flit lands at the last
    /// grant plus the link latency, and that is when the next hop starts.
    /// Only the first flit's wait is recorded as queueing.
    pub fn transfer(&mut self, now: Cycle, from: usize, to: usize, bytes: u64) -> Cycle {
        let flits = bytes.div_ceil(FLIT_BYTES).max(1);
        let mut at = now;
        for link in self.route(from, to) {
            let (first, last) = self.ports[link].acquire_burst(at, flits);
            self.queueing.record(first.start.since(at));
            self.flits.add(flits);
            self.bytes.add(flits * FLIT_BYTES);
            at = last.start + self.config.link_latency;
        }
        at
    }

    /// Total flits injected across all links.
    pub fn flits(&self) -> u64 {
        self.flits.get()
    }

    /// Total bytes carried across all links.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Distribution of per-injection queueing delay in cycles.
    pub fn queueing(&self) -> &Histogram {
        &self.queueing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(topology: Topology) -> InterconnectConfig {
        InterconnectConfig { link_latency: 100, cycles_per_flit: 4, topology }
    }

    #[test]
    fn local_traffic_is_free() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 4);
        assert_eq!(icn.traverse(Cycle::new(42), 2, 2), Cycle::new(42));
        assert_eq!(icn.transfer(Cycle::new(42), 2, 2, 1 << 21), Cycle::new(42));
        assert_eq!(icn.flits(), 0);
    }

    #[test]
    fn uncontended_hop_takes_link_latency() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        assert_eq!(icn.traverse(Cycle::new(10), 0, 1), Cycle::new(110));
        assert_eq!(icn.flits(), 1);
        assert_eq!(icn.bytes(), FLIT_BYTES);
    }

    #[test]
    fn same_link_serializes_injection() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        let a = icn.traverse(Cycle::new(0), 0, 1);
        let b = icn.traverse(Cycle::new(0), 0, 1);
        assert_eq!(a, Cycle::new(100));
        assert_eq!(b, Cycle::new(104), "second flit injects one interval later");
        // The reverse direction is a different link: no contention.
        assert_eq!(icn.traverse(Cycle::new(0), 1, 0), Cycle::new(100));
    }

    #[test]
    fn ring_takes_the_shorter_direction() {
        assert_eq!(Topology::Ring.hops(0, 1, 4), 1);
        assert_eq!(Topology::Ring.hops(0, 3, 4), 1, "wraps backwards");
        assert_eq!(Topology::Ring.hops(0, 2, 4), 2, "opposite corner is two hops");
        assert_eq!(Topology::FullyConnected.hops(0, 2, 4), 1);
        assert_eq!(Topology::Ring.hops(3, 3, 4), 0);
        let mut icn = Interconnect::new(cfg(Topology::Ring), 4);
        assert_eq!(
            icn.traverse(Cycle::new(0), 0, 2),
            Cycle::new(200),
            "two store-and-forward hops"
        );
    }

    #[test]
    fn bulk_transfer_pays_wire_time() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        // 1024 B = 8 flits: first lands at 100, each later flit 4 cycles
        // apart, so the last lands at 100 + 7*4.
        assert_eq!(icn.transfer(Cycle::new(0), 0, 1, 1024), Cycle::new(128));
        assert_eq!(icn.flits(), 8);
        assert_eq!(icn.bytes(), 1024);
        // And the link stays occupied: a flit right behind it queues.
        let after = icn.traverse(Cycle::new(0), 0, 1);
        assert_eq!(after, Cycle::new(132));
    }

    #[test]
    fn queueing_histogram_records_waits() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        icn.traverse(Cycle::new(0), 0, 1);
        icn.traverse(Cycle::new(0), 0, 1);
        assert_eq!(icn.queueing().max(), Some(4));
    }

    #[test]
    fn gpu_index_wraps() {
        let mut icn = Interconnect::new(cfg(Topology::Ring), 2);
        // GPU 5 wraps to index 1; no panic.
        let _ = icn.traverse(Cycle::new(0), 5, 0);
    }

    #[test]
    fn hops_reduce_gpu_indices_like_routes() {
        // Regression: `hops` used to skip the modulo that routing applies,
        // so a wrapped local pair priced one hop (fully connected) or
        // underflowed (ring).
        assert_eq!(Topology::Ring.hops(5, 1, 2), 0);
        assert_eq!(Topology::FullyConnected.hops(5, 1, 2), 0);
        for topology in [Topology::FullyConnected, Topology::Ring] {
            for n in 1..=8 {
                let icn = Interconnect::new(cfg(topology), n);
                for from in 0..2 * n {
                    for to in 0..2 * n {
                        assert_eq!(
                            icn.route(from, to).count() as u64,
                            topology.hops(from, to, n),
                            "{topology:?}, {n} GPUs, {from} -> {to}"
                        );
                    }
                }
            }
        }
    }

    /// The `Vec`-building router the allocation-free [`Route`] replaced.
    fn reference_route(topology: Topology, n: usize, from: usize, to: usize) -> Vec<usize> {
        let (from, to) = (from % n, to % n);
        if from == to {
            return Vec::new();
        }
        match topology {
            Topology::FullyConnected => vec![from * n + to],
            Topology::Ring => {
                let cw = (to + n - from) % n;
                let ccw = n - cw;
                let mut links = Vec::with_capacity(cw.min(ccw));
                let mut at = from;
                for _ in 0..cw.min(ccw) {
                    let next = if cw <= ccw { (at + 1) % n } else { (at + n - 1) % n };
                    links.push(at * n + next);
                    at = next;
                }
                links
            }
        }
    }

    #[test]
    fn routes_match_the_reference_router() {
        for topology in [Topology::FullyConnected, Topology::Ring] {
            for n in 1..=8 {
                let icn = Interconnect::new(cfg(topology), n);
                for from in 0..2 * n {
                    for to in 0..2 * n {
                        let route = icn.route(from, to);
                        assert_eq!(route.len(), route.clone().count());
                        assert_eq!(
                            route.collect::<Vec<_>>(),
                            reference_route(topology, n, from, to),
                            "{topology:?}, {n} GPUs, {from} -> {to}"
                        );
                    }
                }
            }
        }
    }

    /// The fabric as it was priced before bursts: one `acquire` per flit
    /// per hop, over the reference router.
    struct PerFlit {
        config: InterconnectConfig,
        gpus: usize,
        ports: Vec<ThroughputPort>,
        flits: Counter,
        bytes: Counter,
        queueing: Histogram,
    }

    impl PerFlit {
        fn new(config: InterconnectConfig, gpus: usize) -> Self {
            let port = ThroughputPort::pipelined(
                config.link_latency.max(1),
                config.cycles_per_flit.max(1),
            );
            PerFlit {
                config,
                gpus,
                ports: vec![port; gpus * gpus],
                flits: Counter::new(),
                bytes: Counter::new(),
                queueing: Histogram::default(),
            }
        }

        fn traverse(&mut self, now: Cycle, from: usize, to: usize) -> Cycle {
            let mut at = now;
            for link in reference_route(self.config.topology, self.gpus, from, to) {
                self.flits.inc();
                self.bytes.add(FLIT_BYTES);
                let grant = self.ports[link].acquire(at);
                self.queueing.record(grant.start.since(at));
                at = grant.start + self.config.link_latency;
            }
            at
        }

        fn transfer(&mut self, now: Cycle, from: usize, to: usize, bytes: u64) -> Cycle {
            let flits = bytes.div_ceil(FLIT_BYTES).max(1);
            let mut at = now;
            for link in reference_route(self.config.topology, self.gpus, from, to) {
                let first = self.ports[link].acquire(at);
                self.queueing.record(first.start.since(at));
                let mut last = first.start + self.config.link_latency;
                for _ in 1..flits {
                    let grant = self.ports[link].acquire(at);
                    last = last.max(grant.start + self.config.link_latency);
                }
                self.flits.add(flits);
                self.bytes.add(flits * FLIT_BYTES);
                at = last;
            }
            at
        }
    }

    #[test]
    fn transfers_match_per_flit_pricing() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for topology in [Topology::FullyConnected, Topology::Ring] {
            for gpus in [2, 3, 4, 8] {
                for _ in 0..4 {
                    let config = InterconnectConfig {
                        link_latency: next() % 200,
                        cycles_per_flit: next() % 8,
                        topology,
                    };
                    let mut icn = Interconnect::new(config, gpus);
                    let mut reference = PerFlit::new(config, gpus);
                    let mut now = 0u64;
                    for op in 0..60 {
                        // Mostly forward in time, sometimes behind the
                        // links' current occupancy.
                        now = (now + next() % 3000).saturating_sub(next() % 1000);
                        let at = Cycle::new(now);
                        let (from, to) = (next() as usize % (2 * gpus), next() as usize % gpus);
                        let (got, want) = if next() % 3 == 0 {
                            let bytes = match next() % 4 {
                                0 => 1 << 21,
                                1 => 0,
                                _ => next() % 8192,
                            };
                            (
                                icn.transfer(at, from, to, bytes),
                                reference.transfer(at, from, to, bytes),
                            )
                        } else {
                            (icn.traverse(at, from, to), reference.traverse(at, from, to))
                        };
                        assert_eq!(got, want, "{config:?}, {gpus} GPUs, op {op}: {from} -> {to}");
                        assert_eq!(icn.flits(), reference.flits.get());
                        assert_eq!(icn.bytes(), reference.bytes.get());
                        assert_eq!(icn.queueing(), &reference.queueing);
                    }
                }
            }
        }
    }
}
