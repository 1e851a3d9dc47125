//! Warp-level abstractions: operations, instruction streams, and the
//! memory-system boundary.

use mosaic_sim_core::Cycle;
use mosaic_telemetry::{AccessTimeline, StallBucket};
use mosaic_vm::{AppId, VirtAddr};

/// Capacity of [`AddrList`]: a warp has 32 lanes, so one instruction can
/// touch at most 32 distinct cache lines (fully divergent).
pub const MAX_WARP_ADDRS: usize = 32;

/// The coalesced addresses of one memory instruction, stored inline.
///
/// Streams fill a caller-owned list ([`WarpStream::next_op`]), so one
/// buffer per SM serves every op: no per-op allocation, zeroing, or
/// by-value move of the 256-byte array. Dereferences to `&[VirtAddr]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrList {
    addrs: [VirtAddr; MAX_WARP_ADDRS],
    len: u8,
}

impl AddrList {
    /// An empty list.
    pub fn new() -> Self {
        AddrList { addrs: [VirtAddr(0); MAX_WARP_ADDRS], len: 0 }
    }

    /// Empties the list; only the length is reset, the stale slots are
    /// never read.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends an address; a warp cannot produce more than
    /// [`MAX_WARP_ADDRS`] (enforced by the slot indexing).
    pub fn push(&mut self, addr: VirtAddr) {
        self.addrs[usize::from(self.len)] = addr;
        self.len += 1;
    }
}

impl Default for AddrList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for AddrList {
    type Target = [VirtAddr];

    fn deref(&self) -> &[VirtAddr] {
        &self.addrs[..usize::from(self.len)]
    }
}

/// One warp instruction, as seen by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// A non-memory instruction (or a fused run of them): the warp cannot
    /// issue again for `cycles` cycles.
    Compute {
        /// Warp-local latency before the next instruction can issue.
        cycles: u32,
    },
    /// A memory instruction, already coalesced into one virtual address
    /// per distinct cache line touched by the warp's 32 lanes (1 address
    /// = fully converged, 32 = fully divergent). The addresses are in
    /// the list passed to [`WarpStream::next_op`].
    Memory,
    /// The warp has retired its last instruction.
    Exit,
}

/// A source of warp instructions. Implemented by the synthetic workload
/// generators; finite streams end by returning [`WarpOp::Exit`] forever.
pub trait WarpStream: std::fmt::Debug {
    /// Produces the warp's next instruction. For [`WarpOp::Memory`] the
    /// stream replaces the contents of `addrs` with the op's per-transaction
    /// addresses; other ops leave `addrs` unspecified.
    fn next_op(&mut self, addrs: &mut AddrList) -> WarpOp;
}

/// Blanket stream over a boxed stream (so `Box<dyn WarpStream>` is itself
/// a stream).
impl WarpStream for Box<dyn WarpStream> {
    fn next_op(&mut self, addrs: &mut AddrList) -> WarpOp {
        (**self).next_op(addrs)
    }
}

/// The boundary between the execution model and the memory system.
///
/// The full-system simulator implements this with the complete hierarchy
/// (L1 TLB → L1$ → crossbar → L2 TLB/L2$ → page walker → DRAM → demand
/// paging); unit tests use fixed-latency mocks.
pub trait MemoryInterface {
    /// Services one warp memory instruction issued at `now` by SM `sm` on
    /// behalf of address space `asid`, with one virtual address per
    /// coalesced transaction. Returns the cycle at which the *slowest*
    /// transaction completes — the warp resumes then (SIMT lockstep).
    fn warp_access(&mut self, now: Cycle, sm: usize, asid: AppId, addresses: &[VirtAddr]) -> Cycle;

    /// Like [`MemoryInterface::warp_access`], but also describes *where*
    /// the access's cycles went by filling `timeline` with a segment run
    /// tiling `[now, done)` for the slowest transaction. The default
    /// charges the whole interval to [`StallBucket::Other`], so simple
    /// mocks still produce exactly-summing stall breakdowns; the
    /// full-system memory hierarchy overrides this with a real
    /// decomposition.
    fn warp_access_timed(
        &mut self,
        now: Cycle,
        sm: usize,
        asid: AppId,
        addresses: &[VirtAddr],
        timeline: &mut AccessTimeline,
    ) -> Cycle {
        let done = self.warp_access(now, sm, asid, addresses);
        *timeline = AccessTimeline::single(now, done, StallBucket::Other);
        done
    }
}

/// A fixed-latency memory, useful as a baseline and in tests.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatencyMemory {
    /// Cycles charged per warp memory instruction.
    pub latency: u64,
}

impl MemoryInterface for FixedLatencyMemory {
    fn warp_access(
        &mut self,
        now: Cycle,
        _sm: usize,
        _asid: AppId,
        _addresses: &[VirtAddr],
    ) -> Cycle {
        now + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Three(u32);
    impl WarpStream for Three {
        fn next_op(&mut self, _addrs: &mut AddrList) -> WarpOp {
            if self.0 == 0 {
                WarpOp::Exit
            } else {
                self.0 -= 1;
                WarpOp::Compute { cycles: 1 }
            }
        }
    }

    #[test]
    fn boxed_stream_delegates() {
        let mut s: Box<dyn WarpStream> = Box::new(Three(2));
        let mut addrs = AddrList::new();
        assert_eq!(s.next_op(&mut addrs), WarpOp::Compute { cycles: 1 });
        assert_eq!(s.next_op(&mut addrs), WarpOp::Compute { cycles: 1 });
        assert_eq!(s.next_op(&mut addrs), WarpOp::Exit);
        assert_eq!(s.next_op(&mut addrs), WarpOp::Exit, "exit is sticky");
    }

    #[test]
    fn fixed_latency_memory_adds_latency() {
        let mut m = FixedLatencyMemory { latency: 100 };
        let done = m.warp_access(Cycle::new(5), 0, AppId(0), &[VirtAddr(0)]);
        assert_eq!(done, Cycle::new(105));
    }
}
