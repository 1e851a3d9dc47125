//! GPU execution model for the Mosaic reproduction.
//!
//! Models what Section 2.1 of the paper calls the GPU execution model at
//! the granularity that drives the memory system:
//!
//! * applications are grids of *thread blocks*; each block is a set of
//!   *warps*; warps execute in SIMT lockstep, so a warp stalls until the
//!   slowest memory transaction of its current instruction completes;
//! * each *streaming multiprocessor* (SM) issues at most one warp
//!   instruction per cycle, hiding memory latency by switching among its
//!   resident warps with the greedy-then-oldest (GTO) warp scheduler;
//! * a warp memory instruction is presented to the memory system as a set
//!   of coalesced transactions (one per distinct cache line).
//!
//! The model is *trace-synthesized* rather than functional: warps draw
//! [`WarpOp`]s from a [`WarpStream`] (the workload crate provides
//! generators mimicking the paper's 27 benchmarks) and the SM charges
//! timing. Memory is reached through the [`MemoryInterface`] trait, which
//! the full-system simulator implements with TLBs, caches, page walks,
//! and demand paging.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sm;
pub mod warp;

pub use sm::{Sm, SmConfig, SmStats};
pub use warp::{AddrList, FixedLatencyMemory, MemoryInterface, WarpOp, WarpStream, MAX_WARP_ADDRS};
