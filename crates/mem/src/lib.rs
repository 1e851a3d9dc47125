//! GPU memory hierarchy for the Mosaic reproduction.
//!
//! Models the memory system of Table 1 in the paper:
//!
//! * [`cache`] — set-associative caches with LRU replacement: the 16 KB
//!   4-way private L1 data cache per SM and the 2 MB 16-way shared L2,
//!   sliced across six memory partitions with banked ports.
//! * [`dram`] — GDDR5-like DRAM: six channels, eight banks per rank,
//!   row-buffer state with open-row policy, FR-FCFS-style service through
//!   per-bank occupancy, and the in-DRAM bulk-copy fast path
//!   (RowClone/LISA) used by Mosaic's CAC-BC variant.
//! * [`xbar`] — the SM-to-memory-partition crossbar with per-partition
//!   injection ports.
//! * [`interconnect`] — the inter-GPU link fabric for multi-GPU fleets:
//!   per-directed-link injection ports, fully-connected or ring topology,
//!   with bulk page-migration transfers.
//!
//! Like the rest of the substrate, structures here are *timing models*: a
//! request presents an address and an arrival cycle, and the component
//! returns the completion cycle, accounting for port, bank, and bus
//! contention through `mosaic_sim_core`'s occupancy primitives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dram;
pub mod interconnect;
pub mod xbar;

pub use cache::{Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use interconnect::{Interconnect, InterconnectConfig, Topology, FLIT_BYTES};
pub use xbar::{Crossbar, CrossbarConfig};
