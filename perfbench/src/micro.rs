//! Per-call host cost of each layer's public entry points.
//!
//! Each microbench drives one function in a loop shaped like its use on
//! the simulator's hot path and returns `(calls, elapsed)`. Multiplied by
//! the exact event counts of a traced run, these costs estimate where a
//! gap's host time goes — and price the layers that emit no event of
//! their own (placement, the interconnect).

use mosaic_core::{MemoryManager, MosaicConfig, MosaicManager, PlacementMap, PlacementPolicy};
use mosaic_iobus::{IoBus, IoBusConfig};
use mosaic_mem::{Cache, CacheConfig, Dram, DramConfig, Interconnect, InterconnectConfig};
use mosaic_sim_core::Cycle;
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PageTable, PageTableWalker, PhysAddr, Tlb,
    TlbConfig, VirtPageNum, LARGE_PAGE_SIZE,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One microbench: its metric name and body.
pub type Micro = (&'static str, fn() -> (u64, Duration));

/// Every microbench, named `call.<name>.ns` in the report.
pub const MICROS: [Micro; 11] = [
    ("tlb_lookup", tlb_lookup),
    ("tlb_fill", tlb_fill),
    ("page_table_translate", page_table_translate),
    ("walker_walk", walker_walk),
    ("cache_access", cache_access),
    ("dram_access", dram_access),
    ("iobus_transfer", iobus_transfer),
    ("interconnect_traverse", interconnect_traverse),
    ("placement_access", placement_access),
    ("manager_touch", manager_touch),
    ("manager_evict_for", manager_evict_for),
];

fn timed(calls: u64, body: impl FnOnce()) -> (u64, Duration) {
    let t = Instant::now();
    body();
    (calls, t.elapsed())
}

fn tlb_lookup() -> (u64, Duration) {
    let mut tlb = Tlb::new(TlbConfig::paper_l1());
    for p in 0..64u64 {
        tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
    }
    // Repeated hits plus a rotating working set across the full probe.
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            let page = if i % 4 == 0 { i / 7 % 64 } else { i % 8 };
            black_box(tlb.lookup(AppId(0), VirtPageNum(black_box(page)).addr()));
        }
    })
}

fn tlb_fill() -> (u64, Duration) {
    let mut tlb = Tlb::new(TlbConfig::paper_l2());
    // Distinct pages: past warm-up every fill evicts.
    const N: u64 = 500_000;
    timed(N, || {
        for page in 0..N {
            let asid = AppId(page as u16 % 3);
            tlb.fill(asid, VirtPageNum(black_box(page)).addr(), PageSize::Base);
        }
        black_box(&tlb);
    })
}

fn page_table_translate() -> (u64, Duration) {
    let mut pt = PageTable::new(AppId(0));
    // 16 regions, fully mapped; half coalesced.
    for r in 0..16u64 {
        let lpn = LargePageNum(r * 3);
        let lf = LargeFrameNum(r);
        for i in 0..512 {
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).expect("fresh page maps");
        }
        if r % 2 == 0 {
            pt.coalesce(lpn).expect("fully mapped region coalesces");
        }
    }
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            let lpn = LargePageNum((i % 16) * 3);
            black_box(pt.translate(lpn.base_page(black_box(i) % 512).addr()).ok());
        }
    })
}

fn walker_walk() -> (u64, Duration) {
    let mut walker = PageTableWalker::new(64);
    let path = [PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x3000), PhysAddr(0x4000)];
    let mut now = Cycle::ZERO;
    // A rotating set of pages: some re-walks merge, most are fresh.
    const N: u64 = 400_000;
    timed(N, || {
        for i in 0..N {
            let vpn = VirtPageNum(black_box(i) % 97);
            black_box(walker.walk(now, AppId(0), vpn, path, |_, _, start| start + 40));
            now += 3;
        }
    })
}

fn cache_access() -> (u64, Duration) {
    let mut cache = Cache::new(CacheConfig::paper_l2_slice());
    // Three of four accesses reuse a small hot set; the rest stream.
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            let addr = if i % 4 == 0 { i * 128 } else { (i % 512) * 128 };
            black_box(cache.access(black_box(addr), i % 8 == 0));
        }
    })
}

fn dram_access() -> (u64, Duration) {
    let mut dram = Dram::new(DramConfig::paper());
    let mut now = Cycle::ZERO;
    // Mostly open-row streaming with a scattered miss every fourth access.
    const N: u64 = 500_000;
    timed(N, || {
        for i in 0..N {
            let addr = if i % 4 == 0 { i.wrapping_mul(0x9e37_79b9) % (1 << 30) } else { i * 128 };
            black_box(dram.access(now, black_box(addr)));
            now += 2;
        }
    })
}

fn iobus_transfer() -> (u64, Duration) {
    let mut bus = IoBus::new(IoBusConfig::paper());
    let mut now = Cycle::ZERO;
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            black_box(bus.transfer(now, if i % 16 == 0 { LARGE_PAGE_SIZE } else { 4096 }));
            now += 1_000;
        }
    })
}

fn interconnect_traverse() -> (u64, Duration) {
    let mut icn = Interconnect::new(InterconnectConfig::paper(), 4);
    let mut now = Cycle::ZERO;
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            let from = black_box(i % 4) as usize;
            black_box(icn.traverse(now, from, (from + 1 + (i / 4 % 3) as usize) % 4));
            now += 2;
        }
    })
}

fn placement_access() -> (u64, Duration) {
    let mut map = PlacementMap::new(4, PlacementPolicy::FirstTouch);
    const N: u64 = 1_000_000;
    timed(N, || {
        for i in 0..N {
            let lpn = LargePageNum(black_box(i) * 7 % 4096);
            black_box(map.access(AppId((i % 2) as u16), lpn, (i % 4) as usize, i % 4 == 0));
        }
    })
}

fn manager_touch() -> (u64, Duration) {
    let mut calls = 0;
    let mut elapsed = Duration::ZERO;
    for _ in 0..12 {
        let mut m = MosaicManager::new(MosaicConfig::with_memory(256 * LARGE_PAGE_SIZE));
        m.register_app(AppId(0));
        m.reserve(AppId(0), VirtPageNum(0), 16 * 512);
        let (n, t) = timed(16 * 512, || {
            for i in 0..16 * 512 {
                black_box(m.touch(AppId(0), VirtPageNum(i)).expect("reserved page fits"));
            }
        });
        calls += n;
        elapsed += t;
    }
    (calls, elapsed)
}

fn manager_evict_for() -> (u64, Duration) {
    // Sixteen large frames under a 64-region stream: once memory fills,
    // every new region's first touch evicts the least recently used one.
    let mut m = MosaicManager::new(MosaicConfig::with_memory(16 * LARGE_PAGE_SIZE));
    m.register_app(AppId(0));
    m.reserve(AppId(0), VirtPageNum(0), 64 * 512);
    let (mut calls, mut elapsed) = (0, Duration::ZERO);
    for round in 0..8u64 {
        for i in 0..64 * 512 {
            let vpn = VirtPageNum((i + round * 97) % (64 * 512));
            if m.tables().table(AppId(0)).is_some_and(|t| t.is_mapped(vpn)) {
                continue;
            }
            while m.touch(AppId(0), vpn).is_err() {
                let t = Instant::now();
                let out = black_box(m.evict_for(LARGE_PAGE_SIZE));
                elapsed += t.elapsed();
                calls += 1;
                assert!(!out.is_empty(), "a full pool always has a victim");
            }
        }
    }
    (calls, elapsed)
}

/// Median host nanoseconds per call of each microbench over `samples`
/// repetitions, with the metric names of the report.
pub fn call_costs(samples: usize) -> Vec<(String, f64)> {
    MICROS
        .iter()
        .map(|(name, body)| {
            let mut ns: Vec<f64> = (0..samples)
                .map(|_| {
                    let (calls, t) = body();
                    t.as_nanos() as f64 / calls.max(1) as f64
                })
                .collect();
            (format!("call.{name}.ns"), crate::median(&mut ns))
        })
        .collect()
}
