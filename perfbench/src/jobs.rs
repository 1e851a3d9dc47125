//! The benchmark's workloads: each is the job list of one `reproduce`
//! figure at smoke scope, with every run's master seed set from the
//! benchmark's `--seed`. At the default seed 42 each list is exactly the
//! figure's own list of shared runs.

use mosaic_experiments::Scope;
use mosaic_gpusim::{ManagerKind, PlacementPolicy, RunConfig, Topology};
use mosaic_workloads::Workload;

/// One simulated run.
pub type Job = (Workload, RunConfig);

/// Benchmark workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig08", "oversub", "multigpu"];

/// The job list of workload `name` at `seed`, or `None` for an unknown
/// name.
pub fn jobs(name: &str, seed: u64) -> Option<Vec<Job>> {
    let jobs = match name {
        "fig08" => fig08(),
        "oversub" => oversub(),
        "multigpu" => multigpu(),
        _ => return None,
    };
    Some(jobs.into_iter().map(|(w, cfg)| (w, RunConfig { seed, ..cfg })).collect())
}

fn smoke(manager: ManagerKind) -> RunConfig {
    Scope::Smoke.config(manager)
}

/// Figure 8's shared runs: homogeneous 1–3-app workloads under GPU-MMU,
/// Mosaic and the Ideal TLB (27 runs).
fn fig08() -> Vec<Job> {
    let configs = [
        smoke(ManagerKind::GpuMmu4K),
        smoke(ManagerKind::mosaic()),
        smoke(ManagerKind::GpuMmu4K).ideal_tlb(),
    ];
    (1..=3)
        .flat_map(|n| Scope::Smoke.homogeneous(n))
        .flat_map(|w| configs.map(|cfg| (w.clone(), cfg)))
        .collect()
}

/// The oversubscription sweep: MM and GUPS fully resident and at 1.5×
/// and 2× oversubscription, under both managers (12 runs).
fn oversub() -> Vec<Job> {
    let managers = [ManagerKind::GpuMmu4K, ManagerKind::mosaic()];
    let mut jobs = Vec::new();
    for name in ["MM", "GUPS"] {
        let w = Workload::from_names(&[name]);
        jobs.extend(managers.map(|m| (w.clone(), smoke(m))));
        for factor in [1.5, 2.0] {
            jobs.extend(managers.map(|m| (w.clone(), smoke(m).oversubscribed(factor))));
        }
    }
    jobs
}

/// The multi-GPU sweep: two pairings on 1-, 2- and 4-GPU fleets under
/// both managers, then the replicate-read-only and migrate placement
/// probes on the 4-GPU fleet (14 runs).
fn multigpu() -> Vec<Job> {
    let fleet = |m: ManagerKind, g: usize| smoke(m).multi_gpu(g, Topology::FullyConnected);
    let mut jobs = Vec::new();
    for pairing in [["MM", "GUPS"], ["HS", "CONS"]] {
        let w = Workload::from_names(&pairing);
        for g in [1, 2, 4] {
            jobs.push((w.clone(), fleet(ManagerKind::GpuMmu4K, g)));
            jobs.push((w.clone(), fleet(ManagerKind::mosaic(), g)));
        }
    }
    let w0 = Workload::from_names(&["MM", "GUPS"]);
    for policy in
        [PlacementPolicy::ReplicateReadOnly, PlacementPolicy::MigrateOnThreshold { threshold: 8 }]
    {
        jobs.push((w0.clone(), fleet(ManagerKind::mosaic(), 4).with_placement(policy)));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_experiments::{fig08, mean, multigpu, oversub, AloneCache};
    use mosaic_gpusim::{run_workload, RunResult};

    #[test]
    fn lists_have_the_figure_sizes_and_take_the_seed() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| jobs(w, 42).unwrap().len()).collect();
        assert_eq!(sizes, [27, 12, 14]);
        assert!(jobs("nope", 42).is_none());
        let default_seed = RunConfig::new(ManagerKind::GpuMmu4K).seed;
        assert!(jobs("fig08", default_seed).unwrap().iter().all(|(_, c)| c.seed == default_seed));
        assert!(jobs("oversub", 7).unwrap().iter().all(|(_, c)| c.seed == 7));
    }

    fn run_all(jobs: &[Job]) -> Vec<RunResult> {
        jobs.iter().map(|(w, cfg)| run_workload(w, *cfg)).collect()
    }

    fn sys_ipc(r: &RunResult) -> f64 {
        r.apps.iter().map(|a| a.instructions).sum::<u64>() as f64 / r.total_cycles as f64
    }

    // The default-seed lists are the figures' own: folding the
    // benchmark's results the way each figure's `run` does reproduces
    // its rows.

    #[test]
    fn default_seed_fig08_list_reproduces_figure_8() {
        let jobs = jobs("fig08", 42).unwrap();
        let results = run_all(&jobs);
        let fig = fig08::run(Scope::Smoke);
        assert_eq!(fig.levels.len(), 3);
        let mut cache = AloneCache::new();
        for (l, level) in fig.levels.iter().enumerate() {
            let mut series = |k: usize| {
                let idx = (0..3).map(|i| l * 9 + i * 3 + k);
                let ws: Vec<f64> = idx
                    .map(|j| cache.weighted_speedup(&jobs[j].0, &results[j], jobs[j].1))
                    .collect();
                mean(&ws)
            };
            assert_eq!(
                (level.gpu_mmu, level.mosaic, level.ideal),
                (series(0), series(1), series(2))
            );
        }
    }

    #[test]
    fn default_seed_oversub_list_reproduces_the_oversubscription_figure() {
        let results = run_all(&jobs("oversub", 42).unwrap());
        let fig = oversub::run(Scope::Smoke);
        assert_eq!(fig.rows.len(), 4);
        for (row, (c, fi)) in fig.rows.iter().zip(results.chunks(6).flat_map(|c| [(c, 0), (c, 1)]))
        {
            let (g, m) = (&c[2 + 2 * fi], &c[3 + 2 * fi]);
            assert_eq!(row.norm_gpu_mmu, c[0].total_cycles as f64 / g.total_cycles as f64);
            assert_eq!(row.norm_mosaic, c[1].total_cycles as f64 / m.total_cycles as f64);
            assert_eq!(row.evictions, g.stats.manager.evictions + m.stats.manager.evictions);
        }
    }

    #[test]
    fn default_seed_multigpu_list_reproduces_the_multi_gpu_figure() {
        let results = run_all(&jobs("multigpu", 42).unwrap());
        let fig = multigpu::run(Scope::Smoke);
        assert_eq!((fig.rows.len(), fig.placement.len()), (6, 3));
        for (row, pair) in fig.rows.iter().zip(results[..12].chunks(2)) {
            assert_eq!((row.ipc_gpu_mmu, row.ipc_mosaic), (sys_ipc(&pair[0]), sys_ipc(&pair[1])));
        }
        for (row, r) in fig.placement.iter().zip([&results[5], &results[12], &results[13]]) {
            assert_eq!(row.remote_accesses, r.stats.remote_accesses);
            assert_eq!(
                (row.migrations, row.replications),
                (r.stats.fleet_migrations, r.stats.fleet_replications)
            );
        }
    }
}
