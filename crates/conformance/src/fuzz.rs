//! The fuzz loop: generate cases, replay them in lockstep, and on
//! divergence shrink to a minimal repro.

use crate::harness::{run_mgr_case, run_vm_case, Divergence, Mutation};
use crate::multigpu::{
    gen_multigpu_case, render_multigpu_repro, run_multigpu_case, run_multigpu_system_case,
    MultiGpuCase,
};
use crate::ops::{gen_mgr_case, gen_vm_case, render_mgr_repro, render_vm_repro};
use crate::shrink::shrink;
use std::fmt;

/// Which lockstep suite(s) a fuzz run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Suite {
    /// Page table + TLB vs their oracles.
    Vm,
    /// Memory managers vs the frame ledger.
    Mgr,
    /// Multi-GPU placement vs the frame-residency oracle.
    MultiGpu,
    /// Every suite, per case index.
    #[default]
    All,
}

/// Parameters of one fuzz run. The same config always produces the same
/// cases, the same verdict, and the same repro.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of cases per suite.
    pub cases: u64,
    /// Master seed; each case forks its own stream from it.
    pub seed: u64,
    /// Upper bound on ops per case.
    pub max_ops: usize,
    /// Suites to run.
    pub suite: Suite,
    /// Driver fault injection (harness self-test).
    pub mutation: Mutation,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 256,
            seed: 0xC0FFEE,
            max_ops: 120,
            suite: Suite::All,
            mutation: Mutation::None,
        }
    }
}

/// A fuzz run's failure: the divergence plus its minimized repro.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// `"vm"`, `"mgr"`, or `"multigpu"`.
    pub suite: &'static str,
    /// Index of the failing case (rerun with `--cases 1` after skipping,
    /// or just paste the repro).
    pub case_index: u64,
    /// The original (unshrunk) divergence.
    pub divergence: Divergence,
    /// Ops left after shrinking.
    pub shrunk_ops: usize,
    /// Copy-pasteable Rust test body reproducing the failure.
    pub repro: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} case {} diverged at {} (shrunk to {} ops):",
            self.suite, self.case_index, self.divergence, self.shrunk_ops
        )?;
        write!(f, "{}", self.repro)
    }
}

/// Cases executed by a passing run, per suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// VM-suite cases run.
    pub vm_cases: u64,
    /// Manager-suite cases run.
    pub mgr_cases: u64,
    /// Multi-GPU-suite cases run (placement schedules vs the residency
    /// oracle; every eighth case adds an audited-vs-plain fleet run).
    pub multigpu_cases: u64,
    /// Total ops replayed.
    pub total_ops: u64,
}

/// Runs the configured fuzz campaign.
///
/// # Errors
///
/// The first [`FuzzFailure`], already shrunk and rendered.
pub fn run_fuzz(config: FuzzConfig) -> Result<FuzzStats, Box<FuzzFailure>> {
    let mut stats = FuzzStats::default();
    for index in 0..config.cases {
        if matches!(config.suite, Suite::Vm | Suite::All) {
            let case = gen_vm_case(config.seed, index, config.max_ops);
            stats.vm_cases += 1;
            stats.total_ops += case.ops.len() as u64;
            if let Err(d) = run_vm_case(case.config, &case.ops, config.mutation) {
                let small = shrink(&case.ops, |ops| {
                    run_vm_case(case.config, ops, config.mutation).is_err()
                });
                let detail = run_vm_case(case.config, &small, config.mutation)
                    .expect_err("shrunk schedule must still fail");
                return Err(Box::new(FuzzFailure {
                    suite: "vm",
                    case_index: index,
                    divergence: d,
                    shrunk_ops: small.len(),
                    repro: render_vm_repro(
                        case.config,
                        &small,
                        config.mutation,
                        &detail.to_string(),
                    ),
                }));
            }
        }
        if matches!(config.suite, Suite::Mgr | Suite::All) {
            let case = gen_mgr_case(config.seed, index, config.max_ops);
            stats.mgr_cases += 1;
            stats.total_ops += case.ops.len() as u64;
            if let Err(d) = run_mgr_case(case.kind, case.frames, &case.ops) {
                let small =
                    shrink(&case.ops, |ops| run_mgr_case(case.kind, case.frames, ops).is_err());
                let detail = run_mgr_case(case.kind, case.frames, &small)
                    .expect_err("shrunk schedule must still fail");
                return Err(Box::new(FuzzFailure {
                    suite: "mgr",
                    case_index: index,
                    divergence: d,
                    shrunk_ops: small.len(),
                    repro: render_mgr_repro(case.kind, case.frames, &small, &detail.to_string()),
                }));
            }
        }
        if matches!(config.suite, Suite::MultiGpu | Suite::All) {
            let case = gen_multigpu_case(config.seed, index, config.max_ops);
            stats.multigpu_cases += 1;
            stats.total_ops += case.ops.len() as u64;
            if let Err(d) = run_multigpu_case(&case) {
                let small = shrink(&case.ops, |ops| {
                    let sub =
                        MultiGpuCase { gpus: case.gpus, policy: case.policy, ops: ops.to_vec() };
                    run_multigpu_case(&sub).is_err()
                });
                let sub = MultiGpuCase { gpus: case.gpus, policy: case.policy, ops: small };
                let detail = run_multigpu_case(&sub).expect_err("shrunk schedule must still fail");
                return Err(Box::new(FuzzFailure {
                    suite: "multigpu",
                    case_index: index,
                    divergence: d,
                    shrunk_ops: sub.ops.len(),
                    repro: render_multigpu_repro(&sub, &sub.ops, &detail.to_string()),
                }));
            }
            // Full-system fleet runs are ~1000× the cost of an op-stream
            // replay, so subsample them: one audited-vs-plain simulation
            // pair every eighth case.
            if index % 8 == 0 {
                if let Err(d) = run_multigpu_system_case(config.seed, index) {
                    return Err(Box::new(FuzzFailure {
                        suite: "multigpu",
                        case_index: index,
                        shrunk_ops: 0,
                        repro: format!(
                            "// Regenerate with run_multigpu_system_case({:#x}, {index})\n\
                             // Divergence: {}\n",
                            config.seed, d.detail
                        ),
                        divergence: d,
                    }));
                }
            }
        }
    }
    Ok(stats)
}
