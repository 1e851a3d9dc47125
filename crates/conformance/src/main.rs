//! The `mosaic-conformance` command-line front end.
//!
//! ```text
//! mosaic-conformance fuzz [--cases N] [--seed S] [--max-ops K]
//!                         [--suite vm|mgr|multigpu|all] [--mutate MUTATION]
//! ```
//!
//! Exit status: 0 on a clean run, 1 on divergence (minimized repro on
//! stderr), 2 on usage errors. Deterministic: the same arguments always
//! produce the same verdict and the same stderr.

use mosaic_conformance::{run_fuzz, FuzzConfig, Mutation, Suite};

fn usage() -> ! {
    eprintln!(
        "usage: mosaic-conformance fuzz [options]\n\
         \n\
         options:\n\
         \x20 --cases N       cases per suite (default 256)\n\
         \x20 --seed S        master seed, decimal or 0x-hex (default 0xC0FFEE)\n\
         \x20 --max-ops K     upper bound on ops per case (default 120)\n\
         \x20 --suite WHICH   vm | mgr | multigpu | all (default all)\n\
         \x20 --mutate FAULT  inject a driver fault to self-test the harness:\n\
         \x20                 skip-flush-large | fill-ignores-size | lookup-skips-recency\n\
         \n\
         exit status: 0 clean, 1 divergence (minimized repro on stderr), 2 usage"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("fuzz") {
        usage();
    }
    let mut config = FuzzConfig::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--cases" => match parse_u64(value) {
                Some(n) => config.cases = n,
                None => usage(),
            },
            "--seed" => match parse_u64(value) {
                Some(s) => config.seed = s,
                None => usage(),
            },
            "--max-ops" => match parse_u64(value) {
                Some(k) if k > 0 => config.max_ops = k as usize,
                _ => usage(),
            },
            "--suite" => {
                config.suite = match value.as_str() {
                    "vm" => Suite::Vm,
                    "mgr" => Suite::Mgr,
                    "multigpu" => Suite::MultiGpu,
                    "all" => Suite::All,
                    _ => usage(),
                }
            }
            "--mutate" => {
                config.mutation = match value.as_str() {
                    "skip-flush-large" => Mutation::SkipFlushLarge,
                    "fill-ignores-size" => Mutation::FillIgnoresSize,
                    "lookup-skips-recency" => Mutation::LookupSkipsRecency,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match run_fuzz(config) {
        Ok(stats) => {
            println!(
                "mosaic-conformance: clean — {} vm case(s), {} mgr case(s), {} multigpu case(s), \
                 {} ops replayed (seed {:#x})",
                stats.vm_cases, stats.mgr_cases, stats.multigpu_cases, stats.total_ops, config.seed
            );
        }
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}
