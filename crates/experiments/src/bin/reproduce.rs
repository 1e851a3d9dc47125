//! Command-line driver: regenerate any (or every) table/figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p mosaic-experiments --bin reproduce -- all
//! cargo run --release -p mosaic-experiments --bin reproduce -- fig08 fig13
//! cargo run --release -p mosaic-experiments --bin reproduce -- --jobs 4 fig08
//! MOSAIC_SCOPE=full cargo run --release -p mosaic-experiments --bin reproduce -- fig08
//! MOSAIC_JSON=out.json cargo run ... -- fig03
//! ```
//!
//! `--jobs N` (or `MOSAIC_JOBS=N`) sets the worker-thread count of the
//! sweep executor; the default is the machine's available parallelism.
//! Output is byte-identical for every job count.
//!
//! `--trace FILE` records every simulated event of every sweep run to
//! `FILE` as JSONL (one `run_begin` line per run, then its events);
//! validate or convert it with the `mosaic-trace` binary. `--stall-report`
//! appends the stall-cycle attribution report to the requested
//! experiments. Both are deterministic: byte-identical at any `--jobs`.
//!
//! `--digest` appends one `digest NAME XXXXXXXXXXXXXXXX` line per
//! experiment (FNV-1a 64-bit over the rendered report) after all
//! reports — the same digest the golden determinism tests pin, so shell
//! gates can compare a run against a pinned value with `grep`.
//!
//! `--cache-dir DIR` (or `MOSAIC_CACHE_DIR=DIR`) installs the persistent
//! content-addressed run cache (DESIGN.md §13): completed simulations are
//! checkpointed to disk and served on re-runs, with byte-identical
//! output. `--no-cache` forces straight simulation. Figure drivers cache
//! only when a directory is given; the `campaign` subcommand defaults to
//! `target/mosaic-cache`:
//!
//! ```text
//! reproduce campaign run    FILE   # simulate a scenario matrix (resumable)
//! reproduce campaign expand FILE   # list the points a matrix expands to
//! reproduce campaign status FILE   # cached/pending per point + ETA
//! ```

use mosaic_campaign::{render_expand, render_results, render_status, Spec, Store};
use mosaic_experiments as exp;
use mosaic_experiments::Scope;

const ALL: [&str; 17] = [
    "fig03",
    "fig04",
    "bloat",
    "fig06",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table2",
    "ablations",
    "oversub",
    "multigpu",
];

fn emit<T: std::fmt::Display>(name: &str, value: T, sink: &mut Vec<(String, String)>) {
    println!("{:=<66}", format!("== {name} "));
    println!("{value}");
    sink.push((name.to_string(), value.to_string()));
}

/// FNV-1a (64-bit) over a rendered report — the same function the golden
/// determinism tests use, so `--digest` output is directly comparable to
/// the pinned constants in `tests/parallel_determinism.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escapes `s` for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the collected results as a JSON object mapping each
/// experiment name to its rendered report text.
fn to_json(results: &[(String, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, text)) in results.iter().enumerate() {
        out.push_str(&format!("  \"{}\": \"{}\"", json_escape(name), json_escape(text)));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Strips `--jobs N` / `--jobs=N` out of `args` and returns the parsed
/// worker count, exiting with a usage error on a malformed value.
fn take_jobs_flag(args: &mut Vec<String>) -> Option<usize> {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--jobs" {
            if i + 1 >= args.len() {
                eprintln!("--jobs requires a worker count");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            v
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            let v = v.to_string();
            args.remove(i);
            v
        } else {
            i += 1;
            continue;
        };
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => jobs = Some(n),
            _ => {
                eprintln!("--jobs expects a positive integer, got {value:?}");
                std::process::exit(2);
            }
        }
    }
    jobs
}

/// Strips `--trace FILE` / `--trace=FILE` out of `args` and returns the
/// output path, exiting with a usage error on a missing value.
fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    let mut path = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" {
            if i + 1 >= args.len() {
                eprintln!("--trace requires an output path");
                std::process::exit(2);
            }
            path = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix("--trace=") {
            path = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    path
}

/// Strips `--cache-dir DIR` / `--cache-dir=DIR` out of `args` and returns
/// the store directory, exiting with a usage error on a missing value.
fn take_cache_dir_flag(args: &mut Vec<String>) -> Option<String> {
    let mut dir = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--cache-dir" {
            if i + 1 >= args.len() {
                eprintln!("--cache-dir requires a directory");
                std::process::exit(2);
            }
            dir = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix("--cache-dir=") {
            dir = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    dir
}

/// Where the run cache lives: `--cache-dir`, then `MOSAIC_CACHE_DIR`,
/// then (only if `default` is set) the campaign default directory.
/// `--no-cache` wins over everything.
fn resolve_cache_dir(
    flag: Option<String>,
    no_cache: bool,
    default: Option<&str>,
) -> Option<String> {
    if no_cache {
        return None;
    }
    flag.or_else(|| std::env::var("MOSAIC_CACHE_DIR").ok().filter(|s| !s.is_empty()))
        .or_else(|| default.map(str::to_string))
}

/// Opens the store, exiting on failure (an unreadable cache directory is
/// a configuration error, not something to silently run without).
fn open_store(dir: &str) -> Store {
    Store::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache directory {dir}: {e}");
        std::process::exit(1);
    })
}

/// Prints the cache accounting line for whatever ran, if a cache was
/// installed.
fn report_cache_stats() {
    if let Some(store) = exp::sweep::cache() {
        let st = store.stats();
        eprintln!(
            "[cache] {} hits, {} misses, {} stored, {} failures; {} of simulation served from {}",
            st.hits,
            st.misses,
            st.stores,
            st.failures,
            mosaic_telemetry::progress::fmt_duration(std::time::Duration::from_millis(st.saved_ms)),
            store.root().display(),
        );
    }
}

/// The `campaign run|expand|status FILE` subcommand.
fn run_campaign(sub: &[String], cache_dir: Option<String>, no_cache: bool) {
    let (action, file) = match sub {
        [action, file] if matches!(action.as_str(), "run" | "expand" | "status") => {
            (action.as_str(), file.as_str())
        }
        _ => {
            eprintln!(
                "usage: reproduce campaign run|expand|status FILE [--cache-dir DIR] [--no-cache]"
            );
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read campaign file {file}: {e}");
        std::process::exit(1);
    });
    let spec = Spec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        std::process::exit(2);
    });
    let campaign = spec.expand();
    match action {
        "expand" => print!("{}", render_expand(&campaign)),
        "status" => {
            let Some(dir) = resolve_cache_dir(cache_dir, no_cache, Some(DEFAULT_CACHE_DIR)) else {
                eprintln!("campaign status needs a cache (drop --no-cache)");
                std::process::exit(2);
            };
            print!("{}", render_status(&campaign, &open_store(&dir)));
        }
        "run" => {
            if let Some(dir) = resolve_cache_dir(cache_dir, no_cache, Some(DEFAULT_CACHE_DIR)) {
                exp::sweep::set_cache(Some(open_store(&dir)));
            } else {
                eprintln!("[campaign] cache disabled (--no-cache)");
            }
            let exec = exp::Executor::from_env();
            eprintln!(
                "[campaign] {:?}: {} points ({} skipped), {} workers",
                campaign.name,
                campaign.points.len(),
                campaign.skipped.len(),
                exec.jobs()
            );
            let jobs: Vec<_> =
                campaign.points.iter().map(|p| (p.workload.clone(), p.cfg)).collect();
            let t0 = std::time::Instant::now();
            let results = exp::sweep::run_workloads(&exec, jobs);
            print!("{}", render_results(&campaign, &results));
            report_cache_stats();
            eprintln!("[campaign] finished in {:.1?}", t0.elapsed());
        }
        _ => unreachable!("validated above"),
    }
}

/// Prints the command-line synopsis and exits with status 2.
fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--jobs N] [--digest] [--stall-report] [--trace FILE]\n\
         \x20                [--cache-dir DIR] [--no-cache] [all | stall | EXPERIMENT...]\n\
         \x20      reproduce campaign run|expand|status FILE [--cache-dir DIR] [--no-cache]\n\
         experiments: {}",
        ALL.join(" ")
    );
    std::process::exit(2);
}

/// Default store location for the `campaign` subcommand (figure drivers
/// only cache when a directory is given explicitly).
const DEFAULT_CACHE_DIR: &str = "target/mosaic-cache";

fn main() {
    let scope = Scope::from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    exp::sweep::set_jobs(take_jobs_flag(&mut args));
    let cache_dir = take_cache_dir_flag(&mut args);
    let no_cache = {
        let before = args.len();
        args.retain(|a| a != "--no-cache");
        args.len() != before
    };
    let trace_path = take_trace_flag(&mut args);
    if args.first().map(String::as_str) == Some("campaign") {
        if trace_path.is_some() {
            exp::sweep::set_trace(true);
        }
        run_campaign(&args[1..], cache_dir, no_cache);
        if let Some(path) = trace_path {
            let chunks = exp::sweep::take_trace();
            let events: usize = chunks.iter().map(|c| c.events.len()).sum();
            std::fs::write(&path, exp::sweep::render_trace(&chunks))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {events} events from {} runs to {path}", chunks.len());
        }
        return;
    }
    if let Some(dir) = resolve_cache_dir(cache_dir, no_cache, None) {
        exp::sweep::set_cache(Some(open_store(&dir)));
    }
    let stall_report = {
        let before = args.len();
        args.retain(|a| a != "--stall-report");
        args.len() != before
    };
    let digest = {
        let before = args.len();
        args.retain(|a| a != "--digest");
        args.len() != before
    };
    // Validate the whole command line before any experiment runs, so a
    // typo at the end of a long list fails in milliseconds.
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown option {flag}");
        usage();
    }
    if let Some(other) =
        args.iter().find(|a| !matches!(a.as_str(), "all" | "stall") && !ALL.contains(&a.as_str()))
    {
        eprintln!("unknown experiment {other}");
        usage();
    }
    if trace_path.is_some() {
        exp::sweep::set_trace(true);
    }
    // `--stall-report` alone runs just the stall report; alongside
    // experiment names (or `all`) it rides along as an extra section.
    let mut wanted: Vec<&str> =
        if args.iter().any(|a| a == "all") || (args.is_empty() && !stall_report) {
            ALL.to_vec()
        } else {
            args.iter().map(String::as_str).collect()
        };
    if stall_report && !wanted.contains(&"stall") {
        wanted.push("stall");
    }
    eprintln!("scope: {scope:?} (set MOSAIC_SCOPE=smoke|default|full)");
    eprintln!(
        "jobs: {} (set with --jobs N or MOSAIC_JOBS=N; output is identical at any count)",
        exp::Executor::from_env().jobs()
    );

    let mut results = Vec::new();
    for name in wanted {
        let t0 = std::time::Instant::now();
        match name {
            "fig03" => emit(name, exp::fig03::run(scope), &mut results),
            "fig04" => emit(name, exp::fig04::run(scope), &mut results),
            "bloat" => emit(name, exp::bloat::run(scope), &mut results),
            "fig06" => emit(name, exp::fig06::run(scope), &mut results),
            "fig08" => emit(name, exp::fig08::run(scope), &mut results),
            "fig09" => emit(name, exp::fig09::run(scope), &mut results),
            "fig10" => emit(name, exp::fig10::run(scope), &mut results),
            "fig11" => emit(name, exp::fig11::run(scope), &mut results),
            "fig12" => emit(name, exp::fig12::run(scope), &mut results),
            "fig13" => emit(name, exp::fig13::run(scope), &mut results),
            "fig14" => emit(name, exp::fig14::run(scope), &mut results),
            "fig15" => emit(name, exp::fig15::run(scope), &mut results),
            "fig16" => emit(name, exp::fig16::run(scope), &mut results),
            "table2" => emit(name, exp::table2::run(scope), &mut results),
            "oversub" => emit(name, exp::oversub::run(scope), &mut results),
            "multigpu" => emit(name, exp::multigpu::run(scope), &mut results),
            "stall" => emit(name, exp::stall::run(scope), &mut results),
            "ablations" => {
                emit("ablation_pwc", exp::ablations::pwc_vs_l2tlb(scope), &mut results);
                emit("ablation_walker", exp::ablations::walker_threads(scope), &mut results);
                emit("ablation_cac_threshold", exp::ablations::cac_threshold(scope), &mut results);
                emit(
                    "ablation_coalescers",
                    exp::ablations::migrating_coalescer(scope),
                    &mut results,
                );
                emit("ablation_multikernel", exp::ablations::multi_kernel(scope), &mut results);
            }
            _ => unreachable!("names are validated before the first run"),
        }
        eprintln!("[{name} done in {:.1?}]", t0.elapsed());
    }

    if digest {
        for (name, text) in &results {
            println!("digest {name} {:016x}", fnv1a(text.as_bytes()));
        }
    }

    if let Some(path) = trace_path {
        let chunks = exp::sweep::take_trace();
        let events: usize = chunks.iter().map(|c| c.events.len()).sum();
        std::fs::write(&path, exp::sweep::render_trace(&chunks))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {events} events from {} runs to {path}", chunks.len());
    }
    report_cache_stats();

    if let Ok(path) = std::env::var("MOSAIC_JSON") {
        std::fs::write(&path, to_json(&results))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote machine-readable results to {path}");
    }
}
