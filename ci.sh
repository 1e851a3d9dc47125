#!/usr/bin/env bash
# Local CI gate: formatting, lints, the determinism/invariant policy
# scanner, and the full test suite. Run from the repository root; any
# failing step fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mosaic-audit self-test (rule corpus, mutation tripwires, closure pins)"
cargo test -q -p mosaic-audit

echo "==> mosaic-audit check (determinism & invariants policy)"
mkdir -p target/audit
cargo run -q -p mosaic-audit -- check
cargo run -q -p mosaic-audit -- check --format json > target/audit/findings.json
cargo run -q -p mosaic-audit -- graph --format json > target/audit/closure.json
echo "    artifacts: target/audit/findings.json, target/audit/closure.json"

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench (the benchmark package builds the simulator crates from source)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo build --release"
cargo build -q --release --workspace

echo "==> bench-smoke (wall-time regression gate vs committed BENCH.json)"
cargo run -q --release -p mosaic-bench -- --quick --no-out --check BENCH.json

echo "==> campaign-smoke (run cache: cold/warm/no-cache byte-identity and warm speedup)"
rm -rf target/campaign-cache
t0=$(date +%s%N)
target/release/reproduce --jobs 1 --cache-dir target/campaign-cache \
    campaign run campaigns/smoke.toml > target/campaign-cold.txt 2> target/campaign-cold.err
t1=$(date +%s%N)
target/release/reproduce --jobs 1 --cache-dir target/campaign-cache \
    campaign run campaigns/smoke.toml > target/campaign-warm.txt 2> target/campaign-warm.err
t2=$(date +%s%N)
target/release/reproduce --jobs 1 --no-cache \
    campaign run campaigns/smoke.toml > target/campaign-nocache.txt
diff target/campaign-cold.txt target/campaign-warm.txt
diff target/campaign-cold.txt target/campaign-nocache.txt
grep -Eq '[1-9][0-9]* hits, 0 misses' target/campaign-warm.err
cold_ms=$(( (t1 - t0) / 1000000 ))
warm_ms=$(( (t2 - t1) / 1000000 ))
echo "    cold ${cold_ms}ms, warm ${warm_ms}ms (100% hits), reports byte-identical"
test "$cold_ms" -ge $(( warm_ms * 10 ))

echo "==> conformance fuzz (differential oracles, bounded deterministic run)"
cargo run -q --release -p mosaic-conformance -- fuzz --cases 256 --seed 0xC0FFEE

echo "==> smoke sweep (parallel reproduce run + pinned fig03/fig08 digests)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest fig03 fig08 > target/smoke-sweep.txt
# The golden constants from tests/parallel_determinism.rs: the per-op
# issue path (SM scheduling, warp streams, TLB and cache probes) feeds
# both digests.
grep -q 'digest fig08 ad0fedc459c0afa6' target/smoke-sweep.txt
grep -q 'digest fig03 d3a367a2c8a59907' target/smoke-sweep.txt
echo "    fig03 and fig08 digests match the golden pins"

echo "==> multigpu-smoke (fleet scale-out: byte-diff at --jobs 1 vs 4 + pinned digest)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 1 multigpu > target/multigpu-serial.txt
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest --jobs 4 multigpu > target/multigpu-parallel.txt
diff target/multigpu-serial.txt target/multigpu-parallel.txt
# The golden constant from tests/parallel_determinism.rs: the determinism
# contract for the whole scale-out path (placement, interconnect,
# migration payloads, remote/migrate stall attribution).
grep -q 'digest multigpu eea524f5b009c7d8' target/multigpu-serial.txt
echo "    multigpu byte-identical at --jobs 1 and 4, digest matches the golden pin"

echo "==> oversubscription smoke (demand-paging engine: evict, write back, prefetch + pinned digest)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --digest oversub > target/oversub-smoke.txt
# The golden constant from tests/parallel_determinism.rs: eviction order,
# range shootdowns, dirty write-back and prefetch all feed this digest.
grep -q 'digest oversub 34029bf26e3a411f' target/oversub-smoke.txt
echo "    oversub digest matches the golden pin"

echo "==> trace-smoke (record a traced sweep, validate the JSONL, round-trip to Chrome)"
MOSAIC_SCOPE=smoke cargo run -q --release -p mosaic-experiments --bin reproduce -- \
    --trace target/trace-smoke.jsonl --stall-report
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- validate target/trace-smoke.jsonl
cargo run -q --release -p mosaic-telemetry --bin mosaic-trace -- \
    chrome target/trace-smoke.jsonl -o target/trace-smoke.chrome.json

echo "CI green."
