#!/usr/bin/env bash
# Tier-1 verification: everything here must pass offline, from a clean
# checkout, with no network access. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release --workspace

echo "==> test"
cargo test -q --workspace

echo "==> checker suites (release: parallel vs sequential on kernel workloads and"
echo "    on every small object system of prop_parallel; symmetry/POR soundness)"
cargo test --release -q -p sep-model --test differential_checker \
  --test explore_determinism --test prop_parallel --test reduction_differential

echo "==> e2 PoS bench (reduction sweep >=10x; verdicts pinned across all combos)"
cargo run -q --release -p sep-bench --bin e2_pos_verify > /dev/null
test -s BENCH_obs_e2_pos_verify.json

echo "==> scheduler differential suite (release: policies vs the seed kernel)"
cargo test --release -q -p sep-kernel --test sched_differential \
  --test sched_edge_cases --test bugfix_regressions

echo "==> fault-storm differential suite (release: containment, PoS with fault ops)"
cargo test --release -q -p sep-kernel --test fault_differential

echo "==> e9 fault storm bench (goodput under loss; seeds recorded in the report)"
cargo run -q --release -p sep-bench --bin e9_fault_storm > /dev/null
test -s BENCH_obs_e9_fault_storm.json

echo "==> hot-path differential suite (release: slow vs fast engine incl. the"
echo "    superblock tier, traps right after compiled blocks, self-modifying code,"
echo "    clone hygiene, fp vs exact dedup, batched kernel step_n vs single steps)"
cargo test --release -q -p sep-machine --test hotpath
cargo test --release -q -p sep-kernel --test hotpath_differential
cargo test --release -q --test step_n_differential

echo "==> e10 hot-path bench (asserts warm step_n >=6x the slow step())"
cargo run -q --release -p sep-bench --bin e10_hotpath > /dev/null
test -s BENCH_obs_e10_hotpath.json

echo "==> fleet suite (release: determinism, containment, loss, saturation)"
cargo test --release -q -p sep-fleet --test fleet

echo "==> fleet differential suite (release: 1/2/4/8 workers byte-identical,"
echo "    incl. crash-recovery reboot and kill-at-boot regressions)"
cargo test --release -q -p sep-fleet --test fleet_differential
cargo test --release -q -p sep-distributed

echo "==> e11 fleet bench (16 nodes, 100k clients; workers sweep, byte-determinism,"
echo "    >=2x speedup at 4 workers on >=4-core hosts)"
cargo run -q --release -p sep-bench --bin e11_fleet > /dev/null
test -s BENCH_obs_e11_fleet.json

echo "==> e12 crash-recovery bench (reboot, epoch resync, exactly-once retry;"
echo "    bystander byte-identity, zero duplicate commits, goodput recovery)"
cargo run -q --release -p sep-bench --bin e12_crash_recovery > /dev/null
test -s BENCH_obs_e12_crash_recovery.json

echo "==> clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt (check only)"
cargo fmt --all --check

echo "verify: OK"
