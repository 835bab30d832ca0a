#!/usr/bin/env bash
# Tier-1 verification: everything here must pass offline, from a clean
# checkout, with no network access. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> manifests (no [features] table and no external property-test crate)"
if grep -nE '^\[features\]|[p]roptest' Cargo.toml crates/*/Cargo.toml; then
  echo "verify: a workspace manifest declares features or an external property-test crate" >&2
  exit 1
fi

echo "==> unsafe code (every crate root forbids it)"
for root in src/lib.rs crates/*/src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "verify: $root lacks #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done

echo "==> build (release)"
cargo build --release --workspace

echo "==> test"
cargo test -q --workspace

echo "==> checker suites (release: sharded exploration vs the sequential discovery"
echo "    order, incl. ample subsets listed unsorted or with repeats (the merge walks"
echo "    each expander's list, no sort), and one helper pool per exploration serving"
echo "    levels that alternate inline and threaded, cut mid-level at every limit,"
echo "    with a panic on the calling thread or a helper panicking the exploration"
echo "    instead of hanging it; the condition pass vs the sequential oracle"
echo "    on kernel workloads, mutants and demo leaks, incl. one colour violating both"
echo "    condition families, and on every small object system of prop_parallel, also"
echo "    truncated: checks cut at 1, n/2, n-1 and n states vs the oracle over the"
echo "    same prefix; view keys equal exactly when views are, hashed in place to the"
echo "    fingerprint of the tuple they replaced, and exact dedup confirming colliding"
echo "    keys; condition 1 in place (op_respects) vs the materialised default and"
echo "    phi_eq vs phi on fault, sticky-latch, device-input and pending-interrupt"
echo "    systems; the streaming fingerprinter vs fingerprint; share_page_from and"
echo "    same_page over zero, shared and owned pages; snapshot_into vs snapshot on"
echo "    every device; the verify workload's pinned report; symmetry/POR soundness;"
echo "    kernel clones sharing one boot identity at one reference count, a restart"
echo "    in a clone re-imaging from it and a metrics slot renamed in a clone"
echo "    leaving the source as it was)"
cargo test --release -q -p sep-model --test differential_checker \
  --test explore_determinism --test prop_parallel --test reduction_differential
cargo test --release -q -p sep-model --lib -- fp:: canon::
cargo test --release -q -p sep-kernel --lib -- verify:: kernel::tests
cargo test --release -q -p sep-kernel --test shared_identity
cargo test --release -q -p sep-machine --lib -- mem:: dev::
cargo test --release -q --test paged_kernel

echo "==> property suites (release: PoS over random two-regime programs, channel"
echo "    FIFOs, machine flags, decode and the disassembler round trip over every"
echo "    word, MMU bounds, component invariants, estimators, lattice laws, parser"
echo "    fuzz incl. digit runs too long for an i64 (the lexer rejects them); seeded"
echo "    cases on sep_model::rng's runner, whole domains where small."
echo "    A failing case prints the seed and case index that replay it alone)"
cargo test --release -q -p sep-model -p sep-machine -p sep-kernel -p sep-components \
  -p sep-covert -p sep-policy -p sep-flow --test prop_model --test prop_machine \
  --test prop_kernel --test prop_components --test prop_covert --test lattice_laws \
  --test generic_lattice

echo "==> e2 PoS bench (reduction sweep >=10x; verdicts pinned across all combos)"
cargo run -q --release -p sep-bench --bin e2_pos_verify > /dev/null
test -s BENCH_obs_e2_pos_verify.json

echo "==> scheduler differential suite (release: policies vs the seed kernel,"
echo "    the cyclic table position as explored state)"
cargo test --release -q -p sep-kernel --test sched_differential \
  --test sched_edge_cases --test bugfix_regressions

echo "==> fault-storm differential suite (release: containment, PoS with fault ops)"
cargo test --release -q -p sep-kernel --test fault_differential

echo "==> e9 fault storm bench (goodput under loss; seeds recorded in the report)"
cargo run -q --release -p sep-bench --bin e9_fault_storm > /dev/null
test -s BENCH_obs_e9_fault_storm.json

echo "==> hot-path differential suite (release: slow vs fast engine incl. the"
echo "    superblock tier, traps right after compiled blocks, self-modifying code,"
echo "    clone hygiene, fp vs exact dedup, batched kernel step_n vs single steps"
echo "    for machine code and for quiet native regimes fed host frames, incl."
echo "    period-jump cases: native batches jumping whole round-robin and"
echo "    static-cyclic periods, windows ending on and one step past a period"
echo "    boundary, a lone self-swapping regime; every fleet component's"
echo "    advance(n) vs n idle rounds)"
cargo test --release -q -p sep-machine --test hotpath
cargo test --release -q -p sep-kernel --test hotpath_differential
cargo test --release -q --test step_n_differential --test quiet_rounds_contract

echo "==> e10 hot-path bench (asserts warm step_n >=6x the slow step())"
cargo run -q --release -p sep-bench --bin e10_hotpath > /dev/null
test -s BENCH_obs_e10_hotpath.json

echo "==> fleet suite (release: determinism, containment, loss, saturation;"
echo "    per-node queue gauges pinned to one sample per live round after egress;"
echo "    a lossy link's counts and traced frame bytes pinned), then the ARQ oracle"
echo "    (ring windows, table CRC and port slots vs the BTreeMap/bit-serial"
echo "    reference: every frame, delivery and counter across the u16 sequence"
echo "    wrap, reboots and a span past the window; ARQ reboot redelivery: a resync"
echo "    at the wrap redelivers every payload, the acked ones the old receiver"
echo "    held behind a gap included, first deliveries in order), the span test"
echo "    (a long-lost frame never lets the span reach 2^15 and loses no payload),"
echo "    the slicing-by-4 CRC vs the bit-serial one at every frame length 0..519,"
echo "    and pooled frames vs a NoPool adapter's fresh ones through loss and"
echo "    reboots; then the file-server oracle (reused port names, lookup key and"
echo "    response buffer vs the previous server: every response byte, file and"
echo "    counter); then buffer hygiene (a recycled buffer comes back empty, a long"
echo "    frame's exact buffer and a foreign capacity are never pooled, executor"
echo "    pools and kernel spares within their topology bound, a kernel clone"
echo "    starting with no spares, machine-code RECV returning its buffer, a"
echo "    channel handing back what it did not keep and cloning messages at their"
echo "    capacity, and a probe behind a lossy ARQ pair and a guard pipeline"
echo "    seeing one capacity per frame length at 1 and 2 workers)"
cargo test --release -q -p sep-fleet --test fleet
cargo test --release -q -p sep-distributed --test arq_oracle
cargo test --release -q -p sep-components --test fileserver_oracle
cargo test --release -q -p sep-model --lib -- bufpool::
cargo test --release -q -p sep-distributed --lib -- network:: wire::
cargo test --release -q -p sep-kernel --lib -- kernel::tests channel::
cargo test --release -q -p sep-fleet --test buffer_hygiene

echo "==> fleet differential suite (release: 1/2/4/8 workers byte-identical to a"
echo "    build whose components never skip a step, per-node kernels included,"
echo "    incl. crash-recovery reboot and kill-at-boot regressions; and the ARQ"
echo "    loss storm, crash-recovery reboot and guard pipeline at 1/2/4/8 workers"
echo "    byte-identical when no component recycles a frame (NoRecycle))"
cargo test --release -q -p sep-fleet --test fleet_differential
cargo test --release -q -p sep-distributed --lib --test topology

echo "==> e11 fleet bench (16 nodes, 100k clients; workers sweep, byte-determinism,"
echo "    >=2x speedup at 4 workers on >=4-core hosts)"
cargo run -q --release -p sep-bench --bin e11_fleet > /dev/null
test -s BENCH_obs_e11_fleet.json

echo "==> e12 crash-recovery bench (reboot, epoch resync, exactly-once retry;"
echo "    bystander byte-identity, zero duplicate commits, goodput recovery)"
cargo run -q --release -p sep-bench --bin e12_crash_recovery > /dev/null
test -s BENCH_obs_e12_crash_recovery.json

echo "==> rustdoc (warnings are errors: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt (check only)"
cargo fmt --all --check

echo "verify: OK"
