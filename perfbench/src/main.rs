//! The repository benchmark: three workloads, each driving one layer of the
//! separation-kernel stack and bypassing the others.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet --seed 0 --seconds 10 --trace 0
//! ```
//!
//! * `fleet` — E11's 16-node kernel fleet under lossy ARQ links
//!   (`sep-distributed`, `sep-fleet`, `sep-components`);
//! * `asm` — machine-code regimes on one kernel (`sep-machine`,
//!   `sep-kernel`);
//! * `verify` — back-to-back Proof of Separability verdicts (`sep-model`,
//!   with cold `sep-kernel` clones);
//! * `all` — the three in turn, each in its own process, so each reports
//!   its own peak memory.
//!
//! Each run repeats a fixed amount of simulated work for `--seconds`
//! seconds and reports medians over the repetitions. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it is the separate
//! traced run: it times sampled calls into each layer's public functions
//! from this crate's own code and prints the per-layer metrics, the
//! tracing overhead, and digests of the simulated outcome, which must
//! equal those of the untraced repetitions it interleaves. Every run
//! checks the workload's outputs; the last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and a
//! failed check also makes the exit code 1.

mod asm;
mod fleet;
mod metrics;
mod util;
mod verify;

use std::process::{exit, Command};

const USAGE: &str = "usage: perfbench --workload <fleet|asm|verify|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, passing the flags on.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut ok = true;
    for workload in ["fleet", "asm", "verify"] {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    println!(
        "all: {}",
        if ok { "every gate held" } else { "GATE FAILED" }
    );
    ok
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let out = match args.workload.as_str() {
        "fleet" => fleet::run(args.seed, args.seconds, args.trace),
        "asm" => asm::run(args.seed, args.seconds, args.trace),
        "verify" => verify::run(args.seconds, args.trace),
        // One verdict of `verify`, in the process `verify::run` spawns.
        "verify-verdict" => return verify::verdict_process(args.trace),
        "all" => exit(if run_all(&args) { 0 } else { 1 }),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            exit(2);
        }
    };
    out.print(&args.workload, args.trace);
    if !out.correct {
        exit(1);
    }
}
