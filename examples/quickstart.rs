//! Quickstart: build a two-regime separation-kernel system, run it, and
//! verify it with Proof of Separability.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sep_kernel::config::{KernelConfig, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::verify::KernelSystem;
use sep_model::check::SeparabilityChecker;

fn main() {
    // Two regimes, each a real PDP-11 machine-code program: compute a bit,
    // then voluntarily SWAP (TRAP 0) — the SUE discipline.
    let red = "
start:  INC counter          ; my own partition word
        BIC #0o177770, counter
        TRAP 0               ; SWAP: yield the processor
        BR start
counter: .word 0
";
    let black = "
start:  ADD #2, counter
        BIC #0o177770, counter
        TRAP 0
        BR start
counter: .word 0
";
    let config = KernelConfig::new(vec![
        RegimeSpec::assembly("red", red),
        RegimeSpec::assembly("black", black),
    ]);

    // Run the shared system.
    let mut kernel = SeparationKernel::boot(config.clone()).expect("boots");
    kernel.run(400);
    println!("after 400 steps:");
    for (i, r) in kernel.regimes.iter().enumerate() {
        let counter = kernel.machine.mem.read_word(r.partition_base + 8);
        println!(
            "  regime {i} ({}): status {:?}, counter {}",
            kernel.identity(i).name,
            r.status,
            counter
        );
    }
    println!(
        "  kernel stats: {} instructions, {} swaps, {} syscalls",
        kernel.stats.instructions,
        kernel.stats.swaps,
        kernel.stats.syscalls.iter().sum::<u64>()
    );

    // Verify: the six conditions of Proof of Separability, checked
    // exhaustively over the reachable state space.
    let sys = KernelSystem::new(config).expect("verifiable configuration");
    let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
    println!("\n{report}");
    assert!(report.is_separable());
    println!("the kernel is SEPARABLE: each regime's view is exactly its private machine");
}
