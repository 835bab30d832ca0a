//! E2 — Proof of Separability at work: sequential vs frontier-sharded
//! verification cost, the state-space-reduction sweep (regime symmetry +
//! partial-order ample sets), and the mutant-detection matrix under every
//! reduction combination.
//!
//! Every sharded run is asserted report-identical to the sequential run,
//! and every reduction combination is asserted verdict-identical to the
//! unreduced run, before its row is printed — the table is differential
//! evidence, not just a benchmark. The binary aborts (and CI fails) if any
//! reduction changes a verdict. The machine-readable report
//! (`BENCH_obs_e2_pos_verify.json`) keeps the deterministic sections
//! (counts, verdicts, shard ownership, reduction counters) apart from
//! wall-clock timing.

use sep_bench::{
    checker_run_json, header, memory_workload, register_workload, row, symmetric_workload, timed,
};
use sep_kernel::config::{KernelConfig, Mutation};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_obs::RunReport;

const SHARDS: usize = 4;

/// The four on/off combinations of (symmetry, partial order).
const COMBOS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn combo_label(sym: bool, por: bool) -> String {
    format!("sym={} por={}", u8::from(sym), u8::from(por))
}

/// Builds the symmetric-workload adapter with the given reduction knobs.
fn symmetric_system(n: usize, sym: bool, por: bool) -> KernelSystem {
    KernelSystem::new(symmetric_workload(n))
        .unwrap()
        .with_input_bytes(&[1])
        .with_symmetry(sym)
        .with_por(por)
}

fn main() {
    println!("# E2: Proof of Separability on the separation kernel\n");

    let mut report = RunReport::new("e2_pos_verify")
        .param("shards", SHARDS as u64)
        .param("max_regimes", 6u64)
        .param("max_symmetric_regimes", 5u64);

    println!("## verification cost: sequential vs {SHARDS}-shard parallel\n");
    let workloads: Vec<(&str, usize, KernelSystem)> = [2usize, 3, 4, 5, 6]
        .into_iter()
        .flat_map(|n| {
            [
                ("registers", n, register_workload(n)),
                ("memory", n, memory_workload(n)),
            ]
        })
        .map(|(name, n, cfg)| (name, n, KernelSystem::new(cfg).unwrap()))
        .collect();
    // Every row's sequential check is timed before any sharded check runs
    // in this process: timed right after the previous row's sharded check,
    // the `seq ms` column moved with changes to code it never runs.
    let sequential: Vec<_> = workloads
        .iter()
        .map(|(_, _, sys)| timed(|| sys.check_with(&CheckerSelect::Sequential)))
        .collect();
    header(&[
        "workload", "regimes", "states", "checks", "verdict", "seq ms", "par ms", "speedup",
    ]);
    for ((name, n, sys), (seq, seq_ms)) in workloads.iter().zip(sequential) {
        let ((par, stats), par_ms) =
            timed(|| sys.check_with_stats(&CheckerSelect::Sharded { shards: SHARDS }));
        assert_eq!(seq, par, "sharded report diverged on {name}({n})");
        let stats = stats.expect("sharded runs report stats");
        row(&[
            name.to_string(),
            n.to_string(),
            seq.states.to_string(),
            seq.total_checks().to_string(),
            verdict(&seq),
            format!("{seq_ms:.0}"),
            format!("{par_ms:.0}"),
            format!("{:.2}x", seq_ms / par_ms),
        ]);
        let run = format!("{name}_{n}");
        report = report
            .run_custom(&run, checker_run_json(&par, Some(&stats)))
            .wall_ms(&format!("{run}_seq"), seq_ms)
            .wall_ms(&format!("{run}_par"), par_ms)
            .wall(&format!("{run}_speedup"), seq_ms / par_ms);
        // Per-shard throughput: states owned by each shard over the
        // parallel wall time. Machine-dependent, so it lives in `wall`.
        for (i, sh) in stats.per_shard.iter().enumerate() {
            report = report.wall(
                &format!("{run}_shard{i}_states_per_sec"),
                sh.owned as f64 / (par_ms / 1000.0),
            );
        }
    }

    // ------------------------------------------------------------------
    // The reduction sweep: states explored vs regime count, for each
    // reduction on/off. Exploration-only (condition checking costs about
    // as much again per state as exploring it and adds nothing to a
    // state-count comparison); verdict equality is pinned separately below
    // on checkable sizes.
    // ------------------------------------------------------------------
    println!("\n## state-space reduction (symmetric workload, exploration only)\n");
    header(&[
        "regimes",
        "plain",
        "symmetry",
        "partial order",
        "both",
        "reduction",
        "ample skips",
    ]);
    let mut top_ratio = 0.0f64;
    let mut top_n = 0usize;
    for n in [2usize, 3, 4, 5] {
        let mut cells = vec![n.to_string()];
        let mut plain_states = 0usize;
        let mut both_states = 0usize;
        let mut skips = 0u64;
        for (sym, por) in COMBOS {
            let sys = symmetric_system(n, sym, por);
            let (states, stats) = sys.explore_sharded(SHARDS);
            cells.push(states.len().to_string());
            let run = format!("reduction_{n}_sym{}_por{}", u8::from(sym), u8::from(por));
            report = report.run_custom(
                &run,
                sep_obs::json::Json::obj()
                    .field("states", states.len() as u64)
                    .field("levels", stats.levels)
                    .field("ample_skips", stats.reduction.ample_skips),
            );
            match (sym, por) {
                (false, false) => plain_states = states.len(),
                (true, true) => {
                    both_states = states.len();
                    skips = stats.reduction.ample_skips;
                }
                _ => {}
            }
        }
        let ratio = plain_states as f64 / both_states as f64;
        if ratio > top_ratio {
            top_ratio = ratio;
            top_n = n;
        }
        cells.push(format!("{ratio:.1}x"));
        cells.push(skips.to_string());
        row(&cells);
    }
    assert!(
        top_ratio >= 10.0,
        "reduction target missed: best combined ratio {top_ratio:.1}x (want >=10x at 4+ regimes)"
    );
    println!(
        "\ncombined symmetry + partial order reaches {top_ratio:.1}x fewer \
         states at {top_n} identical regimes."
    );
    report = report
        .param("top_reduction_regimes", top_n as u64)
        .wall("top_reduction_ratio", top_ratio);

    // ------------------------------------------------------------------
    // Verdict equality: on checkable sizes, every reduction combination
    // must reach the same CheckReport verdict as the unreduced checker —
    // for the correct kernel and for every mutant.
    // ------------------------------------------------------------------
    println!("\n## verdicts under reduction (every combination, every mutant)\n");
    header(&["workload", "mutation", "verdict", "combos agreeing"]);
    let mutations = [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ];
    // (name, config, input bytes, whether this workload can expose every
    // mutant above). The symmetric workload computes nothing in registers,
    // so the register-leak mutants are invisible there by construction —
    // verdict *equality* across combos is still asserted.
    type Make = Box<dyn Fn() -> KernelConfig>;
    let workloads: Vec<(&str, Make, &[u8], bool)> = vec![
        ("registers(2)", Box::new(|| register_workload(2)), &[], true),
        (
            "symmetric(2)",
            Box::new(|| symmetric_workload(2)),
            &[1],
            false,
        ),
    ];
    for (wname, make, bytes, exposes_mutants) in &workloads {
        for mutation in mutations {
            let build = |sym: bool, por: bool| {
                let mut cfg = make();
                cfg.mutation = mutation;
                KernelSystem::new(cfg)
                    .unwrap()
                    .with_input_bytes(bytes)
                    .with_symmetry(sym)
                    .with_por(por)
            };
            let baseline = build(false, false).check_with(&CheckerSelect::Sequential);
            let mut agree = 0usize;
            for (sym, por) in COMBOS {
                let sys = build(sym, por);
                let seq = sys.check_with(&CheckerSelect::Sequential);
                let par = sys.check_with(&CheckerSelect::Sharded { shards: SHARDS });
                assert_eq!(
                    seq,
                    par,
                    "sharded report diverged: {wname} {mutation:?} {}",
                    combo_label(sym, por)
                );
                assert_eq!(
                    seq.is_separable(),
                    baseline.is_separable(),
                    "reduction changed the verdict: {wname} {mutation:?} {}",
                    combo_label(sym, por)
                );
                agree += 1;
            }
            if mutation == Mutation::None {
                assert!(baseline.is_separable(), "correct kernel must pass: {wname}");
            } else if *exposes_mutants {
                assert!(
                    !baseline.is_separable(),
                    "mutant {mutation:?} must be caught on {wname}"
                );
            }
            report = report.run_custom(
                &format!("verdict_{wname}_{mutation:?}"),
                checker_run_json(&baseline, None),
            );
            row(&[
                (*wname).into(),
                format!("{mutation:?}"),
                verdict(&baseline),
                format!("{agree}/{}", COMBOS.len()),
            ]);
        }
    }

    println!("\n## mutant detection (two-regime register workload)\n");
    header(&[
        "mutation",
        "verdict",
        "violated conditions",
        "example witness",
    ]);
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let mut cfg = register_workload(2);
        cfg.mutation = mutation;
        let sys = KernelSystem::new(cfg).unwrap();
        let seq = sys.check_with(&CheckerSelect::Sequential);
        let par = sys.check_with(&CheckerSelect::Sharded { shards: SHARDS });
        assert_eq!(seq, par, "sharded report diverged on mutant {mutation:?}");
        let conditions: Vec<String> = sep_model::check::Condition::ALL
            .iter()
            .filter(|c| seq.violations_of(**c).count() > 0)
            .map(|c| c.number().to_string())
            .collect();
        let witness = seq
            .violations
            .first()
            .map(|v| v.witness.chars().take(60).collect::<String>())
            .unwrap_or_else(|| "-".into());
        report = report.run_custom(
            &format!("mutant_{mutation:?}"),
            checker_run_json(&seq, None),
        );
        row(&[
            format!("{mutation:?}"),
            verdict(&seq),
            if conditions.is_empty() {
                "-".into()
            } else {
                conditions.join(",")
            },
            witness,
        ]);
    }

    let out = "BENCH_obs_e2_pos_verify.json";
    report.write_to(out).expect("write run report");
    println!("\nwrote {out} (wall clock kept apart from the deterministic sections)");

    println!("\npaper claim: the six conditions \"constitute the basis for a kernel");
    println!("verification technique\" able to address interrupts and control flow.");
    println!("measured: the correct kernel passes exhaustively; every sabotage is");
    println!("caught under every reduction combination; symmetry + partial order");
    println!("shrink the explored space >=10x on interchangeable regimes; the");
    println!("frontier-sharded checker returns byte-identical reports throughout.");
}

fn verdict(report: &sep_model::check::CheckReport) -> String {
    if report.is_separable() {
        "SEPARABLE".into()
    } else {
        "VIOLATED".into()
    }
}
