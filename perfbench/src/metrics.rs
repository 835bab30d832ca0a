//! The metric table, run results, and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end table with
//! `--trace 0`, the per-layer table with `--trace 1`. A per-layer metric of
//! a layer the workload does not run reads 0 (the fleet retires no machine
//! instructions; `asm` explores no states). `BENCHMARK.json` lists the same
//! names, units and directions; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// One metric: name, unit, which direction is better, and the end-to-end
/// metric (on which workload) a change to it should move.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

/// Metrics measured with tracing off. Each applies to every workload: the
/// workload's own unit of work is a fleet request, a regime instruction,
/// or a complete verdict.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", "building the workload"),
    def("ops_per_s", "1/s", "higher", "the workload's throughput"),
    def("peak_rss_mb", "MB", "lower", "memory of one repetition"),
];

// Where each per-layer metric should show up. On the workloads not named,
// the prediction is no change.
const FLEET_RATE: &str = "ops_per_s on fleet";
const POOL: &str = "the 2-worker fleet's rate; the timed runs use 1 worker";
const FLEET_WIRE: &str = "ops_per_s, fleet.goodput_per_round, fleet.p99_rounds on fleet";
const SIMULATED: &str = "nothing host-timed: the simulated outcome on fleet";
const ASM_RATE: &str = "ops_per_s on asm";
const VERIFY_RATE: &str = "ops_per_s on verify";
const VERIFY_MEM: &str = "peak_rss_mb on verify";
const FIXED: &str = "nothing: a count, fixed per seed; moves only when the work done changes";

/// Metrics of single layers, from the separate traced run.
pub const PER_LAYER: &[Def] = &[
    // fleet: host time per layer
    def("fleet.quiet_round_us", "us", "lower", FLEET_RATE),
    def("fleet.burst_round_us", "us", "lower", FLEET_RATE),
    def("distributed.pool_speedup", "x", "higher", POOL),
    def("components.loadgen_ns", "ns", "lower", FLEET_RATE),
    def("components.fileserver_ns", "ns", "lower", FLEET_RATE),
    def("components.guard_ns", "ns", "lower", FLEET_RATE),
    def("components.snfe_ns", "ns", "lower", FLEET_RATE),
    def("components.busy_frac", "frac", "higher", FLEET_RATE),
    def("kernel.chan_op_ns", "ns", "lower", FLEET_RATE),
    def("kernel.useful_step_frac", "frac", "higher", FLEET_RATE),
    // fleet: wire behaviour
    def(
        "distributed.wire_msgs_per_req",
        "count",
        "lower",
        FLEET_WIRE,
    ),
    def("distributed.retx_frac", "frac", "lower", FLEET_WIRE),
    def("fleet.goodput_per_round", "req/round", "higher", SIMULATED),
    def("fleet.p99_rounds", "rounds", "lower", SIMULATED),
    // counts per repetition
    def("kernel.steps", "count", "lower", FIXED),
    def("kernel.messages", "count", "higher", FIXED),
    def("distributed.wire_msgs", "count", "lower", FIXED),
    def("distributed.retransmissions", "count", "lower", FIXED),
    def("fleet.issued", "count", "higher", FIXED),
    def("fleet.completed", "count", "higher", FIXED),
    def("fleet.send_rejected", "count", "lower", FIXED),
    // asm
    def("kernel.step_ns", "ns", "lower", ASM_RATE),
    def("kernel.consume_ns", "ns", "lower", ASM_RATE),
    def("kernel.exec_ns", "ns", "lower", ASM_RATE),
    def("machine.icache_hit_frac", "frac", "higher", ASM_RATE),
    def("machine.tlb_hit_frac", "frac", "higher", ASM_RATE),
    def("machine.sb_instr_frac", "frac", "higher", ASM_RATE),
    def("kernel.syscalls_per_kinstr", "1/kinstr", "lower", FIXED),
    def("kernel.irqs_per_kinstr", "1/kinstr", "lower", FIXED),
    def("kernel.instructions", "count", "lower", FIXED),
    def("asm.bytes_out", "count", "higher", FIXED),
    // verify
    def("model.explore_s", "s", "lower", VERIFY_RATE),
    def("model.conditions_s", "s", "lower", VERIFY_RATE),
    def("model.us_per_state", "us", "lower", VERIFY_RATE),
    def("model.dedup_frac", "frac", "higher", VERIFY_RATE),
    def("model.shard_imbalance", "x", "lower", VERIFY_RATE),
    def("model.kb_per_state", "KiB", "lower", VERIFY_MEM),
    def("model.states", "count", "lower", FIXED),
    def("model.checks", "count", "lower", FIXED),
    def("model.levels", "count", "lower", FIXED),
    def("model.fp_bytes", "B", "lower", VERIFY_MEM),
    // digests of the simulated outcome (48-bit FNV-1a)
    def("fleet.report_digest", "count", "lower", FIXED),
    def("asm.state_digest", "count", "lower", FIXED),
    def("model.report_digest", "count", "lower", FIXED),
    // the gap between traced and untraced end-to-end throughput
    def(
        "trace.overhead_frac",
        "frac",
        "lower",
        "nothing: cost of the spans",
    ),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted (requests, bytes, verdicts).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first gate failures, for the report.
    errors: Vec<String>,
    /// Gate failures, all of them.
    gates_failed: u64,
    /// Free-form report lines printed before the metrics.
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a metric value; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Fails a correctness gate (the run still reports).
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.gates_failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(what());
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn value(&self, d: &Def) -> f64 {
        self.values.get(d.name).copied().unwrap_or(0.0)
    }

    /// The human-readable report, then the result line. The result line is
    /// the last line of standard output.
    pub fn print(&self, workload: &str, traced: bool) {
        let table = if traced { PER_LAYER } else { END_TO_END };
        for line in &self.notes {
            println!("{line}");
        }
        for e in &self.errors {
            println!("GATE FAILED: {e}");
        }
        if self.gates_failed > self.errors.len() as u64 {
            println!(
                "GATE FAILED: {} more times",
                self.gates_failed - self.errors.len() as u64
            );
        }
        println!(
            "{workload}: {} attempted, {} failed, {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for d in table {
            println!(
                "  {:<32} {:>16} {:<10} {:<6} moves {}",
                d.name,
                num(self.value(d)),
                d.unit,
                d.better,
                d.moves
            );
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    num(self.value(d)),
                    d.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite float as a JSON number with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this table prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
