//! The `verify` workload: back-to-back Proof of Separability verdicts on
//! `KernelSystem::new(symmetric_workload(3)).with_input_bytes(&[1])`, with
//! fingerprint dedup, reductions off, and the sharded checker on 2 shards.
//!
//! The checker dominates: a wide frontier and an input alphabet. Every
//! successor is a full kernel clone with reset machine caches, so it uses
//! `sep-machine` and `sep-kernel` cold and short — the opposite of `asm`.
//! It runs no fleet and no network. It takes no seed: every verdict of
//! every run is the same computation.
//!
//! Each verdict runs in a fresh process of its own: this binary, run again
//! with `--workload verify-verdict`. In one long-lived process successive
//! verdicts got about 30% faster over the first minute as the allocator
//! kept the memory earlier verdicts had freed, and the high-water mark
//! grew by a varying 100–400 MB, so a run's figures depended on how warm
//! its heap happened to get. A fresh process pays the same page faults
//! every time, as a verification started from the command line does, and
//! `peak_rss_mb` is the memory of one verdict, about 470 MB.
//!
//! Once per run, untimed, the `ScratchInPartition` mutant of the same
//! configuration must come out VIOLATED.

use crate::metrics::Outcome;
use crate::util::{median, peak_rss_mb, ratio, rss_mb, Digest, Window};
use sep_bench::symmetric_workload;
use sep_kernel::config::Mutation;
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

const REGIMES: usize = 3;
const SHARDS: usize = 2;
const CHECKER: CheckerSelect = CheckerSelect::Sharded { shards: SHARDS };

fn system(mutation: Mutation) -> KernelSystem {
    let mut cfg = symmetric_workload(REGIMES);
    cfg.mutation = mutation;
    KernelSystem::new(cfg)
        .expect("the verify workload boots")
        .with_input_bytes(&[1])
}

/// What one verdict process reported, as `key=value` pairs.
struct Verdict(BTreeMap<String, f64>);

impl Verdict {
    fn get(&self, key: &str) -> f64 {
        *self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("the verdict process reported no {key}"))
    }
}

/// Runs one verdict in a fresh process; `traced` adds a timed exploration
/// of the same system before it.
fn spawn(traced: bool) -> Verdict {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let out = Command::new(exe)
        .args(["--workload", "verify-verdict"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("spawn a verdict process");
    assert!(
        out.status.success(),
        "the verdict process failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Verdict(
        line.split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect(),
    )
}

/// The verdict process: boots the system and checks it, with spans around
/// `explore_sharded` (when traced) and `check_with_stats`, and prints what
/// it measured on one line.
pub fn verdict_process(traced: bool) {
    let rss_before_mb = rss_mb();
    let start = Instant::now();
    let sys = system(Mutation::None);
    let mut fields = vec![
        ("setup_s", start.elapsed().as_secs_f64()),
        ("rss_before_mb", rss_before_mb),
    ];
    if traced {
        let start = Instant::now();
        let (_, stats) = sys.explore_sharded(SHARDS);
        fields.push(("explore_s", start.elapsed().as_secs_f64()));
        let owned: Vec<f64> = stats.per_shard.iter().map(|s| s.owned as f64).collect();
        fields.push(("shards", owned.len() as f64));
        fields.push(("owned_sum", owned.iter().sum()));
        fields.push(("owned_max", owned.iter().copied().fold(0.0, f64::max)));
        let routed = stats.per_shard.iter().map(|s| s.routed as f64).sum();
        fields.push(("routed", routed));
    }
    let start = Instant::now();
    let (report, stats) = sys.check_with_stats(&CHECKER);
    fields.push(("check_s", start.elapsed().as_secs_f64()));
    fields.push(("peak_mb", peak_rss_mb()));
    let stats = stats.expect("the sharded checker reports exploration statistics");
    let digest = Digest::new().bytes(format!("{report:?}").as_bytes());
    fields.push(("separable", f64::from(u8::from(report.is_separable()))));
    fields.push(("digest", digest.value() as f64));
    fields.push(("states", report.states as f64));
    fields.push(("checks", report.total_checks() as f64));
    fields.push(("levels", stats.levels as f64));
    fields.push(("fp_bytes", stats.fp_bytes as f64));
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{}", line.join(" "));
}

fn account(out: &mut Outcome, v: &Verdict, expect_digest: f64, what: &str) {
    out.attempted += 1;
    let separable = v.get("separable") == 1.0;
    out.failed += u64::from(!separable);
    out.gate(separable, || {
        format!("{what}: the unmutated kernel came out VIOLATED")
    });
    out.gate(v.get("digest") == expect_digest, || {
        format!(
            "{what}: report digest {} differs from the first verdict's {expect_digest}",
            v.get("digest")
        )
    });
}

pub fn run(seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    out.note(format!(
        "verify: symmetric_workload({REGIMES}) with input byte 1, {SHARDS} shards, \
         fingerprint dedup, no reductions, one verdict per process"
    ));

    let window = Window::new(seconds, 3);
    let (mut plain, mut spanned) = (Vec::<Verdict>::new(), Vec::new());
    while window.more(plain.len()) {
        let v = spawn(false);
        let first = plain.first().unwrap_or(&v).get("digest");
        account(&mut out, &v, first, "verdict");
        plain.push(v);
        if traced {
            let v = spawn(true);
            account(&mut out, &v, first, "traced verdict");
            spanned.push(v);
        }
    }

    // The checker must still catch a sabotaged kernel (untimed).
    let mutant = system(Mutation::ScratchInPartition).check_with(&CHECKER);
    out.attempted += 1;
    out.failed += u64::from(mutant.is_separable());
    out.gate(!mutant.is_separable(), || {
        "the ScratchInPartition mutant came out SEPARABLE".to_string()
    });

    let med =
        |vs: &[Verdict], key: &str| median(&vs.iter().map(|v| v.get(key)).collect::<Vec<_>>());
    let verdict_s = med(&plain, "check_s");
    let v = &plain[0];
    out.note(format!(
        "verify: {} verdicts, {} states, {} checks; mutant VIOLATED: {}; report digest {:#x}",
        plain.len(),
        v.get("states"),
        v.get("checks"),
        !mutant.is_separable(),
        v.get("digest") as u64
    ));
    out.note(format!(
        "verify: verdict_s {verdict_s} s (ops_per_s is its inverse)"
    ));
    if !traced {
        out.set("setup_s", med(&plain, "setup_s"));
        out.set("ops_per_s", 1.0 / verdict_s);
        out.set("peak_rss_mb", med(&plain, "peak_mb"));
        return out;
    }

    let explore_s = med(&spanned, "explore_s");
    let check_s = med(&spanned, "check_s");
    let states = v.get("states");
    let t = &spanned[0];
    out.set("model.explore_s", explore_s);
    out.set("model.conditions_s", check_s - explore_s);
    out.set("model.us_per_state", check_s * 1e6 / states);
    out.set(
        "model.dedup_frac",
        ratio(t.get("owned_sum"), t.get("routed")),
    );
    out.set(
        "model.shard_imbalance",
        ratio(t.get("owned_max") * t.get("shards"), t.get("owned_sum")),
    );
    let verdict_mb = med(&plain, "peak_mb") - med(&plain, "rss_before_mb");
    out.set("model.kb_per_state", verdict_mb * 1024.0 / states);
    out.set("model.states", states);
    out.set("model.checks", v.get("checks"));
    out.set("model.levels", v.get("levels"));
    out.set("model.fp_bytes", v.get("fp_bytes"));
    out.set("model.report_digest", v.get("digest"));
    out.set("trace.overhead_frac", 1.0 - verdict_s / check_s);
    out
}
