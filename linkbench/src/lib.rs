//! The classilink linking benchmark: three workloads on the paper preset
//! (`batch_standard` and `serve_bigram`, which `BENCHMARK.json` lists,
//! and `rules_paper`, run by name only), each checked for correct
//! output, reporting end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run. See `README.md` beside this crate for the
//! workloads, the metric map and the sizing numbers.

pub mod batch;
pub mod common;
pub mod env;
pub mod report;
pub mod rng;
pub mod rules;
pub mod serve;
pub mod stats;
pub mod trace;

use common::Config;
use report::{Report, LAYERS, UNATTRIBUTED_TOLERANCE};
use trace::{layer_self_times, self_times, Tracer};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["batch_standard", "serve_bigram"];

/// Workloads that run by name but that `BENCHMARK.json` does not list:
/// `rules_paper`'s passes vary by up to ±30 % between repetitions on a
/// shared 2-vCPU host, more than a bound can absorb (see the README).
pub const UNLISTED: &[&str] = &["rules_paper"];

/// Run `workload` under `config`; `Err` for an unknown workload name.
/// `calibration_ns` is the environment fingerprint's calibration loop,
/// reported as a per-layer metric.
pub fn run(workload: &str, config: &Config, calibration_ns: f64) -> Result<Report, String> {
    let tracer = Tracer::new(config.trace);
    let mut report = Report::default();
    match workload {
        "batch_standard" => batch::run(config, &tracer, &mut report),
        "rules_paper" => rules::run(config, &tracer, &mut report),
        "serve_bigram" => serve::run(config, &tracer, &mut report),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?} or {UNLISTED:?}"
            ))
        }
    }
    common::remove_snapshots(&config.out_dir);
    report.set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0));
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "success_rate",
        (attempted - report.failed as f64) / attempted,
    );
    if config.trace {
        report.set("env.calibration_ns", calibration_ns);
        finish_trace(&tracer, &mut report, config, workload);
    }
    Ok(report)
}

/// Derive the per-layer self times from the recorded spans, check that
/// the layer spans account for the traced wall time, and write the spans
/// to `<out_dir>/trace-<workload>-<seed>.jsonl`.
fn finish_trace(tracer: &Tracer, report: &mut Report, config: &Config, workload: &str) {
    let spans = tracer.spans();
    let own = self_times(&spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent == trace::ROOT)
        .map(|s| s.duration_ns())
        .sum();
    let unattributed: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| !LAYERS.contains(&s.layer()))
        .map(|(_, &t)| t)
        .sum();
    let mut glue: Vec<(&str, u64)> = Vec::new();
    for (s, &t) in spans.iter().zip(&own) {
        if LAYERS.contains(&s.layer()) {
            continue;
        }
        match glue.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += t,
            None => glue.push((s.name, t)),
        }
    }
    report.notes.push(format!(
        "unattributed self time: {}",
        glue.iter()
            .map(|(n, t)| format!("{n} {:.4} s", *t as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let per_layer = layer_self_times(&spans);
    for &layer in LAYERS {
        let ns = per_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |&(_, ns)| ns);
        report.set(self_metric(layer), ns as f64 / 1e9);
    }
    let share = unattributed as f64 / wall.max(1) as f64;
    report.set("trace.wall_s", wall as f64 / 1e9);
    report.set("trace.unattributed_share", share);
    report.set("trace.spans", spans.len() as f64);
    report.check(share <= UNATTRIBUTED_TOLERANCE, || {
        format!(
            "layer spans leave {:.1}% of traced wall time unattributed (tolerance {:.0}%)",
            share * 100.0,
            UNATTRIBUTED_TOLERANCE * 100.0
        )
    });
    let written = std::fs::create_dir_all(&config.out_dir).and_then(|()| {
        std::fs::write(
            config
                .out_dir
                .join(format!("trace-{workload}-{}.jsonl", config.seed)),
            trace::to_json_lines(&spans),
        )
    });
    if let Err(e) = written {
        report.error("writing the span file", e);
    }
    for (layer, ns) in per_layer {
        report
            .notes
            .push(format!("self time {layer:<10} {:>10.4} s", ns as f64 / 1e9));
    }
}

/// `self.<layer>_s`.
fn self_metric(layer: &str) -> &'static str {
    match layer {
        "datagen" => "self.datagen_s",
        "ingest" => "self.ingest_s",
        "shard" => "self.shard_s",
        "core" => "self.core_s",
        "blocking" => "self.blocking_s",
        "similarity" => "self.similarity_s",
        "comparator" => "self.comparator_s",
        "pipeline" => "self.pipeline_s",
        "serve" => "self.serve_s",
        "persist" => "self.persist_s",
        "eval" => "self.eval_s",
        other => panic!("no self-time metric for layer {other}"),
    }
}
