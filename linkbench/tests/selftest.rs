//! Self-tests of the benchmark: its statistics helpers, the self-time
//! arithmetic of the tracer, the metric tables against `BENCHMARK.json`,
//! and a smoke run of all three workloads on the tiny scenario with every
//! output check on.

use classilink_datagen::scenario::ScenarioConfig;
use linkbench::common::Config;
use linkbench::report::{END_TO_END, PER_LAYER};
use linkbench::stats::{median, percentile, quartiles, summary};
use linkbench::trace::{layer_self_times, self_times, Span, ROOT};
use std::path::PathBuf;
use std::sync::Mutex;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(values, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&ten).unwrap();
    assert!(close(q1, 2.75) && close(q3, 8.25));
    // Two values: Python extrapolates past the extremes.
    let (q1, q3) = quartiles(&[5.0, 1.0]).unwrap();
    assert!(close(q1, 0.0) && close(q3, 6.0));
    let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
    assert!(close(q1, 1.0) && close(q3, 3.0));
    let runs = [0.81, 0.95, 0.78, 0.88, 0.91, 0.84, 0.80, 0.99, 0.86, 0.83];
    let (q1, q3) = quartiles(&runs).unwrap();
    assert!(close(q1, 0.8075) && close(q3, 0.92));
    assert_eq!(
        summary(&runs),
        "median 0.8500, quartiles 0.8075–0.9200, 10 samples"
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 50.0), Some(50.0));
    assert_eq!(percentile(&hundred, 99.0), Some(99.0));
    assert_eq!(percentile(&hundred, 100.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[2.0, 1.0, 3.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
}

fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // bench.pass [0, 100)
    // ├── ingest.feed    [0, 20)
    // ├── pipeline.run   [20, 90)
    // │   └── eval.check [80, 90)
    // ├── serve.probe    [50, 70)   concurrent with pipeline.run
    // └── serve.append   [60, 95)   overlaps both
    let spans = vec![
        span(1, ROOT, "bench.pass", 0, 100),
        span(2, 1, "ingest.feed", 0, 20),
        span(3, 1, "pipeline.run", 20, 90),
        span(4, 3, "eval.check", 80, 90),
        span(5, 1, "serve.probe", 50, 70),
        span(6, 1, "serve.append", 60, 95),
    ];
    // Children of bench.pass cover [0, 95): self = 5.
    assert_eq!(self_times(&spans), vec![5, 20, 60, 10, 20, 35]);
    let layers = layer_self_times(&spans);
    assert_eq!(
        layers,
        vec![
            ("bench", 5),
            ("ingest", 20),
            ("pipeline", 60),
            ("eval", 10),
            ("serve", 55)
        ]
    );
}

#[test]
fn child_spans_are_clipped_to_their_parent() {
    let spans = vec![
        span(1, ROOT, "bench.setup", 10, 50),
        span(2, 1, "datagen.generate", 0, 30),
        span(3, 1, "ingest.feed", 40, 80),
    ];
    assert_eq!(self_times(&spans), vec![10, 30, 40]);
}

/// The `"name"` values of one section of `BENCHMARK.json`, read with
/// string operations (the benchmark has no JSON dependency).
fn section_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("quoted name")].to_string()
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |table: &[(&str, &str)]| -> Vec<String> {
        table.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(section_names(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(section_names(&json, "per_layer"), names(PER_LAYER));
    assert_eq!(
        section_names(&json, "workloads"),
        linkbench::WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
    );
}

fn tiny(trace: bool, tag: &str) -> Config {
    Config {
        scenario: ScenarioConfig::tiny(),
        seed: 3,
        seconds: 0.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("linkbench-{tag}")),
    }
}

/// Smoke runs take turns: the traced run checks how much of its wall
/// time the layer spans account for, which other runs competing for the
/// same cores would blur.
static SMOKE: Mutex<()> = Mutex::new(());

fn smoke(workload: &str) {
    let _turn = SMOKE.lock().unwrap_or_else(|e| e.into_inner());
    for trace in [false, true] {
        let config = tiny(trace, &format!("{workload}-{trace}"));
        let report = linkbench::run(workload, &config, 1.0).expect("known workload");
        assert!(
            report.correct(),
            "{workload} (trace {trace}) failed its checks: {:?}",
            report.notes
        );
        let table = if trace { PER_LAYER } else { END_TO_END };
        assert!(
            report.missing(table).is_empty(),
            "{:?}",
            report.missing(table)
        );
        let line = report.result_line(table);
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert!(report.get("link_f1").unwrap() > 0.0);
        assert_eq!(report.get("success_rate"), Some(1.0));
        if trace {
            let trace_file = config
                .out_dir
                .join(format!("trace-{workload}-{}.jsonl", config.seed));
            assert!(std::fs::metadata(trace_file).unwrap().len() > 0);
        }
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}

#[test]
fn smoke_batch_standard() {
    smoke("batch_standard");
}

#[test]
fn smoke_rules_paper() {
    smoke("rules_paper");
}

#[test]
fn smoke_serve_bigram() {
    smoke("serve_bigram");
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(linkbench::run("nope", &tiny(false, "nope"), 1.0).is_err());
}
