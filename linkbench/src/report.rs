//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of both tables: the end-to-end
//! table in untraced runs, the per-layer table in traced runs. The tables
//! mirror `BENCHMARK.json` (the self-tests check they agree).

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("link_s", "s"),
    ("link_f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("similarity.ns_per_pair", "ns"),
    ("comparator.score_ns_per_pair", "ns"),
    ("pipeline.t1_s", "s"),
    ("pipeline.t2_s", "s"),
    ("pipeline.thread_speedup", "x"),
    ("pipeline.comparisons", "count"),
    ("pipeline.matches", "count"),
    ("pipeline.possible", "count"),
    ("blocking.stream_s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.ns_per_candidate", "ns"),
    ("blocking.reduction_ratio", "ratio"),
    ("blocking.pairs_completeness", "ratio"),
    ("blocking.pairs_quality", "ratio"),
    ("blocking.bigram.verify_merges", "count"),
    ("blocking.bigram.postings_skipped_length", "count"),
    ("core.learn_s", "s"),
    ("core.rules", "count"),
    ("core.classify_s", "s"),
    ("core.decision_rate", "ratio"),
    ("ingest.feed_s", "s"),
    ("ingest.mb_per_s", "MB/s"),
    ("ingest.peak_buffer_bytes", "bytes"),
    ("shard.build_s", "s"),
    ("shard.append_build_s", "s"),
    ("serve.warm_s", "s"),
    ("serve.candidates_per_probe_p50", "count"),
    ("serve.candidates_per_probe_p99", "count"),
    ("serve.probe_p50_us", "us"),
    ("serve.probe_p99_us", "us"),
    ("serve.probe_per_s", "1/s"),
    ("serve.append_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.restart_ms", "ms"),
    ("persist.write_s", "s"),
    ("persist.bytes_written", "bytes"),
    ("persist.shards_reused", "count"),
    ("persist.open_s", "s"),
    ("link.precision", "ratio"),
    ("link.recall", "ratio"),
    ("self.datagen_s", "s"),
    ("self.ingest_s", "s"),
    ("self.shard_s", "s"),
    ("self.core_s", "s"),
    ("self.blocking_s", "s"),
    ("self.similarity_s", "s"),
    ("self.comparator_s", "s"),
    ("self.pipeline_s", "s"),
    ("self.serve_s", "s"),
    ("self.persist_s", "s"),
    ("self.eval_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("env.calibration_ns", "ns"),
];

/// The layers whose self time is reported as `self.<layer>_s`: spans
/// around calls into the library (`datagen` for the scenario generator,
/// `shard` for record-store reads and catalog builds, `eval` for gold
/// evaluation by `ClassificationOutcome` and `BlockingStats`). The
/// benchmark's own work — input preparation, reference digests, output
/// checks — is in `bench.*` spans and counts as unattributed.
pub const LAYERS: &[&str] = &[
    "datagen",
    "ingest",
    "shard",
    "core",
    "blocking",
    "similarity",
    "comparator",
    "pipeline",
    "serve",
    "persist",
    "eval",
];

/// Largest share of traced wall time the layer spans may leave
/// unattributed (benchmark glue between layer calls) before the traced
/// run counts as failed.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// One run's outcome: operation counts, output-check verdict, metrics,
/// and human-readable notes printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (every timed library call and output check).
    pub attempted: u64,
    /// Operations that returned an error or whose output check failed.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation; `ok = false` marks it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one output check, noting `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(ok);
        if !ok {
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Record one failed operation from a library error.
    pub fn error(&mut self, op: &str, error: impl std::fmt::Display) {
        self.attempt(false);
        self.notes.push(format!("ERROR in {op}: {error}"));
    }

    /// Set metric `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the metric tables"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Names of `table`'s metrics this report has not set.
    pub fn missing(&self, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|(name, _)| self.get(name).is_none())
            .map(|&(name, _)| name)
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table`, each value printed with all
    /// its digits. A missing or non-finite metric makes the run
    /// incorrect and is printed as 0 rather than dropped.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut correct = self.correct();
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) if v.is_finite() => v,
                    _ => {
                        correct = false;
                        0.0
                    }
                };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// The unit of metric `name`, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}
