//! What the three workloads share: the run configuration, the catalog's
//! wire document and its ingest, gold-link quality, link-set comparison,
//! the measurement loop, the kernel → scorer → pipeline ladder, blocking
//! quality, and the learning and persistence side measurements.

use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use classilink_core::{LearnerConfig, PropertySelection, RuleClassifier, RuleLearner};
use classilink_datagen::scenario::{GeneratedScenario, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_eval::metrics::ClassificationOutcome;
use classilink_linking::similarity::jaro_winkler_with;
use classilink_linking::{
    Blocker, BlockingStats, CandidateRuns, CatalogSnapshot, FeedFormat, FeedIngest, LinkResult,
    LinkageResult, Record, RecordComparator, RecordStore, SchemaInterner, ShardedStore, SimScratch,
    SimilarityMeasure,
};
use classilink_rdf::term::escape_literal;
use classilink_rdf::Term;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Catalog shards every workload builds.
pub(crate) const SHARDS: usize = 4;

/// Bytes handed to the streaming ingest per `feed` call.
pub(crate) const FEED_CHUNK: usize = 64 * 1024;

/// How many times set-up is repeated for the `setup_s` median.
pub(crate) const SETUP_REPS: usize = 3;

/// External items probed by the side serving measurement of the batch
/// workloads' traced runs (at most every external item).
pub(crate) const SIDE_PROBES: usize = 1000;

/// Comparison threads of the measured runs: two, or fewer on a smaller
/// machine (the 1-thread reference is the ladder's lower rung). Asked
/// once: the answer reads cgroup files, which is not free.
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| 2.min(crate::env::available_parallelism()))
}

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// The scenario: the paper preset (with its own fixed seed), or a
    /// smaller one in self-tests. The run's seed does not change it, so
    /// link quality is the same on every seed.
    pub scenario: ScenarioConfig,
    /// The run's seed; every seeded choice derives from it.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for snapshots and the span file (created on demand).
    pub out_dir: PathBuf,
}

impl Config {
    /// The configuration of one command-line run on the paper preset.
    pub fn paper(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            scenario: ScenarioConfig::paper(),
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from("linkbench/out"),
        }
    }
}

/// The one comparator every workload scores with: Jaro-Winkler on the
/// part numbers, match ≥ 0.9, possible ≥ 0.75.
pub(crate) fn comparator() -> RecordComparator {
    RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.9, 0.75)
}

/// The paper's learner: part-number property only, th = 0.002.
pub(crate) fn learner() -> LearnerConfig {
    LearnerConfig::paper().with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER))
}

/// The catalog's records in a seeded order: the order records arrive in
/// (and so their shard and global id) is the seeded input; the link set
/// must not depend on it.
pub(crate) fn catalog_records(
    tracer: &Tracer,
    parent: SpanId,
    scenario: &GeneratedScenario,
    seed: u64,
) -> Vec<Record> {
    let mut records = tracer.span("datagen.local_records", parent, |_| {
        scenario.local_store().to_records()
    });
    tracer.span("bench.shuffle", parent, |_| {
        SplitMix64::new(seed, 3).shuffle(&mut records)
    });
    records
}

/// Records as an N-Triples document, one statement per attribute value.
pub(crate) fn ntriples_document<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<u8> {
    let mut out = String::new();
    for record in records {
        let id = record.id.as_iri().expect("catalog ids are IRIs");
        for (property, values) in &record.attributes {
            for value in values {
                for part in ["<", id, "> <", property, "> \""] {
                    out.push_str(part);
                }
                out.push_str(&escape_literal(value));
                out.push_str("\" .\n");
            }
        }
    }
    out.into_bytes()
}

/// What one ingest of a document measured.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FeedStats {
    /// Parse + group time (`feed` calls and the final flush).
    pub feed_s: f64,
    /// Columnarisation time (sealing the shards).
    pub build_s: f64,
    /// Largest chunk plus carried-over partial statement held at once.
    pub peak_buffer_bytes: usize,
    /// Document size.
    pub bytes: usize,
}

/// Feed `document` through [`FeedIngest`] in [`FEED_CHUNK`] chunks into
/// [`SHARDS`] shards, columnarised on `threads` workers.
pub(crate) fn feed_catalog(
    tracer: &Tracer,
    parent: SpanId,
    document: &[u8],
    records: usize,
    threads: usize,
) -> LinkResult<(ShardedStore, FeedStats)> {
    let mut stats = FeedStats {
        bytes: document.len(),
        ..FeedStats::default()
    };
    let start = Instant::now();
    let builder = tracer.span("ingest.feed", parent, |_| {
        let mut ingest = FeedIngest::new(
            FeedFormat::NTriples,
            SchemaInterner::new(),
            records.div_ceil(SHARDS).max(1),
        );
        for chunk in document.chunks(FEED_CHUNK) {
            ingest.feed(chunk)?;
            stats.peak_buffer_bytes = stats
                .peak_buffer_bytes
                .max(chunk.len() + ingest.buffered_bytes());
        }
        ingest.into_builder()
    })?;
    stats.feed_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let store = tracer.span("shard.build", parent, |_| {
        builder.try_build_with_workers(threads)
    })?;
    stats.build_s = start.elapsed().as_secs_f64();
    Ok((store, stats))
}

/// Set the ingest metrics from one feed.
pub(crate) fn report_feed(report: &mut Report, stats: &FeedStats) {
    report.set("ingest.feed_s", stats.feed_s);
    report.set(
        "ingest.mb_per_s",
        stats.bytes as f64 / 1e6 / stats.feed_s.max(1e-9),
    );
    report.set("ingest.peak_buffer_bytes", stats.peak_buffer_bytes as f64);
    report.set("shard.build_s", stats.build_s);
}

/// The gold `same-as` links of a scenario.
pub(crate) fn gold_links(scenario: &GeneratedScenario) -> HashSet<(Term, Term)> {
    scenario.dataset.link_pairs().collect()
}

/// Precision, recall and F1 of the matched `(external, local)` pairs
/// against `gold`.
pub(crate) fn link_quality(
    matches: impl IntoIterator<Item = (Term, Term)>,
    gold: &HashSet<(Term, Term)>,
) -> (f64, f64, f64) {
    let (mut found, mut total) = (0usize, 0usize);
    for pair in matches {
        total += 1;
        found += usize::from(gold.contains(&pair));
    }
    let precision = if total == 0 {
        0.0
    } else {
        found as f64 / total as f64
    };
    let recall = if gold.is_empty() {
        1.0
    } else {
        found as f64 / gold.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

/// Set the link-quality metrics.
pub(crate) fn report_quality(report: &mut Report, (precision, recall, f1): (f64, f64, f64)) {
    report.set("link_f1", f1);
    report.set("link.precision", precision);
    report.set("link.recall", recall);
}

/// A batch result in the compact form the output checks compare: the
/// match and possible-match counts and a digest of both lists, link by
/// link on `(external, local, score bits)`. Keeping this instead of the
/// reference `LinkageResult` leaves the benchmark's own data out of the
/// measured runs' peak memory. Both lists come sorted by `(external,
/// local)` record index, so equal digests mean equal sorted sets (up to
/// a 64-bit collision); a reordering alone would also read as a
/// difference, which errs on the side of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkDigest {
    matches: usize,
    possible: usize,
    hash: u64,
}

impl LinkDigest {
    /// Match links in the result.
    pub(crate) fn matches(&self) -> usize {
        self.matches
    }

    /// The digest of `result`'s links.
    pub(crate) fn of(result: &LinkageResult) -> Self {
        let mut fold = Fold::default();
        for link in result.matches.iter().chain(&result.possible) {
            fold.link(&link.external, &link.local, link.score.to_bits());
        }
        LinkDigest {
            matches: result.matches.len(),
            possible: result.possible.len(),
            hash: fold.finish(),
        }
    }
}

/// A fast word-at-a-time hash of a link sequence (FxHash mixing). Each
/// step is a bijection of the state, so links that differ in a single
/// word always give different digests.
#[derive(Default)]
pub(crate) struct Fold(u64);

impl Fold {
    /// Fold in one word.
    pub(crate) fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(bytes.len() as u64);
    }

    fn term(&mut self, term: &Term) {
        match term.as_iri() {
            Some(iri) => self.bytes(iri.as_bytes()),
            None => self.bytes(format!("{term:?}").as_bytes()),
        }
    }

    /// Fold in one `(external, local, score bits)` link.
    pub(crate) fn link(&mut self, external: &Term, local: &Term, score_bits: u64) {
        self.term(external);
        self.term(local);
        self.word(score_bits);
    }

    /// The digest so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Time `op` repeatedly until `seconds` have passed (at least `min_reps`
/// sampled times), returning each sampled repetition's value. The first
/// `warmup` repetitions run (and are checked) but are not sampled. `op`
/// returns the seconds it measured, or `None` for a failed repetition
/// (not sampled).
pub(crate) fn measure_loop(
    seconds: f64,
    warmup: usize,
    min_reps: usize,
    mut op: impl FnMut() -> Option<f64>,
) -> Vec<f64> {
    for _ in 0..warmup {
        op();
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps += 1;
        if let Some(s) = op() {
            samples.push(s);
        }
    }
    samples
}

/// Median of `samples`, 0 when empty (a run with no successful sample is
/// already failed).
pub(crate) fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The fastest of a run's repetitions, 0 when empty: the `link_s` of a
/// run. Every repetition does the same deterministic work, so the
/// machine can only add time to it; on a shared host whose speed drifts
/// by 20–40 % from second to second, the fastest repetition moves less
/// between runs than the median does (see "Steadiness" in the README).
pub(crate) fn fastest_or_zero(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Run set-up [`SETUP_REPS`] times, keeping the last result; returns it with the
/// median set-up time.
pub(crate) fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median_or_zero(&times))
}

/// The ladder below a pipeline run, on one blocker's candidates: the
/// blocking stream alone, the Jaro-Winkler kernel alone over the
/// candidates' value pairs, and `CompiledComparator::score` over the
/// same queue on one thread. Sets the `blocking.*`, `similarity.*` and
/// `comparator.*` metrics; `truth` holds the gold pairs as `(external,
/// global local)` ids for blocking quality.
pub(crate) fn ladder(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    blocker: &dyn Blocker,
    external: &RecordStore,
    local: &ShardedStore,
    truth: &HashSet<(usize, usize)>,
) {
    let mut runs = CandidateRuns::new();
    let start = Instant::now();
    tracer.span("blocking.stream", parent, |_| {
        blocker.stream_candidates(external, local.into(), &mut runs)
    });
    let stream_s = start.elapsed().as_secs_f64();
    let candidates = runs.total();
    report.set("blocking.stream_s", stream_s);
    report.set("blocking.candidates", candidates as f64);
    report.set(
        "blocking.ns_per_candidate",
        stream_s * 1e9 / candidates.max(1) as f64,
    );
    let filter = runs.bigram_filter_stats();
    report.set("blocking.bigram.verify_merges", filter.verify_merges as f64);
    report.set(
        "blocking.bigram.postings_skipped_length",
        filter.postings_skipped_length as f64,
    );

    // The kernel alone: value pairs gathered per block outside the
    // timed loop, so only `jaro_winkler_with` is timed.
    let left = external.property(vocab::PROVIDER_PART_NUMBER);
    let right = local.property(vocab::LOCAL_PART_NUMBER);
    let (mut kernel_ns, mut kernel_calls) = (0u128, 0u64);
    let mut scratch = SimScratch::default();
    tracer.span("similarity.kernel", parent, |_| {
        let (Some(lp), Some(rp)) = (left, right) else {
            return;
        };
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(1 << 16);
        let mut flush = |pairs: &mut Vec<(&str, &str)>, scratch: &mut SimScratch| {
            let start = Instant::now();
            let mut sum = 0.0;
            for &(a, b) in pairs.iter() {
                sum += jaro_winkler_with(scratch, a, b);
            }
            black_box(sum);
            kernel_ns += start.elapsed().as_nanos();
            kernel_calls += pairs.len() as u64;
            pairs.clear();
        };
        for s in 0..local.shard_count() {
            let shard = local.shard(s);
            for (e, l) in runs.pairs(s) {
                for a in external.values(e, lp) {
                    for b in shard.values(l, rp) {
                        pairs.push((a, b));
                    }
                }
                if pairs.len() >= 1 << 16 {
                    flush(&mut pairs, &mut scratch);
                }
            }
        }
        flush(&mut pairs, &mut scratch);
    });
    report.set(
        "similarity.ns_per_pair",
        kernel_ns as f64 / kernel_calls.max(1) as f64,
    );

    // The scorer alone, one thread, over the same queue.
    let comparator = comparator();
    let compiled = comparator.compile_schemas(external.interner(), local.schema());
    let start = Instant::now();
    tracer.span("comparator.score", parent, |_| {
        let mut sum = 0.0;
        for s in 0..local.shard_count() {
            let shard = local.shard(s);
            for (e, l) in runs.pairs(s) {
                sum += compiled.score(external, e, shard, l, &mut scratch).0;
            }
        }
        black_box(sum);
    });
    report.set(
        "comparator.score_ns_per_pair",
        start.elapsed().as_secs_f64() * 1e9 / candidates.max(1) as f64,
    );

    let stats = tracer.span("eval.blocking_quality", parent, |_| {
        let pairs = runs.into_global_pairs(local.into());
        BlockingStats::evaluate(&pairs, truth, external.len(), local.len())
    });
    report.set("blocking.reduction_ratio", stats.reduction_ratio);
    report.set("blocking.pairs_completeness", stats.pairs_completeness);
    report.set("blocking.pairs_quality", stats.pairs_quality);
}

/// Gold links as `(external id, global catalog id)` pairs.
pub(crate) fn truth_ids(
    gold: &HashSet<(Term, Term)>,
    external: &RecordStore,
    local: &ShardedStore,
) -> HashSet<(usize, usize)> {
    gold.iter()
        .filter_map(|(e, l)| Some((external.index_of(e)?, local.index_of(l)?)))
        .collect()
}

/// What the 1-thread reference run leaves behind for the checks and the
/// ladder: its link digest, comparison count and time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reference {
    /// The reference links, compacted.
    pub links: LinkDigest,
    /// Comparisons the reference run made.
    pub comparisons: u64,
    /// The reference pipeline run's time (the ladder's 1-thread rung).
    pub t1_s: f64,
}

impl Reference {
    /// The reference of a 1-thread `result` that took `t1_s`.
    pub(crate) fn new(result: &LinkageResult, t1_s: f64) -> Self {
        Reference {
            links: LinkDigest::of(result),
            comparisons: result.comparisons,
            t1_s,
        }
    }
}

/// Set the pipeline rung metrics from the 1-thread reference and the
/// N-thread time.
pub(crate) fn report_pipeline(report: &mut Report, reference: &Reference, t2_s: f64) {
    report.set("pipeline.t1_s", reference.t1_s);
    report.set("pipeline.t2_s", t2_s);
    report.set("pipeline.thread_speedup", reference.t1_s / t2_s.max(1e-9));
    report.set("pipeline.comparisons", reference.comparisons as f64);
    report.set("pipeline.matches", reference.links.matches() as f64);
    report.set("pipeline.possible", reference.links.possible as f64);
}

/// What learning and classification measured.
pub(crate) struct Learnt {
    /// The confidence-1 classifier.
    pub classifier: RuleClassifier,
    /// Rules learnt (all confidences).
    pub rules: usize,
    /// Learning time.
    pub learn_s: f64,
    /// Time to classify every external item.
    pub classify_s: f64,
    /// Share of external items with a decision.
    pub decision_rate: f64,
}

/// Learn rules on the training links and classify every external item
/// at confidence 1 (`None` when learning fails).
pub(crate) fn learn_and_classify(
    tracer: &Tracer,
    parent: SpanId,
    scenario: &GeneratedScenario,
    external: &RecordStore,
) -> Option<Learnt> {
    let learner = learner();
    let start = Instant::now();
    let learnt = tracer.span("core.learn", parent, |_| {
        let outcome = RuleLearner::new(learner.clone())
            .learn(&scenario.training, &scenario.ontology)
            .ok()?;
        let classifier = RuleClassifier::from_outcome(&outcome, &learner).with_min_confidence(1.0);
        Some((outcome.rules.len(), classifier))
    });
    let learn_s = start.elapsed().as_secs_f64();
    let (rules, classifier) = learnt?;
    let start = Instant::now();
    let predictions: Vec<_> = tracer.span("core.classify", parent, |_| {
        (0..external.len())
            .map(|e| {
                classifier
                    .classify_fact_refs(external.facts(e))
                    .first()
                    .map(|p| p.class)
            })
            .collect()
    });
    let classify_s = start.elapsed().as_secs_f64();
    let decision_rate = tracer.span("eval.classes", parent, |_| {
        let mut outcome = ClassificationOutcome::new(external.len());
        for (e, predicted) in predictions.into_iter().enumerate() {
            outcome.record(predicted, scenario.gold_class(external.id(e)));
        }
        outcome.decision_rate()
    });
    Some(Learnt {
        classifier,
        rules,
        learn_s,
        classify_s,
        decision_rate,
    })
}

/// Set the `core.*` metrics.
pub(crate) fn report_learnt(report: &mut Report, learnt: &Learnt) {
    report.set("core.learn_s", learnt.learn_s);
    report.set("core.rules", learnt.rules as f64);
    report.set("core.classify_s", learnt.classify_s);
    report.set("core.decision_rate", learnt.decision_rate);
}

/// A fresh snapshot directory under the run's output directory, unique
/// within the process. Snapshots are removed together by
/// [`remove_snapshots`] when the run ends, outside every span.
pub(crate) fn snapshot_dir(config: &Config) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    config
        .out_dir
        .join(format!("snapshot-{}-{n}", std::process::id()))
}

/// Remove every snapshot directory this process created (best effort).
pub(crate) fn remove_snapshots(out_dir: &Path) {
    let prefix = format!("snapshot-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// `n` copies of catalog records under fresh IRIs: a 1 % append batch
/// for workloads that hold nothing back.
pub(crate) fn copies(records: &[Record], n: usize, seed: u64) -> Vec<Record> {
    let mut rng = SplitMix64::new(seed, 7);
    (0..n)
        .map(|i| {
            let mut copy = records[rng.below(records.len())].clone();
            let id = copy.id.as_iri().expect("catalog ids are IRIs");
            copy.id = Term::iri(format!("{id}-copy{i}"));
            copy
        })
        .collect()
}

/// The persistence and append layers, measured beside the path: write
/// `catalog` as a snapshot, append `batch` as a new shard, write the grown
/// catalog (reusing the unchanged shards), and open it again.
pub(crate) fn persist_side(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    config: &Config,
    catalog: &ShardedStore,
    batch: &[Record],
) {
    let dir = snapshot_dir(config);
    let start = Instant::now();
    let first = tracer.span("persist.write", parent, |_| {
        CatalogSnapshot::write(&dir, catalog)
    });
    report.set("persist.write_s", start.elapsed().as_secs_f64());
    match first {
        Ok(receipt) => {
            report.attempt(true);
            report.set("persist.bytes_written", receipt.bytes_written as f64);
        }
        Err(e) => report.error("persist.write", e),
    }
    let start = Instant::now();
    let grown = tracer.span("shard.append_build", parent, |_| {
        let mut delta = catalog.delta_builder();
        delta.begin_shard();
        for record in batch {
            delta.push(record);
        }
        catalog.try_append_shards(delta)
    });
    report.set("shard.append_build_s", start.elapsed().as_secs_f64());
    let grown = match grown {
        Ok(grown) => {
            report.attempt(true);
            grown
        }
        Err(e) => return report.error("shard.append", e),
    };
    match tracer.span("persist.write", parent, |_| {
        CatalogSnapshot::write(&dir, &grown)
    }) {
        Ok(receipt) => {
            report.attempt(true);
            report.set("persist.shards_reused", receipt.shards_reused as f64);
        }
        Err(e) => report.error("persist.write", e),
    }
    let start = Instant::now();
    let opened = tracer.span("persist.open", parent, |_| CatalogSnapshot::open(&dir));
    report.set("persist.open_s", start.elapsed().as_secs_f64());
    match opened {
        Ok((restored, _)) => report.check(restored.len() == grown.len(), || {
            format!(
                "restored catalog holds {} records, wrote {}",
                restored.len(),
                grown.len()
            )
        }),
        Err(e) => report.error("persist.open", e),
    }
}
