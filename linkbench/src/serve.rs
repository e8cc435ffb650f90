//! `serve_bigram`: live serving with writes beside reads. A warmed
//! `Linker` with bigram blocking serves the catalog minus a seeded 10 %
//! hold-back. One client thread probes every external item in a seeded
//! order (closed loop, through `try_probe_with`) while one writer thread
//! appends the hold-back as ten 1 % batches, one as the client starts
//! each tenth of its probes, so every append overlaps probes. Then the
//! linker is snapshotted,
//! restarted through `Linker::open`, and every external item is probed
//! again on the final epoch to verify the links. Each probe's cost is
//! bigram blocking; the comparator barely matters.
//!
//! The same probe pass, snapshot and restart also measure the serving
//! layer beside the two batch workloads' paths ([`side`]).

use crate::common::*;
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{median, percentile, summary};
use crate::trace::{SpanId, Tracer, ROOT};
use classilink_datagen::scenario::{generate, GeneratedScenario};
use classilink_eval::blocking_eval::default_key;
use classilink_linking::{
    BigramBlocker, Blocker, Link, LinkError, LinkResult, LinkagePipeline, LinkageResult, Linker,
    ProbeHits, ProbeScratch, Record, RecordComparator, RecordStore, ShardedStore,
};
use classilink_rdf::Term;
use std::collections::HashSet;
use std::time::Instant;

/// Batches the hold-back is appended in.
const BATCHES: usize = 10;

/// The digest of one external item's links: its matches, then its
/// possible matches, each sorted by `(external, local, score bits)` so
/// the digest does not depend on where the catalog holds the local
/// records.
fn item_digest<'a>(
    matches: impl IntoIterator<Item = &'a Link>,
    possible: impl IntoIterator<Item = &'a Link>,
) -> u64 {
    fn fold_sorted<'a>(fold: &mut Fold, links: impl IntoIterator<Item = &'a Link>) {
        let mut keys: Vec<(&Term, &Term, u64)> = links
            .into_iter()
            .map(|l| (&l.external, &l.local, l.score.to_bits()))
            .collect();
        keys.sort_unstable();
        fold.word(keys.len() as u64);
        for (external, local, bits) in keys {
            fold.link(external, local, bits);
        }
    }
    let mut fold = Fold::default();
    fold_sorted(&mut fold, matches);
    fold_sorted(&mut fold, possible);
    fold.finish()
}

/// Each external item's [`item_digest`] in a batch result, by external
/// index.
fn expected_digests(result: &LinkageResult, external: &RecordStore) -> Vec<u64> {
    let mut links: Vec<(Vec<&Link>, Vec<&Link>)> = vec![Default::default(); external.len()];
    for link in &result.matches {
        if let Some(e) = external.index_of(&link.external) {
            links[e].0.push(link);
        }
    }
    for link in &result.possible {
        if let Some(e) = external.index_of(&link.external) {
            links[e].1.push(link);
        }
    }
    links
        .into_iter()
        .map(|(matches, possible)| item_digest(matches, possible))
        .collect()
}

/// What one verification probe answered, in the form the checks compare.
#[derive(Debug, PartialEq)]
struct Answer {
    /// The [`item_digest`] of its links.
    digest: u64,
    /// Its match links as `(external, local)` pairs, for gold quality.
    matched: Vec<(Term, Term)>,
}

impl Answer {
    fn of(hits: &ProbeHits) -> Self {
        Answer {
            digest: item_digest(&hits.matches, &hits.possible),
            matched: hits
                .matches
                .iter()
                .map(|l| (l.external.clone(), l.local.clone()))
                .collect(),
        }
    }
}

/// Latency and candidate samples of one serving episode.
#[derive(Debug, Default)]
struct Episode {
    /// Per-probe latency, µs.
    pub probe_us: Vec<f64>,
    /// Per-probe candidates scored.
    pub candidates: Vec<f64>,
    /// Per-append latency until the epoch is visible, ms.
    pub append_ms: Vec<f64>,
    /// Wall time of the probe pass (with its appends), s.
    pub pass_s: f64,
    /// Snapshot time, ms.
    pub snapshot_ms: f64,
    /// `Linker::open` to the first answered probe, ms.
    pub restart_ms: f64,
}

/// Build a delta of `batch` on the linker's current catalog and publish
/// it; returns the append's latency until the new epoch is visible (ms).
fn append_batch(linker: &Linker<'_>, batch: &[Record]) -> LinkResult<(f64, bool)> {
    let start = Instant::now();
    let mut delta = linker.delta_builder();
    delta.begin_shard();
    for record in batch {
        delta.push(record);
    }
    let sequence = linker.try_append(delta)?;
    let visible = linker.catalog().load().sequence() == sequence;
    Ok((start.elapsed().as_secs_f64() * 1e3, visible))
}

/// One closed-loop serving pass: the calling thread probes `probes` in
/// order while a writer thread appends `batches`, publishing batch `k`
/// once the client has answered `publish_after[k]` probes (each below
/// `probes.len()`). Every probe
/// and append counts as an operation in `report`. Returns the episode's
/// samples (snapshot and restart still 0).
fn probe_pass(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    linker: &Linker<'_>,
    probes: &[Record],
    batches: &[Vec<Record>],
    publish_after: &[usize],
) -> Episode {
    assert_eq!(batches.len(), publish_after.len());
    let (signal, wake) = std::sync::mpsc::channel::<usize>();
    let start = Instant::now();
    let (client, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut latencies = Vec::new();
            let mut outcomes = Vec::new();
            for k in wake {
                let outcome = tracer.span("serve.append", parent, |_| {
                    append_batch(linker, &batches[k])
                });
                match outcome {
                    Ok((ms, visible)) => {
                        latencies.push(ms);
                        outcomes.push(visible.then_some(()).ok_or_else(|| {
                            format!("append of batch {k} was not visible after it returned")
                        }));
                    }
                    Err(e) => outcomes.push(Err(format!("append of batch {k}: {e}"))),
                }
            }
            (latencies, outcomes)
        });
        // The client is this thread.
        let client = {
            let mut scratch = ProbeScratch::new();
            let mut probe_us = Vec::with_capacity(probes.len());
            let mut candidates = Vec::with_capacity(probes.len());
            let mut errors = Vec::new();
            let mut next_batch = 0;
            for (i, record) in probes.iter().enumerate() {
                while next_batch < batches.len() && i >= publish_after[next_batch] {
                    signal
                        .send(next_batch)
                        .expect("the writer outlives the client");
                    next_batch += 1;
                }
                let begin = Instant::now();
                let hits = tracer.span("serve.probe", parent, |_| {
                    linker
                        .try_probe_with(record, &mut scratch)
                        .map(|h| h.comparisons)
                });
                let elapsed = begin.elapsed();
                match hits {
                    Ok(comparisons) => {
                        probe_us.push(elapsed.as_secs_f64() * 1e6);
                        candidates.push(comparisons as f64);
                    }
                    Err(e) => errors.push(e.to_string()),
                }
            }
            drop(signal);
            (probe_us, candidates, errors)
        };
        (
            client,
            writer.join().expect("append writer thread panicked"),
        )
    });
    let pass_s = start.elapsed().as_secs_f64();
    let (probe_us, candidates, errors) = client;
    for _ in 0..probe_us.len() {
        report.attempt(true);
    }
    for e in errors {
        report.error("serve.probe", e);
    }
    let (append_ms, outcomes) = writer;
    for outcome in outcomes {
        match outcome {
            Ok(()) => report.attempt(true),
            Err(e) => report.error("serve.append", e),
        }
    }
    Episode {
        probe_us,
        candidates,
        append_ms,
        pass_s,
        ..Episode::default()
    }
}

/// Snapshot the linker into a fresh directory and restart from it
/// through `Linker::open`, answering `first` on the restarted linker:
/// sets the episode's snapshot and restart times and returns the
/// restarted linker (`None` on failure).
#[allow(clippy::too_many_arguments)]
fn snapshot_and_restart<'a>(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    config: &Config,
    linker: &Linker<'a>,
    blocker: &'a (dyn Blocker + Sync),
    comparator: &'a RecordComparator,
    first: &Record,
    episode: &mut Episode,
) -> Option<Linker<'a>> {
    let dir = snapshot_dir(config);
    let start = Instant::now();
    let receipt = tracer.span("serve.snapshot", parent, |_| linker.snapshot(&dir));
    episode.snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = receipt {
        report.error("serve.snapshot", e);
        return None;
    }
    report.attempt(true);
    let start = Instant::now();
    let restarted = tracer.span("serve.restart", parent, |_| {
        let (restarted, _) = Linker::open(&dir, blocker, comparator)?;
        let mut scratch = ProbeScratch::new();
        restarted.try_probe_with(first, &mut scratch)?;
        Ok::<_, classilink_linking::LinkError>(restarted)
    });
    episode.restart_ms = start.elapsed().as_secs_f64() * 1e3;
    match restarted {
        Ok(restarted) => {
            report.attempt(true);
            Some(restarted)
        }
        Err(e) => {
            report.error("serve.restart", e);
            None
        }
    }
}

/// The records of the external items at `indices`, read back from the
/// store (store reads are the shard layer's work).
fn probe_records(
    tracer: &Tracer,
    parent: SpanId,
    external: &RecordStore,
    indices: &[usize],
) -> Vec<Record> {
    tracer.span("shard.records", parent, |_| {
        indices.iter().map(|&e| external.record(e)).collect()
    })
}

/// Set the `serve.*` metrics from an episode.
fn report_episode(report: &mut Report, episode: &Episode, warm_s: f64) {
    report.set("serve.warm_s", warm_s);
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    report.set(
        "serve.candidates_per_probe_p50",
        p(&episode.candidates, 50.0),
    );
    report.set(
        "serve.candidates_per_probe_p99",
        p(&episode.candidates, 99.0),
    );
    report.set("serve.probe_p50_us", p(&episode.probe_us, 50.0));
    report.set("serve.probe_p99_us", p(&episode.probe_us, 99.0));
    report.set(
        "serve.probe_per_s",
        episode.probe_us.len() as f64 / episode.pass_s.max(1e-9),
    );
    report.set("serve.append_ms", median_or_zero(&episode.append_ms));
    report.set("serve.snapshot_ms", episode.snapshot_ms);
    report.set("serve.restart_ms", episode.restart_ms);
}

/// The serving layer measured beside a batch workload's path: feed the
/// catalog again (cold), publish it through a [`Linker`] with the
/// workload's blocker, probe a seeded sample of external items and
/// append one 1 % batch once half of them are answered, so the append
/// overlaps the second half, then snapshot and restart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn side(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    config: &Config,
    blocker: &(dyn Blocker + Sync),
    document: &[u8],
    records: &[Record],
    external: &RecordStore,
) {
    let comparator = comparator();
    let catalog = match feed_catalog(tracer, parent, document, records.len(), threads()) {
        Ok((catalog, _)) => catalog,
        Err(e) => return report.error("ingest", e),
    };
    let start = Instant::now();
    let linker = tracer.span("serve.warm", parent, |_| {
        Linker::new(blocker, &comparator, catalog)
    });
    let warm_s = start.elapsed().as_secs_f64();
    let (sample, batch) = tracer.span("bench.probes", parent, |_| {
        let mut rng = SplitMix64::new(config.seed, 11);
        let sample: Vec<usize> = (0..SIDE_PROBES.min(external.len()).max(1))
            .map(|_| rng.below(external.len()))
            .collect();
        (
            sample,
            copies(records, records.len().div_ceil(100), config.seed),
        )
    });
    let probes = probe_records(tracer, parent, external, &sample);
    let midpoint = probes.len() / 2;
    let mut episode = probe_pass(
        tracer,
        parent,
        report,
        &linker,
        &probes,
        &[batch],
        &[midpoint],
    );
    let restarted = snapshot_and_restart(
        tracer,
        parent,
        report,
        config,
        &linker,
        blocker,
        &comparator,
        &probes[0],
        &mut episode,
    );
    // Freeing both linkers' epochs is serving-layer work too.
    tracer.span("serve.release", parent, |_| drop((linker, restarted)));
    report_episode(report, &episode, warm_s);
}

struct Setup {
    scenario: GeneratedScenario,
    records: Vec<Record>,
    /// The base catalog, warmed by the set-up's `Linker::new`: its shards
    /// (and their bigram layouts) are `Arc`-shared with every linker the
    /// episodes build over it.
    base: ShardedStore,
    warm_s: f64,
    feed: FeedStats,
    batches: Vec<Vec<Record>>,
    /// Probes answered before each batch is published: one batch at the
    /// start of each tenth of the probes, so every append overlaps
    /// probes.
    publish_after: Vec<usize>,
    external: RecordStore,
    /// External item indices in the seeded probe order.
    order: Vec<usize>,
    /// The external items' records, in probe order.
    probes: Vec<Record>,
    gold: HashSet<(Term, Term)>,
}

fn setup(
    tracer: &Tracer,
    parent: SpanId,
    config: &Config,
    blocker: &BigramBlocker,
    comparator: &RecordComparator,
) -> Result<Setup, LinkError> {
    let scenario = tracer.span("datagen.generate", parent, |_| generate(&config.scenario));
    let records = catalog_records(tracer, parent, &scenario, config.seed);
    let (base_records, batches) = tracer.span("bench.holdback", parent, |_| {
        holdback(&records, config.seed)
    });
    let document = tracer.span("bench.serialise", parent, |_| {
        ntriples_document(base_records.iter().copied())
    });
    let (base, feed) = feed_catalog(tracer, parent, &document, base_records.len(), threads())?;
    drop(base_records);
    let start = Instant::now();
    tracer.span("serve.warm", parent, |_| {
        drop(Linker::new(blocker, comparator, base.clone()))
    });
    let warm_s = start.elapsed().as_secs_f64();
    let external = tracer.span("datagen.external_store", parent, |_| {
        scenario.external_store()
    });
    let order = tracer.span("bench.probes", parent, |_| {
        let mut order: Vec<usize> = (0..external.len()).collect();
        SplitMix64::new(config.seed, 2).shuffle(&mut order);
        order
    });
    let probes = probe_records(tracer, parent, &external, &order);
    let gold = tracer.span("bench.gold_set", parent, |_| gold_links(&scenario));
    let publish_after = (0..BATCHES).map(|k| k * probes.len() / BATCHES).collect();
    Ok(Setup {
        scenario,
        records,
        base,
        warm_s,
        feed,
        batches,
        publish_after,
        external,
        order,
        probes,
        gold,
    })
}

/// The seeded hold-back: a shuffled 10 % of the catalog, cut into
/// [`BATCHES`] append batches in shuffled order. Returns the base records
/// (in catalog order) and the batches.
fn holdback(records: &[Record], seed: u64) -> (Vec<&Record>, Vec<Vec<Record>>) {
    let mut order: Vec<usize> = (0..records.len()).collect();
    SplitMix64::new(seed, 1).shuffle(&mut order);
    let held = records.len() / 10;
    let mut in_base = vec![true; records.len()];
    for &i in &order[..held] {
        in_base[i] = false;
    }
    let batches = (0..BATCHES)
        .map(|k| {
            order[k * held / BATCHES..(k + 1) * held / BATCHES]
                .iter()
                .map(|&i| records[i].clone())
                .collect()
        })
        .collect();
    let base = records
        .iter()
        .zip(&in_base)
        .filter(|(_, &keep)| keep)
        .map(|(r, _)| r)
        .collect();
    (base, batches)
}

/// Probe every record of `probes` in order and return each one's
/// answer; `None` entries failed. Each probe is a `serve.verify` span;
/// building the answers is the benchmark's own work.
fn probe_all(
    tracer: &Tracer,
    parent: SpanId,
    linker: &Linker<'_>,
    probes: &[Record],
) -> Vec<Option<Answer>> {
    tracer.span("bench.verify", parent, |id| {
        let mut scratch = ProbeScratch::new();
        probes
            .iter()
            .map(|record| {
                let hits = tracer.span("serve.verify", id, |_| {
                    linker.try_probe_with(record, &mut scratch)
                });
                hits.ok().map(Answer::of)
            })
            .collect()
    })
}

/// One episode on a fresh linker over the base catalog: the probe pass
/// with its appends and verification on the final epoch, then, when
/// `restart` is set, snapshot, restart, and verification after the
/// restart. Returns the episode and the verified match links' quality.
#[allow(clippy::too_many_arguments)]
fn episode<'a>(
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
    config: &Config,
    setup: &Setup,
    linker: &Linker<'a>,
    blocker: &'a BigramBlocker,
    comparator: &'a RecordComparator,
    expected: &[u64],
    restart: bool,
) -> (Episode, (f64, f64, f64)) {
    let mut episode = probe_pass(
        tracer,
        parent,
        report,
        linker,
        &setup.probes,
        &setup.batches,
        &setup.publish_after,
    );
    let before = probe_all(tracer, parent, linker, &setup.probes);
    let quality = tracer.span("bench.check", parent, |_| {
        let mut verified = Vec::new();
        for (&e, got) in setup.order.iter().zip(&before) {
            let id = setup.external.id(e);
            match got {
                Some(got) => {
                    report.check(got.digest == expected[e], || {
                        format!("probe links of {id} differ from the batch bigram run")
                    });
                    verified.extend(got.matched.iter().cloned());
                }
                None => report.error("verification probe", id),
            }
        }
        link_quality(verified, &setup.gold)
    });
    if !restart {
        return (episode, quality);
    }
    if let Some(restarted) = snapshot_and_restart(
        tracer,
        parent,
        report,
        config,
        linker,
        blocker,
        comparator,
        &setup.probes[0],
        &mut episode,
    ) {
        let after = probe_all(tracer, parent, &restarted, &setup.probes);
        tracer.span("bench.check", parent, |_| {
            let same = after.len() == before.len()
                && after
                    .iter()
                    .zip(&before)
                    .all(|(a, b)| a.is_some() && a == b);
            report.check(same, || {
                "probes after the restart differ from probes before the snapshot".into()
            });
        });
        tracer.span("serve.release", parent, |_| drop(restarted));
    }
    (episode, quality)
}

/// Run the workload, filling `report`.
pub fn run(config: &Config, tracer: &Tracer, report: &mut Report) {
    let quiet = Tracer::new(false);
    let comparator = comparator();
    let blocker = BigramBlocker::new(default_key(0), 0.7);
    let (setup, setup_s) = repeated_setup(|| {
        tracer.span("bench.setup", ROOT, |id| {
            setup(tracer, id, config, &blocker, &comparator)
        })
    });
    report.set("setup_s", setup_s);
    let setup = match setup {
        Ok(setup) => setup,
        Err(e) => return report.error("set-up", e),
    };

    // The reference: a 1-thread batch bigram run over the whole catalog.
    // Only its digests outlive this block, so the measured episodes' peak
    // memory is the program's, not the benchmark's.
    let reference = tracer.span("bench.reference", ROOT, |id| {
        let full = tracer.span("shard.from_records", id, |_| {
            ShardedStore::from_records(&setup.records, SHARDS)
        });
        let start = Instant::now();
        let result = tracer.span("pipeline.run", id, |_| {
            LinkagePipeline::new(&blocker, &comparator).try_run_sharded(&setup.external, &full)
        })?;
        let t1_s = start.elapsed().as_secs_f64();
        let expected = tracer.span("bench.expected", id, |_| {
            expected_digests(&result, &setup.external)
        });
        Ok::<_, LinkError>((Reference::new(&result, t1_s), expected))
    });
    let (reference, expected) = match reference {
        Ok(reference) => {
            report.attempt(true);
            reference
        }
        Err(e) => return report.error("reference run", e),
    };

    let mut episodes = Vec::new();
    let mut quality = (0.0, 0.0, 0.0);
    // Only the first episode snapshots and restarts: the two steps and
    // the second verification pass would take two thirds of every
    // episode, leaving fewer probe passes to sample `link_s` from.
    let link_s = measure_loop(config.seconds, 0, 3, || {
        let linker = Linker::new(&blocker, &comparator, setup.base.clone());
        let (ep, q) = episode(
            &quiet,
            ROOT,
            report,
            config,
            &setup,
            &linker,
            &blocker,
            &comparator,
            &expected,
            episodes.is_empty(),
        );
        quality = q;
        let pass_s = ep.pass_s;
        episodes.push(ep);
        Some(pass_s)
    });
    report.set("link_s", fastest_or_zero(&link_s));
    report_quality(report, quality);
    let pooled = |f: fn(&Episode) -> &[f64]| -> Vec<f64> {
        episodes.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let probe_us = pooled(|e| &e.probe_us);
    let per_episode = |f: fn(&Episode) -> f64| -> f64 {
        median(&episodes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.notes.push(format!(
        "serve_bigram: link_s {} {link_s:?}; setup_s {setup_s:.4}",
        summary(&link_s)
    ));
    report.notes.push(format!(
        "serve_bigram: {} episodes, {} probes: probe_p50_us {:.1}, probe_p99_us {:.1}, \
         probe_per_s {:.1}, append_ms {:.3}, snapshot_ms {:.3}, restart_ms {:.3}, \
         warm_s {:.4}, link_s (fastest probe pass) {:.4}",
        episodes.len(),
        probe_us.len(),
        percentile(&probe_us, 50.0).unwrap_or(0.0),
        percentile(&probe_us, 99.0).unwrap_or(0.0),
        per_episode(|e| e.probe_us.len() as f64 / e.pass_s.max(1e-9)),
        median(&pooled(|e| &e.append_ms)).unwrap_or(0.0),
        episodes[0].snapshot_ms,
        episodes[0].restart_ms,
        setup.warm_s,
        fastest_or_zero(&link_s),
    ));
    if !config.trace {
        return;
    }

    let (traced, _) = tracer.span("bench.pass", ROOT, |id| {
        let linker = tracer.span("serve.new", id, |_| {
            Linker::new(&blocker, &comparator, setup.base.clone())
        });
        let outcome = episode(
            tracer,
            id,
            report,
            config,
            &setup,
            &linker,
            &blocker,
            &comparator,
            &expected,
            true,
        );
        tracer.span("serve.release", id, |_| drop(linker));
        outcome
    });
    report.set("trace.overhead_s", traced.pass_s - median_or_zero(&link_s));
    report_episode(report, &traced, setup.warm_s);
    report_feed(report, &setup.feed);
    let t2_s = tracer.span("bench.ladder", ROOT, |id| {
        let full = tracer.span("shard.from_records", id, |_| {
            ShardedStore::from_records(&setup.records, SHARDS)
        });
        let start = Instant::now();
        let result = tracer.span("pipeline.run", id, |_| {
            LinkagePipeline::new(&blocker, &comparator)
                .with_threads(threads())
                .try_run_sharded(&setup.external, &full)
        });
        let t2_s = start.elapsed().as_secs_f64();
        match result {
            Ok(result) => {
                let same = tracer.span("bench.check", id, |_| {
                    LinkDigest::of(&result) == reference.links
                });
                report.check(same, || {
                    "2-thread bigram run differs from the 1-thread run".into()
                });
            }
            Err(e) => report.error("pipeline.run", e),
        }
        let truth = tracer.span("bench.truth_ids", id, |_| {
            truth_ids(&setup.gold, &setup.external, &full)
        });
        ladder(tracer, id, report, &blocker, &setup.external, &full, &truth);
        t2_s
    });
    report_pipeline(report, &reference, t2_s);
    tracer.span("bench.side", ROOT, |id| {
        match learn_and_classify(tracer, id, &setup.scenario, &setup.external) {
            Some(learnt) => {
                report.attempt(true);
                report_learnt(report, &learnt);
            }
            None => report.error("core.learn", "learning failed"),
        }
        persist_side(tracer, id, report, config, &setup.base, &setup.batches[0]);
    });
}
