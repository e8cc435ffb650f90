//! `batch_standard`: the whole batch path. The catalog, serialised to
//! N-Triples at set-up, is fed through `FeedIngest` into four shards and
//! linked against every external item by `try_run_sharded` with standard
//! key blocking and Jaro-Winkler scoring. Scoring dominates; blocking is
//! under 1 % of wall time.

use crate::common::*;
use crate::report::Report;
use crate::stats::summary;
use crate::trace::{SpanId, Tracer, ROOT};
use classilink_datagen::scenario::{generate, GeneratedScenario};
use classilink_eval::blocking_eval::default_key;
use classilink_linking::{
    Blocker, LinkResult, LinkagePipeline, LinkageResult, Record, RecordComparator, RecordStore,
    ShardedStore, StandardBlocker,
};
use classilink_rdf::Term;
use std::collections::HashSet;
use std::time::Instant;

struct Setup {
    scenario: GeneratedScenario,
    records: Vec<Record>,
    document: Vec<u8>,
    external: RecordStore,
    gold: HashSet<(Term, Term)>,
}

fn setup(tracer: &Tracer, parent: SpanId, config: &Config) -> Setup {
    let scenario = tracer.span("datagen.generate", parent, |_| generate(&config.scenario));
    let records = catalog_records(tracer, parent, &scenario, config.seed);
    let document = tracer.span("bench.serialise", parent, |_| ntriples_document(&records));
    let external = tracer.span("datagen.external_store", parent, |_| {
        scenario.external_store()
    });
    let gold = tracer.span("bench.gold_set", parent, |_| gold_links(&scenario));
    Setup {
        scenario,
        records,
        document,
        external,
        gold,
    }
}

/// One pass: feed bytes → catalog → `LinkageResult`.
struct Pass {
    result: LinkageResult,
    catalog: ShardedStore,
    feed: FeedStats,
    pipeline_s: f64,
    total_s: f64,
}

fn pass(
    tracer: &Tracer,
    parent: SpanId,
    setup: &Setup,
    blocker: &dyn Blocker,
    comparator: &RecordComparator,
    threads: usize,
) -> LinkResult<Pass> {
    let start = Instant::now();
    let (catalog, feed) = feed_catalog(
        tracer,
        parent,
        &setup.document,
        setup.records.len(),
        threads,
    )?;
    let begin = Instant::now();
    let result = tracer.span("pipeline.run", parent, |_| {
        LinkagePipeline::new(blocker, comparator)
            .with_threads(threads)
            .try_run_sharded(&setup.external, &catalog)
    })?;
    Ok(Pass {
        result,
        catalog,
        feed,
        pipeline_s: begin.elapsed().as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// Run the workload, filling `report`.
pub fn run(config: &Config, tracer: &Tracer, report: &mut Report) {
    let quiet = Tracer::new(false);
    let comparator = comparator();
    let blocker = StandardBlocker::new(default_key(4));
    let (setup, setup_s) =
        repeated_setup(|| tracer.span("bench.setup", ROOT, |id| setup(tracer, id, config)));
    report.set("setup_s", setup_s);

    let reference = tracer.span("bench.reference", ROOT, |id| {
        pass(tracer, id, &setup, &blocker, &comparator, 1)
    });
    // Only the reference's digest outlives this block, so the measured
    // passes' peak memory is the program's, not the benchmark's.
    let (reference, quality) = match reference {
        Ok(p) => {
            report.attempt(true);
            (
                Reference::new(&p.result, p.pipeline_s),
                link_quality(p.result.matched_pairs(), &setup.gold),
            )
        }
        Err(e) => return report.error("reference pass", e),
    };
    let threads = threads();

    let mut pipeline_s = Vec::new();
    let mut warming = true;
    let link_s = measure_loop(config.seconds, 1, 3, || {
        let warm_up = std::mem::take(&mut warming);
        match pass(&quiet, ROOT, &setup, &blocker, &comparator, threads) {
            Ok(p) => {
                let same = LinkDigest::of(&p.result) == reference.links;
                report.check(same, || {
                    "batch link set differs from the 1-thread reference".into()
                });
                if !warm_up {
                    pipeline_s.push(p.pipeline_s);
                }
                Some(p.total_s)
            }
            Err(e) => {
                report.error("link pass", e);
                None
            }
        }
    });
    report.set("link_s", fastest_or_zero(&link_s));
    report_quality(report, quality);
    report.notes.push(format!(
        "batch_standard: link_s {} {link_s:?}; pipeline {} {pipeline_s:?}; setup_s {setup_s:.4}",
        summary(&link_s),
        summary(&pipeline_s)
    ));
    report.notes.push(format!(
        "batch_standard: {} passes, link_s (fastest) {:.4} s, {} comparisons, {} matches",
        link_s.len(),
        fastest_or_zero(&link_s),
        reference.comparisons,
        reference.links.matches()
    ));
    if !config.trace {
        return;
    }

    let traced = tracer.span("bench.pass", ROOT, |id| {
        let p = pass(tracer, id, &setup, &blocker, &comparator, threads)?;
        let same = tracer.span("bench.check", id, |_| {
            LinkDigest::of(&p.result) == reference.links
        });
        Ok::<_, classilink_linking::LinkError>((p, same))
    });
    let traced = match traced {
        Ok((p, same)) => {
            report.check(same, || "traced link set differs from the reference".into());
            p
        }
        Err(e) => return report.error("traced pass", e),
    };
    report.set("trace.overhead_s", traced.total_s - median_or_zero(&link_s));
    report_feed(report, &traced.feed);
    report_pipeline(report, &reference, median_or_zero(&pipeline_s));
    tracer.span("bench.ladder", ROOT, |id| {
        let truth = tracer.span("bench.truth_ids", id, |_| {
            truth_ids(&setup.gold, &setup.external, &traced.catalog)
        });
        ladder(
            tracer,
            id,
            report,
            &blocker,
            &setup.external,
            &traced.catalog,
            &truth,
        );
    });
    tracer.span("bench.side", ROOT, |id| {
        match learn_and_classify(tracer, id, &setup.scenario, &setup.external) {
            Some(learnt) => {
                report.attempt(true);
                report_learnt(report, &learnt);
            }
            None => report.error("core.learn", "learning failed"),
        }
        crate::serve::side(
            tracer,
            id,
            report,
            config,
            &blocker,
            &setup.document,
            &setup.records,
            &setup.external,
        );
        let batch = tracer.span("bench.copies", id, |_| {
            copies(
                &setup.records,
                setup.records.len().div_ceil(100),
                config.seed,
            )
        });
        persist_side(tracer, id, report, config, &traced.catalog, &batch);
    });
}
