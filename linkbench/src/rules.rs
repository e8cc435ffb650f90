//! `rules_paper`: the paper's method end to end. Rules are learnt at
//! th = 0.002 on the provider part-number property over the training
//! links, every external item is classified at confidence 1, and the
//! rule-based blocker streams the predicted classes' extents into the
//! same comparator. Rule-based candidate enumeration is most of the
//! time; the rest is scoring.

use crate::common::*;
use crate::report::Report;
use crate::stats::summary;
use crate::trace::{SpanId, Tracer, ROOT};
use classilink_datagen::scenario::{generate, GeneratedScenario};
use classilink_linking::{
    LinkError, LinkagePipeline, LinkageResult, Record, RecordComparator, RecordStore,
    RuleBasedBlocker, ShardedStore,
};
use classilink_rdf::Term;
use std::collections::HashSet;
use std::time::Instant;

struct Setup {
    scenario: GeneratedScenario,
    records: Vec<Record>,
    document: Vec<u8>,
    catalog: ShardedStore,
    feed: FeedStats,
    external: RecordStore,
    gold: HashSet<(Term, Term)>,
}

fn setup(tracer: &Tracer, parent: SpanId, config: &Config) -> Result<Setup, LinkError> {
    let scenario = tracer.span("datagen.generate", parent, |_| generate(&config.scenario));
    let records = catalog_records(tracer, parent, &scenario, config.seed);
    let document = tracer.span("bench.serialise", parent, |_| ntriples_document(&records));
    let (catalog, feed) = feed_catalog(tracer, parent, &document, records.len(), threads())?;
    let external = tracer.span("datagen.external_store", parent, |_| {
        scenario.external_store()
    });
    let gold = tracer.span("bench.gold_set", parent, |_| gold_links(&scenario));
    Ok(Setup {
        scenario,
        records,
        document,
        catalog,
        feed,
        external,
        gold,
    })
}

/// One pass: training links → rules → classification → `LinkageResult`.
struct Pass {
    result: LinkageResult,
    learnt: Learnt,
    pipeline_s: f64,
    total_s: f64,
}

fn pass(
    tracer: &Tracer,
    parent: SpanId,
    setup: &Setup,
    comparator: &RecordComparator,
    threads: usize,
) -> Result<Pass, String> {
    let start = Instant::now();
    let learnt = learn_and_classify(tracer, parent, &setup.scenario, &setup.external)
        .ok_or("rule learning failed")?;
    let blocker = RuleBasedBlocker::new(
        &learnt.classifier,
        &setup.scenario.instances,
        &setup.scenario.ontology,
    );
    let begin = Instant::now();
    let result = tracer
        .span("pipeline.run", parent, |_| {
            LinkagePipeline::new(&blocker, comparator)
                .with_threads(threads)
                .try_run_sharded(&setup.external, &setup.catalog)
        })
        .map_err(|e| e.to_string())?;
    let pipeline_s = begin.elapsed().as_secs_f64();
    Ok(Pass {
        result,
        learnt,
        pipeline_s,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// Run the workload, filling `report`.
pub fn run(config: &Config, tracer: &Tracer, report: &mut Report) {
    let quiet = Tracer::new(false);
    let comparator = comparator();
    let (setup, setup_s) =
        repeated_setup(|| tracer.span("bench.setup", ROOT, |id| setup(tracer, id, config)));
    report.set("setup_s", setup_s);
    let setup = match setup {
        Ok(setup) => setup,
        Err(e) => return report.error("set-up ingest", e),
    };

    let reference = tracer.span("bench.reference", ROOT, |id| {
        pass(tracer, id, &setup, &comparator, 1)
    });
    // Only the reference's digest outlives this block, so the measured
    // passes' peak memory is the program's, not the benchmark's.
    let (reference, learnt, quality) = match reference {
        Ok(p) => {
            report.attempt(true);
            (
                Reference::new(&p.result, p.pipeline_s),
                (p.learnt.rules, p.learnt.decision_rate),
                link_quality(p.result.matched_pairs(), &setup.gold),
            )
        }
        Err(e) => return report.error("reference pass", e),
    };
    let threads = threads();

    let mut pipeline_s = Vec::new();
    let link_s = measure_loop(config.seconds, 0, 3, || {
        match pass(&quiet, ROOT, &setup, &comparator, threads) {
            Ok(p) => {
                let same = LinkDigest::of(&p.result) == reference.links;
                report.check(same, || {
                    "rules link set differs from the 1-thread reference".into()
                });
                pipeline_s.push(p.pipeline_s);
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
        "rules_paper: link_s {} {link_s:?}; pipeline {} {pipeline_s:?}; setup_s {setup_s:.4}",
        summary(&link_s),
        summary(&pipeline_s)
    ));
    report.notes.push(format!(
        "rules_paper: {} passes, link_s (fastest) {:.4} s, {} rules, decision rate {:.4}, \
         {} comparisons, {} matches",
        link_s.len(),
        fastest_or_zero(&link_s),
        learnt.0,
        learnt.1,
        reference.comparisons,
        reference.links.matches()
    ));
    if !config.trace {
        return;
    }

    let traced = tracer.span("bench.pass", ROOT, |id| {
        let p = pass(tracer, id, &setup, &comparator, threads)?;
        let same = tracer.span("bench.check", id, |_| {
            LinkDigest::of(&p.result) == reference.links
        });
        Ok::<_, String>((p, same))
    });
    let traced = match traced {
        Ok((p, same)) => {
            report.check(same, || "traced link set differs from the reference".into());
            p
        }
        Err(e) => return report.error("traced pass", e),
    };
    report.set("trace.overhead_s", traced.total_s - median_or_zero(&link_s));
    report_learnt(report, &traced.learnt);
    report_feed(report, &setup.feed);
    report_pipeline(report, &reference, median_or_zero(&pipeline_s));
    let blocker = RuleBasedBlocker::new(
        &traced.learnt.classifier,
        &setup.scenario.instances,
        &setup.scenario.ontology,
    );
    tracer.span("bench.ladder", ROOT, |id| {
        let truth = tracer.span("bench.truth_ids", id, |_| {
            truth_ids(&setup.gold, &setup.external, &setup.catalog)
        });
        ladder(
            tracer,
            id,
            report,
            &blocker,
            &setup.external,
            &setup.catalog,
            &truth,
        );
    });
    tracer.span("bench.side", ROOT, |id| {
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
        persist_side(tracer, id, report, config, &setup.catalog, &batch);
    });
}
