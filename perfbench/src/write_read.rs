//! `write-read`: a closed loop of writes and reads on `painting_titles` at
//! 2 048 peers with the posting cache and probe batching on. Each step
//! publishes a batch of 20 new titles with `publish_rows_traced` from a
//! random peer, then runs `similar` (q-grams, d = 1) on one of the titles
//! it just wrote and on a base title. Every insert moves the overlay's
//! cache epoch, so the cache rarely hits here.

use crate::check::{self, Corpus, Hit};
use crate::layers::{self, LayerInputs, Probe};
use crate::report::{mix_rate, percentile, Run};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::{
    BrokerConfig, EngineBuilder, ExecStep, QueryStats, SimilarTask, SimilarityEngine, Strategy,
};
use sqo_datasets::{painting_titles, string_rows};
use sqo_overlay::PeerId;
use sqo_plan::Query;
use sqo_storage::{Row, Value};
use std::time::Instant;

pub const WHY: &str = "writes make postings and copy-on-write inserts and move the cache epoch, \
                       reads of long titles are bound by aggregation: a change that helps reads \
                       at the cost of writes or cache coherence shows here";

const ATTR: &str = "title";
const TITLES: usize = 10_000;
const PEERS: usize = 2_048;
const Q: usize = 2;
const BATCH: usize = 20;
const D: usize = 1;
const STRATEGY: Strategy = Strategy::QGrams;
/// Nominal steps (one write, two reads) per wall second on a 2-core box.
const NOMINAL_STEPS_PER_S: u64 = 10;
/// 100 steps are 200 reads: at least 10 beyond the p95.
const MIN_STEPS: usize = 100;
/// Steps whose reads are also checked for completeness.
const COMPLETE_CHECKED: usize = 10;
/// Rows for the traced run's insert replay, beyond those the steps write.
const EXTRA_ROWS: usize = 200;
const QUERY_STREAM: u64 = 0x5752_4954;

struct Read {
    step: usize,
    s: String,
    /// The row the read must find again: written in this step.
    must_find: Option<String>,
    ms: f64,
    traced: bool,
    stats: QueryStats,
    hits: Vec<Hit>,
}

fn read(
    engine: &mut SimilarityEngine,
    s: &str,
    from: PeerId,
    traced: bool,
    tr: &mut Tracer,
) -> (f64, QueryStats, Vec<Hit>) {
    let t0 = Instant::now();
    let (stats, matches) = if traced {
        let mut task = SimilarTask::new(s, Some(ATTR), D, from, STRATEGY);
        let stats = tr.drive(engine, "core.similar", &mut task);
        (stats, task.take_matches())
    } else {
        let r = engine.similar(s, Some(ATTR), D, from, STRATEGY);
        (r.stats, r.matches)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let hits = matches
        .into_iter()
        .map(|m| Hit { oid: m.oid, value: m.matched, dist: m.distance })
        .collect();
    (ms, stats, hits)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Run {
    let mut run = Run::new("write-read", WHY);
    let steps = MIN_STEPS.max((ctx.seconds * NOMINAL_STEPS_PER_S) as usize);
    let written = steps * BATCH;
    let mut titles = painting_titles(TITLES + written + EXTRA_ROWS, crate::DATA_SEED);
    let extra = titles.split_off(TITLES);
    let rows = string_rows(ATTR, &titles, "t");
    let (mut engine, setup_s) = crate::setup(|| {
        EngineBuilder::new()
            .peers(PEERS)
            .q(Q)
            .seed(ctx.seed)
            .cache_config(BrokerConfig::enabled())
            .build_with_rows(&rows)
    });
    run.e2e.insert("setup_s", setup_s);
    run.size("titles", TITLES);
    run.size("peers", PEERS);
    run.size("q", Q);
    run.size("steps", steps);
    run.size("batch", BATCH);
    run.size("reads", 2 * steps);

    let corpus = Corpus::new("t", titles).with_extra("n", extra);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ QUERY_STREAM);
    let peer = |rng: &mut StdRng| PeerId(rng.gen_range(0..PEERS as u32));
    let row =
        |i: usize| Row::new(corpus.extra_oid(i), [(ATTR, Value::from(corpus.extra[i].clone()))]);
    let mut write_ms = Vec::with_capacity(steps);
    let mut reads: Vec<Read> = Vec::with_capacity(2 * steps);
    let (mut messages, mut bytes) = (0u64, 0u64);

    // The measured window: every step, each call timed.
    let window = Instant::now();
    for step in 0..steps {
        let traced = ctx.traced_round(step);
        let first = step * BATCH;
        let batch: Vec<Row> = (first..first + BATCH).map(row).collect();
        let from = peer(&mut rng);
        let t0 = Instant::now();
        let stats = if traced {
            tr.time("core.publish_rows_traced", 1, || engine.publish_rows_traced(&batch, from)).0
        } else {
            engine.publish_rows_traced(&batch, from)
        };
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        messages += stats.traffic.messages;
        bytes += stats.traffic.bytes;

        let fresh = first + rng.gen_range(0..BATCH);
        let base = rng.gen_range(0..TITLES);
        let targets = [
            (corpus.extra[fresh].clone(), Some(corpus.extra_oid(fresh))),
            (corpus.base[base].clone(), None),
        ];
        for (s, must_find) in targets {
            let from = peer(&mut rng);
            let (ms, stats, hits) = read(&mut engine, &s, from, traced, tr);
            messages += stats.traffic.messages;
            bytes += stats.traffic.bytes;
            reads.push(Read { step, s, must_find, ms, traced, stats, hits });
        }
    }
    run.window_s = window.elapsed().as_secs_f64();

    let read_ms: Vec<f64> = reads.iter().map(|r| r.ms).collect();
    let ops = steps + reads.len();
    let fresh_ms = reads.iter().filter(|r| r.must_find.is_some()).map(|r| r.ms).collect();
    let base_ms = reads.iter().filter(|r| r.must_find.is_none()).map(|r| r.ms).collect();
    run.e2e.insert("ops_per_s", mix_rate(&[write_ms.clone(), fresh_ms, base_ms]));
    run.e2e.insert("similar_ms_p50", percentile(&read_ms, 0.5));
    run.e2e.insert("query_ms_p95", percentile(&read_ms, 0.95));
    run.e2e.insert("write_ms_p50", percentile(&write_ms, 0.5));
    run.e2e.insert("write_ms_p95", percentile(&write_ms, 0.95));
    run.traffic(messages, bytes, ops as u64);
    let cache = engine.broker_counters().unwrap_or_default();
    run.notes.push(format!(
        "cache: {} hits of {} lookups",
        cache.cache_hits,
        cache.cache_hits + cache.cache_misses
    ));

    // Answer checks, outside the timed window.
    run.attempted = ops as u64;
    for r in &reads {
        let visible = (r.step + 1) * BATCH;
        let check = || -> Result<(), String> {
            if r.stats.completeness() < 1.0 {
                return Err(format!("completeness {:.3} < 1", r.stats.completeness()));
            }
            check::similar_sound(&corpus, &r.s, D, &r.hits)?;
            if let Some(oid) = &r.must_find {
                if !r.hits.iter().any(|h| &h.oid == oid) {
                    return Err(format!("the row {oid} written in this step was not found"));
                }
            }
            if r.step < COMPLETE_CHECKED && check::guaranteed(&r.s, D, Q, false) {
                check::same_objects(&r.hits, &corpus.scan(&r.s, D, visible))?;
            }
            Ok(())
        };
        if let Err(e) = check() {
            run.fail(format!("step {} read {:?}: {e}", r.step, r.s));
        }
    }
    // Read-your-writes for every written row, one step's batch at a time.
    for step in 0..steps {
        let from = peer(&mut rng);
        let lost: Vec<String> = (step * BATCH..(step + 1) * BATCH)
            .filter(|&i| {
                let (obj, _) = engine.lookup_object(from, &corpus.extra_oid(i));
                obj.and_then(|o| o.get(ATTR).and_then(Value::as_str).map(String::from))
                    != Some(corpus.extra[i].clone())
            })
            .map(|i| corpus.extra_oid(i))
            .collect();
        if !lost.is_empty() {
            run.fail(format!("step {step} write: rows not found again: {lost:?}"));
        }
    }

    if ctx.trace {
        let queries: Vec<_> = reads.iter().map(|r| (r.traced, r.ms, r.stats)).collect();
        layers::query_metrics(&tr.steps, &queries, &mut run.layers);
        layers::cache_metrics(&cache, ops as u64, &mut run.layers);

        let first: Vec<&Read> = reads.iter().filter(|r| r.step < COMPLETE_CHECKED).collect();
        let queries =
            first.iter().map(|r| Probe { s: r.s.clone(), d: D, strategy: STRATEGY }).collect();
        let mut candidates: Vec<String> =
            (0..200).map(|_| corpus.base[rng.gen_range(0..TITLES)].clone()).collect();
        candidates.extend(first.iter().flat_map(|r| r.hits.iter().map(|h| h.value.clone())));
        let templates = first
            .iter()
            .map(|r| Query::similar(r.s.clone(), Some(ATTR), D).strategy(STRATEGY))
            .collect();
        let extra_rows: Vec<Row> = (written..written + EXTRA_ROWS).map(row).collect();
        let inputs =
            LayerInputs { attr: ATTR, rows: &rows, extra_rows, queries, candidates, templates };
        for e in layers::measure(&mut engine, &inputs, tr, &mut run.layers) {
            run.fail(e);
        }

        let tasks: Vec<Box<dyn ExecStep>> = first
            .iter()
            .map(|r| {
                Box::new(SimilarTask::new(&r.s, Some(ATTR), D, PeerId(0), STRATEGY))
                    as Box<dyn ExecStep>
            })
            .collect();
        layers::sim_replay(
            &mut engine,
            layers::lognormal_sim(ctx.seed),
            tasks,
            tr,
            &mut run.layers,
        );
    }
    run
}
