//! `paper-mix`: the §6 query mix of the paper's Figure 1, on `bible_words`
//! at 8 192 peers, engine calls made directly in a closed loop with one
//! client (no simulator, no cache).
//!
//! One initiation picks three search strings and six initiating peers and
//! runs the mix — top-N with N = 5/10/15 up to distance 5, then self-joins
//! with d = 1/2/3 over a left side of 20 — under `qsamples`, `qgrams` and
//! `strings` in turn, with the same strings and peers for all three.
//!
//! The initiations run [`PASSES`] times, in passes over all of them, and
//! each operation's time is the fastest of its runs: noise on a shared
//! machine only ever adds time, and a pass spans seconds, so the runs of
//! one operation meet different spells of the machine.

use crate::check::{self, Corpus, Hit, Oracle, Pair};
use crate::layers::{self, LayerInputs, Probe};
use crate::report::{mix_rate, percentile, Run};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::{
    EngineBuilder, ExecStep, JoinOptions, JoinTask, QueryStats, SimilarityEngine, Strategy,
    TopNTask,
};
use sqo_datasets::{bible_words, string_rows};
use sqo_overlay::PeerId;
use sqo_plan::Query;
use std::time::Instant;

pub const WHY: &str = "Figure 1's own workload: its joins do most of the posting aggregation \
                       and count filtering, its naive leg most of the edit-distance \
                       verification and overlay shower work";

const ATTR: &str = "word";
const WORDS: usize = 20_000;
const PEERS: usize = 8_192;
const Q: usize = 2;
const TOP_N: [usize; 3] = [5, 10, 15];
const TOP_N_DMAX: usize = 5;
const JOIN_D: [usize; 3] = [1, 2, 3];
const LEFT_LIMIT: usize = 20;
/// Runs of every initiation, in interleaved passes.
const PASSES: usize = 3;
/// 4 initiations in 3 passes are 216 runs: at least 10 beyond the p95.
const MIN_INITIATIONS: usize = 4;
/// Nominal wall time of one initiation (18 queries) on a 2-core box,
/// measured at 2.2–2.5 s.
const NOMINAL_INITIATION_S: f64 = 2.4;
/// Initiations whose answers are also checked for completeness.
const COMPLETE_CHECKED: usize = 1;
/// Stream constant separating the query stream from the data stream.
const QUERY_STREAM: u64 = 0x5155_4552;

#[derive(Clone)]
enum Op {
    TopN { n: usize, s: String, from: PeerId, strategy: Strategy },
    Join { d: usize, from: PeerId, strategy: Strategy },
}

impl Op {
    fn strategy(&self) -> Strategy {
        match self {
            Op::TopN { strategy, .. } | Op::Join { strategy, .. } => *strategy,
        }
    }

    fn join_options(strategy: Strategy) -> JoinOptions {
        JoinOptions { strategy, left_limit: Some(LEFT_LIMIT), ..Default::default() }
    }

    fn task(&self) -> Box<dyn ExecStep> {
        match self {
            Op::TopN { n, s, from, strategy } => {
                Box::new(TopNTask::nearest(Some(ATTR), *n, s, TOP_N_DMAX, *from, *strategy))
            }
            Op::Join { d, from, strategy } => {
                Box::new(JoinTask::new(ATTR, Some(ATTR), *d, *from, &Op::join_options(*strategy)))
            }
        }
    }
}

enum Answer {
    TopN(Vec<Hit>),
    Join { pairs: Vec<Pair>, left_size: usize },
}

struct Done {
    op: Op,
    pass: usize,
    round: usize,
    /// Position in the round: the operation's type.
    slot: usize,
    ms: f64,
    traced: bool,
    stats: QueryStats,
    answer: Answer,
}

fn topn_hits(items: Vec<sqo_core::TopNItem>) -> Vec<Hit> {
    items
        .into_iter()
        .map(|i| Hit {
            oid: i.oid,
            value: i.value.as_str().unwrap_or_default().to_string(),
            dist: i.score as usize,
        })
        .collect()
}

fn join_pairs(pairs: Vec<sqo_core::JoinPair>) -> Vec<Pair> {
    pairs
        .into_iter()
        .map(|p| Pair {
            left_oid: p.left_oid,
            left_value: p.left_value,
            right: Hit { oid: p.right.oid, value: p.right.matched, dist: p.right.distance },
        })
        .collect()
}

/// Run one operation untraced, through the engine's public entry points.
fn run_plain(engine: &mut SimilarityEngine, op: &Op) -> (f64, QueryStats, Answer) {
    match op {
        Op::TopN { n, s, from, strategy } => {
            let t0 = Instant::now();
            let r = engine.top_n_similar(Some(ATTR), *n, s, TOP_N_DMAX, *from, *strategy);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, r.stats, Answer::TopN(topn_hits(r.items)))
        }
        Op::Join { d, from, strategy } => {
            let opts = Op::join_options(*strategy);
            let t0 = Instant::now();
            let r = engine.sim_join(ATTR, Some(ATTR), *d, *from, &opts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, r.stats, Answer::Join { pairs: join_pairs(r.pairs), left_size: r.left_size })
        }
    }
}

/// Run one operation traced: the benchmark steps the task itself.
fn run_traced(
    engine: &mut SimilarityEngine,
    op: &Op,
    tr: &mut Tracer,
) -> (f64, QueryStats, Answer) {
    match op {
        Op::TopN { n, s, from, strategy } => {
            let mut task = TopNTask::nearest(Some(ATTR), *n, s, TOP_N_DMAX, *from, *strategy);
            let t0 = Instant::now();
            let stats = tr.drive(engine, "core.topn", &mut task);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, stats, Answer::TopN(topn_hits(task.take_items())))
        }
        Op::Join { d, from, strategy } => {
            let mut task = JoinTask::new(ATTR, Some(ATTR), *d, *from, &Op::join_options(*strategy));
            let t0 = Instant::now();
            let stats = tr.drive(engine, "core.join", &mut task);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let left_size = task.left_size();
            (ms, stats, Answer::Join { pairs: join_pairs(task.take_pairs()), left_size })
        }
    }
}

/// Check one answer; `complete` also compares it with a brute-force scan.
fn check(done: &Done, corpus: &Corpus, oracle: &mut Oracle, complete: bool) -> Result<(), String> {
    if done.stats.completeness() < 1.0 {
        return Err(format!("completeness {:.3} < 1", done.stats.completeness()));
    }
    let naive = done.op.strategy() == Strategy::Naive;
    match (&done.op, &done.answer) {
        (Op::TopN { n, s, .. }, Answer::TopN(items)) => {
            check::topn_sound(corpus, s, *n, TOP_N_DMAX, items)?;
            if complete {
                let truth = oracle.within(s, TOP_N_DMAX);
                let shell = check::topn_final_shell(&truth, *n, TOP_N_DMAX);
                if check::guaranteed(s, shell, Q, naive) {
                    check::topn_complete(items, &truth, *n, shell)?;
                }
            }
        }
        (Op::Join { d, .. }, Answer::Join { pairs, left_size }) => {
            let lefts = check::join_sound(corpus, *d, pairs)?;
            // A self-join matches every left value with itself.
            if lefts.len() != *left_size {
                return Err(format!("{} of {left_size} left values answered", lefts.len()));
            }
            if complete {
                check::join_complete(oracle, *d, Q, naive, &lefts, pairs)?;
            }
        }
        _ => unreachable!("answers match their operations"),
    }
    Ok(())
}

fn label(op: &Op) -> String {
    match op {
        Op::TopN { n, s, strategy, .. } => format!("top-{n} {:?} ({})", s, strategy.label()),
        Op::Join { d, strategy, .. } => format!("join d={d} ({})", strategy.label()),
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Run {
    let mut run = Run::new("paper-mix", WHY);
    let words = bible_words(WORDS, crate::DATA_SEED);
    let rows = string_rows(ATTR, &words, "w");
    let (mut engine, setup_s) = crate::setup(|| {
        EngineBuilder::new().peers(PEERS).q(Q).seed(ctx.seed).build_with_rows(&rows)
    });
    run.e2e.insert("setup_s", setup_s);

    let initiations =
        MIN_INITIATIONS.max((ctx.seconds as f64 / (PASSES as f64 * NOMINAL_INITIATION_S)) as usize);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ QUERY_STREAM);
    let mut rounds: Vec<Vec<Op>> = Vec::with_capacity(initiations);
    for _ in 0..initiations {
        let strings: Vec<String> =
            TOP_N.iter().map(|_| words[rng.gen_range(0..words.len())].clone()).collect();
        let froms: Vec<PeerId> = (0..TOP_N.len() + JOIN_D.len())
            .map(|_| PeerId(rng.gen_range(0..PEERS as u32)))
            .collect();
        let mut ops = Vec::new();
        for strategy in Strategy::ALL {
            for (i, &n) in TOP_N.iter().enumerate() {
                ops.push(Op::TopN { n, s: strings[i].clone(), from: froms[i], strategy });
            }
            for (i, &d) in JOIN_D.iter().enumerate() {
                ops.push(Op::Join { d, from: froms[TOP_N.len() + i], strategy });
            }
        }
        rounds.push(ops);
    }
    run.size("words", WORDS);
    run.size("peers", PEERS);
    run.size("q", Q);
    run.size("initiations", initiations);
    run.size("passes", PASSES);
    run.size("queries", PASSES * initiations * 18);
    run.size("join_left_limit", LEFT_LIMIT);

    // The measured window: every operation, timed around the engine call.
    let window = Instant::now();
    let mut done = Vec::new();
    for pass in 0..PASSES {
        for (round, ops) in rounds.iter().enumerate() {
            let traced = ctx.traced_round(round);
            for (slot, op) in ops.iter().enumerate() {
                let (ms, stats, answer) = if traced {
                    run_traced(&mut engine, op, tr)
                } else {
                    run_plain(&mut engine, op)
                };
                done.push(Done { op: op.clone(), pass, round, slot, ms, traced, stats, answer });
            }
        }
    }
    run.window_s = window.elapsed().as_secs_f64();

    let all: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let of = |f: &dyn Fn(&Done) -> bool| -> Vec<f64> {
        done.iter().filter(|d| f(d)).map(|d| d.ms).collect()
    };
    // Each operation's fastest run, grouped by the operation's type.
    let best: Vec<Vec<f64>> = (0..rounds[0].len())
        .map(|t| {
            (0..rounds.len())
                .map(|r| of(&|d| d.slot == t && d.round == r).into_iter().fold(f64::MAX, f64::min))
                .collect()
        })
        .collect();
    run.e2e.insert("ops_per_s", mix_rate(&best));
    run.e2e.insert("query_ms_p95", percentile(&all, 0.95));
    run.e2e.insert("topn_ms_p50", percentile(&of(&|d| matches!(d.op, Op::TopN { .. })), 0.5));
    run.e2e.insert("join_ms_p50", percentile(&of(&|d| matches!(d.op, Op::Join { .. })), 0.5));
    let (messages, bytes) = done
        .iter()
        .fold((0, 0), |(m, b), d| (m + d.stats.traffic.messages, b + d.stats.traffic.bytes));
    run.traffic(messages, bytes, done.len() as u64);
    for strategy in Strategy::ALL {
        let ms = of(&|d| d.op.strategy() == strategy);
        run.notes.push(format!(
            "{}: {} queries, p50 {:.2} ms, p95 {:.2} ms",
            strategy.label(),
            ms.len(),
            percentile(&ms, 0.5),
            percentile(&ms, 0.95)
        ));
    }

    // Answer checks, outside the timed window.
    let corpus = Corpus::new("w", words.clone());
    let mut oracle = Oracle::new(&corpus, TOP_N_DMAX);
    run.attempted = done.len() as u64;
    for d in &done {
        let complete = d.pass == 0 && d.round < COMPLETE_CHECKED;
        if let Err(e) = check(d, &corpus, &mut oracle, complete) {
            run.fail(format!("{}: {e}", label(&d.op)));
        }
    }

    if ctx.trace {
        layer_metrics(ctx, &mut engine, &rows, &words, &done, &mut rng, tr, &mut run);
    }
    run
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    engine: &mut SimilarityEngine,
    rows: &[sqo_storage::Row],
    words: &[String],
    done: &[Done],
    rng: &mut StdRng,
    tr: &mut Tracer,
    run: &mut Run,
) {
    let queries: Vec<_> = done.iter().map(|d| (d.traced, d.ms, d.stats)).collect();
    layers::query_metrics(&tr.steps, &queries, &mut run.layers);
    // No cache in this workload: its counters read 0.
    layers::cache_metrics(&Default::default(), queries.len() as u64, &mut run.layers);

    // The first initiation's queries, replayed layer by layer.
    let first: Vec<&Done> = done.iter().filter(|d| d.pass == 0 && d.round == 0).collect();
    let mut queries = Vec::new();
    let mut templates = Vec::new();
    let mut candidates: Vec<String> =
        (0..200).map(|_| words[rng.gen_range(0..words.len())].clone()).collect();
    for d in &first {
        let strategy = d.op.strategy();
        match (&d.op, &d.answer) {
            (Op::TopN { n, s, .. }, Answer::TopN(items)) => {
                queries.push(Probe { s: s.clone(), d: TOP_N_DMAX, strategy });
                candidates.extend(items.iter().map(|h| h.value.clone()));
                templates
                    .push(Query::top_n_similar(Some(ATTR), *n, s, TOP_N_DMAX).strategy(strategy));
            }
            (Op::Join { d: dist, .. }, Answer::Join { pairs, .. }) => {
                let mut lefts: Vec<&str> = pairs.iter().map(|p| p.left_value.as_str()).collect();
                lefts.sort_unstable();
                lefts.dedup();
                queries.extend(lefts.iter().map(|v| Probe {
                    s: v.to_string(),
                    d: *dist,
                    strategy,
                }));
                templates.push(
                    Query::join_scan(ATTR, Some(ATTR), *dist)
                        .left_limit(Some(LEFT_LIMIT))
                        .strategy(strategy),
                );
            }
            _ => unreachable!("answers match their operations"),
        }
    }
    let extra_rows = string_rows(ATTR, &words[..200], "x");
    let inputs = LayerInputs { attr: ATTR, rows, extra_rows, queries, candidates, templates };
    for e in layers::measure(engine, &inputs, tr, &mut run.layers) {
        run.fail(e);
    }

    // sim: the first initiation's top-5 and d=1 join of each strategy,
    // with a simulator installed.
    let tasks: Vec<Box<dyn ExecStep>> = first
        .iter()
        .filter(|d| matches!(d.op, Op::TopN { n: 5, .. } | Op::Join { d: 1, .. }))
        .map(|d| d.op.task())
        .collect();
    layers::sim_replay(engine, layers::lognormal_sim(ctx.seed), tasks, tr, &mut run.layers);
}
