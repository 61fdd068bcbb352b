//! `serve-zipf`: the concurrent serving workload. `sqo_sim::run_driver`
//! with a log-normal network, 8 sticky clients sending Poisson arrivals
//! (an open loop in virtual time), Zipf-skewed search strings, the posting
//! cache and probe batching on, and a mix of `Similar`, top-N, auto-window
//! `SimJoin`, VQL and plan pipelines with `qsamples` on `bible_words` at
//! 4 096 peers.
//!
//! The driven queries run as a few independent driver runs (segments) on
//! one engine. The driver does not hand out answers, so after each segment
//! the benchmark replays some of its queries — the driver's per-client
//! streams, rebuilt from the seed — one at a time through `run_task` on the
//! same engine (its simulator and warm cache still installed), times each,
//! and checks every answer.

use crate::check::{self, Corpus, Hit, Oracle, Pair};
use crate::layers::{self, LayerInputs, Probe};
use crate::report::{percentile, ratio, Run};
use crate::trace::{SinkCounters, TimedSink, Tracer};
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::{BrokerConfig, EngineBuilder, JoinWindow, QueryStats, SimilarityEngine, Strategy};
use sqo_datasets::{bible_words, string_rows, ZipfSampler};
use sqo_overlay::PeerId;
use sqo_plan::{PlanRow, PlanTask, PlannerEnv, PreparedQuery, Query};
use sqo_sim::{run_driver, ApiMode, Arrival, DriverConfig, QueryKind};
use sqo_storage::Value;
use sqo_strsim::edit::levenshtein;
use sqo_vql::{ExecOptions, VqlTask};
use std::rc::Rc;
use std::time::Instant;

pub const WHY: &str = "the only workload through plan, vql, cache and sim, and the one where \
                       the cache pays: 8 sticky clients, Poisson arrivals below saturation, \
                       Zipf-skewed strings";

const ATTR: &str = "word";
const WORDS: usize = 20_000;
const PEERS: usize = 4_096;
const Q: usize = 2;
const CLIENTS: usize = 8;
/// Mean Poisson interarrival per client: 8 clients at 2.5 queries per
/// virtual second. Calibrated below saturation: at this rate the late
/// half of a run keeps its p95 within 10 % of the early half's, while at
/// 4 queries per client-second (250 ms) the late p95 doubles.
pub const MEAN_INTERARRIVAL_US: u64 = 400_000;
const ZIPF_S: f64 = 1.0;
const STRATEGY: Strategy = Strategy::QSamples;
/// Nominal driven queries per wall second on a 2-core box.
const NOMINAL_QPS: u64 = 40;
/// The driven queries run as independent segments of `SEGMENT_QPC`
/// queries per client (160 in all, ≈ 4 s); `ops_per_s` is the median
/// segment's rate, which a slow or fast spell of the machine moves less
/// than one long run's mean.
const SEGMENT_QPC: usize = 20;
const MIN_SEGMENTS: usize = 3;
/// Queries replayed in all, a slice after each segment: at least 10
/// beyond the p95.
const REPLAY: usize = 200;
/// Replayed queries whose answers are also checked for completeness.
const COMPLETE_CHECKED: usize = 40;
const LEFT_LIMIT: usize = 8;

fn mix() -> Vec<QueryKind> {
    vec![
        QueryKind::Similar { d: 1 },
        QueryKind::TopN { n: 5, d_max: 3 },
        QueryKind::SimJoin { d: 1, left_limit: Some(LEFT_LIMIT), window: JoinWindow::auto() },
        QueryKind::Vql { d: 1 },
        QueryKind::Pipeline {
            d: 1,
            n: 5,
            left_limit: Some(LEFT_LIMIT),
            window: JoinWindow::auto(),
        },
    ]
}

/// The driver seed of segment `k`.
fn segment_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

fn driver_config(seed: u64, queries_per_client: usize) -> DriverConfig {
    DriverConfig {
        clients: CLIENTS,
        queries_per_client,
        arrival: Arrival::Poisson { mean_interarrival_us: MEAN_INTERARRIVAL_US },
        mix: mix(),
        strategy: STRATEGY,
        sim: layers::lognormal_sim(seed),
        cache: BrokerConfig::enabled(),
        zipf_s: ZIPF_S,
        sticky_initiators: true,
        api: ApiMode::Plan,
        seed,
        ..DriverConfig::default()
    }
}

/// The driver's queries, rebuilt from its seed: client `c` draws its
/// first arrival, then per query a Zipf rank and (unless it was the last)
/// the next arrival; its `i`-th query is template `(i + c) % mix.len()`.
/// Returned client-major within each query index: `(client, kind, s)`.
fn driver_queries(cfg: &DriverConfig, words: &[String]) -> Vec<(usize, QueryKind, String)> {
    let zipf = ZipfSampler::new(words.len(), cfg.zipf_s);
    let mut per_client = Vec::new();
    for c in 0..cfg.clients {
        let seed = sqo_sim::seed::derive(cfg.seed, sqo_sim::seed::CLIENT_STREAM, c as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let _first_arrival: f64 = rng.gen();
        let mut qs = Vec::new();
        for i in 0..cfg.queries_per_client {
            let s = words[zipf.sample(&mut rng)].clone();
            if i + 1 < cfg.queries_per_client {
                let _next_arrival: f64 = rng.gen();
            }
            qs.push((c, cfg.mix[(i + c) % cfg.mix.len()].clone(), s));
        }
        per_client.push(qs);
    }
    (0..cfg.queries_per_client)
        .flat_map(|i| per_client.iter().map(move |qs| qs[i].clone()))
        .collect()
}

enum Task {
    Plan(Box<PlanTask>),
    Vql(Box<VqlTask>),
}

/// Build the task the driver builds for `kind` on the plan surface.
fn build_task(env: &PlannerEnv, s: &str, from: PeerId, kind: &QueryKind) -> Result<Task, String> {
    if let QueryKind::Vql { d } = kind {
        let opts = ExecOptions { strategy: STRATEGY };
        return VqlTask::prepare(&layers::vql_text(ATTR, s, *d), from, &opts)
            .map(|t| Task::Vql(Box::new(t)))
            .map_err(|e| format!("vql: {e}"));
    }
    let q = plan_template(kind, s).expect("every template but VQL has a plan form");
    PreparedQuery::with_env(&q, env, from)
        .map(|p| Task::Plan(Box::new(p.task())))
        .map_err(|e| format!("plan: {e}"))
}

enum Answer {
    Rows(Vec<PlanRow>),
    Vql(Vec<String>),
}

struct Replayed {
    client: usize,
    kind: QueryKind,
    s: String,
    ms: f64,
    traced: bool,
    stats: QueryStats,
    answer: Result<Answer, String>,
}

fn run_one(
    engine: &mut SimilarityEngine,
    task: Task,
    traced: bool,
    tr: &mut Tracer,
) -> (f64, QueryStats, Result<Answer, String>) {
    let t0 = Instant::now();
    match task {
        Task::Plan(mut t) => {
            let stats = if traced {
                tr.drive(engine, "plan.task", t.as_mut())
            } else {
                engine.run_task(t.as_mut())
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, stats, Ok(Answer::Rows(t.take_rows())))
        }
        Task::Vql(mut t) => {
            let stats = if traced {
                tr.drive(engine, "vql.task", t.as_mut())
            } else {
                engine.run_task(t.as_mut())
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let answer = match t.take_output() {
                Some(Ok(out)) => Ok(Answer::Vql(
                    out.rows
                        .iter()
                        .filter_map(|r| r.first().and_then(Value::as_str).map(String::from))
                        .collect(),
                )),
                Some(Err(e)) => Err(format!("vql: {e}")),
                None => Err("vql task finished without output".into()),
            };
            (ms, stats, answer)
        }
    }
}

fn row_hit(r: &PlanRow) -> Hit {
    Hit {
        oid: r.oid.clone(),
        value: r.value.as_str().unwrap_or_default().to_string(),
        dist: r.score.map_or(usize::MAX, |d| d as usize),
    }
}

fn row_pairs(rows: &[PlanRow]) -> Result<Vec<Pair>, String> {
    rows.iter()
        .map(|r| {
            let (left_oid, left_value) = r.left.clone().ok_or("join row without its left side")?;
            Ok(Pair { left_oid, left_value, right: row_hit(r) })
        })
        .collect()
}

fn check(r: &Replayed, corpus: &Corpus, oracle: &mut Oracle, complete: bool) -> Result<(), String> {
    let answer = r.answer.as_ref().map_err(String::clone)?;
    if r.stats.completeness() < 1.0 {
        return Err(format!("completeness {:.3} < 1", r.stats.completeness()));
    }
    let s = r.s.as_str();
    match (&r.kind, answer) {
        (QueryKind::Similar { d }, Answer::Rows(rows)) => {
            let hits: Vec<Hit> = rows.iter().map(row_hit).collect();
            check::similar_sound(corpus, s, *d, &hits)?;
            if complete && check::guaranteed(s, *d, Q, false) {
                check::same_objects(&hits, &oracle.within(s, *d))?;
            }
        }
        (QueryKind::TopN { n, d_max }, Answer::Rows(rows)) => {
            let items: Vec<Hit> = rows.iter().map(row_hit).collect();
            check::topn_sound(corpus, s, *n, *d_max, &items)?;
            if complete {
                let truth = oracle.within(s, *d_max);
                let shell = check::topn_final_shell(&truth, *n, *d_max);
                if check::guaranteed(s, shell, Q, false) {
                    check::topn_complete(&items, &truth, *n, shell)?;
                }
            }
        }
        (QueryKind::SimJoin { d, .. }, Answer::Rows(rows)) => {
            let pairs = row_pairs(rows)?;
            let lefts = check::join_sound(corpus, *d, &pairs)?;
            if lefts.len() > LEFT_LIMIT {
                return Err(format!("{} left values, limit {LEFT_LIMIT}", lefts.len()));
            }
            if complete {
                check::join_complete(oracle, *d, Q, false, &lefts, &pairs)?;
            }
        }
        (QueryKind::Pipeline { d, n, .. }, Answer::Rows(rows)) => {
            let pairs = row_pairs(rows)?;
            check::join_sound(corpus, *d, &pairs)?;
            let prefix: String = s.chars().take(2).collect();
            if rows.len() > *n {
                return Err(format!("{} rows for top-{n}", rows.len()));
            }
            if let Some(p) = pairs.iter().find(|p| !p.left_value.starts_with(&prefix)) {
                return Err(format!("left value {:?} outside prefix {prefix:?}", p.left_value));
            }
        }
        (QueryKind::Vql { d }, Answer::Vql(oids)) => {
            let hits: Vec<Hit> = oids
                .iter()
                .map(|oid| {
                    let value = corpus.value(oid).unwrap_or_default().to_string();
                    Hit { oid: oid.clone(), dist: levenshtein(s, &value), value }
                })
                .collect();
            check::similar_sound(corpus, s, *d, &hits)?;
            if complete && check::guaranteed(s, *d, Q, false) {
                check::same_objects(&hits, &oracle.within(s, *d))?;
            }
        }
        _ => return Err("answer shape does not match the query".into()),
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Run {
    let mut run = Run::new("serve-zipf", WHY);
    let words = bible_words(WORDS, crate::DATA_SEED);
    let rows = string_rows(ATTR, &words, "w");
    let (mut engine, setup_s) = crate::setup(|| {
        EngineBuilder::new().peers(PEERS).q(Q).seed(ctx.seed).build_with_rows(&rows)
    });
    run.e2e.insert("setup_s", setup_s);

    let segments = MIN_SEGMENTS.max((ctx.seconds * NOMINAL_QPS) as usize / (CLIENTS * SEGMENT_QPC));
    let replay_per_segment = REPLAY.div_ceil(segments);
    run.size("words", WORDS);
    run.size("peers", PEERS);
    run.size("q", Q);
    run.size("clients", CLIENTS);
    run.size("segments", segments);
    run.size("queries_per_client_per_segment", SEGMENT_QPC);
    run.size("mean_interarrival_us", MEAN_INTERARRIVAL_US);
    run.size("zipf_s", ZIPF_S);
    run.size("replayed", replay_per_segment * segments);

    // Each segment: one driven run (the measured window), then a slice of
    // its queries replayed one at a time, each timed.
    let counters = Rc::new(SinkCounters::default());
    let (mut rates, mut p50s, mut p95s, mut phase_ratios) = (vec![], vec![], vec![], vec![]);
    let (mut messages, mut bytes, mut queries) = (0u64, 0u64, 0u64);
    let mut cache = sqo_core::BrokerCounters::default();
    let mut path = sqo_overlay::SimLatency::default();
    let mut replayed = Vec::with_capacity(replay_per_segment * segments);
    for k in 0..segments {
        let cfg = driver_config(segment_seed(ctx.seed, k), SEGMENT_QPC);
        let t0 = Instant::now();
        let report = run_driver(&mut engine, ATTR, &words, &cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        run.window_s += wall_s;
        let n = report.queries_run as u64;
        rates.push(n as f64 / wall_s);
        p50s.push(report.overall.p50_us as f64 / 1e3);
        p95s.push(report.overall.p95_us as f64 / 1e3);
        let (early, late) = (report.phases.early.summary.p95_us, report.phases.late.summary.p95_us);
        phase_ratios.push(ratio(late as f64, early as f64));
        messages += report.total.traffic.messages;
        bytes += report.total.traffic.bytes;
        queries += n;
        if let Some(c) = engine.broker_counters() {
            cache.cache_hits += c.cache_hits;
            cache.cache_misses += c.cache_misses;
            cache.messages_saved += c.messages_saved;
            cache.admission_rejects += c.admission_rejects;
        }
        if let Some(sim) = report.total.sim {
            path.absorb(&sim);
        }
        for d in &report.diagnostics {
            run.fail(format!("segment {k} driver: {d}"));
        }
        let unanswered = report.total.partitions_addressed - report.total.partitions_answered;
        if report.total.gave_up > 0 || unanswered > 0 {
            run.fail(format!(
                "segment {k} driver: {} queries gave up, {unanswered} remote legs unanswered",
                report.total.gave_up
            ));
        }
        if report.queries_run != CLIENTS * SEGMENT_QPC {
            run.fail(format!("segment {k}: driver ran {} of {} queries", n, CLIENTS * SEGMENT_QPC));
        }
        run.attempted += n;

        if ctx.trace {
            let inner =
                engine.network_mut().take_event_sink().expect("the driver installed a simulator");
            engine.network_mut().set_event_sink(Box::new(TimedSink::new(inner, counters.clone())));
        }
        let env = PlannerEnv::of(&engine);
        let initiators: Vec<PeerId> = (0..CLIENTS).map(|_| engine.random_peer()).collect();
        for (client, kind, s) in driver_queries(&cfg, &words).into_iter().take(replay_per_segment) {
            let traced = ctx.traced_round(client);
            counters.on.set(traced);
            let (ms, stats, answer) = match build_task(&env, &s, initiators[client], &kind) {
                Ok(task) => run_one(&mut engine, task, traced, tr),
                Err(e) => (0.0, QueryStats::default(), Err(e)),
            };
            replayed.push(Replayed { client, kind, s, ms, traced, stats, answer });
        }
        counters.on.set(false);
    }
    run.e2e.insert("ops_per_s", percentile(&rates, 0.5));
    run.e2e.insert("virt_ms_p50", percentile(&p50s, 0.5));
    run.e2e.insert("virt_ms_p95", percentile(&p95s, 0.5));
    run.traffic(messages, bytes, queries);
    run.notes.push(format!(
        "phase check: late p95 / early p95 per segment {:.2?}, median {:.2}: {}",
        phase_ratios,
        percentile(&phase_ratios, 0.5),
        if percentile(&phase_ratios, 0.5) <= 1.1 { "stationary" } else { "NOT stationary" }
    ));
    run.notes.push(format!("driven queries per wall second by segment {rates:.1?}"));
    run.notes.push(format!("cache hit rate {:.3}", cache.hit_rate()));
    let ms: Vec<f64> = replayed.iter().map(|r| r.ms).collect();
    run.e2e.insert("query_ms_p95", percentile(&ms, 0.95));
    run.notes.push(format!(
        "replay: {} queries, wall p50 {:.2} ms, p95 {:.2} ms",
        ms.len(),
        percentile(&ms, 0.5),
        percentile(&ms, 0.95)
    ));

    let corpus = Corpus::new("w", words.clone());
    let mut oracle = Oracle::new(&corpus, 3);
    run.attempted += replayed.len() as u64;
    for (i, r) in replayed.iter().enumerate() {
        if let Err(e) = check(r, &corpus, &mut oracle, i < COMPLETE_CHECKED) {
            run.fail(format!("replayed {} {:?} (client {}): {e}", r.kind.label(), r.s, r.client));
        }
    }

    if ctx.trace {
        let l = &mut run.layers;
        layers::cache_metrics(&cache, queries, l);
        l.insert("sim.virt_queue_share", layers::queue_share(&path));
        let traced = replayed.iter().filter(|r| r.traced).count();
        layers::sink_metrics(&counters, traced as u64, l);
        let timed: Vec<_> = replayed.iter().map(|r| (r.traced, r.ms, r.stats)).collect();
        layers::query_metrics(&tr.steps, &timed, l);

        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let candidates: Vec<String> =
            (0..200).map(|_| words[rng.gen_range(0..words.len())].clone()).collect();
        let first: Vec<&Replayed> = replayed.iter().take(COMPLETE_CHECKED).collect();
        let queries =
            first.iter().map(|r| Probe { s: r.s.clone(), d: 1, strategy: STRATEGY }).collect();
        let templates = first.iter().filter_map(|r| plan_template(&r.kind, &r.s)).collect();
        let extra_rows = string_rows(ATTR, &words[..200], "x");
        let inputs =
            LayerInputs { attr: ATTR, rows: &rows, extra_rows, queries, candidates, templates };
        for e in layers::measure(&mut engine, &inputs, tr, &mut run.layers) {
            run.fail(e);
        }
    }
    run
}

/// The plan-builder form of a template, as the driver builds it (VQL has
/// none: it is parsed).
fn plan_template(kind: &QueryKind, s: &str) -> Option<Query> {
    let q = match kind {
        QueryKind::Similar { d } => Query::similar(s, Some(ATTR), *d),
        QueryKind::TopN { n, d_max } => Query::top_n_similar(Some(ATTR), *n, s, *d_max),
        QueryKind::SimJoin { d, left_limit, window } => {
            Query::join_scan(ATTR, Some(ATTR), *d).left_limit(*left_limit).window_mode(*window)
        }
        QueryKind::Pipeline { d, n, left_limit, window } => {
            let prefix: String = s.chars().take(2).collect();
            let hi = format!("{prefix}\u{10FFFF}");
            Query::select_range(ATTR, Value::from(prefix), Value::from(hi))
                .sim_join(ATTR, Some(ATTR), *d)
                .top_n(*n)
                .left_limit(*left_limit)
                .window_mode(*window)
        }
        QueryKind::Vql { .. } => return None,
    };
    Some(q.strategy(STRATEGY))
}
