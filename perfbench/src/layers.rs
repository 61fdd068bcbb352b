//! Per-layer replays for the traced run: after the measured operations,
//! the benchmark calls each layer's public functions on the workload's own
//! inputs and times the calls.

use crate::report::ratio;
use crate::trace::{SinkCounters, StepTotals, TimedSink, Tracer};
use sqo_core::{BrokerCounters, ExecStep, QueryStats, SimilarityEngine, Strategy};
use sqo_overlay::network::Network;
use sqo_overlay::{Key, PeerId, SimLatency};
use sqo_plan::{Query, Session};
use sqo_sim::{LatencyModel, NetSim, SimConfig};
use sqo_storage::{keys, postings_for_rows, Row};
use sqo_strsim::edit::levenshtein_bounded;
use sqo_strsim::{qgrams, qsamples};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

/// Layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One query of the workload, as the layers see it.
pub struct Probe {
    pub s: String,
    pub d: usize,
    pub strategy: Strategy,
}

/// The workload's inputs, handed to the layer replays.
pub struct LayerInputs<'a> {
    pub attr: &'static str,
    /// The rows published at set-up.
    pub rows: &'a [Row],
    /// Fresh rows for the insert replay.
    pub extra_rows: Vec<Row>,
    pub queries: Vec<Probe>,
    /// Strings the queries are verified against.
    pub candidates: Vec<String>,
    /// The plan templates of the workload's operators.
    pub templates: Vec<Query>,
}

/// Repetitions of the cheap local replays, so each timed span is well
/// above the timer's resolution.
const LOCAL_REPS: usize = 20;

/// The probe keys a query sends: its distinct q-grams (or q-samples), or
/// the attribute's scan prefixes for the naive shower.
fn probe_keys(attr: &str, p: &Probe, q: usize) -> Vec<Key> {
    let grams = match p.strategy {
        Strategy::QGrams => qgrams(&p.s, q),
        Strategy::QSamples => qsamples(&p.s, q, p.d),
        Strategy::Naive => Vec::new(),
    };
    if grams.is_empty() {
        return vec![keys::attr_scan_prefix(attr), keys::short_value_prefix(attr)];
    }
    let mut out: Vec<Key> = grams.iter().map(|g| keys::instance_gram_key(attr, &g.gram)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Time the storage, overlay, strsim, plan and vql layers on the
/// workload's inputs. Runs after the measured operations: the insert
/// replay adds rows to the engine's network. Returns the errors the
/// planner and the VQL parser reported.
pub fn measure(
    engine: &mut SimilarityEngine,
    inp: &LayerInputs,
    tr: &mut Tracer,
    out: &mut Layers,
) -> Vec<String> {
    let cfg = engine.config().clone();
    let q = engine.q();

    // storage: the postings of the set-up rows.
    let ((postings, stats), ns) =
        tr.time("storage.postings_for_rows", inp.rows.len() as u64, || {
            postings_for_rows(inp.rows, &cfg.publish)
        });
    out.insert("storage.publish_ms", ns as f64 / 1e6);
    out.insert("storage.postings_per_row", ratio(stats.total_postings() as f64, stats.rows as f64));
    out.insert("storage.overhead_factor", stats.overhead_factor());

    // overlay: build a second network from the same postings.
    let (net, ns) =
        tr.time("overlay.Network::build", 1, || Network::build(cfg.network.clone(), postings));
    drop(net);
    out.insert("overlay.build_ms", ns as f64 / 1e6);
    let peers = engine.network().peer_count();
    out.insert(
        "overlay.stored_bytes_per_peer",
        engine.network().total_stored_bytes() as f64 / peers as f64,
    );

    // overlay: retrieve every query's probe keys again.
    let hops0 = engine.network().metrics().route_hops;
    let (mut calls, mut ns) = (0u64, 0u64);
    for (i, p) in inp.queries.iter().enumerate() {
        let keys = probe_keys(inp.attr, p, q);
        let from = PeerId((i * 7919 % peers) as u32);
        let net = engine.network_mut();
        let (_, dt) = tr.time("overlay.retrieve_lists", keys.len() as u64, || {
            for k in &keys {
                black_box(net.retrieve_lists(from, k).ok());
            }
        });
        calls += keys.len() as u64;
        ns += dt;
    }
    out.insert("overlay.retrieve_us", ratio(ns as f64 / 1e3, calls as f64));
    out.insert(
        "overlay.hops_per_route",
        ratio((engine.network().metrics().route_hops - hops0) as f64, calls as f64),
    );

    // strsim: verification against the candidates, and gram extraction.
    let pairs = (inp.queries.len() * inp.candidates.len() * LOCAL_REPS) as u64;
    let (_, ns) = tr.time("strsim.levenshtein_bounded", pairs, || {
        for _ in 0..LOCAL_REPS {
            for p in &inp.queries {
                for c in &inp.candidates {
                    black_box(levenshtein_bounded(black_box(&p.s), c, p.d));
                }
            }
        }
    });
    out.insert("strsim.verify_ns", ratio(ns as f64, pairs as f64));
    let grams_calls = (inp.queries.len() * LOCAL_REPS) as u64;
    let (_, ns) = tr.time("strsim.grams", grams_calls, || {
        for _ in 0..LOCAL_REPS {
            for p in &inp.queries {
                match p.strategy {
                    Strategy::QSamples => black_box(qsamples(black_box(&p.s), q, p.d)),
                    _ => black_box(qgrams(black_box(&p.s), q)),
                };
            }
        }
    });
    out.insert("strsim.grams_us", ratio(ns as f64 / 1e3, grams_calls as f64));

    // plan: prepare each template against the engine.
    let prepares = (inp.templates.len() * LOCAL_REPS) as u64;
    let session = Session::new(engine, PeerId(0));
    let mut errors: Vec<String> = inp
        .templates
        .iter()
        .filter_map(|t| session.prepare(t).err().map(|e| format!("plan: {e}")))
        .collect();
    let (_, ns) = tr.time("plan.Session::prepare", prepares, || {
        for _ in 0..LOCAL_REPS {
            for t in &inp.templates {
                black_box(session.prepare(t).ok());
            }
        }
    });
    out.insert("plan.prepare_us", ratio(ns as f64 / 1e3, prepares as f64));

    // vql: parse and plan the VQL form of every query.
    let texts: Vec<String> = inp.queries.iter().map(|p| vql_text(inp.attr, &p.s, p.d)).collect();
    let parses = (texts.len() * LOCAL_REPS) as u64;
    errors.extend(
        texts
            .iter()
            .filter_map(|t| sqo_vql::parse(t).and_then(|q| sqo_vql::plan(&q)).err())
            .map(|e| format!("vql: {e}")),
    );
    let (_, ns) = tr.time("vql.parse+plan", parses, || {
        for _ in 0..LOCAL_REPS {
            for t in &texts {
                black_box(sqo_vql::parse(t).and_then(|q| sqo_vql::plan(&q)).ok());
            }
        }
    });
    out.insert("vql.parse_us", ratio(ns as f64 / 1e3, parses as f64));

    // overlay: insert fresh postings, one call per posting.
    let (postings, _) = postings_for_rows(&inp.extra_rows, &cfg.publish);
    let n = postings.len() as u64;
    let net = engine.network_mut();
    let (_, ns) = tr.time("overlay.insert_item", n, || {
        for (k, p) in postings {
            net.insert_item(k, p);
        }
    });
    out.insert("overlay.insert_us_per_posting", ratio(ns as f64 / 1e3, n as f64));
    errors
}

/// The metrics of the measured queries, each given as `(traced, wall ms,
/// stats)`: `obs.trace_overhead` (traced ÷ untraced queries per second),
/// `strsim.comparisons_per_query`, and the `core.*` metrics of the traced
/// queries from the step totals the tracer kept while driving them.
pub fn query_metrics(steps: &StepTotals, queries: &[(bool, f64, QueryStats)], out: &mut Layers) {
    let rate = |traced: bool| {
        let (n, ms) =
            queries.iter().filter(|q| q.0 == traced).fold((0, 0.0), |(n, ms), q| (n + 1, ms + q.1));
        ratio(n as f64, ms)
    };
    out.insert("obs.trace_overhead", ratio(rate(true), rate(false)));
    let all_cmp: u64 = queries.iter().map(|q| q.2.edit_comparisons).sum();
    out.insert("strsim.comparisons_per_query", ratio(all_cmp as f64, queries.len() as f64));
    let nq = steps.queries as f64;
    out.insert("core.local_ms_per_query", ratio(steps.local_ns as f64 / 1e6, nq));
    out.insert("core.remote_ms_per_query", ratio(steps.remote_ns as f64 / 1e6, nq));
    out.insert(
        "core.step_share",
        ratio((steps.local_ns + steps.remote_ns) as f64, steps.query_ns as f64),
    );
    out.insert("core.steps_per_query", ratio(steps.steps as f64, nq));
    let sum = |f: &dyn Fn(&QueryStats) -> usize| -> f64 {
        queries.iter().filter(|q| q.0).map(|q| f(&q.2)).sum::<usize>() as f64
    };
    out.insert("core.probes_per_query", ratio(sum(&|s| s.probes), nq));
    out.insert("core.candidates_per_query", ratio(sum(&|s| s.candidates), nq));
    out.insert("core.candidate_yield", ratio(sum(&|s| s.matches), sum(&|s| s.candidates)));
}

/// The cache metrics from a broker's counters over `ops` operations.
pub fn cache_metrics(c: &BrokerCounters, ops: u64, out: &mut Layers) {
    out.insert("cache.hit_rate", c.hit_rate());
    out.insert("cache.messages_saved_per_query", ratio(c.messages_saved as f64, ops as f64));
    out.insert("cache.admission_rejects", c.admission_rejects as f64);
}

/// The simulator the benchmark installs: log-normal links with a median
/// of 1.5 ms.
pub fn lognormal_sim(seed: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::LogNormal { median_us: 1_500.0, sigma: 0.8 },
        seed,
        ..SimConfig::default()
    }
}

/// The VQL similarity query the serve mix sends, for search string `s`.
pub fn vql_text(attr: &str, s: &str, d: usize) -> String {
    // The search string sits in a single-quoted literal.
    let s = s.replace('\'', " ");
    format!("SELECT ?o WHERE {{ (?o,{attr},?v) FILTER (dist(?v,'{s}') < {}) }}", d + 1)
}

/// Run `tasks` through `run_task` with a fresh simulator installed behind
/// a [`TimedSink`], then remove it: the sim layer's cost per query.
pub fn sim_replay(
    engine: &mut SimilarityEngine,
    sim: SimConfig,
    tasks: Vec<Box<dyn ExecStep>>,
    tr: &mut Tracer,
    out: &mut Layers,
) {
    let counters = Rc::new(SinkCounters::default());
    counters.on.set(true);
    let netsim = NetSim::new(sim, engine.network().peer_count());
    engine
        .network_mut()
        .set_event_sink(Box::new(TimedSink::new(Box::new(netsim), counters.clone())));
    let n = tasks.len() as u64;
    let mut total = SimLatency::default();
    tr.time("sim.run_task", n, || {
        for mut t in tasks {
            if let Some(s) = engine.run_task(t.as_mut()).sim {
                total.absorb(&s);
            }
        }
    });
    engine.network_mut().take_event_sink();
    sink_metrics(&counters, n, out);
    out.insert("sim.virt_queue_share", queue_share(&total));
}

/// The queue's share of the critical path: the `crit_*` fields of a
/// latency profile split each query's virtual time into network, queue,
/// service and stall time.
pub fn queue_share(s: &SimLatency) -> f64 {
    let path = s.crit_net_us + s.crit_queue_us + s.crit_service_us + s.crit_stall_us;
    ratio(s.crit_queue_us as f64, path as f64)
}

/// `sim.sink_calls_per_query` and `sim.sink_us_per_call` from the counters
/// of a [`TimedSink`] that saw `queries` queries.
pub fn sink_metrics(c: &SinkCounters, queries: u64, out: &mut Layers) {
    out.insert("sim.sink_calls_per_query", ratio(c.calls.get() as f64, queries as f64));
    out.insert("sim.sink_us_per_call", ratio(c.nanos.get() as f64 / 1e3, c.calls.get() as f64));
}
