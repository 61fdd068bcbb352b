//! Acceptance pins on the committed `BENCH_latency.json`:
//!
//! * the artifact carries the window sweep (w1 / w8 / auto columns),
//! * `window=auto` simjoin p50 **and** p99 are no worse than the best
//!   static window (of {1, 8}) at **both 1 and 16 clients, for every
//!   latency model and cache mode** — the adaptive window never loses to
//!   the best static choice an operator could have tuned by hand,
//! * auto strictly beats the paper's serial loop (w1) somewhere, so the
//!   column is not vacuous,
//! * queue time is attributed per operator (not one run-wide figure
//!   duplicated into every row).
//!
//! The committed file is a deterministic run of the default bench
//! configuration (`cargo run --release -p sqo-bench --bin latency`);
//! regenerate it whenever execution economics change.

use sqo_obs::{parse_json, Json};
use std::collections::BTreeMap;

/// One bench row of the committed artifact's `points` array.
#[derive(Debug)]
struct Point {
    model: String,
    clients: u64,
    cache: String,
    api: String,
    window: String,
    operator: String,
    p50_us: u64,
    p99_us: u64,
    queue_us: u64,
}

fn load_points() -> Vec<Point> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_latency.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_latency.json");
    let a = parse_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    // The artifact is an envelope since the regression-gate work:
    // `{schema_version, generated: {...}, points: [...]}`.
    let schema_version = a.get("schema_version").and_then(Json::as_u64);
    assert_eq!(schema_version, Some(1), "artifact must carry schema_version 1 (envelope shape)");
    let rows = a.get("points").and_then(Json::as_array).expect("points array");
    let points: Vec<Point> = rows
        .iter()
        .map(|p| {
            let s = |key: &str| -> String {
                p.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("field {key}")).into()
            };
            let u = |key: &str| -> u64 {
                p.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {key}"))
            };
            Point {
                model: s("model"),
                clients: u("clients"),
                cache: s("cache"),
                api: s("api"),
                window: s("window"),
                operator: s("operator"),
                p50_us: u("p50_us"),
                p99_us: u("p99_us"),
                queue_us: u("queue_us"),
            }
        })
        .collect();
    assert!(!points.is_empty(), "no points parsed from {path}");
    points
}

#[test]
fn committed_bench_carries_the_window_sweep() {
    let points = load_points();
    for w in ["w1", "w8", "auto"] {
        assert!(
            points.iter().any(|p| p.window == w && p.operator == "simjoin"),
            "window column {w} missing from the committed artifact"
        );
    }
}

/// The headline: auto meets or beats the best static window everywhere
/// it matters.
#[test]
fn auto_window_meets_or_beats_best_static_at_1_and_16_clients() {
    let points = load_points();
    let find = |model: &str, clients: u64, cache: &str, window: &str| -> &Point {
        points
            .iter()
            .find(|p| {
                p.model == model
                    && p.clients == clients
                    && p.cache == cache
                    && p.api == "plan"
                    && p.window == window
                    && p.operator == "simjoin"
            })
            .unwrap_or_else(|| panic!("missing point {model}/{clients}/{cache}/{window}"))
    };
    let models: Vec<String> = {
        let mut m: Vec<String> = points.iter().map(|p| p.model.clone()).collect();
        m.sort();
        m.dedup();
        m
    };
    assert_eq!(models.len(), 4, "all four latency models present: {models:?}");
    let mut auto_strictly_beat_w1 = false;
    for model in &models {
        for clients in [1, 16] {
            for cache in ["off", "on"] {
                let w1 = find(model, clients, cache, "w1");
                let w8 = find(model, clients, cache, "w8");
                let auto = find(model, clients, cache, "auto");
                let best_p50 = w1.p50_us.min(w8.p50_us);
                let best_p99 = w1.p99_us.min(w8.p99_us);
                assert!(
                    auto.p50_us <= best_p50,
                    "{model}/{clients}c/{cache}: auto p50 {} vs best static {best_p50}",
                    auto.p50_us
                );
                assert!(
                    auto.p99_us <= best_p99,
                    "{model}/{clients}c/{cache}: auto p99 {} vs best static {best_p99}",
                    auto.p99_us
                );
                if auto.p50_us < w1.p50_us {
                    auto_strictly_beat_w1 = true;
                }
            }
        }
    }
    assert!(auto_strictly_beat_w1, "auto must strictly beat the serial loop somewhere");
}

/// Queue time must be per-operator: within one run (a fixed
/// model/clients/cache/api/window cell) the operators' queue figures must
/// not all be identical — the old artifact duplicated the run-wide total
/// into every row.
#[test]
fn queue_time_is_attributed_per_operator() {
    let points = load_points();
    let mut by_run: BTreeMap<(String, u64, String, String, String), Vec<u64>> = BTreeMap::new();
    for p in &points {
        by_run
            .entry((p.model.clone(), p.clients, p.cache.clone(), p.api.clone(), p.window.clone()))
            .or_default()
            .push(p.queue_us);
    }
    let mut differentiated = 0usize;
    for (run, queues) in &by_run {
        assert!(queues.len() >= 4, "operators missing from run {run:?}");
        if queues.iter().any(|q| q != &queues[0]) {
            differentiated += 1;
        }
    }
    assert!(
        differentiated * 10 >= by_run.len() * 9,
        "queue attribution looks run-wide again: only {differentiated}/{} runs differentiated",
        by_run.len()
    );
}
