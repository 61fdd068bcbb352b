//! Acceptance pins on the committed `BENCH_simscale.json`:
//!
//! * the build sweep reaches 10⁵ peers and the arena-backed overlay
//!   stays under a third of the seed's 5 649 B/peer resident footprint,
//! * the event-core sweep drives the 10³-query workload, and the sharded
//!   windowed core (shards ≥ 2, single-threaded) beats the serial heap
//!   baseline by ≥ 1.5× events/sec,
//! * every engine configuration produced the same `ScaleOutcome`
//!   (`deterministic: true`, equal checksums),
//! * the `sim.*` metric gauges are wired into the artifact.
//!
//! The committed file is a deterministic-workload run of
//! `cargo run --release -p sqo-bench --bin simscale`; regenerate it
//! whenever overlay state or event-core economics change.

use sqo_obs::{parse_json, Json};

/// One `builds[]` entry.
#[derive(Debug)]
struct Build {
    peers: u64,
    rss_per_peer_bytes: u64,
}

/// One `scale[]` entry.
#[derive(Debug)]
struct Scale {
    mode: String,
    shards: u64,
    queries: u64,
    queries_done: u64,
    events_per_sec: f64,
    /// Kept as the parsed number: equal artifact text parses to equal
    /// values, and exact equality is all the checksum pin needs.
    checksum: f64,
}

/// Top-level scalars plus the two point lists.
#[derive(Debug)]
struct Report {
    schema_version: u64,
    seed_rss_per_peer_bytes: u64,
    deterministic: bool,
    builds: Vec<Build>,
    scale: Vec<Scale>,
    /// Every metric name in the registry (gauges, counters and histogram
    /// keys alike).
    gauges: Vec<String>,
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("field {key}"))
}

fn load_report() -> Report {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_simscale.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_simscale.json");
    let a = parse_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let points = |key: &str| -> &[Json] {
        a.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("{key} array"))
    };
    let r = Report {
        schema_version: num(&a, "schema_version") as u64,
        seed_rss_per_peer_bytes: num(&a, "seed_rss_per_peer_bytes") as u64,
        deterministic: a.get("deterministic").and_then(Json::as_bool) == Some(true),
        builds: points("builds")
            .iter()
            .map(|b| Build {
                peers: num(b, "peers") as u64,
                rss_per_peer_bytes: num(b, "rss_per_peer_bytes") as u64,
            })
            .collect(),
        scale: points("scale")
            .iter()
            .map(|s| Scale {
                mode: s.get("mode").and_then(Json::as_str).expect("mode").to_string(),
                shards: num(s, "shards") as u64,
                queries: num(s, "queries") as u64,
                queries_done: num(s, "queries_done") as u64,
                events_per_sec: num(s, "events_per_sec"),
                checksum: num(s, "checksum"),
            })
            .collect(),
        gauges: ["gauges", "counters", "histograms"]
            .iter()
            .filter_map(|kind| a.path(&["metrics", kind]).and_then(Json::as_object))
            .flat_map(|m| m.keys().cloned())
            .collect(),
    };
    assert_eq!(r.schema_version, 1, "artifact must carry schema_version 1 (envelope shape)");
    assert!(!r.builds.is_empty() && !r.scale.is_empty(), "no points parsed from {path}");
    r
}

/// The headline RSS claim: 10⁵ peers on board, and the arena overlay
/// holds at most a third of the seed's per-peer resident footprint.
#[test]
fn overlay_rss_per_peer_beats_seed_by_3x() {
    let r = load_report();
    let big = r.builds.iter().find(|b| b.peers >= 100_000).expect("a 10^5-peer build point");
    assert_eq!(r.seed_rss_per_peer_bytes, 5_649, "seed baseline recorded in the artifact");
    assert!(
        big.rss_per_peer_bytes <= r.seed_rss_per_peer_bytes / 3,
        "rss {} B/peer exceeds a third of the {} B/peer seed",
        big.rss_per_peer_bytes,
        r.seed_rss_per_peer_bytes
    );
}

/// The headline throughput claim: on one core, the windowed sharded core
/// beats the serial heap baseline by ≥ 1.5× events/sec at shards ≥ 2.
#[test]
fn sharded_core_beats_serial_by_1_5x() {
    let r = load_report();
    let serial = r.scale.iter().find(|s| s.mode == "serial").expect("a serial baseline point");
    assert_eq!(serial.queries, 1_000, "the 10^3-query sweep");
    assert!(serial.events_per_sec > 0.0);
    let sharded: Vec<_> = r.scale.iter().filter(|s| s.mode == "sharded" && s.shards >= 2).collect();
    assert!(sharded.len() >= 2, "sharded sweep covers at least two shard counts");
    for s in &sharded {
        assert!(
            s.events_per_sec >= 1.5 * serial.events_per_sec,
            "shards={} only reached {:.2}x serial",
            s.shards,
            s.events_per_sec / serial.events_per_sec
        );
    }
}

/// Determinism: the artifact's engines all agreed, every query completed,
/// and all configurations carry the same outcome checksum.
#[test]
fn all_engines_agreed_and_completed() {
    let r = load_report();
    assert!(r.deterministic, "engines diverged in the committed run");
    let first = &r.scale[0];
    assert_eq!(first.queries_done, first.queries, "all queries completed");
    for s in &r.scale {
        assert_eq!(s.queries_done, first.queries_done);
        assert_eq!(s.checksum, first.checksum, "outcome checksum differs for {s:?}");
    }
}

/// The `sim.*` gauges are folded into the artifact's metrics registry —
/// including the per-shard telemetry of the windowed core (occupancy,
/// imbalance, conservative-window stalls, and the
/// events-per-shard histogram).
#[test]
fn sim_metrics_are_exported() {
    let r = load_report();
    for g in [
        "sim.events_per_sec",
        "sim.rss_peak_bytes",
        "sim.rss_per_peer_bytes",
        "sim.shard.count",
        "sim.shard.events_max",
        "sim.shard.events_min",
        "sim.shard.imbalance",
        "sim.shard.windows_swept",
        "sim.shard.empty_windows",
        "sim.shard.events",
    ] {
        assert!(r.gauges.iter().any(|x| x == g), "metric {g} missing from registry");
    }
}
