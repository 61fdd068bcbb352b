//! What one run reports: the end-to-end metrics, the per-layer metrics,
//! the failure tally, and the helpers that summarise timings.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Every end-to-end metric a run can print, with its unit, in print order.
/// A workload fills the ones that apply to it; the rest print as `n/a`.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("similar_ms_p50", "ms"),
    ("topn_ms_p50", "ms"),
    ("join_ms_p50", "ms"),
    ("query_ms_p95", "ms"),
    ("write_ms_p50", "ms"),
    ("write_ms_p95", "ms"),
    ("virt_ms_p50", "ms"),
    ("virt_ms_p95", "ms"),
    ("msgs_per_query", "count"),
    ("kib_per_query", "KiB"),
    ("failed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics every workload measures and that are never 0:
/// the ones the result line carries (and `BENCHMARK.json` lists).
pub const GATED: [&str; 6] =
    ["setup_s", "ops_per_s", "query_ms_p95", "msgs_per_query", "kib_per_query", "peak_rss_mb"];

/// Every per-layer metric, with its unit, in print order. Each traced run
/// reports all of them.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("storage.publish_ms", "ms"),
    ("storage.postings_per_row", "count"),
    ("storage.overhead_factor", "ratio"),
    ("overlay.build_ms", "ms"),
    ("overlay.retrieve_us", "us"),
    ("overlay.hops_per_route", "count"),
    ("overlay.insert_us_per_posting", "us"),
    ("overlay.stored_bytes_per_peer", "bytes"),
    ("strsim.comparisons_per_query", "count"),
    ("strsim.verify_ns", "ns"),
    ("strsim.grams_us", "us"),
    ("core.local_ms_per_query", "ms"),
    ("core.remote_ms_per_query", "ms"),
    ("core.step_share", "ratio"),
    ("core.steps_per_query", "count"),
    ("core.probes_per_query", "count"),
    ("core.candidates_per_query", "count"),
    ("core.candidate_yield", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.messages_saved_per_query", "count"),
    ("cache.admission_rejects", "count"),
    ("plan.prepare_us", "us"),
    ("vql.parse_us", "us"),
    ("sim.sink_calls_per_query", "count"),
    ("sim.sink_us_per_call", "us"),
    ("sim.virt_queue_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// The outcome of one workload run.
pub struct Run {
    pub workload: &'static str,
    pub why: &'static str,
    /// Workload sizes, printed as `name=value`.
    pub sizes: Vec<(&'static str, String)>,
    /// Wall time from the first measured operation to the last.
    pub window_s: f64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    /// One entry per failed operation.
    pub failures: Vec<String>,
    /// Exact totals that must repeat across runs of one seed:
    /// `(messages, bytes, operations)`.
    pub counts: (u64, u64, u64),
    /// Lines that describe the run beyond its metrics (calibration checks).
    pub notes: Vec<String>,
}

impl Run {
    pub fn new(workload: &'static str, why: &'static str) -> Self {
        Self {
            workload,
            why,
            sizes: Vec::new(),
            window_s: 0.0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
            counts: (0, 0, 0),
            notes: Vec::new(),
        }
    }

    pub fn size(&mut self, name: &'static str, value: impl ToString) {
        self.sizes.push((name, value.to_string()));
    }

    /// Record the per-query message and volume totals of the measured
    /// operations (exact counts, also kept for the determinism check).
    pub fn traffic(&mut self, messages: u64, bytes: u64, ops: u64) {
        let per = ops.max(1) as f64;
        self.e2e.insert("msgs_per_query", messages as f64 / per);
        self.e2e.insert("kib_per_query", bytes as f64 / 1024.0 / per);
        self.counts = (messages, bytes, ops);
    }

    /// Record a failed operation; `what` says which and why.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Nearest-rank percentile of `values` (`p` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Operations per second of a repeated mix, from each operation type's
/// median time (`ms_by_type[t]` holds every time of type `t`): the mix
/// runs once per round, and a slow or fast spell of the machine moves a
/// median less than a sum.
pub fn mix_rate(ms_by_type: &[Vec<f64>]) -> f64 {
    let round_ms: f64 = ms_by_type.iter().map(|ms| percentile(ms, 0.5)).sum();
    ratio(ms_by_type.len() as f64 * 1e3, round_ms)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process in MB, 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Render a metric value with all its digits, as JSON accepts it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(run: &Run, trace: bool, correct: bool) -> String {
    let metrics: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, run.layers.get(n).copied().unwrap_or(0.0))).collect()
    } else {
        GATED
            .iter()
            .map(|&n| {
                let unit = END_TO_END.iter().find(|(m, _)| *m == n).map_or("", |(_, u)| u);
                (n, unit, run.e2e.get(n).copied().unwrap_or(0.0))
            })
            .collect()
    };
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted.max(1),
        run.failures.len()
    )
    .expect("write to String");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
            .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// The human-readable table: every end-to-end metric (or `n/a`), and with
/// tracing every per-layer metric.
pub fn table(run: &Run, trace: bool) -> String {
    let mut s = String::new();
    for (name, unit) in END_TO_END {
        let gated = if GATED.contains(&name) { " *" } else { "" };
        match run.e2e.get(name) {
            Some(v) => writeln!(s, "  {name:<32} {v:>14.4} {unit}{gated}"),
            None => writeln!(s, "  {name:<32} {:>14} {unit}", "n/a"),
        }
        .expect("write to String");
    }
    if trace {
        for (name, unit) in PER_LAYER {
            let v = run.layers.get(name).copied().unwrap_or(0.0);
            writeln!(s, "  {name:<32} {v:>14.4} {unit}").expect("write to String");
        }
    }
    s
}
