//! Per-layer metrics of the traced run.
//!
//! The benchmark wraps its calls into each crate's public functions in
//! spans of its own (`bench.*`); the program's existing spans
//! (`semdiff.*`, `headerloc.*`, `present.localize`, `item.*`) are recorded
//! alongside them because the collector is on for the traced run only.
//! Every per-layer metric is printed on every workload; a layer a
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

use campion_bdd::ManagerStats;
use campion_trace::{SpanRecord, Trace};

use crate::stats::Samples;

/// Every per-layer metric, with its unit, in output order. Must match the
/// `per_layer` list of `BENCHMARK.json` (the self-test checks it).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("cfg.parse_ios_s", "s"),
    ("cfg.parse_junos_s", "s"),
    ("cfg.parse_mb_per_s", "MB/s"),
    ("ir.lower_s", "s"),
    ("core.compare_s", "s"),
    ("core.render_s", "s"),
    ("headerloc.ddnf_s", "s"),
    ("headerloc.ddnf.close_s", "s"),
    ("headerloc.ddnf.edges_s", "s"),
    ("headerloc.ddnf.remainders_s", "s"),
    ("headerloc.localize_s", "s"),
    ("present.localize_s", "s"),
    ("semdiff.acl_paths_s", "s"),
    ("semdiff.enumerate_s", "s"),
    ("semdiff.align_s", "s"),
    ("semdiff.diff_s", "s"),
    ("semdiff.policy_paths_s", "s"),
    ("item.policy_pair_s", "s"),
    ("item.policy_pair_self_s", "s"),
    ("bdd.nodes", "count"),
    ("bdd.peak_nodes", "count"),
    ("bdd.apply_hit_rate", "ratio"),
    ("bdd.unique_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_pause_s", "s"),
    ("symbolic.rule_cache_hit_rate", "ratio"),
    ("semdiff.prune_ratio", "ratio"),
    ("core.diffs_reported", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("fleet.body_bytes", "bytes"),
    ("fleet.decode_s", "s"),
    ("fleet.server_ingest_s", "s"),
    ("fleet.http_other_s", "s"),
    ("fleet.store_load_s", "s"),
    ("fleet.query_service_ms", "ms"),
    ("fleet.query_wait_ms", "ms"),
    ("fleet.pairs_computed", "count"),
    ("fleet.pairs_cached", "count"),
    ("fleet.parses_skipped", "count"),
];

/// Per-op metric ← span name: the benchmark's outside spans and the
/// program's own, each summed per op.
const SPAN_METRICS: [(&str, &str); 17] = [
    ("cfg.parse_ios_s", "bench.parse_ios"),
    ("cfg.parse_junos_s", "bench.parse_junos"),
    ("ir.lower_s", "bench.lower"),
    ("core.compare_s", "bench.compare"),
    ("core.render_s", "bench.render"),
    ("headerloc.ddnf_s", "headerloc.ddnf"),
    ("headerloc.ddnf.close_s", "headerloc.ddnf.close"),
    ("headerloc.ddnf.edges_s", "headerloc.ddnf.edges"),
    ("headerloc.ddnf.remainders_s", "headerloc.ddnf.remainders"),
    ("headerloc.localize_s", "headerloc.localize"),
    ("present.localize_s", "present.localize"),
    ("semdiff.acl_paths_s", "semdiff.acl_paths"),
    ("semdiff.enumerate_s", "semdiff.enumerate"),
    ("semdiff.align_s", "semdiff.align"),
    ("semdiff.diff_s", "semdiff.diff"),
    ("semdiff.policy_paths_s", "semdiff.policy_paths"),
    ("item.policy_pair_s", "item.policy_pair"),
];

/// The outside spans that partition one op (`bench.op`'s children).
const OP_STEPS: [&str; 5] = [
    "bench.parse_ios",
    "bench.parse_junos",
    "bench.lower",
    "bench.compare",
    "bench.render",
];

/// Least share of an op's wall time the `bench.*` step spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.9;

/// Percentile of the traced ops' coverage that is reported and checked.
/// An op preempted between two steps on a shared host reads low although
/// the spans miss nothing (one `policy_fleet` op in 11 600 read 0.49); a
/// gap in the spans shows in every op alike.
const COVERAGE_PERCENTILE: f64 = 1.0;

/// Accumulates traced ops of the compare pipeline.
#[derive(Debug, Default)]
pub struct LayerAcc {
    ops: usize,
    span_s: BTreeMap<&'static str, f64>,
    policy_self_s: f64,
    /// Share of each traced op's wall time its step spans cover.
    coverage: Samples,
    parsed_bytes: f64,
    bdd: ManagerStats,
    diffs: usize,
    /// Chrome export of the first traced op.
    chrome: Option<String>,
}

impl LayerAcc {
    /// Fold in one traced op: its trace, its input size in bytes, the
    /// report's engine counters and difference count.
    pub fn add(&mut self, trace: &Trace, input_bytes: usize, bdd: &ManagerStats, diffs: usize) {
        if self.chrome.is_none() {
            self.chrome = Some(trace.chrome_json());
        }
        let spans = trace.spans();
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum()
        };
        for (metric, span) in SPAN_METRICS {
            *self.span_s.entry(metric).or_default() += total(span);
        }
        self.policy_self_s += spans
            .iter()
            .filter(|s| s.name == "item.policy_pair")
            .map(|p| self_ns(p, &spans) as f64 / 1e9)
            .sum::<f64>();
        let op = total("bench.op");
        if op > 0.0 {
            let covered: f64 = OP_STEPS.iter().map(|s| total(s)).sum();
            self.coverage.push(covered / op);
        }
        self.parsed_bytes += input_bytes as f64;
        self.bdd.merge(bdd);
        self.diffs += diffs;
        self.ops += 1;
    }

    /// The outside step spans must cover at least [`MIN_SPAN_COVERAGE`] of
    /// the traced ops' wall time, at [`COVERAGE_PERCENTILE`].
    pub fn coverage_ok(&self) -> Result<(), String> {
        let c = self.coverage.percentile(COVERAGE_PERCENTILE);
        if self.coverage.is_empty() {
            Err("no traced op recorded its step spans".to_string())
        } else if c < MIN_SPAN_COVERAGE {
            Err(format!(
                "step spans cover {c:.3} of an op at p{COVERAGE_PERCENTILE}, below {MIN_SPAN_COVERAGE}"
            ))
        } else {
            Ok(())
        }
    }

    /// The lowest coverage of any traced op.
    pub fn coverage_min(&self) -> f64 {
        self.coverage.percentile(0.0)
    }

    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Chrome trace of the first traced op.
    pub fn take_chrome(&mut self) -> Option<String> {
        self.chrome.take()
    }

    /// Per-op means of every compare-pipeline metric, into `out`.
    pub fn emit(&self, out: &mut BTreeMap<&'static str, f64>) {
        if self.ops == 0 {
            return;
        }
        let n = self.ops as f64;
        for (metric, _) in SPAN_METRICS {
            out.insert(metric, self.span_s[metric] / n);
        }
        out.insert("item.policy_pair_self_s", self.policy_self_s / n);
        let parse_s = self.span_s["cfg.parse_ios_s"] + self.span_s["cfg.parse_junos_s"];
        if parse_s > 0.0 {
            out.insert("cfg.parse_mb_per_s", self.parsed_bytes / 1e6 / parse_s);
        }
        let b = &self.bdd;
        out.insert("bdd.nodes", b.nodes as f64 / n);
        out.insert("bdd.peak_nodes", b.peak_nodes as f64 / n);
        out.insert("bdd.apply_hit_rate", b.apply_hit_rate());
        out.insert("bdd.unique_hit_rate", b.unique_hit_rate());
        out.insert("bdd.gc_runs", b.gc_runs as f64 / n);
        out.insert("bdd.gc_pause_s", b.gc_pause_us as f64 / 1e6 / n);
        out.insert("symbolic.rule_cache_hit_rate", b.rule_cache_hit_rate());
        let judged = b.pairs_pruned + b.pairs_examined;
        if judged > 0 {
            out.insert("semdiff.prune_ratio", b.pairs_pruned as f64 / judged as f64);
        }
        out.insert("core.diffs_reported", self.diffs as f64 / n);
        if !self.coverage.is_empty() {
            out.insert(
                "trace.span_coverage",
                self.coverage.percentile(COVERAGE_PERCENTILE),
            );
        }
    }
}

/// Self time of `parent`: its duration minus its direct children's.
fn self_ns(parent: &SpanRecord, spans: &[SpanRecord]) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| {
            s.track == parent.track
                && s.depth == parent.depth + 1
                && s.start_ns >= parent.start_ns
                && s.end_ns <= parent.end_ns
        })
        .map(SpanRecord::dur_ns)
        .sum();
    parent.dur_ns().saturating_sub(children)
}
