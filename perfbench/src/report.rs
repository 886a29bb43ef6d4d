//! What a run reports: the result line (`correct`, `attempted`, `failed`, `metrics`),
//! the descriptive metrics with their sample counts, and provenance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use campion_trace::json::escape;

use crate::seeds::SeedLog;

/// Failure messages kept for the provenance line (all are counted).
const FAILURES_KEPT: usize = 10;

/// One named measurement with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (for a tail: the whole population).
    pub n: usize,
    /// Free-form qualifier, e.g. which percentile a tail is.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics for the result line (end-to-end or per-layer).
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Every metric the workload defines, by its descriptive name.
    pub named: Vec<Named>,
    /// Per-layer values keyed by metric name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    pub seeds: SeedLog,
    /// Extra provenance, as `(key, raw JSON value)`.
    pub notes: Vec<(String, String)>,
    /// Chrome trace of one traced op (self-test validates it).
    pub chrome: Option<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Count one checked operation; `Err` counts it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Record a failed check that is already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(msg);
        }
    }

    pub fn named(&mut self, name: &str, unit: &'static str, value: f64, n: usize, note: &str) {
        self.named.push(Named {
            name: name.to_string(),
            unit,
            value,
            n,
            note: note.to_string(),
        });
    }

    pub fn note(&mut self, key: &str, raw_json: String) {
        self.notes.push((key.to_string(), raw_json));
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every metric by name with unit and count.
    pub fn human(&self) -> String {
        let mut o = format!("workload {}\n", self.workload);
        for m in &self.named {
            let _ = writeln!(
                o,
                "  {:<24} {:>14.6} {:<6} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.n,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                }
            );
        }
        let _ = writeln!(
            o,
            "  {:<24} {:>14.6} {:<6} failed={} attempted={}",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(o, "  FAILED: {f}");
        }
        o
    }

    /// The provenance line: `{"provenance": {...}}`.
    pub fn provenance(&self, base: &[(String, String)]) -> String {
        let mut fields: Vec<String> = base
            .iter()
            .chain(self.notes.iter())
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        fields.push(format!("\"seeds_used\": {}", u64_list(&self.seeds.used)));
        fields.push(format!(
            "\"seeds_rejected\": {}",
            u64_list(&self.seeds.rejected)
        ));
        let named: Vec<String> = self
            .named
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"note\": \"{}\"}}",
                    escape(&m.name),
                    num(m.value),
                    m.unit,
                    m.n,
                    escape(&m.note)
                )
            })
            .collect();
        fields.push(format!("\"metrics_detail\": {{{}}}", named.join(", ")));
        fields.push(format!(
            "\"error_rate\": {{\"value\": {}, \"failed\": {}, \"attempted\": {}}}",
            num(self.error_rate()),
            self.failed,
            self.attempted
        ));
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        fields.push(format!("\"failures\": [{}]", failures.join(", ")));
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line, the last line a run prints.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    escape(name),
                    num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn u64_list(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}
