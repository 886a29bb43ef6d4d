//! `--self-test`: every workload at tiny sizes, one op each, untraced and
//! traced. Checks the result line against `BENCHMARK.json` (exact keys,
//! every metric name with its unit, numeric values), that both runs of a
//! workload rendered the same report digest, and validates the traced
//! run's Chrome file with the repository's `tracecheck` binary.

use std::path::Path;
use std::process::{Command, ExitCode};

use campion_trace::json::{parse, Json};

use crate::{TempDir, WORKLOADS};

const SEED: &str = "7";

/// Metric `(name, unit)` list of one `BENCHMARK.json` section.
fn declared(doc: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {section} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {section} entry lacks {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Run one tiny workload; returns its provenance and result objects.
fn run_one(workload: &str, trace: bool, chrome: &Path) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", SEED, "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--tiny", "--chrome"])
        .arg(chrome)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = parse(lines.next().unwrap_or("")).map_err(|e| format!("result line: {e}"))?;
    let prov = parse(lines.next().unwrap_or("")).map_err(|e| format!("provenance line: {e}"))?;
    let prov = prov
        .get("provenance")
        .cloned()
        .ok_or("no provenance object")?;
    Ok((prov, result))
}

/// Check a result object's shape against the declared metrics.
fn check_result(result: &Json, want: &[(String, String)]) -> Result<(), String> {
    let Json::Obj(members) = result else {
        return Err("result is not an object".to_string());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("correct is not true".to_string());
    }
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
    if attempted < 1.0 || failed != 0.0 {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("metrics is not an object".to_string());
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
            (name.clone(), unit.to_string())
        })
        .collect();
    if got != want {
        return Err(format!("metrics {got:?}, declared {want:?}"));
    }
    for (name, m) in metrics {
        match m.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {name} has no finite value")),
        }
    }
    Ok(())
}

fn check_workload(workload: &str, doc: &Json, tmp: &Path, tracecheck: &Path) -> Result<(), String> {
    let chrome = tmp.join(format!("{workload}.trace.json"));
    let mut digests = Vec::new();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (prov, result) = run_one(workload, trace, &chrome)?;
        check_result(&result, &declared(doc, section)?)
            .map_err(|e| format!("trace {}: {e}", u8::from(trace)))?;
        digests.push(prov.get("report_digest").cloned());
    }
    if digests[0].is_none() || digests[0] != digests[1] {
        return Err(format!("report digests differ across runs: {digests:?}"));
    }
    let status = Command::new(tracecheck)
        .arg(&chrome)
        .status()
        .map_err(|e| format!("run {}: {e}", tracecheck.display()))?;
    if !status.success() {
        return Err(format!("tracecheck rejected {}", chrome.display()));
    }
    Ok(())
}

/// Run the self-test; exit 0 only if every workload passes.
pub fn run() -> ExitCode {
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| parse(&t).map_err(|e| format!("BENCHMARK.json: {e}")))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("self-test: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let tracecheck = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("tracecheck"),
        Err(e) => {
            eprintln!("self-test: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = match TempDir::new("selftest") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        match check_workload(w, &doc, &tmp.0, &tracecheck) {
            Ok(()) => println!("self-test {w}: ok"),
            Err(e) => {
                println!("self-test {w}: FAILED: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
