//! perfbench — the repository benchmark: end-to-end and per-layer
//! measurements of the Campion pipeline and of `campion-fleetd`.
//!
//! ```text
//! perfbench --workload <acl_scale|policy_fleet|fleet_serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds the daemon and this
//! binary first. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! provenance. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See `perfbench/README.md`.

mod compare;
mod fleet;
mod hostspeed;
mod layers;
mod pipeline;
mod report;
mod seeds;
mod selftest;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::num;

/// Set-ups per run of a compare workload; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["acl_scale", "policy_fleet", "fleet_serve"];

/// Compare jobs in-process and `--jobs` of the daemon.
pub const JOBS: usize = 1;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and one measured op (self-test only).
    pub tiny: bool,
    /// Where to write the traced run's Chrome file, if anywhere.
    pub chrome: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <acl_scale|policy_fleet|fleet_serve> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn parse_args() -> Result<Option<RunCfg>, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        chrome: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--self-test" => return Ok(None),
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => cfg.tiny = true,
            "--chrome" => cfg.chrome = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return selftest::run(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match cfg.workload.as_str() {
        "fleet_serve" => match fleet::run(&cfg) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: fleet_serve: {e}");
                return ExitCode::from(2);
            }
        },
        _ => compare::run(&cfg),
    };
    if rep.attempted == 0 {
        eprintln!("perfbench: {}: no operation completed", cfg.workload);
        return ExitCode::from(2);
    }
    if cfg.trace {
        rep.metrics = layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    unit,
                    rep.layers.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect();
        if let (Some(path), Some(chrome)) = (&cfg.chrome, &rep.chrome) {
            if let Err(e) = std::fs::write(path, chrome) {
                eprintln!("perfbench: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    print!("{}", rep.human());
    if cfg.trace {
        for (name, unit, v) in &rep.metrics {
            println!("  {name:<30} {:>16} {unit}", num(*v));
        }
    }
    let mut base = provenance(&cfg);
    if let Some(r) = rep.layers.get("trace.overhead_ratio") {
        base.push(("trace_overhead_ratio".into(), num(*r)));
    }
    println!("{}", rep.provenance(&base));
    println!("{}", rep.result_line());
    ExitCode::SUCCESS
}

/// Provenance common to every result.
fn provenance(cfg: &RunCfg) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("workload".into(), format!("\"{}\"", cfg.workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), num(cfg.seconds)),
        ("trace".into(), cfg.trace.to_string()),
        ("tiny".into(), cfg.tiny.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("jobs".into(), JOBS.to_string()),
        ("git_rev".into(), format!("\"{}\"", git_rev())),
        (
            "source_digest".into(),
            format!("\"{:016x}\"", source_digest(Path::new("crates"))),
        ),
    ]
}

/// The checkout's git revision, or `"unknown"` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV digest over every file under `dir` (sorted paths), so a result
/// names the program source it measured even outside a git work tree.
fn source_digest(dir: &Path) -> u64 {
    use campion_ir::hash::{fnv1a64, fnv1a64_combine};
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    files.iter().fold(fnv1a64(b"src"), |acc, p| {
        let body = std::fs::read(p).unwrap_or_default();
        fnv1a64_combine(
            fnv1a64_combine(acc, fnv1a64(p.to_string_lossy().as_bytes())),
            fnv1a64(&body),
        )
    })
}

/// Peak resident set (`VmHWM`) of a process, in MB; `"self"` for this one.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb("self").unwrap_or(0.0)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run's directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
