//! The `fleet_serve` workload: the real `campion-fleetd` binary as a
//! child process over loopback.
//!
//! 1. Set-up, repeated: generate the fleet snapshot (8 pairs of 100-rule
//!    Capirca ACLs, a ≈234 KB POST body) and the in-process reference
//!    reports, start the daemon on a fresh store and a free port, and wait
//!    until it answers. Each set-up is followed by a cold ingest through
//!    `POST /api/v1/snapshot`.
//! 2. Warm phase: every [`INGEST_PERIOD_S`] a warm ingest toggles the
//!    `fleet::gen` perturbation on one router, while an open-loop reader
//!    sends `GET …/pair/{a}/{b}/text` at [`QUERY_HZ`] and `GET /metrics`
//!    every [`SCRAPE_PERIOD_S`]. Each query is timed from when it was due.
//! 3. Resume, repeated: shut the daemon down and restart it over the
//!    store it left behind.
//!
//! The traffic mix is a synthetic assumption: neither the paper nor the
//! repository records fleetd traffic. Each rate below follows from one
//! stated need of a 30-second run (`run_seconds` in `BENCHMARK.json`).
//!
//! A daemon that fails to start, ingest, shut down or restart is a failed
//! check: the run stops that phase and still reports what it measured.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use campion_fleet::gen::PERTURB_LINE;
use campion_fleet::http::request;
use campion_fleet::{Daemon, SnapshotInput};
use campion_trace::json::{parse, Json};

use crate::compare::acl_pairs;
use crate::hostspeed::{HostSpeed, Timed};
use crate::layers::LayerAcc;
use crate::pipeline::{run_op, Pair};
use crate::report::Report;
use crate::seeds::{derive, SeedLog};
use crate::stats::{Samples, TAIL_MIN_BEYOND};
use crate::{vm_hwm_mb, RunCfg, TempDir, JOBS};

/// Router pairs in the fleet snapshot.
const FLEET_PAIRS: usize = 8;
/// Rules per ACL. With 8 pairs this makes a ≈234 KB snapshot body; do not
/// shrink it, or the quadratic snapshot decode stops showing.
const FLEET_RULES: usize = 100;
/// Injected differences per pair.
const FLEET_DIFFS: usize = 10;
/// Set-ups (each followed by one cold ingest) per run.
const COLD_REPEATS: usize = 5;
/// Daemon restarts per run; `resume_s` is their median.
const RESUME_REPEATS: usize = 3;
/// Seconds between warm-ingest starts. Assumed: a collector pushes a
/// snapshot whenever one router changes, compressed so that a 30-second
/// run toggles each of the [`FLEET_PAIRS`] pairs once: 30 s / 8 = 3.75 s,
/// rounded up to whole seconds, gives ⌈30 / 4⌉ = 8 warm ingests.
const INGEST_PERIOD_S: f64 = 4.0;
/// Offered rate of pair-text reads, per second, round-robin over the
/// pairs (assumed: operators read every pair alike). Set so a 30-second
/// run makes 1000 reads, the fewest for which the read tail is a p99 with
/// [`TAIL_MIN_BEYOND`] samples beyond it.
const QUERY_HZ: f64 = TAIL_MIN_BEYOND / (1.0 - 0.99) / 30.0;
/// Seconds between `/metrics` scrapes: the interval of Prometheus's
/// example configuration (its built-in default is one minute).
const SCRAPE_PERIOD_S: f64 = 15.0;
/// Sequential queries on an idle daemon for the service-time baseline.
const IDLE_QUERIES: usize = 40;

/// The generated fleet and its known answers.
struct Fleet {
    pairs: Vec<Pair>,
    /// `expected[p][perturbed]`: the text report of pair `p`.
    expected: Vec<[String; 2]>,
}

impl Fleet {
    fn router_names(p: usize) -> (String, String) {
        (format!("r{p:02}-cisco"), format!("r{p:02}-juniper"))
    }

    /// The snapshot with the given routers' perturbation applied.
    fn snapshot(&self, name: &str, perturbed: &[bool]) -> SnapshotInput {
        let mut configs = std::collections::BTreeMap::new();
        let mut manifest = Vec::new();
        for (p, pair) in self.pairs.iter().enumerate() {
            let (c, j) = Fleet::router_names(p);
            let mut cisco = pair.cisco.clone();
            if perturbed[p] {
                cisco.push_str(PERTURB_LINE);
            }
            configs.insert(c.clone(), cisco);
            configs.insert(j.clone(), pair.juniper.clone());
            manifest.push((c, j));
        }
        SnapshotInput {
            name: name.to_string(),
            configs,
            pairs: manifest,
        }
    }
}

/// Generate the fleet and compute every reference report in-process
/// (traced into `layers` when given).
fn make_fleet(
    cfg: &RunCfg,
    layers: Option<&mut LayerAcc>,
    overhead: &mut (Samples, Samples),
) -> Result<(Fleet, SeedLog), String> {
    let (count, rules) = if cfg.tiny {
        (2, 20)
    } else {
        (FLEET_PAIRS, FLEET_RULES)
    };
    let mut log = SeedLog::default();
    let pairs = acl_pairs(&mut log, derive(cfg.seed, 3), count, rules, FLEET_DIFFS);
    let mut expected = Vec::new();
    let mut layers = layers;
    for pair in &pairs {
        let mut texts: [String; 2] = Default::default();
        for (perturbed, text) in texts.iter_mut().enumerate() {
            let mut p = pair.clone();
            if perturbed == 1 {
                p.cisco.push_str(PERTURB_LINE);
            }
            let o = run_op(&p, false)?;
            if !o.verdict_ok(&p) {
                return Err(format!(
                    "{}: reference verdict contradicts the generator",
                    p.name
                ));
            }
            if let Some(acc) = layers.as_deref_mut() {
                overhead.0.push(o.wall_s);
                let t = run_op(&p, true)?;
                overhead.1.push(t.wall_s);
                if t.digest != o.digest {
                    return Err(format!("{}: traced report differs from untraced", p.name));
                }
                if let Some(trace) = &t.trace {
                    acc.add(trace, p.bytes(), &t.bdd, t.diffs);
                }
            }
            *text = o.text;
        }
        expected.push(texts);
    }
    Ok((Fleet { pairs, expected }, log))
}

/// Digest of every reference report of a fleet.
fn reports_digest(fleet: &Fleet) -> u64 {
    use campion_ir::hash::{fnv1a64, fnv1a64_combine};
    fleet
        .expected
        .iter()
        .flatten()
        .fold(0, |acc, t| fnv1a64_combine(acc, fnv1a64(t.as_bytes())))
}

/// A running `campion-fleetd`. Dropping it kills and reaps the process,
/// so no exit path — a panic included — leaves a daemon behind.
struct Fleetd {
    child: Child,
    addr: String,
    /// Held open so the daemon's later stdout writes never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Fleetd {
    /// Start the daemon over `store` on a free loopback port and wait
    /// until it answers `GET /api/v1/status`.
    fn start(bin: &Path, store: &Path) -> Result<Fleetd, String> {
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--jobs", &JOBS.to_string()])
            .args(["--log-level", "error"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut daemon = Fleetd {
            child,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        match daemon.get("/api/v1/status")? {
            (200, _) => Ok(daemon),
            (status, body) => Err(format!("status check: HTTP {status}: {body}")),
        }
    }

    fn get(&self, path: &str) -> Result<(u16, String), String> {
        request(self.addr.as_str(), "GET", path, None)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the daemon to exit cleanly (it then releases its store lock)
    /// and reap it.
    fn shutdown(mut self) -> Result<(), String> {
        request(self.addr.as_str(), "POST", "/api/v1/shutdown", None)?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Fleetd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon binary, built next to this one by `run.sh`.
fn fleetd_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("campion-fleetd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; run the benchmark through perfbench/run.sh",
            bin.display()
        ))
    }
}

/// The parsed body of a successful ingest.
struct Summary {
    computed: f64,
    cached: f64,
    parses_skipped: f64,
    elapsed_s: f64,
}

/// POST one snapshot; returns the summary and the client wall seconds.
fn ingest(d: &Fleetd, body: &str) -> Result<(Summary, f64), String> {
    let t = Instant::now();
    let (status, text) = request(d.addr.as_str(), "POST", "/api/v1/snapshot", Some(body))?;
    let wall = t.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("ingest: HTTP {status}: {}", text.trim()));
    }
    let doc = parse(&text).map_err(|e| format!("ingest summary: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("ingest summary lacks {k}"))
    };
    Ok((
        Summary {
            computed: field("pairs_computed")?,
            cached: field("pairs_cached")?,
            parses_skipped: field("router_parses_skipped")?,
            elapsed_s: field("elapsed_ns")? / 1e9,
        },
        wall,
    ))
}

/// Check every pair's served text against the reference for `perturbed`.
fn check_all_texts(d: &Fleetd, fleet: &Fleet, perturbed: &[bool], rep: &mut Report) {
    for (p, (texts, &perturbed)) in fleet.expected.iter().zip(perturbed).enumerate() {
        let (a, b) = Fleet::router_names(p);
        let want = &texts[usize::from(perturbed)];
        rep.check(match d.get(&format!("/api/v1/pair/{a}/{b}/text")) {
            Ok((200, body)) if &body == want => Ok(()),
            Ok((200, _)) => Err(format!(
                "pair {p}: served text differs from in-process compare"
            )),
            Ok((s, body)) => Err(format!("pair {p}: HTTP {s}: {}", body.trim())),
            Err(e) => Err(format!("pair {p}: {e}")),
        });
    }
}

/// Was pair `p` perturbed after `g` warm ingests (ingest `i` toggles pair
/// `i % pairs`)?
fn perturbed_after(g: u64, p: usize, pairs: usize) -> bool {
    (0..g).filter(|&i| i as usize % pairs == p).count() % 2 == 1
}

/// What the open-loop reader saw.
#[derive(Default)]
struct Reads {
    latency_ms: Samples,
    /// Latency of the reads whose due-to-answer interval overlaps no
    /// ingest: the read path on its own.
    clear_ms: Samples,
    late_ms: Samples,
    attempted: u64,
    failures: Vec<String>,
}

/// The open-loop reader: pair reads due every `1 / QUERY_HZ` seconds from
/// `t0` until `end`, with a `/metrics` scrape in place of the read due
/// every [`SCRAPE_PERIOD_S`]. `started`/`done` count warm ingests, so a
/// served text is checked against every state the daemon may have been
/// in.
fn reader(
    d: &Fleetd,
    fleet: &Fleet,
    t0: Instant,
    end: f64,
    started: &AtomicU64,
    done: &AtomicU64,
) -> (Reads, Vec<(f64, f64)>) {
    let mut r = Reads::default();
    let mut spans = Vec::new();
    let n = fleet.pairs.len();
    let scrape_every = (QUERY_HZ * SCRAPE_PERIOD_S).round() as u64;
    for k in 0u64.. {
        let due_s = k as f64 / QUERY_HZ;
        if due_s >= end {
            break;
        }
        let due = t0 + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        r.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let g_lo = done.load(Ordering::SeqCst);
        let result = if k % scrape_every == 0 {
            match d.get("/metrics") {
                Ok((200, body)) if body.contains("campion_fleet") => Ok(()),
                Ok((s, _)) => Err(format!("/metrics: HTTP {s} or empty exposition")),
                Err(e) => Err(format!("/metrics: {e}")),
            }
        } else {
            let p = k as usize % n;
            let (a, b) = Fleet::router_names(p);
            match d.get(&format!("/api/v1/pair/{a}/{b}/text")) {
                Ok((200, body)) => {
                    let g_hi = started.load(Ordering::SeqCst);
                    if (g_lo..=g_hi)
                        .any(|g| body == fleet.expected[p][usize::from(perturbed_after(g, p, n))])
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "pair {p}: served text differs from in-process compare"
                        ))
                    }
                }
                Ok((s, body)) => Err(format!("pair {p}: HTTP {s}: {}", body.trim())),
                Err(e) => Err(format!("pair {p}: {e}")),
            }
        };
        let done_s = t0.elapsed().as_secs_f64();
        r.latency_ms.push((done_s - due_s).max(0.0) * 1e3);
        spans.push((due_s, done_s));
        r.attempted += 1;
        if let Err(e) = result {
            r.failures.push(e);
        }
    }
    (r, spans)
}

/// Copy the snapshot documents of `from` (not its lock or flight dumps).
fn copy_snapshots(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for e in entries.flatten() {
        let name = e.file_name();
        if name.to_string_lossy().starts_with("snap-") {
            std::fs::copy(e.path(), to.join(&name)).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// Everything a run measured. It outlives a failing daemon, so the
/// result line still reports what was seen before the failure.
#[derive(Default)]
struct Measured {
    setup: Vec<Timed>,
    cold: Samples,
    warm: Vec<Timed>,
    /// Computed, cached and skipped-parse counts of each warm ingest.
    warm_counts: (Samples, Samples, Samples),
    /// Decode, server ingest and HTTP remainder of each warm ingest.
    breakdown: (Samples, Samples, Samples),
    body_bytes: Samples,
    reads: Reads,
    /// Due to answer of each read, with its latency.
    read_spans: Vec<Timed>,
    service: Samples,
    store_load: Samples,
    resume: Samples,
    rss_mb: f64,
    layers: LayerAcc,
    /// Untraced and traced wall time of the reference compares.
    overhead: (Samples, Samples),
}

/// Run `fleet_serve`. Only harness problems (no daemon binary, no scratch
/// directory) are an `Err`; everything the daemon does is checked.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let bin = fleetd_bin()?;
    let tmp = TempDir::new("fleet")?;
    let mut rep = Report::new(&cfg.workload);
    let mut m = Measured::default();
    // Decode, the bulk of an ingest, streams over a cache-resident body.
    let mut host = HostSpeed::small();
    if let Err(e) = serve(cfg, &bin, &tmp.0, &mut rep, &mut m, &mut host) {
        rep.check(Err(e));
    }
    drop(tmp);
    summarize(cfg, &mut rep, m, &host);
    Ok(rep)
}

/// The three phases; returns at the first failure that ends the run.
fn serve(
    cfg: &RunCfg,
    bin: &Path,
    tmp: &Path,
    rep: &mut Report,
    m: &mut Measured,
    host: &mut HostSpeed,
) -> Result<(), String> {
    // 1. Set-ups, each followed by a cold ingest. Every set-up must
    // regenerate the same fleet.
    let mut live: Option<(Fleetd, Fleet, PathBuf)> = None;
    let mut first_digest = None;
    let repeats = if cfg.tiny { 1 } else { COLD_REPEATS };
    for k in 0..repeats {
        let store = tmp.join(format!("store-{k}"));
        host.tick();
        let t = Instant::now();
        let (fleet, log) = make_fleet(cfg, cfg.trace.then_some(&mut m.layers), &mut m.overhead)?;
        let body = fleet
            .snapshot("cold", &vec![false; fleet.pairs.len()])
            .to_json();
        let d = Fleetd::start(bin, &store).map_err(|e| format!("start {k}: {e}"))?;
        m.setup.push(Timed {
            from: t,
            to: Instant::now(),
            secs: t.elapsed().as_secs_f64(),
        });
        rep.seeds = log;
        let digest = reports_digest(&fleet);
        if *first_digest.get_or_insert(digest) != digest {
            rep.check(Err("repeated set-up produced a different fleet".to_string()));
        }
        if k == 0 {
            rep.note("cold_body_bytes", body.len().to_string());
            rep.note("report_digest", format!("\"{digest:016x}\""));
        }

        let (s, wall) = ingest(&d, &body).map_err(|e| format!("cold ingest {k}: {e}"))?;
        m.cold.push(wall);
        rep.check(if s.computed as usize == fleet.pairs.len() {
            Ok(())
        } else {
            Err(format!("cold ingest computed {} pairs", s.computed))
        });
        check_all_texts(&d, &fleet, &vec![false; fleet.pairs.len()], rep);
        if k + 1 < repeats {
            d.shutdown()?;
        } else {
            live = Some((d, fleet, store));
        }
    }
    let (d, fleet, store) = live.expect("at least one set-up");
    let n = fleet.pairs.len();
    rep.note("pairs", n.to_string());

    // Idle service time (traced run): sequential queries, nothing else
    // in flight.
    if cfg.trace {
        for k in 0..if cfg.tiny { 1 } else { IDLE_QUERIES } {
            let (a, b) = Fleet::router_names(k % n);
            let t = Instant::now();
            let got = d.get(&format!("/api/v1/pair/{a}/{b}/text"));
            m.service.push(t.elapsed().as_secs_f64() * 1e3);
            rep.check(match got {
                Ok((200, body)) if body == fleet.expected[k % n][0] => Ok(()),
                Ok(_) => Err(format!("idle query for pair {}: wrong response", k % n)),
                Err(e) => Err(e),
            });
        }
    }

    // 2. Warm phase: periodic warm ingests beside the open-loop reader.
    let started = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    // Start and end of each warm ingest, in seconds since `t0`, as the
    // client saw them.
    let mut windows = Vec::new();
    // Body, client wall and server time of each warm ingest (traced run).
    let mut sent = Vec::new();
    let mut perturbed = vec![false; n];
    let ingests = if cfg.tiny {
        1
    } else {
        ((cfg.seconds / INGEST_PERIOD_S).ceil() as usize).max(1)
    };
    host.tick();
    let t0 = Instant::now();
    let (reads, read_spans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(&d, &fleet, t0, cfg.seconds, &started, &done));
        for i in 0..ingests {
            // Between ingests the host-speed kernel runs on this thread.
            host.idle_until(t0 + Duration::from_secs_f64(i as f64 * INGEST_PERIOD_S));
            perturbed[i % n] = !perturbed[i % n];
            let body = fleet.snapshot(&format!("warm-{i}"), &perturbed).to_json();
            let from = Instant::now();
            started.fetch_add(1, Ordering::SeqCst);
            let result = ingest(&d, &body);
            done.fetch_add(1, Ordering::SeqCst);
            let to = Instant::now();
            windows.push((
                from.duration_since(t0).as_secs_f64(),
                to.duration_since(t0).as_secs_f64(),
            ));
            let (s, wall) = match result {
                Ok(v) => v,
                Err(e) => {
                    rep.check(Err(format!("warm ingest {i}: {e}")));
                    continue;
                }
            };
            m.warm.push(Timed {
                from,
                to,
                secs: wall,
            });
            m.body_bytes.push(body.len() as f64);
            m.warm_counts.0.push(s.computed);
            m.warm_counts.1.push(s.cached);
            m.warm_counts.2.push(s.parses_skipped);
            let want = (1.0, (n - 1) as f64, (2 * n - 1) as f64);
            rep.check(if (s.computed, s.cached, s.parses_skipped) == want {
                Ok(())
            } else {
                Err(format!(
                    "warm ingest {i}: computed/cached/skipped {}/{}/{}, want {}/{}/{}",
                    s.computed, s.cached, s.parses_skipped, want.0, want.1, want.2
                ))
            });
            if cfg.trace {
                sent.push((body, wall, s.elapsed_s));
            }
        }
        reader.join().expect("reader thread")
    });
    // The daemon's decode cost, re-measured in-process on the exact body
    // it was sent, once the reader and the daemon are quiet.
    for (body, wall, server_s) in sent {
        let t = Instant::now();
        let decoded = SnapshotInput::from_json(&body);
        let decode_s = t.elapsed().as_secs_f64();
        rep.check(match decoded {
            Ok(inp) if inp.configs.len() == 2 * n => Ok(()),
            Ok(_) => Err("decoded snapshot lost routers".to_string()),
            Err(e) => Err(format!("decode: {e}")),
        });
        m.breakdown.0.push(decode_s);
        m.breakdown.1.push(server_s);
        m.breakdown.2.push(wall - decode_s - server_s);
    }
    m.reads = reads;
    let at = |s: f64| t0 + Duration::from_secs_f64(s);
    m.read_spans = read_spans
        .iter()
        .map(|&(due_s, done_s)| Timed {
            from: at(due_s),
            to: at(done_s),
            secs: (done_s - due_s).max(0.0),
        })
        .collect();
    for &(due_s, done_s) in &read_spans {
        if windows.iter().all(|&(a, b)| done_s < a || due_s > b) {
            m.reads.clear_ms.push((done_s - due_s).max(0.0) * 1e3);
        }
    }
    rep.attempted += m.reads.attempted;
    for f in std::mem::take(&mut m.reads.failures) {
        rep.fail(f);
    }
    check_all_texts(&d, &fleet, &perturbed, rep);
    m.rss_mb = vm_hwm_mb(&d.pid()).unwrap_or(0.0);

    // Store load, in-process on a copy (the live store is locked).
    if cfg.trace {
        for k in 0..RESUME_REPEATS {
            let copy = tmp.join(format!("copy-{k}"));
            copy_snapshots(&store, &copy)?;
            let t = Instant::now();
            let opened = Daemon::open(&copy, campion_core::CampionOptions::default());
            m.store_load.push(t.elapsed().as_secs_f64());
            rep.check(match opened {
                Ok(daemon) if daemon.latest().is_some() => Ok(()),
                Ok(_) => Err("store copy loaded without a snapshot".to_string()),
                Err(e) => Err(format!("store load: {e}")),
            });
        }
    }
    d.shutdown()?;

    // 3. Resume: restart over the store left behind.
    for k in 0..if cfg.tiny { 1 } else { RESUME_REPEATS } {
        let t = Instant::now();
        let d = Fleetd::start(bin, &store).map_err(|e| format!("restart {k}: {e}"))?;
        m.resume.push(t.elapsed().as_secs_f64());
        check_all_texts(&d, &fleet, &perturbed, rep);
        d.shutdown()?;
    }
    Ok(())
}

/// Name every measurement and fill the result metrics.
fn summarize(cfg: &RunCfg, rep: &mut Report, m: Measured, host: &HostSpeed) {
    let Measured {
        setup,
        cold,
        warm,
        warm_counts,
        breakdown,
        body_bytes,
        reads,
        read_spans,
        service,
        store_load,
        resume,
        rss_mb,
        mut layers,
        overhead,
    } = m;
    let (tail_p, tail) = reads.latency_ms.tail();
    let (clear_p, clear_tail) = reads.clear_ms.tail();
    let q_n = reads.latency_ms.len();
    // The gated timings are wall times at the reference host speed (see
    // `hostspeed`): set-up, ingest and the reads queued behind an ingest
    // are all CPU-bound on this host.
    let setup_s = host.all_at_reference(&setup).median();
    let work_s = host.all_at_reference(&warm).median();
    let response_ms = host.all_at_reference(&read_spans).percentile(tail_p) * 1e3;
    let warm_wall: Samples = warm.iter().map(|t| t.secs).collect();
    rep.named(
        "setup_s",
        "s",
        setup_s,
        setup.len(),
        "median wall time at reference speed",
    );
    rep.named(
        "ingest_cold_s",
        "s",
        cold.median(),
        cold.len(),
        "median, client wall",
    );
    rep.named(
        "ingest_warm_s",
        "s",
        warm_wall.median(),
        warm.len(),
        "median, client wall",
    );
    rep.named(
        "host_kernel_ms",
        "ms",
        host.kernel_ms(),
        host.samples(),
        "median CPU time of the host-speed kernel",
    );
    rep.named(
        "work_p50_s",
        "s",
        work_s,
        warm.len(),
        "median warm ingest wall time at reference speed",
    );
    rep.named(
        "query_p50_ms",
        "ms",
        reads.latency_ms.median(),
        q_n,
        "from due time",
    );
    rep.named(
        "query_tail_ms",
        "ms",
        tail,
        q_n,
        &format!("p{tail_p}, from due time"),
    );
    rep.named(
        "response_tail_ms",
        "ms",
        response_ms,
        q_n,
        &format!("p{tail_p}, from due time, at reference speed"),
    );
    rep.named(
        "query_clear_tail_ms",
        "ms",
        clear_tail,
        reads.clear_ms.len(),
        &format!("p{clear_p} of reads overlapping no ingest"),
    );
    rep.named(
        "generator_late_p50_ms",
        "ms",
        reads.late_ms.median(),
        reads.late_ms.len(),
        "send time minus due time",
    );
    rep.named(
        "generator_late_max_ms",
        "ms",
        reads.late_ms.percentile(100.0),
        reads.late_ms.len(),
        "",
    );
    rep.named(
        "resume_s",
        "s",
        resume.median(),
        resume.len(),
        "median, spawn to ready",
    );
    rep.named("peak_rss_mb", "MB", rss_mb, 1, "campion-fleetd VmHWM");
    rep.note("warm_ingests", warm.len().to_string());
    rep.note("queries", q_n.to_string());

    if cfg.trace {
        layers.emit(&mut rep.layers);
        if overhead.0.median() > 0.0 {
            rep.layers.insert(
                "trace.overhead_ratio",
                overhead.1.median() / overhead.0.median(),
            );
        }
        let l = &mut rep.layers;
        l.insert("fleet.body_bytes", body_bytes.mean());
        l.insert("fleet.decode_s", breakdown.0.mean());
        l.insert("fleet.server_ingest_s", breakdown.1.mean());
        l.insert("fleet.http_other_s", breakdown.2.mean());
        l.insert("fleet.store_load_s", store_load.median());
        l.insert("fleet.query_service_ms", service.median());
        l.insert(
            "fleet.query_wait_ms",
            reads.latency_ms.mean() - service.median(),
        );
        l.insert("fleet.pairs_computed", warm_counts.0.mean());
        l.insert("fleet.pairs_cached", warm_counts.1.mean());
        l.insert("fleet.parses_skipped", warm_counts.2.mean());
        rep.note("traced_ops", layers.ops().to_string());
        rep.chrome = layers.take_chrome();
    } else {
        rep.metrics = vec![
            ("setup_s".into(), "s", setup_s),
            ("work_p50_ms".into(), "ms", work_s * 1e3),
            ("response_tail_ms".into(), "ms", response_ms),
            ("peak_rss_mb".into(), "MB", rss_mb),
        ];
    }
}
