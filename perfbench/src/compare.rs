//! The one-shot compare workloads, `acl_scale` and `policy_fleet`: a
//! closed loop of compare ops over seed-derived router pairs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::hostspeed::{HostSpeed, Timed};
use crate::layers::LayerAcc;
use crate::pipeline::{run_op, thread_cpu_s, Pair};
use crate::report::{num, Report};
use crate::seeds::{derive, SeedLog};
use crate::stats::Samples;
use crate::{peak_rss_mb, RunCfg, SETUP_REPEATS};

/// §5.4 scale point: rules per Capirca-style ACL.
const ACL_RULES: usize = 10_000;
/// Injected differences per ACL pair.
const ACL_DIFFS: usize = 10;
/// Distinct ACL pairs per run; ops cycle through them.
const ACL_PAIRS: usize = 16;
/// Ops per round needed before a round's own tail is used.
const MIN_ROUND_FOR_TAIL: usize = 20;
/// Highest percentile of a run's ops used as the gated tail when rounds
/// are too short for a tail of their own. About 90 ops fill an
/// `acl_scale` run, near where the tail rule switches from p75 to p90,
/// so a fixed p75 keeps the gate from changing percentile between runs.
const RUN_TAIL_MAX_PERCENTILE: f64 = 75.0;
/// §5.1 data-center pairs per scenario per pass (scenario1 + scenario2 =
/// 200 pairs carrying 7 + 4 = 11 injected BGP bugs).
const DC_PAIRS: usize = 100;

/// Inputs of one workload plus the seeds that made them.
pub fn inputs(workload: &str, seed: u64, tiny: bool) -> (Vec<Pair>, SeedLog) {
    let mut log = SeedLog::default();
    let pairs = match workload {
        "acl_scale" => {
            let (rules, count) = if tiny {
                (200, 1)
            } else {
                (ACL_RULES, ACL_PAIRS)
            };
            acl_pairs(&mut log, derive(seed, 1), count, rules, ACL_DIFFS)
        }
        "policy_fleet" => {
            let (s1, s2) = if tiny { (7, 4) } else { (DC_PAIRS, DC_PAIRS) };
            let mut next = derive(seed, 2);
            let mut pairs = log.generate(&mut next, |s| campion_gen::scenario1(s1, s));
            pairs.extend(log.generate(&mut next, |s| campion_gen::scenario2(s2, s)));
            pairs
                .into_iter()
                .map(|p| Pair {
                    expect_diffs: !p.bugs.is_empty(),
                    name: p.name,
                    cisco: p.cisco,
                    juniper: p.juniper,
                })
                .collect()
        }
        other => unreachable!("not a compare workload: {other}"),
    };
    (pairs, log)
}

/// `count` Capirca ACL pairs from consecutive accepted seeds at `base`.
pub fn acl_pairs(
    log: &mut SeedLog,
    base: u64,
    count: usize,
    rules: usize,
    diffs: usize,
) -> Vec<Pair> {
    let mut next = base;
    (0..count)
        .map(|i| {
            let (cisco, juniper) = log.generate(&mut next, |s| {
                campion_gen::capirca_acl_pair(rules, diffs, s)
            });
            Pair {
                name: format!("acl-{i:02}"),
                cisco,
                juniper,
                expect_diffs: diffs > 0,
            }
        })
        .collect()
}

/// Digest of a pair set, to prove repeated set-ups are identical.
pub fn inputs_digest(pairs: &[Pair]) -> u64 {
    use campion_ir::hash::{fnv1a64, fnv1a64_combine};
    pairs.iter().fold(fnv1a64(b"inputs"), |acc, p| {
        fnv1a64_combine(
            fnv1a64_combine(acc, fnv1a64(p.cisco.as_bytes())),
            fnv1a64(p.juniper.as_bytes()),
        )
    })
}

/// The workload's inputs, and the thread CPU time that took.
fn timed_inputs(cfg: &RunCfg) -> (Vec<Pair>, SeedLog, Timed) {
    let from = Instant::now();
    let c0 = thread_cpu_s();
    let (pairs, log) = inputs(&cfg.workload, cfg.seed, cfg.tiny);
    let secs = thread_cpu_s() - c0;
    (
        pairs,
        log,
        Timed {
            from,
            to: Instant::now(),
            secs,
        },
    )
}

/// One timed generation of the workload's inputs; a set-up that differs
/// from the first is a failed check.
fn setup_once(cfg: &RunCfg, rep: &mut Report, setup: &mut Vec<Timed>, first: u64) {
    let (pairs, _, t) = timed_inputs(cfg);
    setup.push(t);
    if inputs_digest(&pairs) != first {
        rep.check(Err("repeated set-up produced different inputs".to_string()));
    }
}

/// Run `acl_scale` or `policy_fleet`.
pub fn run(cfg: &RunCfg) -> Report {
    let mut rep = Report::new(&cfg.workload);

    // Set-up: input generation, repeated across the run; `setup_s` is
    // the median, in CPU time at reference speed like the ops.
    let (pairs, log, t) = timed_inputs(cfg);
    let mut setup = vec![t];
    rep.seeds = log;
    let first = inputs_digest(&pairs);
    let setups = if cfg.tiny { 1 } else { SETUP_REPEATS };
    let input_bytes: usize = pairs.iter().map(Pair::bytes).sum();
    rep.note("pairs", pairs.len().to_string());
    rep.note("input_bytes", input_bytes.to_string());
    rep.note("inputs_digest", format!("\"{first:016x}\""));

    // Warm-up op (allocator, page cache), not measured.
    let _ = run_op(&pairs[0], false);

    let n = pairs.len();
    let mut untraced = Samples::default();
    // Round (every input once) and thread CPU time of each untraced op.
    let mut untraced_cpu: Vec<(usize, Timed)> = Vec::new();
    let mut host = if cfg.workload == "acl_scale" {
        HostSpeed::large()
    } else {
        HostSpeed::small()
    };
    let mut traced = Samples::default();
    let mut layers = LayerAcc::default();
    let mut digests: BTreeMap<usize, u64> = BTreeMap::new();
    let start = Instant::now();
    let max_ops = if cfg.tiny { 1 } else { usize::MAX };
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < cfg.seconds && k < max_ops {
        let i = k % n;
        host.tick();
        if i == 0 && setup.len() < setups {
            let due = cfg.seconds * setup.len() as f64 / setups as f64;
            if start.elapsed().as_secs_f64() >= due {
                setup_once(cfg, &mut rep, &mut setup, first);
            }
        }
        // The traced run alternates untraced and traced rounds (a round
        // is each input once), so the tracing overhead is measured on the
        // same inputs.
        let with_trace = cfg.trace && (k / n).is_multiple_of(2);
        let round = k / n;
        k += 1;
        let pair = &pairs[i];
        let from = Instant::now();
        let outcome = run_op(pair, with_trace).and_then(|o| {
            if !o.verdict_ok(pair) {
                return Err(format!(
                    "{}: verdict {} but the generator says {}",
                    pair.name,
                    if o.differs { "differs" } else { "equivalent" },
                    if pair.expect_diffs {
                        "differs"
                    } else {
                        "equivalent"
                    },
                ));
            }
            let d = *digests.entry(i).or_insert(o.digest);
            if d != o.digest {
                return Err(format!("{}: report digest changed between ops", pair.name));
            }
            Ok(o)
        });
        match outcome {
            Ok(o) => {
                rep.check(Ok(()));
                match &o.trace {
                    Some(t) => {
                        traced.push(o.wall_s);
                        layers.add(t, pair.bytes(), &o.bdd, o.diffs);
                    }
                    None => {
                        untraced.push(o.wall_s);
                        let to = Instant::now();
                        untraced_cpu.push((
                            round,
                            Timed {
                                from,
                                to,
                                secs: o.cpu_s,
                            },
                        ));
                    }
                }
            }
            Err(e) => rep.check(Err(e)),
        }
    }
    while setup.len() < setups {
        setup_once(cfg, &mut rep, &mut setup, first);
    }
    let report_digest = digests
        .values()
        .fold(0u64, |acc, &d| campion_ir::hash::fnv1a64_combine(acc, d));
    rep.note("report_digest", format!("\"{report_digest:016x}\""));

    let (tail_p, tail) = untraced.tail();
    // The gated timings are thread CPU times at the reference host speed
    // (see `hostspeed`).
    let cpu = host.all_at_reference(untraced_cpu.iter().map(|(_, t)| t));
    let work = cpu.median();
    let setup_s = host.all_at_reference(&setup).median();
    // A round of at least `MIN_ROUND_FOR_TAIL` ops has a tail of its own,
    // and the run reports the median round's; smaller rounds use the
    // run's tail.
    let mut round_tails = Samples::default();
    let (response, response_note) = if n >= MIN_ROUND_FOR_TAIL {
        let mut rounds: BTreeMap<usize, Vec<Timed>> = BTreeMap::new();
        for (r, t) in &untraced_cpu {
            rounds.entry(*r).or_default().push(*t);
        }
        // Whole rounds only, unless the run is shorter than one.
        let whole = rounds.values().any(|ops| ops.len() == n);
        for ops in rounds.values().filter(|ops| !whole || ops.len() == n) {
            round_tails.push(host.all_at_reference(ops).tail().1);
        }
        let p = Samples::tail_percentile(n);
        (
            round_tails.median(),
            format!("median of round p{p}s of CPU time at reference speed; n = rounds"),
        )
    } else {
        let p = Samples::tail_percentile(cpu.len()).min(RUN_TAIL_MAX_PERCENTILE);
        (
            cpu.percentile(p),
            format!("p{p} of all ops' CPU time at reference speed"),
        )
    };
    let cpu_raw: Samples = untraced_cpu.iter().map(|(_, t)| t.secs).collect();
    let rss = peak_rss_mb();
    rep.named(
        "setup_s",
        "s",
        setup_s,
        setup.len(),
        "median CPU time at reference speed",
    );
    rep.named("pair_p50_s", "s", untraced.median(), untraced.len(), "");
    rep.named(
        "pair_tail_s",
        "s",
        tail,
        untraced.len(),
        &format!("p{tail_p}"),
    );
    rep.named(
        "pair_cpu_p50_s",
        "s",
        cpu_raw.median(),
        cpu_raw.len(),
        "thread CPU time",
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
        work,
        cpu.len(),
        "median CPU time at reference speed",
    );
    rep.named(
        "response_tail_s",
        "s",
        response,
        if n >= MIN_ROUND_FOR_TAIL {
            round_tails.len()
        } else {
            cpu.len()
        },
        &response_note,
    );
    let op_s = untraced.sum() + traced.sum();
    rep.named(
        "pairs_per_s",
        "1/s",
        (untraced.len() + traced.len()) as f64 / op_s.max(1e-9),
        untraced.len() + traced.len(),
        "ops per second of op time",
    );
    rep.named("peak_rss_mb", "MB", rss, 1, "bench process VmHWM");
    if cfg.trace {
        layers.emit(&mut rep.layers);
        rep.check(layers.coverage_ok());
        rep.note("span_coverage_min", num(layers.coverage_min()));
        if untraced.median() > 0.0 && !traced.is_empty() {
            rep.layers
                .insert("trace.overhead_ratio", traced.median() / untraced.median());
        }
        rep.note("traced_ops", layers.ops().to_string());
        rep.chrome = layers.take_chrome();
    } else {
        rep.metrics = vec![
            ("setup_s".into(), "s", setup_s),
            ("work_p50_ms".into(), "ms", work * 1e3),
            ("response_tail_ms".into(), "ms", response * 1e3),
            ("peak_rss_mb".into(), "MB", rss),
        ];
    }
    rep
}
