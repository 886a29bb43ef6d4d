//! One compare op — config text in, report out — with the benchmark's
//! outside spans around each crate's public entry point:
//! parse both (`campion_cfg`) → lower (`campion_ir`) → compare
//! (`campion_core::compare_routers`, jobs = 1) → render text and
//! `report_json`.

use std::time::Instant;

use campion_bdd::ManagerStats;
use campion_core::{compare_routers, report_json, CampionOptions};
use campion_trace::{span, Trace};

/// One router pair with its generator's known answer.
#[derive(Debug, Clone)]
pub struct Pair {
    pub name: String,
    pub cisco: String,
    pub juniper: String,
    /// The generator injected at least one behavioral difference.
    pub expect_diffs: bool,
}

impl Pair {
    pub fn bytes(&self) -> usize {
        self.cisco.len() + self.juniper.len()
    }
}

/// What one op produced.
#[derive(Debug)]
pub struct OpOutcome {
    pub wall_s: f64,
    /// CPU time of the op's thread (see [`thread_cpu_s`]).
    pub cpu_s: f64,
    /// The rendered text report, exactly as `campion compare` prints it
    /// (trailing newline included) and fleetd serves it.
    pub text: String,
    /// Digest of the text and JSON renderings.
    pub digest: u64,
    pub differs: bool,
    pub diffs: usize,
    pub bdd: ManagerStats,
    /// The op's spans when it ran traced.
    pub trace: Option<Trace>,
}

impl OpOutcome {
    /// The verdict matches the generator's known answer.
    pub fn verdict_ok(&self, pair: &Pair) -> bool {
        self.differs == pair.expect_diffs
    }
}

fn opts() -> CampionOptions {
    CampionOptions {
        jobs: 1,
        ..CampionOptions::default()
    }
}

/// Run one op; with `traced`, the collector is on for exactly this op and
/// its spans come back in the outcome.
pub fn run_op(pair: &Pair, traced: bool) -> Result<OpOutcome, String> {
    if traced {
        campion_trace::enable();
    }
    let cpu0 = thread_cpu_s();
    let t = Instant::now();
    let result = op_body(pair);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;
    let trace = traced.then(|| {
        campion_trace::disable();
        campion_trace::drain()
    });
    let (text, json, report) = result?;
    let digest = campion_ir::hash::fnv1a64_combine(
        campion_ir::hash::fnv1a64(text.as_bytes()),
        campion_ir::hash::fnv1a64(json.as_bytes()),
    );
    Ok(OpOutcome {
        wall_s,
        cpu_s,
        digest,
        differs: !report.is_equivalent(),
        diffs: report.total_differences(),
        bdd: report.bdd_stats,
        text,
        trace,
    })
}

/// CPU time the calling thread has run, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
///
/// An op runs with jobs = 1, so all of its work is on this thread. Time
/// other processes held the core is never in this clock, and under a
/// paravirtualized clock Linux leaves out time the host withheld the vCPU
/// (steal) too; wall time holds both.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

type Rendered = (String, String, campion_core::CampionReport);

fn op_body(pair: &Pair) -> Result<Rendered, String> {
    let _op = span("bench.op");
    let c = {
        let _s = span("bench.parse_ios");
        campion_cfg::parse_config(&pair.cisco)
    }
    .map_err(|e| format!("{}: parse IOS side: {e}", pair.name))?;
    let j = {
        let _s = span("bench.parse_junos");
        campion_cfg::parse_config(&pair.juniper)
    }
    .map_err(|e| format!("{}: parse JunOS side: {e}", pair.name))?;
    // Each step also drops what it consumed, so teardown is charged to
    // the layer that built it and the steps cover the whole op.
    let (r1, r2) = {
        let _s = span("bench.lower");
        let lowered = (campion_ir::lower(&c), campion_ir::lower(&j));
        drop((c, j));
        lowered
    };
    let r1 = r1.map_err(|e| format!("{}: lower IOS side: {e}", pair.name))?;
    let r2 = r2.map_err(|e| format!("{}: lower JunOS side: {e}", pair.name))?;
    let report = {
        let _s = span("bench.compare");
        let report = compare_routers(&r1, &r2, &opts());
        drop((r1, r2));
        report
    };
    let (text, json) = {
        let _s = span("bench.render");
        (format!("{report}\n"), report_json(&report))
    };
    Ok((text, json, report))
}
