//! Host-speed reference: a fixed CPU kernel owned by the benchmark, timed
//! on the measuring thread between ops, so op times can be stated at a
//! fixed reference speed.
//!
//! The shared hosts this runs on change speed by up to 2× with their
//! neighbours' load, over stretches of seconds to minutes, and a 30 s run
//! can sit wholly in a fast or a slow stretch or change state midway.
//! Thread CPU time leaves out time-slicing but not a slower core; the
//! kernel's CPU time measured beside the ops does see it. Each
//! measurement is scaled by the mean of the kernel samples taken within
//! [`LOCAL_S`] of it: the mean, not the median, because slowdowns come
//! and go in bursts shorter than an op (a busy neighbour on the same
//! core), which a 10 ms sample catches only now and then while a long op
//! always pays its share. The kernel is not program code and allocates
//! nothing while timed, so no change to the program or to its heap moves
//! it: a faster program lowers the ratio one for one.
//!
//! The kernel is an open-addressing hash table fill, a sort and lookups,
//! sized to the workload's working set. Measured on a 2-vCPU Xeon guest
//! across idle, memory-streaming and CPU-bound neighbours, `acl_scale`
//! ops moved 242–341 ms while their ratio to the large kernel stayed
//! within ±4%, and `policy_fleet` ops moved 1.13–1.50 ms while their
//! ratio to the small kernel stayed within ±3%.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::pipeline::thread_cpu_s;
use crate::stats::Samples;

/// Wall time between kernel samples (about 110 per 30 s run).
const PERIOD_S: f64 = 0.25;

/// Kernel samples within this many seconds of a measurement's midpoint
/// are its local host speed.
const LOCAL_S: f64 = 1.5;

/// The kernel's CPU time, at either size, in the common state of the
/// 2-vCPU Xeon guest the benchmark was tuned on, in ms. Scaled figures
/// read as CPU time on such a host in that state.
const NOMINAL_MS: f64 = 10.0;

/// Multiplier of the key hash (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A time measured over `from..to`.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub from: Instant,
    pub to: Instant,
    pub secs: f64,
}

/// The kernel at one size, with its samples through a run.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    keys: Vec<u64>,
    reps: u64,
    origin: Instant,
    /// `(midpoint, CPU time)` of each sample, in seconds (the midpoint
    /// since `origin`).
    samples: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// A 4 MB table with 200 000 keys: cache-missing work, like the
    /// 10k-rule managers and parse trees of `acl_scale`.
    pub fn large() -> Self {
        HostSpeed::new(1 << 19, 200_000, 1)
    }

    /// A 64 KB table with 4 000 keys, 80 times over: cache-resident work,
    /// like the many small managers of `policy_fleet`.
    pub fn small() -> Self {
        HostSpeed::new(1 << 13, 4_000, 80)
    }

    fn new(slots: usize, keys: usize, reps: u64) -> Self {
        HostSpeed {
            table: vec![0; slots],
            keys: vec![0; keys],
            reps,
            origin: Instant::now(),
            samples: Vec::new(),
            last: None,
        }
    }

    /// Time the kernel if [`PERIOD_S`] has passed since the last sample
    /// (always on the first call).
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PERIOD_S)
        {
            let t = Instant::now();
            let c0 = thread_cpu_s();
            let acc = (0..self.reps).fold(0, |acc, r| acc ^ self.pass(GOLDEN.wrapping_add(r)));
            black_box(acc);
            let cpu = thread_cpu_s() - c0;
            self.samples.push((self.mid(t, Instant::now()), cpu));
            self.last = Some(Instant::now());
        }
    }

    /// Sleep until `due`, sampling the kernel on the way while at least
    /// a period remains, so a sample never delays `due`.
    pub fn idle_until(&mut self, due: Instant) {
        let period = Duration::from_secs_f64(PERIOD_S);
        while let Some(wait) = due.checked_duration_since(Instant::now()) {
            if wait >= period {
                self.tick();
            }
            let wait = due.saturating_duration_since(Instant::now());
            std::thread::sleep(wait.min(period));
        }
    }

    /// One fill, sort and lookup pass over the preallocated buffers.
    fn pass(&mut self, seed: u64) -> u64 {
        let table = &mut self.table;
        table.fill(0);
        let mask = table.len() - 1;
        let slot = |key: u64| (key.wrapping_mul(GOLDEN) >> 20) as usize & mask;
        let mut x = seed;
        for k in self.keys.iter_mut() {
            // xorshift64; `| 1` keeps keys non-zero, zero marks an empty slot.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x | 1;
            let mut h = slot(*k);
            while table[h] != 0 && table[h] != *k {
                h = (h + 1) & mask;
            }
            table[h] = *k;
        }
        self.keys.sort_unstable();
        self.keys.iter().step_by(3).fold(0u64, |acc, &k| {
            let mut h = slot(k);
            while table[h] != k {
                h = (h + 1) & mask;
            }
            acc.wrapping_add(h as u64)
        })
    }

    /// Seconds from `origin` to the midpoint of `from..to`.
    fn mid(&self, from: Instant, to: Instant) -> f64 {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        (at(from) + at(to)) / 2.0
    }

    /// Median kernel CPU time of the run, in ms.
    pub fn kernel_ms(&self) -> f64 {
        let all: Samples = self.samples.iter().map(|&(_, cpu)| cpu).collect();
        all.median() * 1e3
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// `t` at the reference speed: scaled by the mean kernel time within
    /// [`LOCAL_S`] of its midpoint, or by the nearest sample when none is
    /// that close.
    pub fn at_reference(&self, t: &Timed) -> f64 {
        let mid = self.mid(t.from, t.to);
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| (at - mid).abs() <= LOCAL_S)
            .map(|&(_, cpu)| cpu)
            .collect();
        let local_s = if near.is_empty() {
            self.samples
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                .map_or(NOMINAL_MS * 1e-3, |&(_, cpu)| cpu)
        } else {
            near.iter().sum::<f64>() / near.len() as f64
        };
        t.secs * NOMINAL_MS * 1e-3 / local_s
    }

    /// Every one of `ts` at the reference speed.
    pub fn all_at_reference<'a>(&self, ts: impl IntoIterator<Item = &'a Timed>) -> Samples {
        ts.into_iter().map(|t| self.at_reference(t)).collect()
    }
}
