//! Microbench for the ddNF builder (§3.2): `RangeDag::build` over 10²–10⁴
//! input ranges, isolated from parsing and the diff engine.
//!
//! The builder closes the input set under intersection, deduplicates by
//! denoted set, and wires cover edges — since PR 6 all of that is decided
//! structurally on `(bits, len, lo-hi)` through a first-octet-bucketed
//! prefix trie, and no BDD is encoded until a localization visits a node,
//! so the build never touches the BDD engine. This bench watches exactly
//! that path, so a regression here is a builder regression and not a
//! parser, SemanticDiff or GetMatch one.
//!
//! Inputs are generated with a fixed-seed LCG and squeezed into four first
//! octets so the closure produces real intersections instead of a forest
//! of disjoint blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use campion_core::{RangeDag, RangeSemantics};
use campion_net::{Prefix, PrefixRange};

/// `n` deterministic or-longer ranges over a crowded corner of the
/// address space (fixed-seed LCG; no `rand` dependency).
fn gen_ranges(n: usize) -> Vec<PrefixRange> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let len = 8 + ((x >> 59) % 17) as u8;
        let octet = 10 + ((x >> 32) & 0x3) as u32;
        let bits = (octet << 24) | (x as u32 & 0x00FF_FFFF);
        out.push(PrefixRange::or_longer(Prefix::new(bits.into(), len)));
    }
    out
}

fn ddnf_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddnf_build");
    group.sample_size(10);
    for size in [100usize, 1000, 10000] {
        let ranges = gen_ranges(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let dag = RangeDag::build(RangeSemantics::Addresses, &ranges);
                std::hint::black_box(dag.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ddnf_build);
criterion_main!(benches);
