//! Differential oracles for [`super`]: the pre-trie ddNF builder, which
//! decides dedup and containment with BDD operations, and the eager,
//! unpruned `GetMatch`, which encodes every node up front and visits every
//! node. The property suites in `crate::tests` assert that the structural
//! builder and the pruned, lazily encoding localization agree with them.

use std::collections::{BTreeMap, HashMap, HashSet};

use campion_bdd::Bdd;
use campion_net::PrefixRange;

use super::{finish, HeaderLocalization, NestedTerm, RangeDag, RangeEncoder};

/// The pre-trie `closed_ranges`: BDD-keyed dedup plus a BTreeMap prefix
/// index. No safe point runs inside, so the node sets need no roots.
fn closed_ranges_oracle<E: RangeEncoder>(
    space: &mut E,
    ranges: &[PrefixRange],
) -> (Vec<PrefixRange>, Vec<Bdd>, RangeIndex) {
    let mut out: Vec<PrefixRange> = Vec::new();
    let mut bdds: Vec<Bdd> = Vec::new();
    let mut seen: HashSet<Bdd> = HashSet::new();
    let mut push =
        |space: &mut E, out: &mut Vec<PrefixRange>, bdds: &mut Vec<Bdd>, r: PrefixRange| {
            let b = space.encode(&r);
            if space.manager().is_false(b) {
                return;
            }
            if seen.insert(b) {
                out.push(r);
                bdds.push(b);
            }
        };
    push(space, &mut out, &mut bdds, PrefixRange::universe());
    for r in ranges {
        push(space, &mut out, &mut bdds, *r);
    }
    let mut index = RangeIndex::new();
    for (id, r) in out.iter().enumerate() {
        index.insert(id, r);
    }
    let mut i = 0;
    while i < out.len() {
        for j in index.candidates(&out[i]) {
            if j >= i {
                break;
            }
            if let Some(x) = out[i].intersect(&out[j]) {
                let before = out.len();
                push(space, &mut out, &mut bdds, x);
                if out.len() > before {
                    index.insert(before, &out[before]);
                }
            }
        }
        i += 1;
    }
    (out, bdds, index)
}

/// The pre-trie DAG builder, deciding containment with BDD `diff`.
pub(crate) fn build_ddnf_oracle<E: RangeEncoder>(
    space: &mut E,
    ranges: &[PrefixRange],
) -> RangeDag {
    let (ranges, bdds, index) = closed_ranges_oracle(space, ranges);
    let n = ranges.len();
    let mut containers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for m in index.candidates(&ranges[c]) {
            if c == m || ranges[c].intersect(&ranges[m]).is_none() {
                continue;
            }
            let extra = space.manager().diff(bdds[c], bdds[m]);
            if space.manager().is_false(extra) {
                containers[c].push(m);
            }
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &m in &containers[c] {
            let covered = containers[c]
                .iter()
                .any(|&k| k != m && containers[k].contains(&m));
            if !covered {
                children[m].push(c);
            }
        }
    }
    RangeDag::from_structure(space.semantics(), ranges, children)
}

/// The DAG's skeleton `(ranges, children, root)`, for node-order-included
/// equality assertions between builders.
pub(crate) fn dag_structure(dag: &RangeDag) -> (&[PrefixRange], &[Vec<usize>], usize) {
    (&dag.ranges, &dag.children, dag.root)
}

/// Candidate-pair index for the oracle's closure and containment scans.
///
/// Two prefix ranges can intersect only when one's prefix is a truncation
/// of the other's (`PrefixRange::intersect` demands the shorter prefix's
/// bits match the longer's), so node `i`'s possible partners all carry
/// either a truncation of `ranges[i].prefix` — found by exact lookup at
/// each length — or an extension of it — found by scanning `i`'s address
/// block in a map ordered by `(bits, len)`. The result is a superset of
/// the true partner set (the caller still runs `intersect`), returned in
/// ascending node order so scan order matches the plain nested loops
/// exactly (node order flows into report rendering order).
struct RangeIndex {
    by_prefix: BTreeMap<(u32, u8), Vec<usize>>,
}

impl RangeIndex {
    fn new() -> Self {
        RangeIndex {
            by_prefix: BTreeMap::new(),
        }
    }

    fn insert(&mut self, id: usize, r: &PrefixRange) {
        self.by_prefix
            .entry((r.prefix.bits(), r.prefix.len()))
            .or_default()
            .push(id);
    }

    fn candidates(&self, r: &PrefixRange) -> Vec<usize> {
        let p = &r.prefix;
        let mut out = Vec::new();
        // Strict truncations of p (p itself falls inside the block scan).
        for len in 0..p.len() {
            let bits = if len == 0 {
                0
            } else {
                p.bits() & (u32::MAX << (32 - u32::from(len)))
            };
            if let Some(v) = self.by_prefix.get(&(bits, len)) {
                out.extend_from_slice(v);
            }
        }
        // Everything whose bits lie inside p's address block: all
        // extensions of p (plus p itself, plus a few same-block keys the
        // intersect re-check weeds out).
        let block_end = p.bits() | (((1u64 << (32 - u64::from(p.len()))) - 1) as u32);
        for (_, v) in self
            .by_prefix
            .range((p.bits(), p.len())..=(block_end, 32u8))
        {
            out.extend_from_slice(v);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Node sets and remainders for every node, computed up front.
struct EagerSets {
    sets: Vec<Bdd>,
    remainders: Vec<Bdd>,
    memo: HashMap<(usize, Bdd), (Vec<NestedTerm>, bool)>,
}

/// Localize `s` the eager, unpruned way: encode every node and remainder,
/// then run `GetMatch` over every node the recursion reaches, whether or
/// not its set meets `s`.
pub(crate) fn header_localize_reference<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    dag: &RangeDag,
) -> HeaderLocalization {
    let sets: Vec<Bdd> = dag.ranges.iter().map(|r| space.encode(r)).collect();
    let remainders = (0..dag.len())
        .map(|n| {
            dag.children[n]
                .iter()
                .fold(sets[n], |rem, &k| space.manager().diff(rem, sets[k]))
        })
        .collect();
    let mut eager = EagerSets {
        sets,
        remainders,
        memo: HashMap::new(),
    };
    let not_s = space.manager().not(s);
    let mut exact = true;
    let nested = get_match_eager(space, dag, &mut eager, s, not_s, dag.root, &mut exact);
    finish(nested, exact)
}

fn get_match_eager<E: RangeEncoder>(
    space: &mut E,
    dag: &RangeDag,
    eager: &mut EagerSets,
    s: Bdd,
    not_s: Bdd,
    node: usize,
    exact: &mut bool,
) -> Vec<NestedTerm> {
    if let Some((terms, sub_exact)) = eager.memo.get(&(node, s)) {
        if !sub_exact {
            *exact = false;
        }
        return terms.clone();
    }
    let remainder = eager.remainders[node];
    let mut sub_exact = true;
    let rem_outside = space.manager().diff(remainder, s);
    let overlaps_s = {
        let x = space.manager().and(eager.sets[node], s);
        space.manager().is_sat(x)
    };
    let terms = if space.manager().is_false(rem_outside) && overlaps_s {
        let mut minus = Vec::new();
        for &k in &dag.children[node] {
            minus.extend(get_match_eager(
                space,
                dag,
                eager,
                not_s,
                s,
                k,
                &mut sub_exact,
            ));
        }
        vec![NestedTerm {
            base: dag.ranges[node],
            minus,
        }]
    } else {
        if space.manager().is_sat(remainder) {
            let rem_inside = space.manager().and(remainder, s);
            if space.manager().is_sat(rem_inside) {
                sub_exact = false;
            }
        }
        let mut out = Vec::new();
        for &k in &dag.children[node] {
            out.extend(get_match_eager(
                space,
                dag,
                eager,
                s,
                not_s,
                k,
                &mut sub_exact,
            ));
        }
        out
    };
    if !sub_exact {
        *exact = false;
    }
    eager.memo.insert((node, s), (terms.clone(), sub_exact));
    terms
}
