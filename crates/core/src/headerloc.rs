//! HeaderLocalize (§3.2): express a difference's input set minimally in
//! terms of the prefix ranges appearing in the configurations.
//!
//! The algorithm mirrors the paper exactly:
//!
//! 1. extract every prefix range from the two configurations, add the
//!    universe `U = (0.0.0.0/0, 0-32)`, and close the set under
//!    intersection;
//! 2. build the ddNF DAG: one node per distinct range *set* (structurally
//!    different ranges denoting the same set share a node), with a cover
//!    edge `(m, n)` exactly when `λ(n) ⊂ λ(m)` with nothing in between;
//! 3. run the recursive `GetMatch` over the DAG: a node's *remainder* (its
//!    range minus its children) is either inside or outside the target set
//!    `S`, which drives inclusion of the node's range minus the non-matching
//!    children (computed by recursing with `¬S`);
//! 4. remove *nested differences* in a single pass:
//!    `C − (F − G)` becomes `{C − F, G}`.
//!
//! ## How the DAG is built fast
//!
//! Everything the builder needs to decide — emptiness, set equality
//! (dedup), containment — is decidable *structurally* on the ranges
//! themselves, without touching the BDD engine:
//!
//! * In a route space a range denotes its **member prefixes**, and
//!   [`PrefixRange::canonical_members`] is a perfect set key:
//!   [`PrefixRange::member_superset`] decides containment exactly.
//! * In a packet-address space a range denotes the **addresses** under its
//!   covering prefix, so the key is the prefix and containment is
//!   [`Prefix::contains`].
//!
//! [`RangeEncoder::semantics`] says which reading applies. A [`PrefixTrie`]
//! over the node prefixes supplies each node's possible partners (only
//! prefix-nested ranges can be related) instead of an all-pairs scan. The
//! BDD-deciding builder this replaced survives as a test-only oracle; a
//! property suite asserts both produce identical DAGs, node order included.
//!
//! ## How localization queries are kept cheap
//!
//! A pair's DAG has thousands of nodes, but each difference set `S` meets
//! only a handful of them. Localization is made to cost what its output
//! touches, not what the DAG holds:
//!
//! * `GetMatch` stops at a node whose set is disjoint from its target set
//!   (every descendant lies inside the node's set, so the whole sub-DAG
//!   contributes nothing and splits no cell);
//! * a node's set `λ(n)` is encoded on `GetMatch`'s first visit to it, and
//!   its remainder (`λ(n) − children`) on the first visit that overlaps
//!   the target — nodes no query reaches are never encoded;
//! * `GetMatch` results are memoized per `(node, S)` (`¬S` recursions hit
//!   the same table), and `¬S` itself is computed once per localize call.
//!
//! Encoded sets and remainders are rooted as they are made, so they stay
//! cached across the collections run between differences, and
//! [`RangeDag::release`] unroots exactly those. Memo entries last one GC
//! generation. A clone of the DAG starts with an empty cache of its own.

use std::cell::RefCell;
use std::collections::HashMap;

use campion_bdd::{AnyManager, Bdd};
use campion_net::{Prefix, PrefixRange, PrefixTrie};
use campion_symbolic::{PacketSpace, RouteSpace};

/// What set a prefix range denotes in a given encoder — selects the
/// structural set key the ddNF builder dedups and orders nodes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSemantics {
    /// The range's member prefixes (route spaces: address **and** length
    /// dimensions both matter).
    Members,
    /// The addresses under the range's covering prefix (packet spaces: the
    /// length bounds are irrelevant).
    Addresses,
}

/// Abstracts "a BDD space in which a prefix range denotes a set", so the
/// same ddNF machinery serves route maps (prefix + length dimensions) and
/// ACLs (pure address dimensions for source or destination).
pub trait RangeEncoder {
    /// The underlying manager.
    fn manager(&mut self) -> &mut AnyManager;
    /// The set denoted by a prefix range in this space.
    fn encode(&mut self, r: &PrefixRange) -> Bdd;
    /// Which structural reading of a range [`RangeEncoder::encode`]
    /// implements. Must agree with `encode`: two ranges with equal set keys
    /// must encode to the same BDD, and key containment must match BDD
    /// containment.
    fn semantics(&self) -> RangeSemantics;
}

impl RangeEncoder for RouteSpace {
    fn manager(&mut self) -> &mut AnyManager {
        &mut self.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.prefix_range_bdd(r)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Members
    }
}

/// Destination-address view of a packet space: a range `(P, lo-hi)` denotes
/// the packets whose destination lies under `P` (length bounds are
/// irrelevant for address sets).
pub struct DstAddrSpace<'a>(pub &'a mut PacketSpace);

impl RangeEncoder for DstAddrSpace<'_> {
    fn manager(&mut self) -> &mut AnyManager {
        &mut self.0.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.0.dst_prefix_bdd(&r.prefix)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
}

/// Source-address view of a packet space.
pub struct SrcAddrSpace<'a>(pub &'a mut PacketSpace);

impl RangeEncoder for SrcAddrSpace<'_> {
    fn manager(&mut self) -> &mut AnyManager {
        &mut self.0.manager
    }
    fn encode(&mut self, r: &PrefixRange) -> Bdd {
        self.0.src_prefix_bdd(&r.prefix)
    }
    fn semantics(&self) -> RangeSemantics {
        RangeSemantics::Addresses
    }
}

/// A range's denoted set, as a hashable structural key. Under either
/// semantics the key is in bijection with the denoted set (and hence with
/// the encoded BDD): canonical member representatives for route spaces,
/// the covering prefix for address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SetKey {
    Members(PrefixRange),
    Addr(Prefix),
}

impl SetKey {
    /// The key of `r`'s denoted set, or `None` when that set is empty
    /// (address sets never are).
    fn of(sem: RangeSemantics, r: &PrefixRange) -> Option<SetKey> {
        match sem {
            RangeSemantics::Members => r.canonical_members().map(SetKey::Members),
            RangeSemantics::Addresses => Some(SetKey::Addr(r.prefix)),
        }
    }

    /// Exact set containment: `other ⊆ self`. Keys of different semantics
    /// never meet (one builder, one encoder).
    fn contains(&self, other: &SetKey) -> bool {
        match (self, other) {
            (SetKey::Members(a), SetKey::Members(b)) => a.member_superset(b),
            (SetKey::Addr(a), SetKey::Addr(b)) => a.contains(b),
            _ => unreachable!("mixed range semantics in one ddNF"),
        }
    }
}

/// One term of the final representation: a base range minus zero or more
/// excluded ranges (all nesting already removed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTerm {
    /// The included range.
    pub base: PrefixRange,
    /// Ranges subtracted from it.
    pub minus: Vec<PrefixRange>,
}

impl std::fmt::Display for RangeTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.base)?;
        for m in &self.minus {
            write!(f, " − ({m})")?;
        }
        Ok(())
    }
}

/// The result of header localization: `S = ⋃ terms`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderLocalization {
    /// The union of difference terms.
    pub terms: Vec<RangeTerm>,
    /// True when the ddNF decomposition was exact (every cell was fully
    /// inside or outside `S`). Always true for sets built from the
    /// configurations' own ranges; retained as a safety signal.
    pub exact: bool,
}

impl HeaderLocalization {
    /// All included (base) ranges, for the report's "Included Prefixes" row.
    pub fn included(&self) -> Vec<PrefixRange> {
        self.terms.iter().map(|t| t.base).collect()
    }

    /// All excluded ranges, for the "Excluded Prefixes" row.
    pub fn excluded(&self) -> Vec<PrefixRange> {
        self.terms
            .iter()
            .flat_map(|t| t.minus.iter().copied())
            .collect()
    }
}

impl std::fmt::Display for HeaderLocalization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

/// `GetMatch` memo table: `(node, S) → (terms, exact)`.
type GetMatchMemo = HashMap<(usize, Bdd), (Vec<NestedTerm>, bool)>;

/// The BDD side of a [`RangeDag`], filled in as `GetMatch` visits nodes.
/// Encoded sets and remainders are protected as they are made, so they
/// survive the collections the driver runs between differences;
/// [`RangeDag::release`] unprotects exactly those. Memo entries name `S`
/// handles, which a sweep may recycle, so the memo belongs to one GC
/// generation: it is emptied whenever the manager's sweep count moves past
/// `memo_gen`.
struct QueryCache {
    /// `λ(n)`, encoded on `n`'s first visit.
    sets: Vec<Option<Bdd>>,
    /// `λ(n) − children`, computed on `n`'s first visit that overlaps its
    /// target set.
    remainders: Vec<Option<Bdd>>,
    memo: GetMatchMemo,
    memo_gen: u64,
    /// Poison flag: [`RangeDag::release`] dropped the roots, after which
    /// localizing against the DAG would read collectable BDDs.
    released: bool,
}

impl QueryCache {
    /// An empty cache over `n` nodes.
    fn new(n: usize) -> QueryCache {
        QueryCache {
            sets: vec![None; n],
            remainders: vec![None; n],
            memo: HashMap::new(),
            memo_gen: u64::MAX,
            released: false,
        }
    }

    /// `λ(node)`, encoding and rooting it on first use.
    fn set<E: RangeEncoder>(&mut self, space: &mut E, dag: &RangeDag, node: usize) -> Bdd {
        if let Some(b) = self.sets[node] {
            return b;
        }
        let b = space.encode(&dag.ranges[node]);
        debug_assert!(!space.manager().is_false(b), "nonempty key, empty set");
        space.manager().protect(b);
        self.sets[node] = Some(b);
        b
    }

    /// `λ(node)` minus its children (equal to the range itself at leaves),
    /// rooted on first use.
    fn remainder<E: RangeEncoder>(&mut self, space: &mut E, dag: &RangeDag, node: usize) -> Bdd {
        if let Some(rem) = self.remainders[node] {
            return rem;
        }
        let mut rem = self.set(space, dag, node);
        for &k in &dag.children[node] {
            let kid = self.set(space, dag, k);
            rem = space.manager().diff(rem, kid);
        }
        space.manager().protect(rem);
        self.remainders[node] = Some(rem);
        rem
    }
}

/// The ddNF DAG over prefix ranges. Build it once per compared pair with
/// [`RangeDag::build`] and localize many difference sets against it.
///
/// The DAG itself is pure structure; node sets are encoded into the
/// caller's space (and rooted there) only when a localization first visits
/// them, and [`RangeDag::release`] drops those roots. A clone shares the
/// structure but starts with an empty cache, so every root it takes is its
/// own to release — in a cloned arena or a fork of a shared one alike. The
/// driver's per-difference fan-out gives each worker such a clone.
pub struct RangeDag {
    /// What set a node's range denotes; the encoder localizing against the
    /// DAG must read ranges the same way.
    sem: RangeSemantics,
    /// Node ranges (label function λ).
    ranges: Vec<PrefixRange>,
    /// Cover-edge children per node.
    children: Vec<Vec<usize>>,
    /// Index of the universe node.
    root: usize,
    cache: RefCell<QueryCache>,
}

impl Clone for RangeDag {
    fn clone(&self) -> RangeDag {
        RangeDag::from_structure(self.sem, self.ranges.clone(), self.children.clone())
    }
}

impl RangeDag {
    /// Build the ddNF over the given configuration ranges (plus the
    /// universe, closed under intersection), reading each range as `sem`
    /// says. Structural only: no BDD is encoded here.
    pub fn build(sem: RangeSemantics, ranges: &[PrefixRange]) -> RangeDag {
        campion_trace::span!("headerloc.ddnf");
        let (ranges, keys, trie) = {
            campion_trace::span!("headerloc.ddnf.close");
            closed_ranges(sem, ranges)
        };
        let children = {
            campion_trace::span!("headerloc.ddnf.edges");
            cover_edges(&ranges, &keys, &trie)
        };
        RangeDag::from_structure(sem, ranges, children)
    }

    /// A DAG over the given nodes and cover edges, nothing encoded; the
    /// root is the universe node.
    fn from_structure(
        sem: RangeSemantics,
        ranges: Vec<PrefixRange>,
        children: Vec<Vec<usize>>,
    ) -> RangeDag {
        let root = ranges
            .iter()
            .position(|r| *r == PrefixRange::universe())
            .expect("universe inserted first");
        let cache = RefCell::new(QueryCache::new(ranges.len()));
        RangeDag {
            sem,
            ranges,
            children,
            root,
            cache,
        }
    }

    /// Number of nodes (for diagnostics).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Number of nodes whose set has been encoded — the output-sensitivity
    /// measure localization is tested against.
    #[doc(hidden)]
    pub fn encoded_len(&self) -> usize {
        self.cache.borrow().sets.iter().flatten().count()
    }

    /// Drop the GC roots this DAG took on the node sets and remainders it
    /// encoded. The DAG must not be used for localization afterwards
    /// (debug-asserted).
    pub fn release(&self, manager: &mut AnyManager) {
        let mut cache = self.cache.borrow_mut();
        debug_assert!(!cache.released, "RangeDag released twice");
        cache.released = true;
        for &b in cache.sets.iter().chain(&cache.remainders).flatten() {
            manager.unprotect(b);
        }
    }

    /// True when only the universe node exists.
    pub fn is_empty(&self) -> bool {
        self.ranges.len() <= 1
    }
}

/// Close a range set under intersection, deduplicating by denoted set via
/// structural keys; the trie answers partner queries for the fixpoint loop.
fn closed_ranges(
    sem: RangeSemantics,
    ranges: &[PrefixRange],
) -> (Vec<PrefixRange>, Vec<SetKey>, PrefixTrie) {
    let mut out: Vec<PrefixRange> = Vec::new();
    let mut keys: Vec<SetKey> = Vec::new();
    let mut trie = PrefixTrie::new();
    let mut seen: std::collections::HashSet<SetKey> = std::collections::HashSet::new();
    let mut push = |out: &mut Vec<PrefixRange>,
                    keys: &mut Vec<SetKey>,
                    trie: &mut PrefixTrie,
                    r: PrefixRange| {
        let Some(key) = SetKey::of(sem, &r) else {
            return; // denotes ∅ — e.g. length bounds under the prefix's bits
        };
        if seen.insert(key) {
            trie.insert(out.len(), &r.prefix);
            out.push(r);
            keys.push(key);
        }
    };
    push(&mut out, &mut keys, &mut trie, PrefixRange::universe());
    for r in ranges {
        push(&mut out, &mut keys, &mut trie, *r);
    }
    // Fixpoint closure under pairwise intersection, with the trie supplying
    // each node's possible partners (only prefix-nested ranges intersect)
    // instead of an all-pairs scan. Range intersection is again a range, so
    // this terminates; candidates come back in ascending order, so pushes
    // happen in the same order the plain `for j < i` loop produced.
    let mut i = 0;
    while i < out.len() {
        for j in trie.candidates(&out[i].prefix) {
            if j >= i {
                break;
            }
            if let Some(x) = out[i].intersect(&out[j]) {
                push(&mut out, &mut keys, &mut trie, x);
            }
        }
        i += 1;
    }
    (out, keys, trie)
}

/// Cover-edge children per node: `m → c` exactly when `set(c) ⊂ set(m)`
/// with no node in between.
fn cover_edges(ranges: &[PrefixRange], keys: &[SetKey], trie: &PrefixTrie) -> Vec<Vec<usize>> {
    let n = ranges.len();
    // containers[c] = nodes whose set strictly contains node c's set
    // (structurally different but equal ranges were already merged, so
    // strictness is just key inequality). The trie narrows each node's
    // possible containers to its prefix-nested partners, making this
    // near-linear for the sparse range sets real configurations produce.
    let mut containers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for m in trie.candidates(&ranges[c].prefix) {
            if c == m || ranges[c].intersect(&ranges[m]).is_none() {
                continue;
            }
            if keys[m].contains(&keys[c]) {
                containers[c].push(m);
            }
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (c, cs) in containers.iter().enumerate() {
        // Cover edges: minimal containers of c (no other container of c
        // sits strictly between). `set(k) ⊆ set(m)` is one structural
        // check, replacing the former `containers[k].contains(&m)` scan.
        for &m in cs {
            let covered = cs.iter().any(|&k| k != m && keys[m].contains(&keys[k]));
            if !covered {
                children[m].push(c);
            }
        }
    }
    children
}

/// `GetMatch` (paper §3.2): returns terms representing `S ∩ set(node)`,
/// assuming every ddNF cell is inside or outside `S`. Terms may be nested
/// (a minus item carrying its own minus list) until the cleanup pass.
#[derive(Debug, Clone)]
struct NestedTerm {
    base: PrefixRange,
    minus: Vec<NestedTerm>,
}

/// One `GetMatch` node visit, memoized per `(node, s)` in the DAG's query
/// cache. `not_s` is `¬s`, threaded down so the include-branch recursion
/// (which queries the complement) costs no `not()` calls; the roles swap on
/// recursion since `¬¬s = s` is free in a canonical BDD.
fn get_match<E: RangeEncoder>(
    space: &mut E,
    dag: &RangeDag,
    cache: &mut QueryCache,
    s: Bdd,
    not_s: Bdd,
    node: usize,
    exact: &mut bool,
) -> Vec<NestedTerm> {
    if let Some((terms, sub_exact)) = cache.memo.get(&(node, s)) {
        if !sub_exact {
            *exact = false;
        }
        return terms.clone();
    }
    // Every descendant lies inside λ(node), so when λ(node) misses S the
    // whole sub-DAG does: nothing is included, no cell splits S, and the
    // answer is [] with `exact` untouched. This keeps a query's cost (and
    // the nodes it encodes) proportional to the part of the DAG S touches.
    let range_bdd = cache.set(space, dag, node);
    let overlap = space.manager().and(range_bdd, s);
    if space.manager().is_false(overlap) {
        return Vec::new();
    }
    let remainder = cache.remainder(space, dag, node);
    let mut sub_exact = true;
    let rem_outside = space.manager().diff(remainder, s);
    let terms = if space.manager().is_false(rem_outside) {
        // Remainder ⊆ S (an empty remainder counts, since the range
        // overlaps S): include the range minus the children not in S.
        let mut minus = Vec::new();
        for &k in &dag.children[node] {
            minus.extend(get_match(space, dag, cache, not_s, s, k, &mut sub_exact));
        }
        vec![NestedTerm {
            base: dag.ranges[node],
            minus,
        }]
    } else {
        let rem_inside = space.manager().and(remainder, s);
        if space.manager().is_sat(rem_inside) {
            sub_exact = false; // cell splits S: decomposition inexact
        }
        let mut out = Vec::new();
        for &k in &dag.children[node] {
            out.extend(get_match(space, dag, cache, s, not_s, k, &mut sub_exact));
        }
        out
    };
    if !sub_exact {
        *exact = false;
    }
    cache.memo.insert((node, s), (terms.clone(), sub_exact));
    terms
}

/// Remove nested differences in one pass: `C − (F − G)` → `{C − F, G}`.
fn flatten(terms: Vec<NestedTerm>) -> Vec<RangeTerm> {
    let mut out = Vec::new();
    for t in terms {
        let mut minus = Vec::new();
        let mut extra = Vec::new();
        for m in t.minus {
            minus.push(m.base);
            // Whatever the minus-term itself subtracted belongs back in S.
            extra.extend(flatten(m.minus));
        }
        out.push(RangeTerm {
            base: t.base,
            minus,
        });
        out.extend(extra);
    }
    out
}

/// Header localization entry point: decompose a predicate `s` (already
/// projected onto this encoder's range dimensions) over the prefix ranges
/// mentioned by the two compared components (the paper's `R`).
pub fn header_localize<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    config_ranges: &[PrefixRange],
) -> HeaderLocalization {
    let ddnf = RangeDag::build(space.semantics(), config_ranges);
    let loc = header_localize_with(space, s, &ddnf);
    ddnf.release(space.manager());
    loc
}

/// As [`header_localize`], against a prebuilt [`RangeDag`] — the fast path
/// when one component pair produces several differences.
pub fn header_localize_with<E: RangeEncoder>(
    space: &mut E,
    s: Bdd,
    dag: &RangeDag,
) -> HeaderLocalization {
    campion_trace::span!("headerloc.localize");
    debug_assert_eq!(
        space.semantics(),
        dag.sem,
        "RangeDag built for another range reading"
    );
    let mut cache = dag.cache.borrow_mut();
    debug_assert!(
        !cache.released,
        "localize against a released RangeDag (its node BDDs are unrooted)"
    );
    // No sweep can happen inside this call — collection only runs at
    // explicit checkpoints, and there are none below — so the memo is
    // valid throughout once it matches the current generation.
    let gc_gen = space.manager().sweep_count();
    if cache.memo_gen != gc_gen {
        cache.memo.clear();
        cache.memo_gen = gc_gen;
    }
    let mut exact = true;
    let not_s = space.manager().not(s);
    let nested = get_match(space, dag, &mut cache, s, not_s, dag.root, &mut exact);
    drop(cache);
    let loc = finish(nested, exact);
    debug_assert!(
        !loc.exact
            || reencode(space, &loc) == {
                let u = space.encode(&PrefixRange::universe());
                space.manager().and(s, u)
            },
        "HeaderLocalize must re-encode to exactly S"
    );
    loc
}

/// Flatten `GetMatch`'s nested terms into the reported form.
fn finish(nested: Vec<NestedTerm>, exact: bool) -> HeaderLocalization {
    let mut terms = flatten(nested);
    // Deterministic output order, and deduplication: a shared DAG node can
    // be reached through several parents and must be reported once.
    for t in &mut terms {
        t.minus.sort();
        t.minus.dedup();
    }
    terms.sort_by(|a, b| (a.base, &a.minus).cmp(&(b.base, &b.minus)));
    terms.dedup();
    HeaderLocalization { terms, exact }
}

/// Re-encode a localization back into a BDD (the correctness check used by
/// the property tests). The result is intersected with the universe range's
/// own encoding, which carries the validity constraint (length ≤ 32) in
/// route spaces.
pub fn reencode<E: RangeEncoder>(space: &mut E, loc: &HeaderLocalization) -> Bdd {
    let mut acc = Bdd::FALSE;
    let valid = space.encode(&PrefixRange::universe());
    for t in &loc.terms {
        let mut b = space.encode(&t.base);
        for m in &t.minus {
            let mb = space.encode(m);
            b = space.manager().diff(b, mb);
        }
        acc = space.manager().or(acc, b);
    }
    space.manager().and(acc, valid)
}

/// Differential oracles for the ddNF builder and `GetMatch`.
#[cfg(test)]
#[path = "headerloc_oracle.rs"]
pub(crate) mod oracle;
