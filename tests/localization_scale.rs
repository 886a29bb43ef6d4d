//! Header localization must cost what its output touches, not what the
//! ddNF holds. Timing gates are noisy, so this guards the mechanism
//! deterministically: on the paper's §5.4 scale point (a 10 000-rule ACL
//! pair with 10 injected differences), localizing every difference against
//! the destination DAG encodes only a small fraction of its nodes. Eager
//! encoding touches all of them.

use campion::cfg::parse_config;
use campion::core::semantic::{acl_diff_paths, semantic_diff};
use campion::core::{header_localize_with, DstAddrSpace, RangeDag, RangeSemantics};
use campion::gen::capirca_acl_pair;
use campion::ir::{lower, RouterIr};
use campion::net::PrefixRange;
use campion::symbolic::PacketSpace;

fn load(text: &str) -> RouterIr {
    lower(&parse_config(text).expect("generated config parses")).expect("generated config lowers")
}

#[test]
fn localization_encodes_a_small_fraction_of_the_dag() {
    // The scalability bench's 10k seed (not every seed admits 10 reachable
    // injections).
    let (cisco, juniper) = capirca_acl_pair(10_000, 10, 0xC0FFEE + 10_000);
    let (r1, r2) = (load(&cisco), load(&juniper));
    let (a1, a2) = (&r1.acls["ACL-GEN"], &r2.acls["ACL-GEN"]);
    let mut space = PacketSpace::new();
    let (paths1, paths2) = acl_diff_paths(&mut space, a1, a2, 1);
    let diffs = semantic_diff(&mut space.manager, &paths1, &paths2);
    assert!(!diffs.is_empty(), "the generator injected differences");
    // The destination ranges exactly as the compare driver collects them.
    let dst_ranges: Vec<PrefixRange> = [a1, a2]
        .iter()
        .flat_map(|acl| &acl.rules)
        .flat_map(|rule| &rule.dst)
        .flat_map(|w| w.cover_prefixes(256))
        .map(PrefixRange::or_longer)
        .collect();
    let dag = RangeDag::build(RangeSemantics::Addresses, &dst_ranges);
    for d in &diffs {
        let s = space.project_to_dst(d.input);
        let loc = header_localize_with(&mut DstAddrSpace(&mut space), s, &dag);
        assert!(
            !loc.terms.is_empty(),
            "every difference localizes somewhere"
        );
    }
    let (encoded, nodes) = (dag.encoded_len(), dag.len());
    assert!(nodes > 1_000, "the 10k-rule DAG is large ({nodes} nodes)");
    assert!(
        encoded * 4 < nodes,
        "localization encoded {encoded} of {nodes} DAG nodes; it should touch under a quarter"
    );
}
