//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **StructuralDiff vs SemanticDiff for static routes** (§3.3's claim:
//!    the structural check is as precise and cheaper for stylized
//!    components) — compare runtime and findings when static routes are
//!    checked structurally versus encoded as route policies and checked
//!    semantically.
//! 2. **Regex-language refinement on/off** — without the DFA containment
//!    constraints between unknown-regex atoms, each regex difference of the
//!    university border pair produces a spurious reverse-direction
//!    difference.
//! 3. **ddNF reuse vs per-difference rebuild** — the localization DAG is
//!    shared across a pair's differences; rebuilding it per difference is
//!    the naive alternative.

use std::time::Instant;

use campion_bench::{load, print_rows};
use campion_cfg::Span;
use campion_core::headerloc::{self, RangeDag};
use campion_core::{acl_paths, policy_paths, semantic_diff, structural};
use campion_gen::{capirca_acl_pair, university_border_pair};
use campion_ir::{
    Clause, Match, PrefixMatcher, PrefixMatcherEntry, RoutePolicy, RouterIr, Terminal,
};
use campion_net::PrefixRange;
use campion_symbolic::{PacketSpace, RouteSpace};

/// Encode a router's static routes as a route policy (one accepting clause
/// per distinct next hop) so SemanticDiff can compare them — the ablation's
/// "semantic" arm.
fn statics_as_policy(r: &RouterIr) -> RoutePolicy {
    let mut clauses = Vec::new();
    for (i, s) in r.static_routes.iter().enumerate() {
        clauses.push(Clause {
            label: format!("static {}", s.prefix),
            matches: vec![Match::Prefix(vec![PrefixMatcher {
                name: String::new(),
                entries: vec![PrefixMatcherEntry {
                    permit: true,
                    range: PrefixRange::exact(s.prefix),
                    span: s.span,
                }],
            }])],
            // Distinguish next hops via distinct local-pref values: a
            // difference in next hop becomes an effect difference.
            sets: vec![campion_ir::SetAction::LocalPref(1000 + i as u32)],
            terminal: Terminal::Accept,
            span: s.span,
        });
    }
    RoutePolicy {
        name: "statics".to_string(),
        clauses,
        default_terminal: Terminal::Reject,
        span: Span::line(1),
    }
}

fn main() {
    println!("Ablation studies (see DESIGN.md)\n");
    let mut rows = Vec::new();

    // ---- 1. structural vs semantic static-route checking -------------
    let a = load(
        &(0..200)
            .map(|i| {
                format!(
                    "ip route 10.{}.{}.0 255.255.255.0 10.99.0.{}\n",
                    i / 250,
                    i % 250,
                    i % 200 + 1
                )
            })
            .collect::<String>(),
    );
    let mut b_text: String = (0..200)
        .map(|i| {
            format!(
                "ip route 10.{}.{}.0 255.255.255.0 10.99.0.{}\n",
                i / 250,
                i % 250,
                i % 200 + 1
            )
        })
        .collect();
    b_text.push_str("ip route 172.16.0.0 255.255.0.0 10.99.0.7\n"); // one extra
    let b = load(&b_text);

    let t0 = Instant::now();
    let structural_findings = structural::diff_static_routes(&a, &b).len();
    let t_structural = t0.elapsed();

    let t0 = Instant::now();
    let p1 = statics_as_policy(&a);
    let p2 = statics_as_policy(&b);
    let mut space = RouteSpace::for_policies(&[&p1, &p2]);
    let u = space.universe();
    let paths1 = policy_paths(&mut space, &p1, u);
    let paths2 = policy_paths(&mut space, &p2, u);
    let semantic_findings = semantic_diff(&mut space.manager, &paths1, &paths2).len();
    let t_semantic = t0.elapsed();

    rows.push(vec![
        "static routes: structural".into(),
        format!("{} finding(s)", structural_findings),
        format!("{:.3} ms", t_structural.as_secs_f64() * 1e3),
    ]);
    rows.push(vec![
        "static routes: semantic".into(),
        format!("{} finding(s)", semantic_findings),
        format!("{:.3} ms", t_semantic.as_secs_f64() * 1e3),
    ]);

    // ---- 2. regex refinement on/off -----------------------------------
    let (bc, bj) = university_border_pair();
    let rc = load(&bc);
    let rj = load(&bj);
    for (label, refined) in [
        ("regex refinement ON", true),
        ("regex refinement OFF", false),
    ] {
        let t0 = Instant::now();
        let mut total = 0;
        for name in ["EXPORT3", "EXPORT4"] {
            let p1 = &rc.policies[name];
            let p2 = &rj.policies[name];
            let mut space = RouteSpace::for_policies(&[p1, p2]);
            let u = if refined {
                space.universe()
            } else {
                space.universe_without_regex_refinement()
            };
            let paths1 = policy_paths(&mut space, p1, u);
            let paths2 = policy_paths(&mut space, p2, u);
            total += semantic_diff(&mut space.manager, &paths1, &paths2).len();
        }
        rows.push(vec![
            label.into(),
            format!("{total} outputted difference(s) for Export 3+4"),
            format!("{:.3} ms", t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }

    // ---- 3. ddNF reuse vs rebuild --------------------------------------
    let (cc, cj) = capirca_acl_pair(500, 10, 0xAB1A7E);
    let ra = load(&cc);
    let rb = load(&cj);
    let a1 = &ra.acls["ACL-GEN"];
    let a2 = &rb.acls["ACL-GEN"];
    let mut space = PacketSpace::new();
    let u = space.universe();
    let paths1 = acl_paths(&mut space, a1, u);
    let paths2 = acl_paths(&mut space, a2, u);
    let diffs = semantic_diff(&mut space.manager, &paths1, &paths2);
    let mut ranges = Vec::new();
    for acl in [a1, a2] {
        for rule in &acl.rules {
            for w in &rule.dst {
                if let Some(p) = w.as_prefix() {
                    ranges.push(PrefixRange::or_longer(p));
                }
            }
        }
    }
    let t0 = Instant::now();
    let dag = RangeDag::build(headerloc::RangeSemantics::Addresses, &ranges);
    for d in &diffs {
        let proj = space.project_to_dst(d.input);
        let _ =
            headerloc::header_localize_with(&mut headerloc::DstAddrSpace(&mut space), proj, &dag);
    }
    let t_reuse = t0.elapsed();
    dag.release(&mut space.manager);
    let t0 = Instant::now();
    for d in &diffs {
        let proj = space.project_to_dst(d.input);
        let _ = headerloc::header_localize(&mut headerloc::DstAddrSpace(&mut space), proj, &ranges);
    }
    let t_rebuild = t0.elapsed();
    rows.push(vec![
        format!("ddNF shared across {} diffs", diffs.len()),
        format!("{} range nodes", dag.len()),
        format!("{:.1} ms", t_reuse.as_secs_f64() * 1e3),
    ]);
    rows.push(vec![
        "ddNF rebuilt per diff".into(),
        format!("{} range nodes", dag.len()),
        format!("{:.1} ms", t_rebuild.as_secs_f64() * 1e3),
    ]);

    print_rows("Ablations", &["configuration", "result", "time"], &rows);

    assert_eq!(structural_findings, 1);
    assert!(semantic_findings >= 1);
    assert!(
        t_structural < t_semantic,
        "structural must be cheaper ({t_structural:?} vs {t_semantic:?})"
    );
    println!(
        "\n[check] structural static check: same error surfaced, {}x faster ✓",
        (t_semantic.as_secs_f64() / t_structural.as_secs_f64()).round()
    );
}
