//! Scale-axis contracts: benchgen must produce stable, correctly
//! scaled instances from factor 0.05 up to full size plus the 10⁵-net
//! synthetic range, and the routing kernel must handle the largest of
//! them.

use benchgen::BenchSpec;
use sadp_grid::{read_netlist, write_netlist, SadpKind};
use sadp_router::dijkstra::route_net;
use sadp_router::state::RouterState;
use sadp_router::{CostParams, SearchScratch};

/// FNV-1a over a text document: the fingerprint primitive used across
/// the repo's determinism pins.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One rounding rule across the whole scale axis: `scaled` rounds the
/// net count, and `generate_bus_style` must round the bus share the
/// same way instead of truncating (the issue-7 drift bug).
#[test]
fn factor_sweep_applies_one_rounding_rule() {
    for spec in BenchSpec::paper_suite() {
        for factor in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let s = spec.scaled(factor);
            assert_eq!(
                s.nets,
                ((spec.nets as f64 * factor).round() as usize).max(1),
                "{} @ {factor}: net count must round",
                spec.name
            );
            assert!(s.width >= 24 && s.height >= 24);
            if factor == 1.0 {
                assert_eq!(s, spec, "factor 1.0 must be the identity");
            }
        }
    }
    // Bus share at a small factor: ecc @ 0.05 = 84 nets, fraction 0.1
    // -> 8.4 -> 8 bus nets (was non-deterministically lower with the
    // truncation bug only when the product had a fractional part; the
    // pinned generator hits the rounded target on this loose die).
    let s = BenchSpec::by_name("ecc").unwrap().scaled(0.05);
    let nl = s.generate_bus_style(1, 0.1);
    let bus = nl.iter().filter(|(_, n)| n.name().contains("_bus")).count();
    assert_eq!(bus, ((s.nets as f64 * 0.1).round() as usize).min(s.nets));
}

/// Generated instances are pinned by fingerprint: any change to the
/// generator shifts every committed benchmark baseline, so it must be
/// loud. The rows cover the benchmark's inputs: the five flow-paper
/// circuits at the smoke scale, a small and a bulk service-mix layout,
/// and one bus-style instance. A faster placement loop must keep every
/// RNG draw and every accept/reject answer, so each digest holds.
#[test]
fn generation_fingerprints_are_stable_at_existing_scales() {
    let paper = |name: &str, factor: f64| BenchSpec::by_name(name).unwrap().scaled(factor);
    let synth = BenchSpec::synthetic;
    // (spec, seed, bus fraction or 0 for `generate`, digest)
    let pins = [
        (paper("ecc", 0.05), 1, 0.0, 0x5247c822cf35d742u64),
        (paper("efc", 0.05), 1, 0.0, 0xd1d813e260dbb3e2),
        (paper("ctl", 0.05), 1, 0.0, 0x3159d6e4bde117b0),
        (paper("alu", 0.05), 1, 0.0, 0x6d6179e466a8912c),
        (paper("div", 0.05), 1, 0.0, 0xc1de5dca9b89175c),
        (paper("ecc", 0.1), 1, 0.0, 0x6ed74674e7a8c7a8),
        (paper("alu", 0.1), 1, 0.0, 0x93ff3c80921f925e),
        (synth(38), 7, 0.0, 0x18b43da7516e3efa),
        (synth(400), 1, 0.0, 0x9737eda71f5bce3b),
        (paper("alu", 0.1), 2, 0.3, 0x4f21573366fb4440),
    ];
    for (spec, seed, bus, want) in pins {
        let netlist = if bus > 0.0 {
            spec.generate_bus_style(seed, bus)
        } else {
            spec.generate(seed)
        };
        let got = fnv(&write_netlist(&spec.grid(), &netlist));
        assert_eq!(
            got, want,
            "{} ({} nets) seed {seed}, bus fraction {bus}: generator output \
             drifted (got 0x{got:016x})",
            spec.name, spec.nets
        );
    }
}

/// A 10⁵-net synthetic instance survives the full data path —
/// generation, serialization round-trip, state construction, and
/// routing a sample of nets — without panicking or tripping a cap.
/// Ignored by default: takes minutes at full size.
#[test]
#[ignore = "10^5-net instance: run explicitly with --ignored"]
fn synthetic_100k_net_instance_routes_without_panic() {
    let spec = BenchSpec::synthetic(100_000);
    let nl = spec.generate(1);
    assert!(
        nl.len() >= 95_000,
        "die too crowded: only {} of 100000 nets placed",
        nl.len()
    );
    // io round-trip preserves the instance exactly.
    let text = write_netlist(&spec.grid(), &nl);
    let (grid2, nl2) = read_netlist(&text).expect("roundtrip parse");
    assert_eq!(nl2, nl);
    assert_eq!(grid2.width(), spec.width);
    // Route a deterministic sample spread across the instance; the
    // interesting part is that big-coordinate state keys, paged
    // windows, and the Dial queue all engage without panic.
    let st = RouterState::new(grid2, &nl, SadpKind::Sim, CostParams::default(), true, true);
    let mut scratch = SearchScratch::new();
    let mut routed = 0usize;
    for (id, net) in nl.iter().step_by(97).take(400) {
        if route_net(&st, id, net, &mut scratch).is_some() {
            routed += 1;
        }
    }
    assert!(routed >= 390, "only {routed}/400 sampled nets routed");
}
