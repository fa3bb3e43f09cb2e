//! The hash-set generator that the spacing map replaced, kept as a
//! test oracle. It probes a `HashSet` of placed pins 25 times per
//! candidate and rebuilds a set of the net's own pins on every try;
//! [`BenchSpec::generate`] and [`BenchSpec::generate_bus_style`] must
//! produce exactly its netlists: the same RNG draws, the same
//! accept/reject answers, the same names.

use crate::spec::{hash_name, BenchSpec, PIN_SPACING};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sadp_grid::{Net, Netlist, Pin};
use std::collections::HashSet;

fn generate(spec: &BenchSpec, seed: u64) -> Netlist {
    generate_with_used(spec, seed, &mut HashSet::new())
}

fn generate_bus_style(spec: &BenchSpec, seed: u64, bus_fraction: f64) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(spec.name) ^ 0xB05);
    let mut used: HashSet<(i32, i32)> = HashSet::new();
    let mut netlist = Netlist::new();
    let bus_nets = ((spec.nets as f64 * bus_fraction).round() as usize).min(spec.nets);
    let mut attempts = 0usize;
    'buses: while netlist.len() < bus_nets && attempts < 50 * spec.nets.max(10) {
        attempts += 1;
        let bits = (2 + rng.gen_range(0..7usize)).min(bus_nets - netlist.len());
        let len = rng.gen_range(8..(spec.width / 2).max(9));
        let x0 = rng.gen_range(2..(spec.width - len - 2).max(3));
        let y0 = rng.gen_range(2..(spec.height - PIN_SPACING * bits as i32 - 2).max(3));
        let mut pins = Vec::new();
        for b in 0..bits as i32 {
            let y = y0 + b * PIN_SPACING;
            for x in [x0, x0 + len] {
                let clear = (-(PIN_SPACING - 1)..PIN_SPACING).all(|dx| {
                    (-(PIN_SPACING - 1)..PIN_SPACING).all(|dy| !used.contains(&(x + dx, y + dy)))
                });
                if !clear {
                    continue 'buses;
                }
                pins.push((x, y));
            }
        }
        for &(x, y) in &pins {
            used.insert((x, y));
        }
        for (b, pair) in pins.chunks(2).enumerate() {
            netlist.push(Net::new(
                format!("{}_bus{}_{}", spec.name, netlist.len(), b),
                vec![
                    Pin::new(pair[0].0, pair[0].1),
                    Pin::new(pair[1].0, pair[1].1),
                ],
            ));
        }
    }
    let remaining = BenchSpec {
        nets: spec.nets - netlist.len(),
        ..*spec
    };
    for (_, net) in generate_with_used(&remaining, seed, &mut used).iter() {
        netlist.push(net.clone());
    }
    netlist
}

fn generate_with_used(spec: &BenchSpec, seed: u64, used: &mut HashSet<(i32, i32)>) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(spec.name));
    let mut netlist = Netlist::new();
    let margin = 2i32;
    'nets: for k in 0..spec.nets {
        for _attempt in 0..200 {
            let pin_count = match rng.gen_range(0..100) {
                0..=59 => 2,
                60..=84 => 3,
                85..=94 => 4,
                _ => 5,
            };
            let local_cap = 30.min(spec.width.min(spec.height) / 2).max(8);
            let span = if rng.gen_range(0..100) < 10 {
                rng.gen_range(local_cap..=(spec.width.min(spec.height) / 4).max(local_cap + 1))
            } else {
                rng.gen_range(4..=local_cap)
            };
            let cx = rng.gen_range(margin..(spec.width - margin - 1).max(margin + 1));
            let cy = rng.gen_range(margin..(spec.height - margin - 1).max(margin + 1));
            if let Some(pins) = place_pins(&mut rng, used, spec, cx, cy, span, pin_count) {
                for &p in &pins {
                    used.insert((p.x, p.y));
                }
                netlist.push(Net::new(format!("{}_{k}", spec.name), pins));
                continue 'nets;
            }
        }
        break;
    }
    netlist
}

fn place_pins(
    rng: &mut SmallRng,
    used: &HashSet<(i32, i32)>,
    spec: &BenchSpec,
    cx: i32,
    cy: i32,
    span: i32,
    pin_count: usize,
) -> Option<Vec<Pin>> {
    let margin = 2i32;
    let x0 = (cx - span / 2).max(margin);
    let y0 = (cy - span / 2).max(margin);
    let x1 = (cx + span / 2).min(spec.width - 1 - margin);
    let y1 = (cy + span / 2).min(spec.height - 1 - margin);
    if x1 <= x0 || y1 <= y0 {
        return None;
    }
    let mut pins: Vec<Pin> = Vec::with_capacity(pin_count);
    let mut fresh: Vec<(i32, i32)> = Vec::new();
    'pins: for _ in 0..pin_count {
        for _try in 0..60 {
            let x = rng.gen_range(x0..=x1);
            let y = rng.gen_range(y0..=y1);
            let clear = |set: &HashSet<(i32, i32)>| {
                for dx in -(PIN_SPACING - 1)..PIN_SPACING {
                    for dy in -(PIN_SPACING - 1)..PIN_SPACING {
                        if set.contains(&(x + dx, y + dy)) {
                            return false;
                        }
                    }
                }
                true
            };
            let local: HashSet<(i32, i32)> = fresh.iter().copied().collect();
            if clear(used) && clear(&local) {
                pins.push(Pin::new(x, y));
                fresh.push((x, y));
                continue 'pins;
            }
        }
        return None;
    }
    Some(pins)
}

/// Each differential is its own test so the harness runs them side by
/// side; together they take a few seconds in a debug build.
mod tests {
    use super::*;

    const SEEDS: [u64; 4] = [1, 2, 7, 42];

    fn assert_same(spec: &BenchSpec, seed: u64) {
        assert_eq!(
            spec.generate(seed),
            generate(spec, seed),
            "{} ({} nets, {}x{}) seed {seed}",
            spec.name,
            spec.nets,
            spec.width,
            spec.height
        );
    }

    #[test]
    fn paper_suite_at_small_scales_matches_the_oracle() {
        for spec in BenchSpec::paper_suite() {
            for factor in [0.02, 0.05] {
                for seed in SEEDS {
                    assert_same(&spec.scaled(factor), seed);
                }
            }
        }
    }

    #[test]
    fn paper_suite_at_quarter_scale_matches_the_oracle() {
        for spec in &BenchSpec::paper_suite()[..5] {
            for seed in SEEDS {
                assert_same(&spec.scaled(0.25), seed);
            }
        }
    }

    #[test]
    fn top_at_quarter_scale_matches_the_oracle() {
        let top = BenchSpec::by_name("top").unwrap().scaled(0.25);
        for seed in SEEDS {
            assert_same(&top, seed);
        }
    }

    #[test]
    fn full_size_ecc_matches_the_oracle() {
        let ecc = BenchSpec::by_name("ecc").unwrap();
        for seed in SEEDS {
            assert_same(&ecc, seed);
        }
    }

    #[test]
    fn synthetic_instances_match_the_oracle() {
        for nets in [1, 2, 5, 38, 56, 400, 1000, 5000] {
            for seed in 1..=5 {
                assert_same(&BenchSpec::synthetic(nets), seed);
            }
        }
    }

    /// Dies the paper suite never makes: too small or too crowded for
    /// every net (the generator stops early), and narrower than any
    /// scaled spec, where a bus reaches past the die's edge.
    #[test]
    fn crowded_and_tiny_dies_match_the_oracle() {
        for (nets, side) in [(400, 40), (60, 12), (5, 3), (30, 24)] {
            let spec = BenchSpec {
                name: "edge",
                nets,
                width: side,
                height: side + 1,
            };
            for seed in 1..=3 {
                assert_same(&spec, seed);
                assert_eq!(
                    spec.generate_bus_style(seed, 0.5),
                    generate_bus_style(&spec, seed, 0.5),
                    "{nets} nets on {side} tracks, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn bus_style_matches_the_oracle() {
        for name in ["ecc", "alu", "div"] {
            let spec = BenchSpec::by_name(name).unwrap().scaled(0.1);
            for fraction in [0.3, 0.6] {
                for seed in SEEDS {
                    assert_eq!(
                        spec.generate_bus_style(seed, fraction),
                        generate_bus_style(&spec, seed, fraction),
                        "{name} @ 0.1, fraction {fraction}, seed {seed}"
                    );
                }
            }
        }
    }
}
