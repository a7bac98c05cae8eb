//! Exactness of the DRC checker's shortcuts against the brute-force
//! oracle: the windowed enclosure/extension subtraction (only the
//! outer cells near each inner component take part) and the x-sorted
//! spacing sweep (pairs stop once hulls are `min` apart in x).
//!
//! The hand-built cases sit on the edges of both shortcuts; the chip
//! cases run the full decomposition-invariance gate on covers large
//! enough for a window bug to matter.

use ace_conformance::drc_check;
use ace_drc::{check_layout, RuleDeck, Violation};
use ace_geom::{Coord, Layer, Rect};
use ace_layout::{FlatLayout, Library};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};

fn layout(boxes: &[(Layer, Rect)]) -> FlatLayout {
    let mut flat = FlatLayout::new();
    for &(layer, rect) in boxes {
        flat.push_box(layer, rect);
    }
    flat
}

/// Checker and oracle agree (and so do the split and reversed-feed
/// variants); returns the checker's list.
fn agreed(flat: &FlatLayout, deck: &RuleDeck) -> Vec<Violation> {
    if let Some(diff) = drc_check(flat, deck) {
        panic!("{diff}");
    }
    check_layout(flat, deck)
}

fn uncovered(v: &[Violation]) -> Vec<i64> {
    v.iter()
        .filter_map(|v| match v {
            Violation::Enclosure { uncovered, .. } | Violation::Extension { uncovered, .. } => {
                Some(*uncovered)
            }
            _ => None,
        })
        .collect()
}

/// Metal squares far to the right, one per row, so the cover holds
/// many cells sorted between a tall cell's start and a window.
fn distractors(rows: Coord, from_y: Coord) -> Vec<(Layer, Rect)> {
    (0..rows)
        .map(|i| {
            let y = from_y + i * 2000;
            (Layer::Metal, Rect::new(50_000, y, 51_000, y + 1000))
        })
        .collect()
}

#[test]
fn tall_outer_cell_reaches_a_window_far_above_its_start() {
    let deck = RuleDeck::parse("enclose NC NM 250\n").expect("deck");
    let cut = (Layer::Cut, Rect::new(0, 0, 500, 500));
    for (top, expect) in [
        // Covers the cut's 1000×1000 window: clean.
        (2000, vec![]),
        // Stops 100 short of the window's top edge.
        (650, vec![100 * 1000]),
    ] {
        let mut boxes = vec![cut, (Layer::Metal, Rect::new(-1000, -200_000, 1500, top))];
        boxes.extend(distractors(100, -199_000));
        let v = agreed(&layout(&boxes), &deck);
        assert_eq!(uncovered(&v), expect, "top {top}");
    }
}

#[test]
fn diagonal_neighbour_cell_counts_toward_enclosure() {
    let deck = RuleDeck::parse("enclose NC NM 250\n").expect("deck");
    let cut = (Layer::Cut, Rect::new(0, 0, 500, 500));
    let main = (Layer::Metal, Rect::new(0, 0, 750, 750));
    // A cell below-left of the cut, sharing neither its x nor its y
    // range, covers a 150×150 corner of the 1000×1000 window.
    let diagonal = (Layer::Metal, Rect::new(-1250, -1250, -100, -100));
    let v = agreed(&layout(&[cut, main, diagonal]), &deck);
    assert_eq!(uncovered(&v), vec![1000 * 1000 - 750 * 750 - 150 * 150]);
    // Closing the ring with strips that meet the diagonal block only
    // at the window's corner: fully enclosed.
    let ring = [
        cut,
        main,
        (Layer::Metal, Rect::new(-250, 0, 0, 750)),
        (Layer::Metal, Rect::new(0, -250, 750, 0)),
        (Layer::Metal, Rect::new(-1250, -1250, 0, 0)),
    ];
    assert_eq!(agreed(&layout(&ring), &deck), vec![]);
}

#[test]
fn extension_window_sees_tall_and_diagonal_union_cells() {
    let deck = RuleDeck::parse("extend NP ND 500\n").expect("deck");
    // A vertical diffusion strip starting far below the gate, a poly
    // gate crossing it, and poly/diffusion cells all around.
    let mut boxes = vec![
        (Layer::Diffusion, Rect::new(0, -100_000, 500, 1500)),
        (Layer::Poly, Rect::new(-500, 500, 1000, 1000)),
        (Layer::Poly, Rect::new(-3000, -3000, -600, -600)),
    ];
    boxes.extend(
        distractors(40, -99_000)
            .into_iter()
            .map(|(_, r)| (Layer::Poly, r)),
    );
    assert_eq!(agreed(&layout(&boxes), &deck), vec![]);
    // Pull the poly back 100 on the right: the cross arm is short.
    boxes[1].1 = Rect::new(-500, 500, 900, 1000);
    assert_eq!(uncovered(&agreed(&layout(&boxes), &deck)), vec![100 * 500]);
}

#[test]
fn spacing_sweep_stops_exactly_at_the_minimum() {
    let deck = RuleDeck::nmos();
    let min = 750; // NMOS metal spacing
    for y_offset in [300, 1000 + 500] {
        for (x_gap, violates) in [(min - 1, true), (min, false), (min + 1, false)] {
            let a = Rect::new(0, 0, 1000, 1000);
            let b = Rect::new(1000 + x_gap, y_offset, 2000 + x_gap, y_offset + 1000);
            let v = agreed(&layout(&[(Layer::Metal, a), (Layer::Metal, b)]), &deck);
            let gaps: Vec<Coord> = v
                .iter()
                .filter_map(|v| match v {
                    Violation::Spacing { gap, .. } => Some(*gap),
                    _ => None,
                })
                .collect();
            let expect = if violates { vec![x_gap] } else { vec![] };
            assert_eq!(gaps, expect, "x gap {x_gap}, y offset {y_offset}");
        }
    }
}

#[test]
fn spacing_sweep_keeps_pairs_under_a_wide_hull() {
    // A long wire whose hull starts first in x: every square under it
    // sits 600 below (a violation) however far right it starts, and
    // squares between them in x order do not end the wire's scan.
    let mut boxes = vec![(Layer::Metal, Rect::new(0, 1600, 20_000, 2600))];
    for x in [1000, 5000, 9000, 13_000, 17_000] {
        boxes.push((Layer::Metal, Rect::new(x, 0, x + 1000, 1000)));
    }
    let v = agreed(&layout(&boxes), &RuleDeck::nmos());
    let spacing = v
        .iter()
        .filter(|v| matches!(v, Violation::Spacing { gap: 600, .. }))
        .count();
    assert_eq!(spacing, 5, "{v:?}");
}

#[test]
fn cherry_proxy_agrees_with_the_oracle_and_its_variants() {
    let cherry = paper_chip("cherry").expect("cherry is a paper chip");
    for seed in 0..3 {
        let chip = generate_chip(&ChipSpec {
            seed: cherry.seed.wrapping_add(seed),
            ..cherry.scaled(0.25)
        });
        let lib = Library::from_cif_text(&chip.cif).expect("chip parses");
        let flat = FlatLayout::from_library(&lib);
        if let Some(diff) = drc_check(&flat, &RuleDeck::nmos()) {
            panic!("seed {seed}: {diff}");
        }
    }
}
