//! Geometric design-rule checking (DRC) for flat mask artwork.
//!
//! The extractor tells you what circuit the masks make; this crate
//! tells you whether the masks are manufacturable at all. It checks
//! the four classic λ-rule families over a [`ace_layout::FlatLayout`]:
//!
//! | rule | fires when |
//! |------|------------|
//! | `min-width` | a feature admits no `min`×`min` square (morphological opening) |
//! | `min-spacing` | two *distinct* merged regions sit closer than `min` (Chebyshev) |
//! | `min-enclosure` | an inner region's `margin`-inflation escapes the outer union |
//! | `min-overlap` | a crossing lacks its `margin` extension (gate past diffusion) |
//!
//! Rules live in a declarative [`RuleDeck`] — a parseable text table,
//! not code — with the Mead–Conway NMOS λ = 2.5 µm deck built in
//! ([`RuleDeck::nmos`]).
//!
//! The load-bearing property is **decomposition invariance**: every
//! check first reduces each layer to its canonical maximal-strip
//! cover ([`ace_geom::merge_boxes`] and the boolean ops), which
//! depends only on the drawn point set. Two fracturings of the same
//! artwork — different box counts, bands, feed order — yield
//! byte-identical violation lists. `ace_conformance --drc` enforces
//! this against an independent brute-force oracle.
//!
//! Findings render as [`ace_lint::Diagnostic`]s under the geometric
//! [`ace_lint::RuleId`]s, so they flow through the existing text,
//! snapshot, and SARIF emitters unchanged. The `acedrc` binary fronts
//! it all:
//!
//! ```text
//! cargo run -p ace_drc --bin acedrc -- chip.cif --format sarif
//! ```
//!
//! # Examples
//!
//! ```
//! use ace_drc::{check_layout, RuleDeck, Violation};
//! use ace_layout::{FlatLayout, Library};
//!
//! let lib = Library::from_cif_text("L NM; B 500 2000 250 1000; E")?;
//! let layout = FlatLayout::from_library(&lib);
//! let violations = check_layout(&layout, &RuleDeck::nmos());
//! assert_eq!(violations.len(), 1);
//! assert!(matches!(violations[0], Violation::Width { .. }));
//! # Ok::<(), ace_layout::BuildLayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod deck;
mod engine;
pub mod region;

pub use deck::{DeckParseError, DrcRule, RuleDeck, MAX_DIMENSION};
pub use engine::{check, check_extraction, check_layout, Violation};
