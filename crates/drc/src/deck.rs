//! Declarative rule decks: the per-layer width/space/enclosure table.
//!
//! A [`RuleDeck`] is the checkable artifact the checker runs — rules
//! are data, not match arms, so a future technology file can swap the
//! whole table without touching the engine. The text format is one
//! rule per line:
//!
//! ```text
//! # NMOS λ = 2.5 µm (coordinates in centimicrons, λ = 250)
//! deck nmos-lambda-250
//! width   ND 500
//! space   NM 750
//! enclose NC ND+NP 250
//! extend  NP ND 500
//! ```
//!
//! `width`/`space` take a layer and a minimum dimension; `enclose`
//! takes an inner layer, a `+`-joined union of outer layers, and the
//! required margin on every side; `extend` takes the crossing layer
//! pair and the margin the union must cover past each crossing.
//! Every dimension is a positive integer no larger than
//! [`MAX_DIMENSION`].

use std::error::Error;
use std::fmt;

use ace_geom::{Coord, Layer};

/// Largest dimension a rule may carry: 2²⁴ centimicrons (about
/// 168 m), far past any mask feature.
///
/// A check inflates geometry by at most twice a rule's dimension, so
/// under this bound every inflated coordinate, and every uncovered
/// area, of a layout that fits in a 2³¹-centimicron square stays
/// inside `i64`. [`RuleDeck::parse`] rejects anything larger.
pub const MAX_DIMENSION: Coord = 1 << 24;

/// One declarative design rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrcRule {
    /// Every region of `layer` must admit a `min`×`min` square: no
    /// point may be part of a feature narrower than `min` (checked as
    /// a morphological opening deficiency).
    Width {
        /// The checked mask layer.
        layer: Layer,
        /// Minimum feature dimension in centimicrons.
        min: Coord,
    },
    /// Distinct merged regions of `layer` must sit at least `min`
    /// apart (Chebyshev distance, so diagonal corner gaps count).
    /// Overlapping or abutting rects merge into one region first and
    /// never trip this rule against themselves.
    Spacing {
        /// The checked mask layer.
        layer: Layer,
        /// Minimum edge-to-edge separation in centimicrons.
        min: Coord,
    },
    /// Every merged region of `inner` must be covered, inflated by
    /// `margin` on all sides, by the union of the `outer` layers.
    Enclosure {
        /// The enclosed layer (typically contact cuts).
        inner: Layer,
        /// Outer layers whose union must provide the enclosure.
        outer: Vec<Layer>,
        /// Required margin on every side, in centimicrons.
        margin: Coord,
    },
    /// Wherever `over` crosses `past`, the union of the two layers
    /// must cover the crossing's axis-aligned surroundings out to
    /// `margin` — e.g. gate poly must extend past the diffusion edge,
    /// and diffusion must continue past the gate on both sides.
    Extension {
        /// The crossing layer (gate poly).
        over: Layer,
        /// The crossed layer (diffusion).
        past: Layer,
        /// Required extension past each crossing, in centimicrons.
        margin: Coord,
    },
}

/// A named, ordered collection of [`DrcRule`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDeck {
    /// Deck identifier, reported in diagnostics tooling.
    pub name: String,
    /// The rules, in deck order (report order follows the canonical
    /// diagnostic sort, not deck order).
    pub rules: Vec<DrcRule>,
}

/// Why a deck failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeckParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DeckParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deck line {}: {}", self.line, self.message)
    }
}

impl Error for DeckParseError {}

impl RuleDeck {
    /// The built-in NMOS λ-rule deck (λ = 250 centimicrons = 2.5 µm),
    /// after Mead–Conway: 2λ minimum features and poly/diffusion
    /// spacing, 3λ metal width and spacing, 2λ cuts with 1λ
    /// enclosure, and 2λ gate extension past the channel.
    pub fn nmos() -> RuleDeck {
        const LAMBDA: Coord = ace_geom::LAMBDA;
        RuleDeck {
            name: "nmos-lambda-250".to_string(),
            rules: vec![
                DrcRule::Width {
                    layer: Layer::Diffusion,
                    min: 2 * LAMBDA,
                },
                DrcRule::Width {
                    layer: Layer::Poly,
                    min: 2 * LAMBDA,
                },
                DrcRule::Width {
                    layer: Layer::Metal,
                    min: 3 * LAMBDA,
                },
                DrcRule::Width {
                    layer: Layer::Cut,
                    min: 2 * LAMBDA,
                },
                DrcRule::Spacing {
                    layer: Layer::Diffusion,
                    min: 3 * LAMBDA,
                },
                DrcRule::Spacing {
                    layer: Layer::Poly,
                    min: 2 * LAMBDA,
                },
                DrcRule::Spacing {
                    layer: Layer::Metal,
                    min: 3 * LAMBDA,
                },
                DrcRule::Spacing {
                    layer: Layer::Cut,
                    min: 2 * LAMBDA,
                },
                DrcRule::Enclosure {
                    inner: Layer::Cut,
                    outer: vec![Layer::Metal],
                    margin: LAMBDA,
                },
                DrcRule::Enclosure {
                    inner: Layer::Cut,
                    outer: vec![Layer::Diffusion, Layer::Poly],
                    margin: LAMBDA,
                },
                DrcRule::Extension {
                    over: Layer::Poly,
                    past: Layer::Diffusion,
                    margin: 2 * LAMBDA,
                },
            ],
        }
    }

    /// Parses the text format described in the module docs. Blank
    /// lines and `#` comments are ignored; a missing `deck` line
    /// leaves the name empty.
    pub fn parse(text: &str) -> Result<RuleDeck, DeckParseError> {
        let mut deck = RuleDeck {
            name: String::new(),
            rules: Vec::new(),
        };
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let err = |message: String| DeckParseError { line, message };
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut words = body.split_whitespace();
            let keyword = words.next().expect("non-empty line has a word");
            let fields: Vec<&str> = words.collect();
            let layer = |name: &str| {
                Layer::from_cif_name(name).ok_or_else(|| err(format!("unknown layer `{name}`")))
            };
            let margin = |value: &str| match value.parse::<Coord>() {
                Ok(v) if v > MAX_DIMENSION => Err(err(format!(
                    "dimension {v} exceeds the maximum of {MAX_DIMENSION}"
                ))),
                Ok(v) if v > 0 => Ok(v),
                _ => Err(err(format!("`{value}` is not a positive dimension"))),
            };
            match keyword {
                "deck" => {
                    let [name] = fields[..] else {
                        return Err(err("expected `deck NAME`".to_string()));
                    };
                    deck.name = name.to_string();
                }
                "width" | "space" => {
                    let [l, m] = fields[..] else {
                        return Err(err(format!("expected `{keyword} LAYER MIN`")));
                    };
                    let (layer, min) = (layer(l)?, margin(m)?);
                    deck.rules.push(if keyword == "width" {
                        DrcRule::Width { layer, min }
                    } else {
                        DrcRule::Spacing { layer, min }
                    });
                }
                "enclose" => {
                    let [inner, outers, m] = fields[..] else {
                        return Err(err("expected `enclose INNER OUTER[+OUTER…] MARGIN`".into()));
                    };
                    let outer = outers
                        .split('+')
                        .map(layer)
                        .collect::<Result<Vec<Layer>, DeckParseError>>()?;
                    deck.rules.push(DrcRule::Enclosure {
                        inner: layer(inner)?,
                        outer,
                        margin: margin(m)?,
                    });
                }
                "extend" => {
                    let [over, past, m] = fields[..] else {
                        return Err(err("expected `extend OVER PAST MARGIN`".to_string()));
                    };
                    deck.rules.push(DrcRule::Extension {
                        over: layer(over)?,
                        past: layer(past)?,
                        margin: margin(m)?,
                    });
                }
                other => return Err(err(format!("unknown rule keyword `{other}`"))),
            }
        }
        Ok(deck)
    }

    /// Renders the deck back into its text format ([`RuleDeck::parse`]
    /// round-trips it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.name.is_empty() {
            out.push_str(&format!("deck {}\n", self.name));
        }
        for rule in &self.rules {
            match rule {
                DrcRule::Width { layer, min } => {
                    out.push_str(&format!("width {} {min}\n", layer.cif_name()));
                }
                DrcRule::Spacing { layer, min } => {
                    out.push_str(&format!("space {} {min}\n", layer.cif_name()));
                }
                DrcRule::Enclosure {
                    inner,
                    outer,
                    margin,
                } => {
                    let outers: Vec<&str> = outer.iter().map(|l| l.cif_name()).collect();
                    out.push_str(&format!(
                        "enclose {} {} {margin}\n",
                        inner.cif_name(),
                        outers.join("+")
                    ));
                }
                DrcRule::Extension { over, past, margin } => {
                    out.push_str(&format!(
                        "extend {} {} {margin}\n",
                        over.cif_name(),
                        past.cif_name()
                    ));
                }
            }
        }
        out
    }
}

impl Default for RuleDeck {
    fn default() -> Self {
        RuleDeck::nmos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_deck_round_trips_through_text() {
        let deck = RuleDeck::nmos();
        let parsed = RuleDeck::parse(&deck.render()).expect("renders parse");
        assert_eq!(parsed, deck);
        assert_eq!(parsed.name, "nmos-lambda-250");
        assert_eq!(parsed.rules.len(), 11);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let deck = RuleDeck::parse(
            "# a comment\n\ndeck tiny\nwidth NM 750  # trailing comment\n  space ND 500\n",
        )
        .expect("parses");
        assert_eq!(deck.name, "tiny");
        assert_eq!(
            deck.rules,
            vec![
                DrcRule::Width {
                    layer: Layer::Metal,
                    min: 750
                },
                DrcRule::Spacing {
                    layer: Layer::Diffusion,
                    min: 500
                },
            ]
        );
    }

    #[test]
    fn enclosure_outer_unions_parse() {
        let deck = RuleDeck::parse("enclose NC ND+NP 250\n").expect("parses");
        assert_eq!(
            deck.rules,
            vec![DrcRule::Enclosure {
                inner: Layer::Cut,
                outer: vec![Layer::Diffusion, Layer::Poly],
                margin: 250
            }]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("width XX 500", "unknown layer"),
            ("width NM", "expected `width LAYER MIN`"),
            ("width NM -5", "not a positive dimension"),
            ("width NM 0", "not a positive dimension"),
            ("frobnicate NM 500", "unknown rule keyword"),
            ("enclose NC ND+XX 250", "unknown layer"),
        ];
        for (text, needle) in cases {
            let err = RuleDeck::parse(&format!("deck t\n{text}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn dimensions_above_the_bound_are_rejected() {
        let at_bound = format!("width NM {MAX_DIMENSION}\n");
        assert!(RuleDeck::parse(&at_bound).is_ok());
        // Parsed, the first two overflowed `Rect::inflate` in the checker.
        for text in [
            "enclose NC NM 4611686018427387904",
            "width NM 9223372036854775000",
            "space NP 16777217",
            "extend NP ND 9223372036854775807",
        ] {
            let err = RuleDeck::parse(&format!("deck t\n{text}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(
                err.message.contains("exceeds the maximum of 16777216"),
                "{text}: {err}"
            );
        }
    }
}
