//! The `chip-signoff` workload: the cherry proxy through `acelint`'s
//! path (ERC) and `acedrc`'s path (DRC), each from CIF text.

use std::collections::BTreeMap;

use ace_conformance::harness::extract_pruned;
use ace_conformance::{lint_signature, oracle_violations, BackendId};
use ace_core::{extract_library_probed, ExtractOptions, NullProbe};
use ace_drc::RuleDeck;
use ace_layout::{FlatLayout, Library};
use ace_lint::{extract_library_linted, lint_extraction, sort_diagnostics, Diagnostic, LintConfig};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};

use crate::calib;
use crate::checks::{equal, rule_counts, same_lines, Checks};
use crate::trace::{kernel_then, Trace};
use crate::{mix, stats, Outcome, Run, DEFAULT_SEED};

const NAME: &str = "bench";

/// ERC findings per rule on the standard cherry proxy (seed 0),
/// pinned when the benchmark was written.
const PINNED_LINT_COUNTS: [(&str, u64); 2] = [("floating-gate", 669), ("undriven-net", 766)];

/// The references every answer is checked against, computed once
/// and untimed.
struct Reference {
    /// ERC renders from the HEXT extractor's netlist, linted against
    /// the same flat layout.
    lint: Vec<String>,
    /// DRC renders built from the brute-force grid oracle.
    drc: Vec<String>,
}

fn render(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(Diagnostic::render).collect()
}

fn reference(cif: &str) -> Result<Reference, String> {
    let lib = Library::from_cif_text(cif).map_err(|e| e.to_string())?;
    let flat = FlatLayout::from_library(&lib);
    let hext = extract_pruned(BackendId::Hext, &lib).map_err(|e| e.to_string())?;
    let lint = lint_signature(&hext.netlist, &flat);
    let config = LintConfig::new();
    let mut drc: Vec<Diagnostic> = oracle_violations(&flat, &RuleDeck::nmos())
        .iter()
        .filter(|v| config.is_enabled(v.rule_id()))
        .map(|v| v.to_diagnostic(&config))
        .collect();
    sort_diagnostics(&mut drc);
    Ok(Reference {
        lint,
        drc: render(&drc),
    })
}

/// `acelint`'s path: CIF text → rendered ERC diagnostics.
fn erc(cif: &str) -> Result<Vec<String>, String> {
    let lib = Library::from_cif_text(cif).map_err(|e| e.to_string())?;
    let linted = extract_library_linted(
        &lib,
        NAME,
        ExtractOptions::default().with_lints(),
        &LintConfig::new(),
        &NullProbe,
    )
    .map_err(|e| e.to_string())?;
    Ok(render(&linted.diagnostics))
}

/// `acedrc`'s path: CIF text → rendered DRC violations.
fn drc(cif: &str) -> Result<Vec<String>, String> {
    let lib = Library::from_cif_text(cif).map_err(|e| e.to_string())?;
    let flat = FlatLayout::from_library(&lib);
    Ok(render(&ace_drc::check(
        &flat,
        &RuleDeck::nmos(),
        &LintConfig::new(),
    )))
}

/// [`erc`] split into the calls `extract_library_linted` makes, each
/// in its own span; `free` is the deallocation the untraced path pays
/// when its locals go out of scope.
fn traced_erc(cif: &str, trace: &Trace, parent: usize, iter: u64) -> Result<Vec<String>, String> {
    trace.covered("erc", Some(parent), iter, |op| {
        let file = trace.span("cif.parse", Some(op), iter, |_| ace_cif::parse(cif));
        let file = file.map_err(|e| e.to_string())?;
        let lib = trace.span("layout.build", Some(op), iter, |_| Library::from_cif(&file));
        let lib = lib.map_err(|e| e.to_string())?;
        let options = ExtractOptions::default().with_lints();
        let extraction = trace.span("core.extract", Some(op), iter, |id| {
            let probe = crate::trace::TraceProbe::new(trace, id, iter);
            let out = extract_library_probed(&lib, NAME, options, &probe);
            probe.finish();
            out
        });
        let mut extraction = extraction.map_err(|e| e.to_string())?;
        let flat = trace.span("layout.flatten", Some(op), iter, |_| {
            FlatLayout::from_library(&lib)
        });
        let diags = trace.span("lint.run", Some(op), iter, |_| {
            lint_extraction(&mut extraction, &flat, &LintConfig::new(), &NullProbe)
        });
        let rendered = trace.span("lint.render", Some(op), iter, |_| render(&diags));
        trace.span("free", Some(op), iter, |_| {
            drop((diags, flat, extraction, lib, file))
        });
        Ok(rendered)
    })
}

/// [`drc`] with each call in its own span.
fn traced_drc(cif: &str, trace: &Trace, parent: usize, iter: u64) -> Result<Vec<String>, String> {
    trace.covered("drc", Some(parent), iter, |op| {
        let file = trace.span("cif.parse", Some(op), iter, |_| ace_cif::parse(cif));
        let file = file.map_err(|e| e.to_string())?;
        let lib = trace.span("layout.build", Some(op), iter, |_| Library::from_cif(&file));
        let lib = lib.map_err(|e| e.to_string())?;
        let flat = trace.span("layout.flatten", Some(op), iter, |_| {
            FlatLayout::from_library(&lib)
        });
        let deck = trace.span("drc.deck", Some(op), iter, |_| RuleDeck::nmos());
        let diags = trace.span("drc.check", Some(op), iter, |_| {
            ace_drc::check(&flat, &deck, &LintConfig::new())
        });
        let rendered = trace.span("drc.render", Some(op), iter, |_| render(&diags));
        trace.span("free", Some(op), iter, |_| {
            drop((diags, deck, flat, lib, file))
        });
        Ok(rendered)
    })
}

fn check(
    checks: &mut Checks,
    reference: &Reference,
    erc: &Result<Vec<String>, String>,
    drc: &Result<Vec<String>, String>,
) {
    let lint = erc
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|got| same_lines("erc", got, &reference.lint));
    checks.record("erc", lint);
    let violations = drc
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|got| same_lines("drc", got, &reference.drc));
    checks.record("drc", violations);
}

/// Cherry variants one run cycles through, so that its medians do
/// not hang on one seed's layout.
const VARIANTS: u64 = 4;

/// One generated chip and its references.
struct Variant {
    cif: String,
    boxes: u64,
    reference: Reference,
}

fn variant(seed: u64) -> Result<Variant, String> {
    let paper = paper_chip("cherry").expect("cherry is a paper chip");
    let chip = generate_chip(&ChipSpec {
        seed: paper.seed.wrapping_add(seed),
        ..*paper
    });
    let reference = reference(&chip.cif)?;
    Ok(Variant {
        cif: chip.cif,
        boxes: chip.boxes,
        reference,
    })
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    // Variant 0 is the workload seed's own chip (the standard cherry
    // proxy at seed 0); the others derive from it.
    let variants = (0..VARIANTS)
        .map(|v| variant(if v == 0 { run.seed } else { mix(run.seed, v) }))
        .collect::<Result<Vec<_>, _>>()?;
    if run.seed == DEFAULT_SEED {
        let pinned: BTreeMap<String, u64> = PINNED_LINT_COUNTS
            .iter()
            .map(|(rule, n)| (rule.to_string(), *n))
            .collect();
        equal(
            "pinned ERC counts",
            rule_counts(&variants[0].reference.lint),
            pinned,
        )?;
    }
    let pick = |i: u64| &variants[(i % VARIANTS) as usize];

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    // Warm-up answers are the same as the loop's, which checks every
    // one.
    for k in 0..run.setups() {
        let v = pick(k as u64);
        let (setup, _) = calib::timed(|| (erc(&v.cif), drc(&v.cif)));
        setups.push(setup);
    }

    let trace = Trace::new();
    let mut erc_s = Vec::new();
    let mut drc_s = Vec::new();
    let mut plain_iters = Vec::new();
    let mut traced_iters = Vec::new();
    let mut counts = (Vec::new(), Vec::new());
    let mut checks = Checks::default();
    run.until_deadline(|i| {
        let v = pick(i);
        let (lint, violations) = if run.trace && i % 2 == 1 {
            let iter = trace.open_covered("iteration", None, i);
            let (erc_time, lint) =
                kernel_then(&trace, iter, i, 1, || traced_erc(&v.cif, &trace, iter, i));
            let (drc_time, violations) =
                kernel_then(&trace, iter, i, 1, || traced_drc(&v.cif, &trace, iter, i));
            trace.close(iter);
            traced_iters.push(erc_time + drc_time);
            (lint, violations)
        } else {
            let (erc_time, lint) = calib::timed(|| erc(&v.cif));
            let (drc_time, violations) = calib::timed(|| drc(&v.cif));
            plain_iters.push(erc_time.time + drc_time.time);
            erc_s.push(erc_time);
            drc_s.push(drc_time);
            (lint, violations)
        };
        counts.0.push(lint.as_ref().map_or(0, Vec::len) as f64);
        counts
            .1
            .push(violations.as_ref().map_or(0, Vec::len) as f64);
        check(&mut checks, &v.reference, &lint, &violations);
    });
    out.checks = checks;

    if run.trace {
        let m = &mut out.metrics;
        let spans = trace.spans();
        m.set_span_medians(
            &spans,
            &[
                "cif.parse",
                "layout.build",
                "layout.flatten",
                "lint.run",
                "drc.check",
            ],
        );
        m.set_median("lint.diagnostics", &counts.0);
        m.set_median("drc.violations", &counts.1);
        out.trace_overhead(&traced_iters, &plain_iters);
        out.spans = spans;
        return Ok(out);
    }

    let (_, setup) = out.timing("setup_s", "s", 1.0, &setups)?;
    let (raw_erc, erc_p50) = out.timing("erc_s", "s", 1.0, &erc_s)?;
    let (raw_drc, drc_p50) = out.timing("drc_s", "s", 1.0, &drc_s)?;
    let boxes = variants.iter().map(|v| v.boxes as f64).sum::<f64>() / VARIANTS as f64;
    out.ledger_adjusted(
        "signoff_boxes_per_s",
        "1/s",
        boxes / (raw_erc + raw_drc),
        boxes / (erc_p50 + drc_p50),
    );
    out.ledger("iterations", "count", erc_s.len() as f64);
    out.ledger(
        "lint_diagnostics",
        "count",
        stats::median(&counts.0).unwrap_or(0.0),
    );
    out.ledger(
        "drc_violations",
        "count",
        stats::median(&counts.1).unwrap_or(0.0),
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup);
    m.set("main_p50_ms", erc_p50 * 1e3);
    m.set("second_p50_ms", drc_p50 * 1e3);
    m.set("throughput_per_s", boxes / (erc_p50 + drc_p50));
    Ok(out)
}
