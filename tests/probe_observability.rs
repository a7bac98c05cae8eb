//! The probe layer's external contract: an outside `CounterProbe`
//! sees exactly the event stream the extractor's own report is built
//! from, the Chrome-trace sink emits a well-formed timeline with one
//! lane per band, and the summary sink's percentages add up.

use ace::prelude::*;
use ace::workloads::cells::inverter_cif;
use ace::workloads::mesh::mesh_cif;

fn flat_of(src: &str) -> FlatLayout {
    FlatLayout::from_library(&Library::from_cif_text(src).expect("valid CIF"))
}

/// The integer counters an [`ExtractionReport`] is a view over. Span
/// *durations* are measured by independent clocks on the two sides,
/// so only the counters are compared exactly.
fn assert_counters_match(probe: &CounterProbe, report: &ExtractionReport, what: &str) {
    assert_eq!(probe.total(Counter::Boxes), report.boxes, "{what}: boxes");
    assert_eq!(
        probe.total(Counter::ScanlineStops),
        report.scanline_stops,
        "{what}: stops"
    );
    assert_eq!(
        probe.total(Counter::Fragments),
        report.fragments,
        "{what}: fragments"
    );
    assert_eq!(
        probe.total(Counter::NetUnions) + probe.total(Counter::SeamNetUnions),
        report.net_unions,
        "{what}: net unions"
    );
    assert_eq!(
        probe.total(Counter::UnresolvedLabels),
        report.unresolved_labels,
        "{what}: unresolved labels"
    );
    assert_eq!(
        probe.total(Counter::MultiTerminalDevices),
        report.multi_terminal_devices,
        "{what}: multi-terminal devices"
    );
    assert_eq!(
        probe.peak(Counter::MaxActive) as usize,
        report.max_active,
        "{what}: max active"
    );
}

#[test]
fn counter_probe_agrees_with_the_report_on_the_inverter() {
    let probe = CounterProbe::new();
    let r = extract_text_probed(&inverter_cif(), ExtractOptions::new(), &probe)
        .expect("inverter extracts");
    assert!(r.report.boxes > 0);
    assert_counters_match(&probe, &r.report, "inverter");
    // The probe's own report view reproduces the same counters too.
    assert_counters_match(&probe, &probe.report(), "inverter view");
}

#[test]
fn counter_probe_agrees_with_the_report_on_a_banded_mesh() {
    let probe = CounterProbe::new();
    let r = extract_flat_probed(
        flat_of(&mesh_cif(6)),
        "mesh",
        ExtractOptions::new().with_threads(3),
        &probe,
    )
    .expect("mesh extracts");
    assert!(r.report.threads >= 2, "mesh should band");
    assert_counters_match(&probe, &r.report, "banded mesh");
    // Band lanes showed up as separate lanes on the external probe.
    let bands = probe
        .lanes()
        .into_iter()
        .filter(|&l| l != Lane::MAIN)
        .count();
    assert_eq!(bands, r.report.threads, "one lane per band");
    // Stitch counters flow through as well.
    assert_eq!(
        probe.total(Counter::SeamContacts),
        r.report.stitch.seam_contacts
    );
    assert_eq!(
        probe.total(Counter::PairsMatched),
        r.report.stitch.pairs_matched
    );
}

#[test]
fn chrome_trace_schema_is_valid_for_a_banded_run() {
    let trace = ChromeTraceProbe::new();
    let r = extract_flat_probed(
        flat_of(&mesh_cif(6)),
        "mesh",
        ExtractOptions::new().with_threads(3),
        &trace,
    )
    .expect("mesh extracts");
    assert!(r.report.threads >= 2, "mesh should band");

    let events = trace.events();
    assert!(!events.is_empty());

    // Every event is a B or an E; per tid they nest like brackets,
    // with matching names, non-decreasing timestamps per lane.
    let mut stacks: std::collections::BTreeMap<u32, Vec<&'static str>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u32, u64> = Default::default();
    for e in &events {
        let prev = last_ts.entry(e.tid).or_insert(0);
        assert!(e.ts_us >= *prev, "timestamps go backwards on tid {}", e.tid);
        *prev = e.ts_us;
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            'B' => stack.push(e.name),
            'E' => assert_eq!(stack.pop(), Some(e.name), "unbalanced E on tid {}", e.tid),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }

    // One band-sweep lane per band, distinct from the main lane, plus
    // a stitch span on the main lane.
    let band_tids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.name == Span::Band.name())
        .map(|e| e.tid)
        .collect();
    assert_eq!(band_tids.len(), r.report.threads, "one tid per band");
    assert!(!band_tids.contains(&Lane::MAIN.0));
    assert!(
        events
            .iter()
            .any(|e| e.name == Span::Stitch.name() && e.tid == Lane::MAIN.0),
        "stitch span missing"
    );

    // The serialized form is a Chrome-trace object with a
    // `traceEvents` array, thread-name metadata, and one constant pid.
    let json = trace.to_json();
    assert!(json.trim_start().starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    for key in [
        "\"name\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"", "\"cat\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    assert!(
        json.contains("\"ph\":\"M\""),
        "thread-name metadata missing"
    );
    assert!(json.contains("\"name\":\"main\""), "main lane unnamed");
    assert!(json.contains("\"name\":\"band 0\""), "band lane unnamed");
    assert!(json.contains("\"pid\":1"), "pid missing");
    assert!(!json.contains("\"pid\":2"), "more than one pid");
}

#[test]
fn summary_probe_percentages_sum_to_100() {
    let summary = SummaryProbe::new();
    let _ = extract_text_probed(&inverter_cif(), ExtractOptions::new(), &summary)
        .expect("inverter extracts");
    let total: f64 = Phase::ALL.iter().map(|&p| summary.phase_percent(p)).sum();
    assert!((total - 100.0).abs() < 1e-6, "phases sum to {total}");
    let table = summary.table();
    for phase in Phase::ALL {
        assert!(table.contains(phase.label()), "{} missing", phase.label());
    }
}

#[test]
fn drc_pass_is_a_main_lane_span() {
    // A thin metal wire: one min-width violation under the NMOS deck.
    let src = "L NM; B 500 2000 250 1000; E";
    let mut extraction =
        extract_text_probed(src, ExtractOptions::new(), &NullProbe).expect("wire extracts");
    let trace = ChromeTraceProbe::new();
    let counters = CounterProbe::new();
    let diags = drc_check_extraction(
        &mut extraction,
        &flat_of(src),
        &RuleDeck::nmos(),
        &LintConfig::new(),
        &(&trace, &counters),
    );
    assert_eq!(diags.len(), 1);

    // One balanced drc span, on the main lane, in the timeline.
    let drc: Vec<(char, u32)> = trace
        .events()
        .iter()
        .filter(|e| e.name == Span::Drc.name())
        .map(|e| (e.phase, e.tid))
        .collect();
    assert_eq!(drc, vec![('B', Lane::MAIN.0), ('E', Lane::MAIN.0)]);
    assert!(trace.to_json().contains("\"name\":\"drc\""));

    // The aggregate sees the same span beside the DRC counters.
    assert!(counters.lane_span_time(Lane::MAIN, Span::Drc) > std::time::Duration::ZERO);
    assert_eq!(counters.total(Counter::DrcViolations), 1);
    assert_eq!(extraction.report.drc_violations, 1);
}
