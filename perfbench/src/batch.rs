//! The batch workloads, `chip-extract` and `mesh-dense`: CIF text →
//! wirelist text in process, once with one sweep and once with two
//! threads, per iteration.

use std::time::Duration;

use ace_core::{
    extract_flat, extract_flat_probed, extract_library, extract_library_probed, CounterProbe,
    ExtractOptions, Extraction, Span,
};
use ace_geom::{Layer, Rect};
use ace_layout::{FlatLayout, Library};
use ace_wirelist::compare::same_circuit;
use ace_wirelist::{write_wirelist, WirelistOptions};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};
use ace_workloads::mesh::{MESH_LINE, MESH_PITCH};

use crate::calib;
use crate::checks::{equal, Checks};
use crate::trace::{kernel_then, Trace, TraceProbe};
use crate::{secs, Outcome, Run};

/// Cell name the extractions run under.
const NAME: &str = "bench";

/// Side of the dense mesh: 2n boxes, n² devices.
const MESH_N: u32 = 256;

/// A generated batch input and what the generator says it holds.
pub struct Input {
    cif: String,
    boxes: u64,
    devices: u64,
}

impl Input {
    /// The scheme81 chip proxy. Seed 0 is the repository's standard
    /// proxy; other seeds move the generator's placement seed.
    pub fn chip(seed: u64) -> Input {
        let paper = paper_chip("scheme81").expect("scheme81 is a paper chip");
        let chip = generate_chip(&ChipSpec {
            seed: paper.seed.wrapping_add(seed),
            ..*paper
        });
        Input {
            cif: chip.cif,
            boxes: chip.boxes,
            devices: chip.devices,
        }
    }

    /// The §4 worst-case mesh: n poly bars crossing n diffusion bars,
    /// translated by a seeded whole number of pitches.
    pub fn mesh(seed: u64) -> Input {
        let n = i64::from(MESH_N);
        let dx = (seed % 61) as i64 * MESH_PITCH;
        let dy = (seed / 61 % 53) as i64 * MESH_PITCH;
        let extent = n * MESH_PITCH;
        let mut w = ace_cif::CifWriter::new();
        for i in 0..n {
            let y = dy + i * MESH_PITCH;
            w.rect_on(
                Layer::Poly,
                Rect::new(dx - MESH_PITCH, y, dx + extent, y + MESH_LINE),
            );
        }
        for i in 0..n {
            let x = dx + i * MESH_PITCH;
            w.rect_on(
                Layer::Diffusion,
                Rect::new(x, dy - MESH_PITCH, x + MESH_LINE, dy + extent),
            );
        }
        Input {
            cif: w.finish(),
            boxes: 2 * n as u64,
            devices: (n * n) as u64,
        }
    }
}

fn two_threads() -> ExtractOptions {
    ExtractOptions::new().with_threads(2)
}

/// One answer: the extraction (for checking) and the wirelist text.
type Answer = Result<(Extraction, String), String>;

/// CIF text → wirelist text through the public entry points.
fn cif_to_wirelist(cif: &str, options: ExtractOptions) -> Answer {
    let lib = Library::from_cif_text(cif).map_err(|e| e.to_string())?;
    let extraction = extract_library(&lib, NAME, options).map_err(|e| e.to_string())?;
    let text = write_wirelist(&extraction.netlist, WirelistOptions::new());
    Ok((extraction, text))
}

/// Checks both answers of one iteration against the generator's
/// device count and against each other.
fn check_iteration(checks: &mut Checks, input: &Input, one: &Answer, two: &Answer) {
    let devices = |a: &Answer| -> Result<(), String> {
        let (ex, text) = a.as_ref().map_err(Clone::clone)?;
        if text.is_empty() {
            return Err("empty wirelist".into());
        }
        equal("devices", ex.netlist.device_count() as u64, input.devices)
    };
    checks.record("extract_1t", devices(one));
    let both = devices(two).and_then(|()| match (one, two) {
        (Ok((a, _)), Ok((b, _))) => same_circuit(&a.netlist, &b.netlist)
            .map_err(|d| format!("1-thread and 2-thread circuits differ: {d:?}")),
        _ => Err("no 1-thread circuit to compare with".into()),
    });
    checks.record("extract_2t", both);
}

/// Per-layer samples of one traced iteration.
#[derive(Default)]
struct Layers {
    phases: [Vec<f64>; 4],
    band_max: Vec<f64>,
    band_sum: Vec<f64>,
    stitch: Vec<f64>,
    steal_wait: Vec<f64>,
    bands_stolen: Vec<f64>,
    band_overhead: Vec<f64>,
    bytes: Vec<f64>,
    counts: Option<[u64; 4]>,
}

const PHASES: [(Span, &str); 4] = [
    (Span::FrontEnd, "core.front_end_s"),
    (Span::Insert, "core.insert_s"),
    (Span::Devices, "core.devices_s"),
    (Span::Output, "core.output_s"),
];

/// The 1-thread path with a span around every public call.
fn traced_1t(
    cif: &str,
    trace: &Trace,
    parent: usize,
    iter: u64,
    counters: &CounterProbe,
) -> Answer {
    trace.covered("extract_1t", Some(parent), iter, |op| {
        let file = trace.span("cif.parse", Some(op), iter, |_| ace_cif::parse(cif));
        let file = file.map_err(|e| e.to_string())?;
        let lib = trace.span("layout.build", Some(op), iter, |_| Library::from_cif(&file));
        let lib = lib.map_err(|e| e.to_string())?;
        let extraction = trace.span("core.extract", Some(op), iter, |id| {
            let probe = TraceProbe::new(trace, id, iter);
            let out =
                extract_library_probed(&lib, NAME, ExtractOptions::new(), &(&probe, counters));
            probe.finish();
            out
        });
        let extraction = extraction.map_err(|e| e.to_string())?;
        let text = trace.span("wirelist.write", Some(op), iter, |_| {
            write_wirelist(&extraction.netlist, WirelistOptions::new())
        });
        trace.span("free", Some(op), iter, |_| drop((lib, file)));
        Ok((extraction, text))
    })
}

/// The 2-thread path: `extract_library` flattens and bands; traced,
/// the flatten is its own call so it gets its own span.
fn traced_2t(cif: &str, trace: &Trace, parent: usize, iter: u64) -> Answer {
    trace.covered("extract_2t", Some(parent), iter, |op| {
        let file = trace.span("cif.parse", Some(op), iter, |_| ace_cif::parse(cif));
        let file = file.map_err(|e| e.to_string())?;
        let lib = trace.span("layout.build", Some(op), iter, |_| Library::from_cif(&file));
        let lib = lib.map_err(|e| e.to_string())?;
        let flat = trace.span("layout.flatten", Some(op), iter, |_| {
            FlatLayout::from_library(&lib)
        });
        let extraction = trace.span("core.extract", Some(op), iter, |id| {
            let probe = TraceProbe::new(trace, id, iter);
            let out = extract_flat_probed(flat, NAME, two_threads(), &probe);
            probe.finish();
            out
        });
        let extraction = extraction.map_err(|e| e.to_string())?;
        let text = trace.span("wirelist.write", Some(op), iter, |_| {
            write_wirelist(&extraction.netlist, WirelistOptions::new())
        });
        trace.span("free", Some(op), iter, |_| drop((lib, file)));
        Ok((extraction, text))
    })
}

/// One sweep over the flattened input: the base the bands' summed
/// sweep time is compared with.
fn flat_sweep(flat: &FlatLayout) -> Result<Duration, String> {
    let extraction =
        extract_flat(flat.clone(), NAME, ExtractOptions::new()).map_err(|e| e.to_string())?;
    Ok(extraction.report.total_time)
}

fn record_layers(
    layers: &mut Layers,
    counters: &CounterProbe,
    one: &Answer,
    two: &Answer,
    one_sweep: Duration,
) {
    for (i, (span, _)) in PHASES.iter().enumerate() {
        layers.phases[i].push(secs(counters.span_time(*span)));
    }
    if let Ok((ex, text)) = one {
        let r = &ex.report;
        layers.counts = Some([
            r.scanline_stops,
            r.fragments,
            r.net_unions,
            r.max_active as u64,
        ]);
        layers.bytes.push(text.len() as f64);
        if let Ok((banded, _)) = two {
            let b = &banded.report;
            let band_times: Vec<f64> = b
                .band_reports
                .iter()
                .map(|br| secs(br.total_time))
                .collect();
            let sum: f64 = band_times.iter().sum();
            layers
                .band_max
                .push(band_times.iter().copied().fold(0.0, f64::max));
            layers.band_sum.push(sum);
            layers.stitch.push(secs(b.stitch.time));
            layers.steal_wait.push(secs(b.steal_wait));
            layers.bands_stolen.push(b.bands_stolen as f64);
            layers.band_overhead.push(sum / secs(one_sweep).max(1e-9));
        }
    }
}

pub fn run(input: Input, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: warm-up iterations, timed whole. Their answers are the
    // same as the loop's, which checks every one.
    let mut setups = Vec::new();
    for _ in 0..run.setups() {
        let (setup, _) = calib::timed(|| {
            (
                cif_to_wirelist(&input.cif, ExtractOptions::new()),
                cif_to_wirelist(&input.cif, two_threads()),
            )
        });
        setups.push(setup);
    }

    let flat = if run.trace {
        let lib = Library::from_cif_text(&input.cif).map_err(|e| e.to_string())?;
        Some(FlatLayout::from_library(&lib))
    } else {
        None
    };
    let trace = Trace::new();
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    let mut plain_iters = Vec::new();
    let mut traced_iters = Vec::new();
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    run.until_deadline(|i| {
        // A traced run alternates plain and traced iterations, so the
        // two can be compared for the tracing overhead.
        let (one, two) = if run.trace && i % 2 == 1 {
            let counters = CounterProbe::new();
            let iter = trace.open_covered("iteration", None, i);
            // The kernel runs before every operation, traced or not, so
            // that both meet the same cache and allocator state.
            let (d1, one) = kernel_then(&trace, iter, i, 1, || {
                traced_1t(&input.cif, &trace, iter, i, &counters)
            });
            let (d2, two) = kernel_then(&trace, iter, i, 2, || {
                traced_2t(&input.cif, &trace, iter, i)
            });
            trace.close(iter);
            traced_iters.push(d1 + d2);
            match flat_sweep(flat.as_ref().expect("traced runs flatten the input")) {
                Ok(one_sweep) => record_layers(&mut layers, &counters, &one, &two, one_sweep),
                Err(e) => checks.record("flat_sweep", Err(e)),
            }
            (one, two)
        } else {
            let (p1, one) = calib::timed(|| cif_to_wirelist(&input.cif, ExtractOptions::new()));
            let (p2, two) = calib::timed_on(2, || cif_to_wirelist(&input.cif, two_threads()));
            plain_iters.push(p1.time + p2.time);
            t1.push(p1);
            t2.push(p2);
            (one, two)
        };
        check_iteration(&mut checks, &input, &one, &two);
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
                "wirelist.write",
            ],
        );
        for (i, (_, metric)) in PHASES.iter().enumerate() {
            m.set_median(metric, &layers.phases[i]);
        }
        if let Some([stops, fragments, unions, active]) = layers.counts {
            m.set("core.scanline_stops", stops as f64);
            m.set("core.fragments", fragments as f64);
            m.set("core.net_unions", unions as f64);
            m.set("core.max_active", active as f64);
        }
        m.set_median("core.band_max_s", &layers.band_max);
        m.set_median("core.band_sum_s", &layers.band_sum);
        m.set_median("core.stitch_s", &layers.stitch);
        m.set_median("core.steal_wait_s", &layers.steal_wait);
        m.set_median("core.bands_stolen", &layers.bands_stolen);
        m.set_median("core.band_overhead_ratio", &layers.band_overhead);
        m.set_median("wirelist.bytes", &layers.bytes);
        out.trace_overhead(&traced_iters, &plain_iters);
        out.spans = spans;
        return Ok(out);
    }

    let (_, setup) = out.timing("setup_s", "s", 1.0, &setups)?;
    let (raw_one, one) = out.timing("extract_1t_s", "s", 1.0, &t1)?;
    let (_, two) = out.timing("extract_2t_s", "s", 1.0, &t2)?;
    let boxes = input.boxes as f64;
    out.ledger_adjusted("boxes_per_s", "1/s", boxes / raw_one, boxes / one);
    out.ledger("iterations", "count", t1.len() as f64);
    out.ledger("boxes", "count", boxes);
    out.ledger("devices", "count", input.devices as f64);
    let m = &mut out.metrics;
    m.set("setup_s", setup);
    m.set("main_p50_ms", one * 1e3);
    m.set("second_p50_ms", two * 1e3);
    m.set("throughput_per_s", boxes / one);
    Ok(out)
}
