//! Band-parallel extraction: the scanline sweep, run on K horizontal
//! bands concurrently, then stitched back into one flat circuit.
//!
//! The sweep itself is inherently sequential — each strip's state
//! depends on the strip above — but the chip can be cut into bands
//! that are swept independently and composed afterwards, exactly the
//! way HEXT composes adjacent windows: "For each pair of touching
//! boundary segments, step through the elements of the
//! interface-segment lists (for corresponding layers) and establish
//! signal equivalences" (HEXT §3). Here the windows are full-width
//! bands, so only Top/Bottom faces ever meet and every seam is a
//! single horizontal line.
//!
//! Cut lines come from [`ace_layout::band_cuts`], which picks existing
//! box edges; since the flat sweep already stops at every box edge,
//! each band sees exactly the strips the flat sweep saw, and the
//! stitched result is canonically the same circuit.
//!
//! The stitch mirrors `ace-hext`'s `compose`:
//!
//! 1. match each seam's Top contacts (band below) against its Bottom
//!    contacts (band above) by layer and positive x-overlap;
//! 2. net ↔ net on the same layer is an equivalence; channel ↔
//!    channel merges two fragments of one device; channel ↔ diffusion
//!    adds a terminal contact with the overlap as its edge length;
//! 3. merged partial transistors are re-finalized with the flat
//!    extractor's width/length rules ([`PartialDevice::finalize`]).

use std::borrow::Cow;
use std::sync::Mutex;

use ace_geom::{merge_boxes, Coord, Layer, Rect};
use ace_layout::{band_cuts, partition_bands, EagerFeed, FlatLabel, FlatLayout};
use ace_wirelist::{Device, Net, NetId, NetParasitics, Netlist, PartialDevice, UnionFind};

use crate::extract::{ExtractError, Extraction};
use crate::probe::{Counter, CounterProbe, Lane, NullProbe, Probe, Span};
use crate::report::{ExtractOptions, ExtractionReport, StitchStats};
use crate::scheduler::run_jobs;
use crate::sweep::Extractor;
use crate::window::{
    device_key, device_order, permute, BoundaryContact, BoundarySignal, DeviceDetail, Face,
    WindowExtraction,
};

/// Nets plus devices below which the stitch gathers them on the
/// calling thread: moving fewer costs less than starting a thread
/// (an edit session's re-stitch of a small cell must not pay one).
const PARALLEL_GATHER_MIN: usize = 1 << 14;

/// Worker-thread count an options value asks for (0 or unset = one
/// per host core).
pub(crate) fn worker_count(options: &ExtractOptions) -> usize {
    match options.threads {
        Some(0) | None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(t) => t.max(1),
    }
}

/// Band-parallel driver behind the unified entry points: picks the
/// cut lines for the requested band count (defaulting to one band
/// per worker) and runs the banded extraction.
pub(crate) fn extract_auto_banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    let band_count = match options.bands {
        Some(0) | None => worker_count(&options),
        Some(b) => b.max(1),
    };
    let cuts = band_cuts(&flat, band_count);
    banded(flat, name, options, &cuts, probe)
}

/// Extracts a flat layout banded along explicit seam lines.
///
/// This is the banded extraction with the cut selection made
/// deterministic: the caller supplies the interior seam y-coordinates
/// (ascending, on existing box edges, strictly inside the layout's
/// y-extent). Used by the equivalence tests to pin down seams that
/// split specific devices.
///
/// # Errors
///
/// Returns [`ExtractError::Options`] when the options request window
/// mode, which cannot be banded.
pub fn extract_banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
) -> Result<Extraction, ExtractError> {
    extract_banded_probed(flat, name, options, cuts, &NullProbe)
}

/// [`extract_banded`], reporting events to `probe` as it runs.
pub fn extract_banded_probed(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    if options.window.is_some() {
        return Err(ExtractError::Options(
            "window-mode extraction cannot be banded (threads conflicts with window)",
        ));
    }
    banded(flat, name, options, cuts, probe)
}

/// The band-parallel extraction proper. `cuts` must not request
/// window mode; empty `cuts` degrade to a sequential sweep.
fn banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    // Per-band options: window mode carries the seams, and
    // `threads`/`bands` must not recurse into the band sweeps.
    let mut band_base = options;
    band_base.threads = None;
    band_base.bands = None;

    if cuts.is_empty() {
        // Empty layout or layout too small to cut: sweep sequentially
        // on the main lane, but report the degenerate band count.
        let mut feed = EagerFeed::from_flat(flat).with_probe(probe, Lane::MAIN);
        let mut result = Extractor::with_probe(band_base, probe).run(&mut feed, name);
        result.report.threads = 1;
        result.report.bands = 1;
        return Ok(result);
    }

    // The driver's own aggregate: every band worker reports into it
    // (and into the caller's probe) tagged with its lane, and the
    // final report is the view over this aggregate.
    let counters = CounterProbe::new();
    let tee = (&counters, probe);
    let p: &dyn Probe = &tee;

    p.enter(Lane::MAIN, Span::Extract);
    let bb = flat.bounding_box().expect("cuts imply geometry");
    let partition = partition_bands(&flat, cuts);
    let n = partition.bands.len();

    // Band windows: interior seams sit exactly on the cut lines so
    // geometry clipped there registers boundary contacts; the outer
    // edges are padded by one unit so nothing touches them and no
    // false contacts or partial devices arise.
    let windows: Vec<Rect> = (0..n)
        .map(|i| {
            let lo = if i == 0 { bb.y_min - 1 } else { cuts[i - 1] };
            let hi = if i == n - 1 { bb.y_max + 1 } else { cuts[i] };
            Rect::new(bb.x_min - 1, lo, bb.x_max + 1, hi)
        })
        .collect();

    // Hand the bands to the work-stealing scheduler: `workers`
    // threads drain `n` band jobs, each band still sweeping on its
    // own lane so traces and band reports stay per-band. The band
    // layouts pass through Mutex<Option<_>> slots because a job body
    // only gets its index (the repo forbids unsafe, so no raw takes).
    let band_inputs: Vec<Mutex<Option<FlatLayout>>> = partition
        .bands
        .into_iter()
        .map(|band| Mutex::new(Some(band)))
        .collect();
    let workers = worker_count(&options);
    let (results, steal) = run_jobs(workers, n, |i| {
        let band = band_inputs[i]
            .lock()
            .expect("band slot lock")
            .take()
            .expect("each band job runs once");
        let band_name = format!("{name}.band{i}");
        let band_options = band_base.with_window(windows[i]);
        let lane = Lane::band(i);
        p.enter(lane, Span::Band);
        let mut feed = EagerFeed::from_flat(band).with_probe(p, lane);
        let result = Extractor::with_probe(band_options, p)
            .on_lane(lane)
            .run(&mut feed, &band_name);
        p.exit(lane, Span::Band);
        result
    });
    p.add(Lane::MAIN, Counter::BandsStolen, steal.stolen);
    p.add(Lane::MAIN, Counter::StealWaitNs, steal.wait_ns);

    p.enter(Lane::MAIN, Span::Stitch);
    let bands = results.into_iter().map(Cow::Owned).collect();
    let (netlist, stats, seam_unresolved) =
        stitch(bands, name, cuts, &partition.seam_labels, options, workers);
    p.exit(Lane::MAIN, Span::Stitch);
    record_stitch(p, &stats, seam_unresolved);
    p.exit(Lane::MAIN, Span::Extract);

    let mut report: ExtractionReport = counters.report();
    // The report view sets threads = bands (lanes); the scheduler
    // knows how many workers actually drained them.
    report.threads = steal.workers;
    report.bands = n;

    Ok(Extraction {
        netlist,
        report,
        window: None,
    })
}

/// Net ids of all bands in one shared space, laid out twice: `up`
/// numbers the bands bottom to top — the order output nets are
/// numbered in — and `down` top to bottom, which is the flat sweep's
/// order of first appearance (it sweeps downwards and the bands
/// repeat its strips), used to break source/drain ties the way the
/// flat finalize does.
struct NetSpace {
    up: Vec<u32>,
    down: Vec<u32>,
}

impl NetSpace {
    fn new(counts: &[u32]) -> Self {
        let mut space = NetSpace {
            up: vec![0; counts.len()],
            down: vec![0; counts.len()],
        };
        let (mut up, mut down) = (0, 0);
        for (b, &count) in counts.iter().enumerate() {
            space.up[b] = up;
            up += count;
        }
        for (b, &count) in counts.iter().enumerate().rev() {
            space.down[b] = down;
            down += count;
        }
        space
    }

    /// The `up` id of a band's net.
    fn net(&self, band: usize, id: NetId) -> u32 {
        self.up[band] + id.0
    }

    /// The band and local id behind an `up` id.
    fn locate(&self, g: u32) -> (usize, u32) {
        let band = self.up.partition_point(|&o| o <= g) - 1;
        (band, g - self.up[band])
    }

    /// A band's device detail with its nets in the `up` space.
    fn partial(&self, band: usize, detail: &DeviceDetail) -> PartialDevice {
        PartialDevice {
            area: detail.area,
            bbox: detail.bbox,
            depletion: detail.depletion,
            gate: self.net(band, detail.gate),
            terminals: detail
                .terminals
                .iter()
                .map(|&(net, len)| (self.net(band, net), len))
                .collect(),
        }
    }

    /// The `down` id of an `up` id.
    fn down_of(&self, g: u32) -> u32 {
        let (band, local) = self.locate(g);
        self.down[band] + local
    }
}

/// Net equivalence classes across the seams. Only nets a seam touches
/// or a partial device references are registered, so building the
/// classes costs O(seam contacts + partial devices), not O(nets).
struct SeamNets {
    /// Registered `up` ids, ascending.
    keys: Vec<u32>,
    uf: UnionFind,
}

impl SeamNets {
    fn new(mut keys: Vec<u32>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let uf = UnionFind::with_len(keys.len());
        SeamNets { keys, uf }
    }

    fn slot(&self, g: u32) -> u32 {
        self.keys.binary_search(&g).expect("registered seam net") as u32
    }

    /// Joins the classes of two `up` ids; `true` if they were apart.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (a, b) = (self.slot(a), self.slot(b));
        let apart = self.uf.find(a) != self.uf.find(b);
        self.uf.union(a, b);
        apart
    }
}

/// Output numbering of the stitched nets. A class of joined nets is
/// numbered at its first member in `up` order, exactly as compressing
/// a union-find over every net would number it; later members (the
/// "folded" nets) take their class's id and merge their data into it.
struct Numbering {
    /// Per band: (local id, output id of its class) of every folded
    /// net, ascending by local id.
    folded: Vec<Vec<(u32, u32)>>,
    /// Per band: output id of its first unfolded net.
    base: Vec<u32>,
    /// Per band: its net count.
    counts: Vec<u32>,
    /// Per registered slot: output id, and the class's first `down`
    /// id (its rank in the flat sweep's order).
    out: Vec<u32>,
    down: Vec<u32>,
}

impl Numbering {
    fn new(seams: &mut SeamNets, space: &NetSpace, counts: &[u32]) -> Self {
        let n = seams.keys.len();
        let roots: Vec<usize> = (0..n as u32).map(|i| seams.uf.find(i) as usize).collect();
        // Keys ascend, so the first slot seen per root is its class's
        // first `up` member.
        let mut first_up = vec![u32::MAX; n];
        let mut first_down = vec![u32::MAX; n];
        for (&root, &g) in roots.iter().zip(&seams.keys) {
            if first_up[root] == u32::MAX {
                first_up[root] = g;
            }
            first_down[root] = first_down[root].min(space.down_of(g));
        }
        let mut folded: Vec<Vec<(u32, u32)>> = vec![Vec::new(); counts.len()];
        for (&root, &g) in roots.iter().zip(&seams.keys) {
            if g != first_up[root] {
                let (band, local) = space.locate(g);
                folded[band].push((local, first_up[root]));
            }
        }
        let mut base = Vec::with_capacity(counts.len());
        let mut acc = 0u32;
        for (count, list) in counts.iter().zip(&folded) {
            base.push(acc);
            acc += count - list.len() as u32;
        }
        // A class's first member is never folded, so its output id
        // counts the unfolded nets before it.
        let unfolded_id = |g: u32| {
            let (band, local) = space.locate(g);
            let before = folded[band].partition_point(|&(l, _)| l < local) as u32;
            base[band] + local - before
        };
        let out = roots.iter().map(|&r| unfolded_id(first_up[r])).collect();
        let down = roots.iter().map(|&r| first_down[r]).collect();
        let folded = folded
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&(local, rep)| (local, unfolded_id(rep)))
                    .collect()
            })
            .collect();
        Numbering {
            folded,
            base,
            counts: counts.to_vec(),
            out,
            down,
        }
    }

    /// Number of output nets.
    fn total(&self) -> usize {
        self.counts.iter().sum::<u32>() as usize - self.folded.iter().map(Vec::len).sum::<usize>()
    }

    /// Output id of a registered `up` id.
    fn id(&self, seams: &SeamNets, g: u32) -> u32 {
        self.out[seams.slot(g) as usize]
    }
}

/// One band's nets on their way into the stitched netlist.
enum BandNets<'a> {
    Owned(Vec<Net>),
    Borrowed(&'a Netlist),
}

/// Moves every band's nets into output order. Unfolded nets keep their
/// order, so each band's land as one block; folded nets then merge
/// their data into their class in `up` order (names in that order, as
/// renumbering the whole netlist would add them).
fn gather_nets(bands: Vec<BandNets<'_>>, numbering: &Numbering) -> Vec<Net> {
    let total = numbering.total();
    let mut nets: Vec<Net> = Vec::new();
    let mut folded_nets: Vec<(u32, Net)> = Vec::new();
    for (band, folded) in bands.into_iter().zip(&numbering.folded) {
        let mut next = folded.iter().peekable();
        let mut local = 0u32;
        let mut fold = |net: &mut Net| {
            let hit = matches!(next.peek(), Some(&&(l, _)) if l == local);
            if let Some(&(_, id)) = next.next_if(|_| hit) {
                folded_nets.push((id, std::mem::take(net)));
            }
            local += 1;
            hit
        };
        match band {
            BandNets::Owned(mut own) => {
                // Folded nets are few; setting them aside moves little.
                if !folded.is_empty() {
                    own.retain_mut(|net| !fold(net));
                }
                if nets.is_empty() {
                    // The bottom band's vector becomes the output's.
                    nets = own;
                    nets.reserve_exact(total - nets.len());
                } else {
                    nets.append(&mut own);
                }
            }
            BandNets::Borrowed(nl) => {
                nets.reserve_exact(total - nets.len());
                for (_, net) in nl.nets() {
                    let mut net = net.clone();
                    if !fold(&mut net) {
                        nets.push(net);
                    }
                }
            }
        }
    }
    for (id, net) in folded_nets {
        let into = &mut nets[id as usize];
        for name in net.names {
            if !into.names.contains(&name) {
                into.names.push(name);
            }
        }
        if let Some(at) = net.location {
            // The flat location is the upper-left of the net's
            // bounding box; combine the per-band fragments'.
            let best = into.location.get_or_insert(at);
            best.x = best.x.min(at.x);
            best.y = best.y.max(at.y);
        }
        into.geometry.extend(net.geometry);
        into.parasitics.merge(&net.parasitics);
    }
    nets
}

/// One band's complete devices on their way into the stitched
/// netlist, in stitch order by the band's own net ids.
enum BandDevices<'a> {
    Owned(std::vec::IntoIter<Device>),
    Borrowed(std::slice::Iter<'a, Device>),
}

impl BandDevices<'_> {
    fn as_slice(&self) -> &[Device] {
        match self {
            BandDevices::Owned(it) => it.as_slice(),
            BandDevices::Borrowed(it) => it.as_slice(),
        }
    }

    /// Moves the next `count` devices to `out`, renumbering their nets
    /// through `remap` when given.
    fn take_into(&mut self, count: usize, remap: Option<&[u32]>, out: &mut Vec<Device>) {
        let renumber = |mut d: Device| {
            if let Some(remap) = remap {
                d.gate = NetId(remap[d.gate.0 as usize]);
                d.source = NetId(remap[d.source.0 as usize]);
                d.drain = NetId(remap[d.drain.0 as usize]);
            }
            d
        };
        match self {
            BandDevices::Owned(it) => out.extend(it.by_ref().take(count).map(renumber)),
            BandDevices::Borrowed(it) => out.extend(it.by_ref().take(count).cloned().map(renumber)),
        }
    }
}

/// Merges the bands' complete devices and the stitch's `finished` ones
/// (partial and exposed, already in output ids and stitch order) into
/// stitch order, renumbering band devices as they move.
///
/// Whole devices of different bands never share a location (each lies
/// strictly inside its band), so the lists merge on location, kind,
/// length and width alone, equal keys in list order; one pass then
/// re-sorts the rare runs equal on those by the renumbered nets. The
/// result equals a stable sort of the lists' concatenation. Bands hold
/// disjoint y ranges, so their lists interleave in runs (one x column
/// at a time), and each run moves over in one step.
fn gather_devices(
    bands: Vec<BandDevices<'_>>,
    numbering: &Numbering,
    finished: Vec<Device>,
) -> Vec<Device> {
    let remaps: Vec<Vec<u32>> = numbering
        .folded
        .iter()
        .zip(&numbering.base)
        .zip(&numbering.counts)
        .map(|((folded, &base), &count)| {
            let mut next = folded.iter().peekable();
            (0..count)
                .map(|local| match next.peek() {
                    Some(&&(l, id)) if l == local => {
                        next.next();
                        id
                    }
                    _ => base + local - (folded.len() - next.len()) as u32,
                })
                .collect()
        })
        .collect();
    let mut lists = bands;
    lists.push(BandDevices::Owned(finished.into_iter()));

    let prefix = |d: &Device| (d.location, d.kind, d.length, d.width);
    let total = lists.iter().map(|l| l.as_slice().len()).sum();
    let mut merged: Vec<Device> = Vec::with_capacity(total);
    loop {
        // The list with the smallest head (the first such on ties)
        // and, bounding its run, the smallest head among the rest.
        let mut best = None;
        let mut bound = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(head) = list.as_slice().first() {
                let head = (prefix(head), i);
                if best.is_none_or(|b| head < b) {
                    bound = best;
                    best = Some(head);
                } else if bound.is_none_or(|b| head < b) {
                    bound = Some(head);
                }
            }
        }
        let Some((_, i)) = best else {
            break;
        };
        let run = match bound {
            None => lists[i].as_slice().len(),
            Some(bound) => lists[i]
                .as_slice()
                .partition_point(|d| (prefix(d), i) < bound),
        };
        let remap = remaps.get(i).map(Vec::as_slice);
        lists[i].take_into(run, remap, &mut merged);
    }

    let mut run = 0;
    while run < merged.len() {
        let first = prefix(&merged[run]);
        let end = run
            + merged[run..]
                .iter()
                .take_while(|d| prefix(d) == first)
                .count();
        if end - run > 1 {
            merged[run..end].sort_by_key(device_key);
        }
        run = end;
    }
    merged
}

/// Finalizes a merged partial or an exposed device whose nets are
/// `up` ids with the flat extractor's rules. Its nets are named by
/// their class's rank in the flat sweep's order while it finalizes —
/// so joined terminals coalesce and equal lengths pick source and
/// drain as the flat finalize does — then renamed to output ids.
fn finalize_in_flat_order(
    mut device: PartialDevice,
    seams: &SeamNets,
    numbering: &Numbering,
) -> Device {
    let mut names: Vec<(u32, u32)> = Vec::with_capacity(device.terminals.len() + 1);
    let nets =
        std::iter::once(&mut device.gate).chain(device.terminals.iter_mut().map(|t| &mut t.0));
    for net in nets {
        let slot = seams.slot(*net) as usize;
        names.push((numbering.down[slot], numbering.out[slot]));
        *net = numbering.down[slot];
    }
    let mut finished = device.finalize();
    let out = |id: NetId| {
        let &(_, out) = names
            .iter()
            .find(|&&(down, _)| down == id.0)
            .expect("finalize keeps the device's nets");
        NetId(out)
    };
    finished.gate = out(finished.gate);
    finished.source = out(finished.source);
    finished.drain = out(finished.drain);
    finished
}

/// One band's view for the stitch: its window interface and partial
/// devices, read before the band's netlist moves to a worker.
struct BandView {
    /// Device index of each partial device, ascending.
    partials: Vec<usize>,
    /// Index of the band's first partial in the stitch's partial list.
    first_partial: u32,
    /// Number of complete devices: the band lists them first, ahead
    /// of the partial and exposed ones the stitch finishes itself.
    complete: usize,
}

impl BandView {
    /// Partial id of the band's device `index`.
    fn partial(&self, index: usize) -> u32 {
        let at = self
            .partials
            .binary_search(&index)
            .expect("boundary channel implies partial");
        self.first_partial + at as u32
    }
}

/// Reports one stitch's counters on the main lane.
pub(crate) fn record_stitch(p: &dyn Probe, stats: &StitchStats, seam_unresolved: u64) {
    p.add(Lane::MAIN, Counter::SeamContacts, stats.seam_contacts);
    p.add(Lane::MAIN, Counter::PairsMatched, stats.pairs_matched);
    p.add(Lane::MAIN, Counter::SeamNetUnions, stats.net_unions);
    p.add(Lane::MAIN, Counter::DeviceMerges, stats.device_merges);
    p.add(
        Lane::MAIN,
        Counter::TerminalContacts,
        stats.terminal_contacts,
    );
    p.add(
        Lane::MAIN,
        Counter::PartialsCompleted,
        stats.partials_completed,
    );
    p.add(Lane::MAIN, Counter::UnresolvedLabels, seam_unresolved);
}

/// Stitches per-band window extractions (bottom to top, one per band
/// between consecutive `cuts`) into one flat circuit named `name`.
/// Shared with the incremental extractor, which lends its cached band
/// results (`Cow::Borrowed`, copied as they move into the output)
/// beside freshly swept ones.
///
/// Seam matching, the net classes and the partial and exposed devices
/// cost O(seam contacts + partial and exposed devices). What remains
/// is one linear pass that moves every band's nets and complete
/// devices into the output, renumbered: the nets are appended band by
/// band and the devices, which each band lists in stitch order,
/// merged — nothing is re-added one by one or sorted as a whole. With
/// `workers` > 1 and enough to move, nets and devices move on two
/// threads.
pub(crate) fn stitch(
    results: Vec<Cow<'_, Extraction>>,
    name: &str,
    cuts: &[Coord],
    seam_labels: &[FlatLabel],
    options: ExtractOptions,
    workers: usize,
) -> (Netlist, StitchStats, u64) {
    let mut stats = StitchStats::default();
    let n = results.len();
    let counts: Vec<u32> = results
        .iter()
        .map(|r| r.netlist.net_count() as u32)
        .collect();
    let space = NetSpace::new(&counts);

    // Register every partial device (channel touching a seam) and
    // every exposed one (terminal net touching a seam) as a
    // PartialDevice with nets in the `up` space; the other devices
    // stay with their band.
    let mut views: Vec<BandView> = Vec::with_capacity(n);
    let mut partials: Vec<PartialDevice> = Vec::new();
    let mut partial_geometry: Vec<Vec<Rect>> = Vec::new();
    let mut exposed: Vec<(PartialDevice, Vec<Rect>)> = Vec::new();
    for (bi, r) in results.iter().enumerate() {
        let w = band_window(r);
        let geometry = |device: usize| {
            if options.geometry_output {
                r.netlist.devices()[device].channel_geometry.clone()
            } else {
                Vec::new()
            }
        };
        let complete = r.netlist.device_count() - w.device_details.len() - w.exposed_devices.len();
        debug_assert!(w
            .device_details
            .iter()
            .chain(&w.exposed_devices)
            .all(|d| d.device >= complete));
        views.push(BandView {
            partials: w.device_details.iter().map(|d| d.device).collect(),
            first_partial: partials.len() as u32,
            complete,
        });
        for detail in &w.device_details {
            partials.push(space.partial(bi, detail));
            partial_geometry.push(geometry(detail.device));
        }
        for detail in &w.exposed_devices {
            exposed.push((space.partial(bi, detail), geometry(detail.device)));
        }
    }
    let mut dev_uf = UnionFind::with_len(partials.len());

    // Each seam's two faces, once: the band below's Top contacts and
    // the band above's Bottom contacts, sorted by span.
    let faces: Vec<(Vec<BoundaryContact>, Vec<BoundaryContact>)> = (0..n.saturating_sub(1))
        .map(|s| {
            (
                band_window(&results[s]).face_contacts(Face::Top),
                band_window(&results[s + 1]).face_contacts(Face::Bottom),
            )
        })
        .collect();
    let mut keys: Vec<u32> = Vec::new();
    for (s, (tops, bottoms)) in faces.iter().enumerate() {
        for (band, contacts) in [(s, tops), (s + 1, bottoms)] {
            for c in contacts {
                if let BoundarySignal::Net(net) = c.signal {
                    keys.push(space.net(band, net));
                }
            }
        }
    }
    for p in partials.iter().chain(exposed.iter().map(|(p, _)| p)) {
        keys.push(p.gate);
        keys.extend(p.terminals.iter().map(|&(net, _)| net));
    }
    let mut seams = SeamNets::new(keys);

    // Step 1+2 of HEXT's compose, specialized to horizontal seams:
    // match the band below's Top contacts against the band above's
    // Bottom contacts and establish equivalences.
    let mut contact_additions: Vec<(u32, u32, i64)> = Vec::new();
    // Same-layer seam joins, for the perimeter correction: each band
    // counted the shared edge in its fragment's perimeter, so the
    // union's perimeter drops by twice the matched overlap.
    let mut seam_edges: Vec<(u32, Layer, i64)> = Vec::new();
    for (s, (tops, bottoms)) in faces.iter().enumerate() {
        stats.seam_contacts += (tops.len() + bottoms.len()) as u64;
        for ta in tops {
            for tb in bottoms {
                if tb.span.lo >= ta.span.hi {
                    break; // bottoms are sorted by span start
                }
                let overlap = ta.span.overlap_len(&tb.span);
                if overlap <= 0 {
                    continue;
                }
                stats.pairs_matched += 1;
                match (ta.signal, tb.signal) {
                    (BoundarySignal::Net(x), BoundarySignal::Net(y)) => {
                        if ta.layer == tb.layer {
                            let gx = space.net(s, x);
                            if seams.union(gx, space.net(s + 1, y)) {
                                stats.net_unions += 1;
                            }
                            if let Some(layer) = ta.layer {
                                seam_edges.push((gx, layer, overlap));
                            }
                        }
                    }
                    (BoundarySignal::Channel(a), BoundarySignal::Channel(b)) => {
                        let (pa, pb) = (views[s].partial(a), views[s + 1].partial(b));
                        if dev_uf.find(pa) != dev_uf.find(pb) {
                            stats.device_merges += 1;
                        }
                        dev_uf.union(pa, pb);
                    }
                    (BoundarySignal::Channel(k), BoundarySignal::Net(net)) => {
                        // Diffusion meeting a channel across the seam
                        // is a transistor terminal; poly and metal
                        // continue via their own net contacts.
                        if tb.layer == Some(Layer::Diffusion) {
                            let p = views[s].partial(k);
                            contact_additions.push((p, space.net(s + 1, net), overlap));
                            stats.terminal_contacts += 1;
                        }
                    }
                    (BoundarySignal::Net(net), BoundarySignal::Channel(k)) => {
                        if ta.layer == Some(Layer::Diffusion) {
                            let p = views[s + 1].partial(k);
                            contact_additions.push((p, space.net(s, net), overlap));
                            stats.terminal_contacts += 1;
                        }
                    }
                }
            }
        }
    }

    // Gates of merged channel fragments carry the same signal.
    for i in 0..partials.len() as u32 {
        let root = dev_uf.find(i);
        if root != i && seams.union(partials[root as usize].gate, partials[i as usize].gate) {
            stats.net_unions += 1;
        }
    }
    for &(p, net, len) in &contact_additions {
        let root = dev_uf.find(p) as usize;
        partials[root].terminals.push((net, len));
    }
    for i in 0..partials.len() as u32 {
        let root = dev_uf.find(i);
        if root != i {
            let absorbed = partials[i as usize].clone();
            partials[root as usize].absorb(&absorbed);
            if options.geometry_output {
                let geometry = std::mem::take(&mut partial_geometry[i as usize]);
                partial_geometry[root as usize].extend(geometry);
            }
        }
    }

    // Labels sitting exactly on a seam: the flat sweep tries the strip
    // above the line first (the label lies on its bottom edge), then
    // the strip below, probing diffusion, then poly, then metal unless
    // the label names a layer. Replay that against the seam contacts.
    let mut seam_names: Vec<(u32, String)> = Vec::new();
    let mut seam_unresolved = 0u64;
    for label in seam_labels {
        let s = cuts
            .binary_search(&label.at.y)
            .expect("seam labels sit on cuts");
        let (below, above) = &faces[s];
        match resolve_seam_label(label, above)
            .map(|net| space.net(s + 1, net))
            .or_else(|| resolve_seam_label(label, below).map(|net| space.net(s, net)))
        {
            Some(net) => seam_names.push((net, label.name.clone())),
            None => seam_unresolved += 1,
        }
    }

    let numbering = Numbering::new(&mut seams, &space, &counts);

    // Merged partials are re-finalized with the flat extractor's
    // rules, and so are the exposed complete devices, whose terminal
    // nets the seams may have joined.
    let mut finished: Vec<Device> = Vec::new();
    for i in 0..partials.len() as u32 {
        if dev_uf.find(i) != i {
            continue;
        }
        stats.partials_completed += 1;
        let mut device = finalize_in_flat_order(partials[i as usize].clone(), &seams, &numbering);
        if options.geometry_output {
            device.channel_geometry = merge_boxes(&partial_geometry[i as usize]);
        }
        finished.push(device);
    }
    for (p, geometry) in exposed {
        let mut device = finalize_in_flat_order(p, &seams, &numbering);
        device.channel_geometry = geometry;
        finished.push(device);
    }
    let order = device_order(&finished);
    permute(&mut finished, order);

    // What is left is moving (or, for borrowed cached bands, copying)
    // the bands' nets and complete devices into the output, renumbered:
    // the nets on one thread, the devices on another.
    let mut band_nets: Vec<BandNets<'_>> = Vec::with_capacity(n);
    let mut band_devices: Vec<BandDevices<'_>> = Vec::with_capacity(n);
    for (r, view) in results.into_iter().zip(&views) {
        match r {
            Cow::Owned(r) => {
                let (nets, mut devices) = r.netlist.into_parts();
                devices.truncate(view.complete);
                band_nets.push(BandNets::Owned(nets));
                band_devices.push(BandDevices::Owned(devices.into_iter()));
            }
            Cow::Borrowed(r) => {
                band_nets.push(BandNets::Borrowed(&r.netlist));
                band_devices.push(BandDevices::Borrowed(
                    r.netlist.devices()[..view.complete].iter(),
                ));
            }
        }
    }
    let moved = numbering.total() + views.iter().map(|v| v.complete).sum::<usize>();
    let nets_job = || gather_nets(band_nets, &numbering);
    let devices_job = || gather_devices(band_devices, &numbering, finished);
    let (nets, devices) = if workers > 1 && moved >= PARALLEL_GATHER_MIN {
        std::thread::scope(|scope| {
            let nets = scope.spawn(nets_job);
            let devices = devices_job();
            (nets.join().expect("net gathering panicked"), devices)
        })
    } else {
        (nets_job(), devices_job())
    };

    let mut netlist = Netlist::from_parts(name.to_string(), nets, devices);
    // Remove each seam join's shared edge, double-counted by the two
    // bands' clipped fragments.
    for &(g, layer, len) in &seam_edges {
        let mut correction = NetParasitics::default();
        correction.sub_edge(layer, len);
        netlist.add_parasitics(NetId(numbering.id(&seams, g)), &correction);
    }
    for (net, name) in seam_names {
        netlist.add_name(NetId(numbering.id(&seams, net)), name);
    }

    (netlist, stats, seam_unresolved)
}

fn band_window(r: &Extraction) -> &WindowExtraction {
    r.window.as_ref().expect("bands run in window mode")
}

/// One strip's worth of the flat sweep's label matching, replayed on
/// seam contacts: probe diffusion, poly, then metal (or only the
/// labeled layer) for a span containing the label's x.
fn resolve_seam_label(label: &FlatLabel, contacts: &[BoundaryContact]) -> Option<NetId> {
    let layers: &[Layer] = match label.layer {
        Some(Layer::Diffusion) => &[Layer::Diffusion],
        Some(Layer::Poly) => &[Layer::Poly],
        Some(Layer::Metal) => &[Layer::Metal],
        // Labels on non-conducting layers or without a layer bind to
        // whatever conducting geometry is under them.
        _ => &[Layer::Diffusion, Layer::Poly, Layer::Metal],
    };
    for &layer in layers {
        for c in contacts {
            if c.layer != Some(layer) {
                continue;
            }
            if c.span.lo <= label.at.x && label.at.x <= c.span.hi {
                if let BoundarySignal::Net(net) = c.signal {
                    return Some(net);
                }
            }
        }
    }
    None
}
