use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use ace_geom::{Coord, Orientation, Point, Transform};

use crate::database::{CellId, Library};
use crate::flatten::{FlatLabel, FlatLayout, LayerBox};
use crate::probe::{Counter, Lane, NullProbe, Probe};

/// Source of scan-ordered geometry for the back-end.
///
/// The back-end asks "what is the highest box top you have not given
/// me yet?" ([`GeometryFeed::peek_top`]) and then fetches "all
/// geometry whose top coincides with the scanline"
/// ([`GeometryFeed::pop_at`]) — exactly the paper's step 2.a.
///
/// Labels are surfaced through [`GeometryFeed::drain_new_labels`] as
/// the source discovers them. Both feeds discover every label before
/// the first [`GeometryFeed::peek_top`]: a `94` label must be visible
/// to the back-end no later than the scanline's first stop, or a
/// label above the geometry the sweep is currently processing could
/// be dropped (the sweep drops labels the scanline has passed) or
/// bound against the wrong strip, depending on expansion order.
pub trait GeometryFeed {
    /// Top edge of the highest unfetched box, or `None` when drained.
    fn peek_top(&mut self) -> Option<Coord>;

    /// Appends every box whose `y_max == y` to `out`. Call with the
    /// value just returned by [`GeometryFeed::peek_top`].
    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>);

    /// Moves all newly discovered labels into `out`.
    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>);

    /// Instrumentation counters.
    fn stats(&self) -> FeedStats;
}

/// Instrumentation for the front-end ablation (lazy vs eager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedStats {
    /// Boxes handed to the back-end.
    pub boxes_emitted: u64,
    /// Symbol instances expanded (lazy feed only).
    pub instances_expanded: u64,
    /// High-water mark of the pending queue. For the lazy feed that
    /// is heap entries — one run per placed cell with boxes plus the
    /// instances not yet expanded — not boxes; the eager feed counts
    /// the boxes it holds.
    pub max_pending: usize,
}

enum PendingKind {
    /// A cursor over one placed cell's own boxes: `run` indexes the
    /// feed's run table (the cell's boxes in the placement's
    /// orientation, by descending top), `shift` is the placement's
    /// translation, and `next` is the first box not yet emitted.
    Run {
        run: usize,
        shift: Point,
        next: usize,
    },
    /// A symbol instance not yet expanded.
    Instance(CellId, Transform),
}

/// A heap entry, keyed by the top of what it still holds: the next
/// box of a run, or an instance's placed bounding box.
struct Pending {
    y_top: Coord,
    kind: PendingKind,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on y_top; on ties, instances sort above runs so
        // they are expanded before the boxes at that level are
        // reported.
        let rank = |k: &PendingKind| match k {
            PendingKind::Instance(..) => 1u8,
            PendingKind::Run { .. } => 0,
        };
        self.y_top
            .cmp(&other.y_top)
            .then_with(|| rank(&self.kind).cmp(&rank(&other.kind)))
    }
}

/// Run-table slot of a `(cell, orientation)` pair not sorted yet.
const UNSORTED: u32 = u32::MAX;

/// The lazy front-end: yields boxes in descending-top order,
/// expanding a symbol instance only when the scanline reaches the top
/// of its bounding box.
///
/// "If there exists a CIF symbol which lies completely below the
/// scanline, the front-end does not have to expand that cell to
/// determine that all geometry inside it is below the scanline. In
/// this way the complete geometry of the chip is never instantiated
/// (so never sorted) at the same time." (paper §4.)
///
/// **Labels are the exception to laziness.** They used to be
/// released only when their cell was expanded, which made correct
/// binding depend on two distant invariants: cell bounding boxes
/// being extended to cover label positions, and the back-end
/// happening to settle the heap before each strip. A label inside a
/// not-yet-expanded instance could then be dropped or bound to the
/// wrong net depending on scanline order. Labels are sparse, so the
/// feed now collects all of them up front with a dedicated tree walk
/// that skips label-free subtrees — geometry stays lazy, labels
/// don't.
///
/// # Examples
///
/// ```
/// use ace_layout::{GeometryFeed, LazyFeed, Library};
///
/// let lib = Library::from_cif_text(
///     "DS 1; L ND; B 10 10 0 0; DF; C 1 T 0 0; C 1 T 0 -100; E",
/// )?;
/// let mut feed = LazyFeed::new(&lib);
/// assert_eq!(feed.peek_top(), Some(5));
/// let mut out = Vec::new();
/// feed.pop_at(5, &mut out);
/// assert_eq!(out.len(), 1); // the lower instance is still unexpanded
/// assert_eq!(feed.peek_top(), Some(-95));
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
pub struct LazyFeed<'a> {
    lib: &'a Library,
    heap: BinaryHeap<Pending>,
    /// Sorted runs, one per `(cell, orientation)` placed so far: the
    /// cell's boxes turned by the orientation about the origin, by
    /// descending top. Translation shifts every top equally, so one
    /// run serves every placement of the cell in that orientation.
    runs: Vec<Vec<LayerBox>>,
    /// `run_of[cell][orientation]` indexes `runs`, or is `UNSORTED`.
    run_of: Vec<[u32; 8]>,
    new_labels: Vec<FlatLabel>,
    stats: FeedStats,
    probe: &'a dyn Probe,
    lane: Lane,
}

impl<'a> LazyFeed<'a> {
    /// Creates a feed over the library's top cell.
    pub fn new(lib: &'a Library) -> Self {
        LazyFeed::over_cell(lib, lib.top())
    }

    /// Creates a feed over one specific cell.
    pub fn over_cell(lib: &'a Library, cell: CellId) -> Self {
        let mut feed = LazyFeed {
            lib,
            heap: BinaryHeap::new(),
            runs: Vec::new(),
            run_of: vec![[UNSORTED; 8]; lib.cells().len()],
            new_labels: Vec::new(),
            stats: FeedStats::default(),
            probe: &NullProbe,
            lane: Lane::MAIN,
        };
        feed.collect_labels(cell);
        feed.push_cell_contents(cell, Transform::identity());
        feed
    }

    /// Which cells reachable from `root` have a label in their
    /// subtree (the instance DAG can repeat cells).
    fn label_bearing(&self, root: CellId) -> Vec<bool> {
        let mut has = vec![false; self.lib.cells().len()];
        for id in self.lib.children_first([root]) {
            let c = self.lib.cell(id);
            has[id] = !c.labels().is_empty() || c.instances().iter().any(|i| has[i.cell]);
        }
        has
    }

    /// Collects every label under `cell` into `new_labels` up front,
    /// pruning label-free subtrees (laziness is for geometry; labels
    /// must all be known before the sweep's first stop). Labels come
    /// out in pre-order — a cell's own labels, then its instances in
    /// order — walked with an explicit stack.
    fn collect_labels(&mut self, cell: CellId) {
        let has = self.label_bearing(cell);
        if !has[cell] {
            return;
        }
        let mut stack = vec![(cell, Transform::identity())];
        while let Some((id, t)) = stack.pop() {
            let c = self.lib.cell(id);
            for label in c.labels() {
                self.new_labels.push(FlatLabel {
                    name: label.name.clone(),
                    at: t.apply_point(label.at),
                    layer: label.layer,
                });
            }
            for inst in c.instances().iter().rev() {
                if has[inst.cell] {
                    stack.push((inst.cell, inst.transform.then(t)));
                }
            }
        }
    }

    /// Attaches a probe; expansion and emission counters are reported
    /// on `lane` from here on.
    pub fn with_probe(mut self, probe: &'a dyn Probe, lane: Lane) -> Self {
        self.probe = probe;
        self.lane = lane;
        probe.gauge(lane, Counter::PendingPeak, self.stats.max_pending as u64);
        self
    }

    /// The run of `cell`'s own boxes under orientation `o`, sorted on
    /// first use.
    fn run_for(&mut self, cell: CellId, o: Orientation) -> usize {
        let slot = &mut self.run_of[cell][o as usize];
        if *slot == UNSORTED {
            let turn = Transform::from_orientation(o);
            let mut run: Vec<LayerBox> = self
                .lib
                .cell(cell)
                .boxes()
                .iter()
                .map(|&(layer, r)| LayerBox {
                    layer,
                    rect: turn.apply_rect(&r),
                })
                .collect();
            run.sort_by_key(|b| Reverse(b.rect.y_max));
            *slot = self.runs.len() as u32;
            self.runs.push(run);
        }
        *slot as usize
    }

    fn push_cell_contents(&mut self, cell: CellId, t: Transform) {
        let c = self.lib.cell(cell);
        // Labels were already collected up front by `collect_labels`;
        // expansion pushes one run for the cell's own geometry and
        // one entry per child instance.
        if !c.boxes().is_empty() {
            let run = self.run_for(cell, t.orientation());
            let shift = t.translation();
            self.heap.push(Pending {
                y_top: self.runs[run][0].rect.y_max + shift.y,
                kind: PendingKind::Run {
                    run,
                    shift,
                    next: 0,
                },
            });
        }
        for inst in c.instances() {
            let placed = inst.transform.then(t);
            if let Some(bb) = self.lib.cell(inst.cell).bounding_box() {
                self.heap.push(Pending {
                    y_top: placed.apply_rect(&bb).y_max,
                    kind: PendingKind::Instance(inst.cell, placed),
                });
            }
        }
        if self.heap.len() > self.stats.max_pending {
            self.stats.max_pending = self.heap.len();
            self.probe
                .gauge(self.lane, Counter::PendingPeak, self.heap.len() as u64);
        }
    }

    /// Expands instances at the heap top until it is a run (or
    /// empty). With `bound = Some(y)`, instances whose bounding-box
    /// top is below `y` are left unexpanded — the scanline has not
    /// reached them yet.
    fn settle(&mut self, bound: Option<Coord>) {
        while let Some(top) = self.heap.peek() {
            let PendingKind::Instance(cell, t) = top.kind else {
                return;
            };
            if bound.is_some_and(|y| top.y_top < y) {
                return;
            }
            self.heap.pop();
            self.stats.instances_expanded += 1;
            self.probe.add(self.lane, Counter::InstancesExpanded, 1);
            self.push_cell_contents(cell, t);
        }
    }
}

impl GeometryFeed for LazyFeed<'_> {
    fn peek_top(&mut self) -> Option<Coord> {
        self.settle(None);
        self.heap.peek().map(|p| p.y_top)
    }

    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>) {
        let before = out.len();
        loop {
            self.settle(Some(y));
            let Some(mut top) = self.heap.peek_mut() else {
                break;
            };
            if top.y_top != y {
                break;
            }
            let PendingKind::Run {
                run,
                shift,
                ref mut next,
            } = top.kind
            else {
                unreachable!("settle leaves a run on top at the scanline");
            };
            // Drain every box of this run at the stop, then re-key the
            // run once (dropping `top` sifts it down) or retire it.
            let run = &self.runs[run];
            let mut i = *next;
            while let Some(b) = run.get(i) {
                if b.rect.y_max + shift.y != y {
                    break;
                }
                out.push(LayerBox {
                    layer: b.layer,
                    rect: b.rect.translate(shift),
                });
                i += 1;
            }
            *next = i;
            match run.get(i) {
                Some(b) => top.y_top = b.rect.y_max + shift.y,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        let popped = (out.len() - before) as u64;
        if popped > 0 {
            self.stats.boxes_emitted += popped;
            self.probe.add(self.lane, Counter::FeedBoxes, popped);
        }
    }

    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>) {
        out.append(&mut self.new_labels);
    }

    fn stats(&self) -> FeedStats {
        self.stats
    }
}

/// The eager front-end: flattens the whole chip, sorts once, feeds
/// from the sorted list. Baseline for the lazy-vs-eager ablation.
pub struct EagerFeed<'p> {
    boxes: Vec<LayerBox>, // sorted by descending y_max
    next: usize,
    labels: Vec<FlatLabel>,
    stats: FeedStats,
    probe: &'p dyn Probe,
    lane: Lane,
}

impl<'p> EagerFeed<'p> {
    /// Flattens and sorts a library's top cell.
    pub fn new(lib: &Library) -> Self {
        EagerFeed::from_flat(FlatLayout::from_library(lib))
    }

    /// Builds a feed from an existing flat layout, taking its boxes
    /// and labels without copying them.
    pub fn from_flat(mut flat: FlatLayout) -> Self {
        flat.sort_for_scan();
        let (boxes, labels) = flat.into_parts();
        let max_pending = boxes.len();
        EagerFeed {
            boxes,
            next: 0,
            labels,
            stats: FeedStats {
                boxes_emitted: 0,
                instances_expanded: 0,
                max_pending,
            },
            probe: &NullProbe,
            lane: Lane::MAIN,
        }
    }

    /// Attaches a probe; emission counters are reported on `lane`.
    pub fn with_probe(mut self, probe: &'p dyn Probe, lane: Lane) -> Self {
        self.probe = probe;
        self.lane = lane;
        probe.gauge(lane, Counter::PendingPeak, self.stats.max_pending as u64);
        self
    }
}

impl GeometryFeed for EagerFeed<'_> {
    fn peek_top(&mut self) -> Option<Coord> {
        self.boxes.get(self.next).map(|b| b.rect.y_max)
    }

    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>) {
        let mut popped = 0u64;
        while let Some(b) = self.boxes.get(self.next) {
            if b.rect.y_max != y {
                break;
            }
            out.push(*b);
            self.next += 1;
            self.stats.boxes_emitted += 1;
            popped += 1;
        }
        if popped > 0 {
            self.probe.add(self.lane, Counter::FeedBoxes, popped);
        }
    }

    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>) {
        out.append(&mut self.labels);
    }

    fn stats(&self) -> FeedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::Layer;

    fn drain_all(feed: &mut impl GeometryFeed) -> Vec<LayerBox> {
        let mut all = Vec::new();
        while let Some(y) = feed.peek_top() {
            let before = all.len();
            feed.pop_at(y, &mut all);
            assert!(all.len() > before, "pop_at made no progress at y={y}");
        }
        all
    }

    const SRC: &str = "DS 1; 9 leaf; L ND; B 100 100 0 0; L NP; B 20 300 0 0; DF;
         DS 2; C 1 T 0 0; C 1 T 500 -200; DF;
         C 2 T 0 0; C 2 T 2000 1000; L NM; B 5000 200 1000 800; E";

    #[test]
    fn lazy_and_eager_agree() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut lazy = LazyFeed::new(&lib);
        let mut eager = EagerFeed::new(&lib);
        let mut a = drain_all(&mut lazy);
        let mut b = drain_all(&mut eager);
        let key = |x: &LayerBox| (x.layer, x.rect);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, lib.instantiated_box_count());
    }

    #[test]
    fn feed_is_monotonically_descending() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut last: Option<Coord> = None;
        while let Some(y) = feed.peek_top() {
            if let Some(prev) = last {
                assert!(y < prev, "tops must strictly descend: {y} after {prev}");
            }
            let mut out = Vec::new();
            feed.pop_at(y, &mut out);
            assert!(out.iter().all(|b| b.rect.y_max == y));
            last = Some(y);
        }
    }

    #[test]
    fn lazy_feed_does_not_expand_cells_below_scanline() {
        // Two instances: one at the top, one far below. After popping
        // the top one's geometry, the second must still be pending.
        let lib =
            Library::from_cif_text("DS 1; L ND; B 10 10 0 0; DF; C 1 T 0 0; C 1 T 0 -10000; E")
                .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let y = feed.peek_top().unwrap();
        let mut out = Vec::new();
        feed.pop_at(y, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(feed.stats().instances_expanded, 1);
        assert_eq!(feed.peek_top(), Some(-9995));
        assert_eq!(feed.stats().instances_expanded, 2);
    }

    #[test]
    fn instance_labels_are_available_before_any_expansion() {
        // Regression: labels inside not-yet-expanded instances used
        // to surface only on expansion, so a label's visibility
        // depended on scanline order. All labels must be available
        // up front, before the first peek, with instance transforms
        // applied — while the geometry stays unexpanded.
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; 94 sig 0 0; DF; C 1 T 0 -500; 94 top 5 5; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 2, "{labels:?}");
        labels.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(labels[0].name, "sig");
        assert_eq!(labels[0].at, ace_geom::Point::new(0, -500));
        assert_eq!(labels[1].name, "top");
        // Label collection must not have expanded the instance.
        assert_eq!(feed.stats().instances_expanded, 0);
        let y = feed.peek_top().unwrap(); // forces expansion
        assert_eq!(y, -495);
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 2, "expansion must not re-emit labels");
    }

    #[test]
    fn label_collection_prunes_label_free_subtrees_and_transforms() {
        // Cell 1 has no labels anywhere below it; cell 2's label is
        // mirrored in y by the call transform. Nested: cell 3 wraps
        // cell 2, composing transforms.
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; DF;
             DS 2; L NM; B 10 10 0 0; 94 deep 3 4; DF;
             DS 3; C 2 M Y T 0 100; DF;
             C 1 T 0 0; C 3 T 1000 0; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].name, "deep");
        // M Y flips y: (3, 4) → (3, -4); then T 0 100 → (3, 96);
        // then top-level T 1000 0 → (1003, 96).
        assert_eq!(labels[0].at, ace_geom::Point::new(1003, 96));
        assert_eq!(feed.stats().instances_expanded, 0);
    }

    #[test]
    fn labels_come_out_in_pre_order() {
        // A cell's own labels first, then each instance's subtree in
        // call order; the label-free cell 4 is skipped.
        let lib = Library::from_cif_text(
            "DS 1; 94 c 0 0; DF;
             DS 2; 94 b 0 0; C 1 T 10 0; DF;
             DS 3; 94 d 0 0; DF;
             DS 4; L ND; B 10 10 0 0; DF;
             C 4; C 2 T 0 100; C 3 T 0 200; 94 a 0 0; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        let names: Vec<&str> = labels.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(labels[2].at, ace_geom::Point::new(10, 100));
    }

    #[test]
    fn eager_feed_counts_boxes() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = EagerFeed::new(&lib);
        let n = drain_all(&mut feed).len() as u64;
        assert_eq!(feed.stats().boxes_emitted, n);
        assert_eq!(feed.stats().max_pending as u64, n);
    }

    #[test]
    fn layers_are_preserved() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let all = drain_all(&mut feed);
        assert!(all.iter().any(|b| b.layer == Layer::Diffusion));
        assert!(all.iter().any(|b| b.layer == Layer::Poly));
        assert!(all.iter().any(|b| b.layer == Layer::Metal));
    }

    #[test]
    fn empty_library_feeds_nothing() {
        let lib = Library::from_cif_text("E").unwrap();
        let mut feed = LazyFeed::new(&lib);
        assert_eq!(feed.peek_top(), None);
        let mut eager = EagerFeed::new(&lib);
        assert_eq!(eager.peek_top(), None);
    }

    /// Sorted placed-bounding-box tops of every instance under the top
    /// cell: the lazy feed has expanded exactly those at or above the
    /// scanline.
    fn placement_tops(lib: &Library) -> Vec<Coord> {
        let mut tops = Vec::new();
        let mut stack = vec![(lib.top(), Transform::identity())];
        while let Some((id, t)) = stack.pop() {
            for inst in lib.cell(id).instances() {
                let placed = inst.transform.then(t);
                if let Some(bb) = lib.cell(inst.cell).bounding_box() {
                    tops.push(placed.apply_rect(&bb).y_max);
                    stack.push((inst.cell, placed));
                }
            }
        }
        tops.sort_unstable();
        tops
    }

    /// Drives the lazy and eager feeds in lockstep and checks that
    /// they stop at the same tops and pop the same multiset of boxes
    /// at each, and that the lazy feed expands exactly the instances
    /// whose tops the scanline has reached. Returns the lazy stats.
    fn assert_stops_agree(lib: &Library) -> FeedStats {
        let tops = placement_tops(lib);
        let reached = |y: Coord| (tops.len() - tops.partition_point(|&t| t < y)) as u64;
        let mut lazy = LazyFeed::new(lib);
        let mut eager = EagerFeed::new(lib);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        loop {
            let y = lazy.peek_top();
            assert_eq!(y, eager.peek_top());
            let Some(y) = y else { break };
            assert_eq!(lazy.stats().instances_expanded, reached(y), "at y={y}");
            a.clear();
            b.clear();
            lazy.pop_at(y, &mut a);
            eager.pop_at(y, &mut b);
            assert!(!a.is_empty(), "pop_at made no progress at y={y}");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "boxes popped at y={y}");
            assert_eq!(lazy.stats().instances_expanded, reached(y), "at y={y}");
        }
        let stats = lazy.stats();
        assert_eq!(stats.instances_expanded, tops.len() as u64);
        assert_eq!(stats.boxes_emitted, lib.instantiated_box_count());
        stats
    }

    #[test]
    fn runs_merge_stop_by_stop_under_every_orientation() {
        // Cell 1's box order flips under mirrors and rotations (tall,
        // wide and offset boxes), and two of its boxes share a top.
        // Cell 2 places it in all eight orientations, two of them at
        // the same height so runs of different placements share tops;
        // cell 3 nests cell 2 under further orientations, so they
        // compose. The top cell's own boxes share tops with instance
        // bounding boxes, and cell 4 is empty.
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; B 40 6 50 30; B 6 80 -70 -20;
                   L NP; B 10 10 100 0; B 20 4 0 60; DF;
             DS 2; C 1 T 0 0; C 1 M X T 400 0; C 1 M Y T 800 0;
                   C 1 R 0 1 T 1200 0; C 1 R -1 0 T 0 400;
                   C 1 R 0 -1 T 400 400; C 1 M X R 0 1 T 800 400;
                   C 1 M Y R 0 1 T 1200 400; DF;
             DS 4; DF;
             DS 3; C 2 R 0 1 T 3000 0; C 2 M X T 0 3000;
                   C 2 M Y R 0 -1 T 3000 3000; C 4 T 50 50; DF;
             C 3; C 2 T 0 -3000; C 4;
             L NM; B 100 10 -500 62; B 100 10 -500 -2938; E",
        )
        .unwrap();
        let stats = assert_stops_agree(&lib);
        assert!(stats.boxes_emitted > 100);
    }

    #[test]
    fn instance_at_a_runs_current_top_expands_before_the_stop() {
        // The top cell's run holds boxes at tops 100 and 5; the
        // instance's bounding box also tops out at 5, so it meets the
        // run after the run has been re-keyed once.
        let lib = Library::from_cif_text(
            "DS 1; L NM; B 10 10 0 0; L ND; B 10 4 40 3; DF;
             C 1 T 300 0; L NM; B 30 10 100 95; B 30 10 100 0; E",
        )
        .unwrap();
        assert_stops_agree(&lib);
        let mut feed = LazyFeed::new(&lib);
        assert_eq!(feed.peek_top(), Some(100));
        let mut out = Vec::new();
        feed.pop_at(100, &mut out);
        assert_eq!(feed.stats().instances_expanded, 0);
        assert_eq!(feed.peek_top(), Some(5));
        out.clear();
        feed.pop_at(5, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn paper_chip_proxies_merge_stop_by_stop() {
        use ace_workloads::chips::{generate_chip, paper_chip};
        for name in ["cherry", "scheme81"] {
            let chip = generate_chip(&paper_chip(name).unwrap().scaled(0.05));
            let lib = Library::from_cif_text(&chip.cif).unwrap();
            assert_stops_agree(&lib);
        }
    }

    #[test]
    fn heap_holds_runs_not_boxes() {
        // 10,000 boxes in the top cell are one run: the pending queue
        // never holds more than that run.
        let mut src = String::from("L ND;");
        for i in 0..10_000 {
            src.push_str(&format!(" B 4 4 {} {};", (i % 100) * 10, (i / 100) * 10));
        }
        src.push_str(" E");
        let lib = Library::from_cif_text(&src).unwrap();
        let mut feed = LazyFeed::new(&lib);
        assert_eq!(drain_all(&mut feed).len(), 10_000);
        assert!(feed.stats().max_pending <= 2, "{:?}", feed.stats());
    }

    #[test]
    fn scheme81_expands_as_many_instances_as_the_per_box_heap() {
        // 25,114 is what the per-box heap this feed replaced expanded
        // on the full scheme81 proxy; any change here changes laziness.
        use ace_workloads::chips::{generate_chip, paper_chip};
        let chip = generate_chip(paper_chip("scheme81").unwrap());
        let lib = Library::from_cif_text(&chip.cif).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let boxes = drain_all(&mut feed).len() as u64;
        assert_eq!(boxes, lib.instantiated_box_count());
        assert_eq!(feed.stats().instances_expanded, 25_114);
    }
}
