//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each public call it makes; the
//! extractor's own probe spans arrive through [`TraceProbe`] and nest
//! under the benchmark span that made the call. Spans stay in memory
//! until the run ends, when self time and coverage are computed from
//! them and the whole trace is written out.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use ace_core::{Lane, Probe, Span};

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Busy time of a span that was entered many times (the sweep's
    /// per-stop phases): `start_ns..end_ns` is then the first entry
    /// to the last exit, and only `busy_ns` of it was spent inside.
    pub busy_ns: Option<u64>,
    /// The iteration or request the span belongs to.
    pub iter: u64,
    /// Probe lane (0 for the benchmark's own spans).
    pub lane: u32,
    /// Whether children must cover this span (iterations, requests).
    pub covered: bool,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time actually spent inside the span.
    pub fn busy(&self) -> u64 {
        self.busy_ns.unwrap_or_else(|| self.duration_ns())
    }
}

/// A span recorder shared by every thread of a run.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span of the benchmark's own, from `start_ns`
    /// to `end_ns`; `covered` spans must be covered by their children.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        iter: u64,
        (start_ns, end_ns): (u64, u64),
        covered: bool,
    ) -> usize {
        self.push(SpanRec {
            id: 0,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            busy_ns: None,
            iter,
            lane: 0,
            covered,
        })
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, iter: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, iter, (now, now), false)
    }

    /// Opens a span whose children must cover it.
    pub fn open_covered(&self, name: &str, parent: Option<usize>, iter: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, iter, (now, now), true)
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().unwrap()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`, passing it the span's id.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        iter: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, iter);
        let out = f(id);
        self.close(id);
        out
    }

    /// [`Trace::span`] for a span whose children must cover it.
    pub fn covered<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        iter: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open_covered(name, parent, iter);
        let out = f(id);
        self.close(id);
        out
    }

    /// Appends a finished span, assigning its id.
    pub fn push(&self, mut rec: SpanRec) -> usize {
        let mut spans = self.spans.lock().unwrap();
        rec.id = spans.len();
        spans.push(rec);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap().clone()
    }
}

/// Runs the calibration kernel on `threads` threads in a span of its
/// own under `parent`, then `f`, returning `f`'s time in seconds: the
/// traced twin of [`crate::calib::timed_on`].
pub fn kernel_then<T>(
    trace: &Trace,
    parent: usize,
    iter: u64,
    threads: usize,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    trace.span("calib.kernel", Some(parent), iter, |_| {
        crate::calib::kernel_on(threads)
    });
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Spans the sweep enters once per run (kept as intervals); every
/// other probe span is entered per scanline stop and is aggregated.
fn is_interval(span: Span) -> bool {
    matches!(span, Span::Extract | Span::Band | Span::Stitch)
}

/// Lanes with a recorder of their own; higher lanes share the last.
const LANE_SLOTS: usize = 64;

/// One lane's recording state. Each lane (band worker) records under
/// its own lock, so concurrent bands do not contend on the probe.
#[derive(Default)]
struct LaneState {
    /// Open interval spans, innermost last.
    stack: Vec<usize>,
    /// Aggregated phase spans per (lane, span).
    aggs: BTreeMap<(u32, Span), Agg>,
}

struct Agg {
    parent: usize,
    first_ns: u64,
    last_ns: u64,
    busy_ns: u64,
    open_at: Option<u64>,
    depth: u32,
}

/// A [`Probe`] that records the extractor's spans into a [`Trace`],
/// nested under the benchmark span around the call.
pub struct TraceProbe<'t> {
    trace: &'t Trace,
    parent: usize,
    iter: u64,
    lanes: Vec<Mutex<LaneState>>,
}

impl<'t> TraceProbe<'t> {
    pub fn new(trace: &'t Trace, parent: usize, iter: u64) -> TraceProbe<'t> {
        TraceProbe {
            trace,
            parent,
            iter,
            lanes: (0..LANE_SLOTS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Writes the aggregated phase spans out; call once the probed
    /// call has returned.
    pub fn finish(self) {
        for slot in self.lanes {
            for ((lane, span), agg) in slot.into_inner().unwrap().aggs {
                self.trace.push(SpanRec {
                    id: 0,
                    parent: Some(agg.parent),
                    name: probe_span_name(span),
                    start_ns: agg.first_ns,
                    end_ns: agg.last_ns,
                    busy_ns: Some(agg.busy_ns),
                    iter: self.iter,
                    lane,
                    covered: false,
                });
            }
        }
    }

    fn slot(&self, lane: Lane) -> &Mutex<LaneState> {
        &self.lanes[(lane.0 as usize).min(LANE_SLOTS - 1)]
    }

    /// The span a new span on `lane` nests under: the lane's innermost
    /// open interval, else the main lane's, else the call span.
    fn parent_for(&self, state: &LaneState, lane: Lane) -> usize {
        if let Some(&top) = state.stack.last() {
            return top;
        }
        if lane != Lane::MAIN {
            if let Some(&top) = self.slot(Lane::MAIN).lock().unwrap().stack.last() {
                return top;
            }
        }
        self.parent
    }
}

/// Probe spans are named `probe.<span>`, apart from the benchmark's
/// own spans around calls.
fn probe_span_name(span: Span) -> String {
    format!("probe.{}", span.name())
}

impl Probe for TraceProbe<'_> {
    fn enter(&self, lane: Lane, span: Span) {
        let now = self.trace.now_ns();
        let mut state = self.slot(lane).lock().unwrap();
        if is_interval(span) {
            let parent = self.parent_for(&state, lane);
            let id = self.trace.push(SpanRec {
                id: 0,
                parent: Some(parent),
                name: probe_span_name(span),
                start_ns: now,
                end_ns: now,
                busy_ns: None,
                iter: self.iter,
                lane: lane.0,
                covered: false,
            });
            state.stack.push(id);
            return;
        }
        if !state.aggs.contains_key(&(lane.0, span)) {
            let parent = self.parent_for(&state, lane);
            state.aggs.insert(
                (lane.0, span),
                Agg {
                    parent,
                    first_ns: now,
                    last_ns: now,
                    busy_ns: 0,
                    open_at: None,
                    depth: 0,
                },
            );
        }
        let agg = state.aggs.get_mut(&(lane.0, span)).expect("inserted above");
        if agg.depth == 0 {
            agg.open_at = Some(now);
        }
        agg.depth += 1;
    }

    fn exit(&self, lane: Lane, span: Span) {
        let now = self.trace.now_ns();
        let mut state = self.slot(lane).lock().unwrap();
        if is_interval(span) {
            if let Some(id) = state.stack.pop() {
                self.trace.spans.lock().unwrap()[id].end_ns = now;
            }
            return;
        }
        if let Some(agg) = state.aggs.get_mut(&(lane.0, span)) {
            agg.depth = agg.depth.saturating_sub(1);
            if agg.depth == 0 {
                if let Some(at) = agg.open_at.take() {
                    agg.busy_ns += now.saturating_sub(at);
                }
                agg.last_ns = now;
            }
        }
    }
}

/// How much of `span` its children account for, in nanoseconds:
/// the union of the interval children (clipped to the span) plus the
/// busy time of aggregated children, capped at the span's duration.
fn covered_ns(span: &SpanRec, children: &[&SpanRec]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.busy_ns.is_none())
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut union = 0u64;
    let mut cursor = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            union += e - s;
            cursor = e;
        }
    }
    let aggregated: u64 = children.iter().filter_map(|c| c.busy_ns).sum();
    (union + aggregated).min(span.busy())
}

fn children_of(spans: &[SpanRec]) -> HashMap<usize, Vec<&SpanRec>> {
    let mut children: HashMap<usize, Vec<&SpanRec>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    children
}

/// Self time of every span: its busy time minus what its children
/// cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            s.busy() - covered_ns(s, kids)
        })
        .collect()
}

/// Self time summed per span name: name → (spans, total self ns).
pub fn self_time_by_name(spans: &[SpanRec]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let slot = out.entry(s.name.clone()).or_default();
        slot.0 += 1;
        slot.1 += self_ns;
    }
    out
}

/// A covered span whose children account for less than the required
/// share of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    pub name: String,
    pub iter: u64,
    pub coverage: f64,
}

/// Coverage of every covered span: (lowest coverage seen, the spans
/// below `min`).
pub fn coverage(spans: &[SpanRec], min: f64) -> (f64, Vec<Gap>) {
    let children = children_of(spans);
    let mut lowest = 1.0f64;
    let mut gaps = Vec::new();
    for s in spans.iter().filter(|s| s.covered && s.busy() > 0) {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let share = covered_ns(s, kids) as f64 / s.busy() as f64;
        lowest = lowest.min(share);
        if share < min {
            gaps.push(Gap {
                name: s.name.clone(),
                iter: s.iter,
                coverage: share,
            });
        }
    }
    (lowest, gaps)
}

/// The trace as JSON lines, one span per line.
pub fn to_json_lines(spans: &[SpanRec]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let busy = s.busy_ns.map_or("null".to_string(), |b| b.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"busy_ns\":{},\"self_ns\":{},\"iter\":{},\"lane\":{}}}\n",
            s.id, parent, s.name, s.start_ns, s.end_ns, busy, own, s.iter, s.lane
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            busy_ns: None,
            iter: 0,
            lane: 0,
            covered: parent.is_none(),
        }
    }

    /// iteration 0..100 holding parse 0..10, extract 10..80 and write
    /// 85..100; extract holds two overlapping band spans and one
    /// aggregated phase with 5 ns of busy time.
    fn synthetic() -> Vec<SpanRec> {
        let mut spans = vec![
            rec(0, None, "iteration", 0, 100),
            rec(1, Some(0), "cif.parse", 0, 10),
            rec(2, Some(0), "core.extract", 10, 80),
            rec(3, Some(0), "wirelist.write", 85, 100),
            rec(4, Some(2), "core.band", 12, 50),
            rec(5, Some(2), "core.band", 20, 60),
            rec(6, Some(2), "core.devices", 60, 75),
        ];
        spans[6].busy_ns = Some(5);
        spans
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&synthetic());
        // iteration: 100 - (10 + 70 + 15) = 5 (the 80..85 gap)
        assert_eq!(own[0], 5);
        assert_eq!(own[1], 10);
        // extract: 70 - (union 12..60 = 48, + 5 busy) = 17
        assert_eq!(own[2], 17);
        assert_eq!(own[4], 38);
        assert_eq!(own[6], 5);
        let by_name = self_time_by_name(&synthetic());
        assert_eq!(by_name["core.band"], (2, 78));
    }

    #[test]
    fn coverage_reports_gaps_by_name() {
        let spans = synthetic();
        let (lowest, gaps) = coverage(&spans, 0.95);
        assert_eq!(lowest, 0.95);
        assert!(gaps.is_empty());
        let (lowest, gaps) = coverage(&spans, 0.96);
        assert_eq!(lowest, 0.95);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].name, "iteration");
    }

    #[test]
    fn probe_spans_nest_under_the_call_span() {
        let trace = Trace::new();
        let call = trace.open("core.extract", None, 7);
        let probe = TraceProbe::new(&trace, call, 7);
        probe.enter(Lane::MAIN, Span::Extract);
        for _ in 0..3 {
            probe.enter(Lane::MAIN, Span::Devices);
            probe.exit(Lane::MAIN, Span::Devices);
        }
        probe.enter(Lane::band(0), Span::Band);
        probe.exit(Lane::band(0), Span::Band);
        probe.exit(Lane::MAIN, Span::Extract);
        probe.finish();
        trace.close(call);
        let spans = trace.spans();
        let extract = spans.iter().find(|s| s.name == "probe.extract").unwrap();
        let band = spans.iter().find(|s| s.name == "probe.band-sweep").unwrap();
        let devices = spans
            .iter()
            .find(|s| s.name == "probe.compute-devices")
            .unwrap();
        assert_eq!(extract.parent, Some(call));
        assert_eq!(band.parent, Some(extract.id));
        assert_eq!(devices.parent, Some(extract.id));
        assert!(devices.busy_ns.is_some());
        assert!(spans.iter().all(|s| s.iter == 7));
    }
}
