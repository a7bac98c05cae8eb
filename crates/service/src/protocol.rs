//! The serializable request/response surface of `aced`.
//!
//! Everything a client can ask and everything the daemon can answer
//! lives here as plain data with hand-written [`Json`] conversions.
//! The in-process types these mirror ([`ExtractOptions`],
//! [`LintConfig`], [`LayoutDiff`]) stay the single source of truth —
//! this module only defines the *wire* shape: stable field names,
//! stable enum spellings (the same kebab-case names the CLI already
//! uses), and integer-only numbers, so the golden-bytes test can pin
//! the exact encoding.
//!
//! Every message is an envelope object `{"v":1,"id":N,...}`:
//! requests carry `"op"` plus operands, responses carry `"ok"` plus
//! a result (or `"error"`). The `id` is an opaque client-chosen
//! correlation number echoed back verbatim.
//!
//! # Examples
//!
//! ```
//! use ace_service::protocol::{decode_request, encode_request, Request};
//!
//! let bytes = encode_request(7, &Request::Status);
//! let (id, back) = decode_request(&bytes).unwrap();
//! assert_eq!(id, 7);
//! assert_eq!(back, Request::Status);
//! ```

use std::fmt;

use ace_core::{ExtractOptions, SortStrategy};
use ace_geom::{Layer, Point, Rect};
use ace_layout::{FlatLabel, LayoutDiff};
use ace_lint::{Anchor, Diagnostic, LintConfig, LintSpan, RuleId, Severity};

use crate::json::Json;

/// Wire protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: i64 = 1;

/// A malformed or unsupported protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the message.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Stable machine-readable error codes, mirrored in
/// [`ServiceError::code`]. Codes are part of the wire format: clients
/// dispatch on them, so existing spellings never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was syntactically valid JSON but semantically
    /// malformed (unknown op, missing field, bad enum spelling).
    BadRequest,
    /// The session's CIF source failed to parse.
    ParseError,
    /// The named session does not exist (or was closed/evicted).
    UnknownSession,
    /// `open` named a session that already exists.
    SessionExists,
    /// Extraction itself failed (inconsistent options, layout error).
    ExtractFailed,
    /// An `edit-diff` removal named geometry the layout lacks.
    DiffFailed,
    /// The target shard's queue is full; retry after
    /// [`ServiceError::retry_after_ms`].
    QueueFull,
    /// The request exceeded the daemon's per-request deadline.
    Timeout,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// Unexpected daemon-side failure.
    Internal,
}

impl ErrorCode {
    /// All codes, in a fixed order (for tests and docs).
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::BadRequest,
        ErrorCode::ParseError,
        ErrorCode::UnknownSession,
        ErrorCode::SessionExists,
        ErrorCode::ExtractFailed,
        ErrorCode::DiffFailed,
        ErrorCode::QueueFull,
        ErrorCode::Timeout,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

    /// The stable kebab-case wire spelling.
    pub const fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::SessionExists => "session-exists",
            ErrorCode::ExtractFailed => "extract-failed",
            ErrorCode::DiffFailed => "diff-failed",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire spelling as printed by [`ErrorCode::name`].
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A request the daemon refused or failed, as sent to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-dispatchable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::QueueFull`]: how long the client should wait
    /// before retrying, in milliseconds.
    pub retry_after_ms: Option<i64>,
}

impl ServiceError {
    /// An error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a retry-after hint (backpressure responses).
    pub fn with_retry_after_ms(mut self, ms: i64) -> ServiceError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {}

/// Everything a client can ask `aced`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Creates a session: parse `cif`, flatten it, and keep an
    /// incremental extractor with `bands` bands resident under
    /// `session`.
    Open {
        /// Client-chosen session name.
        session: String,
        /// CIF source text of the library to keep resident.
        cif: String,
        /// Incremental band count (0 picks the daemon default).
        bands: usize,
        /// Extraction options applied to every run in this session.
        options: ExtractOptions,
    },
    /// Extracts the session's current layout (cache-warm after the
    /// first run).
    Extract {
        /// Target session.
        session: String,
    },
    /// Applies a layout edit to the session and re-extracts; only
    /// dirty bands are re-swept.
    EditDiff {
        /// Target session.
        session: String,
        /// Client-chosen sequence number for exactly-once semantics.
        /// The session records the highest seq it has applied; a
        /// retried `seq <= last` is acknowledged idempotently from the
        /// current snapshot instead of re-applied, so a client that
        /// timed out may safely retry the same request. `None` opts
        /// out (the edit is always applied) — for single-shot tools
        /// and multi-writer sessions where no per-client ordering
        /// exists.
        seq: Option<i64>,
        /// The edit, as a multiset delta.
        diff: LayoutDiff,
    },
    /// Runs the ERC rule engine over the session's current circuit.
    Lint {
        /// Target session.
        session: String,
        /// Rule enablement/severity and parameters.
        config: LintConfig,
    },
    /// Runs the geometric design-rule checker over the session's
    /// current layout.
    Drc {
        /// Target session.
        session: String,
        /// Rule deck in `ace_drc::RuleDeck` text form; `None` uses
        /// the default NMOS λ-deck.
        deck: Option<String>,
        /// Rule enablement/severity overrides (geometric rules only;
        /// the rest are ignored by the checker).
        config: LintConfig,
    },
    /// Looks one net up by name in the session's current netlist.
    QueryNet {
        /// Target session.
        session: String,
        /// The net name (a CIF `94` label).
        net: String,
    },
    /// Drops a session and frees its caches.
    Close {
        /// Target session.
        session: String,
    },
    /// Daemon-wide statistics (sessions, cache bytes, pool counters).
    Status,
}

impl Request {
    /// The wire spelling of this request's `op` field.
    pub const fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Extract { .. } => "extract",
            Request::EditDiff { .. } => "edit-diff",
            Request::Lint { .. } => "lint",
            Request::Drc { .. } => "drc",
            Request::QueryNet { .. } => "query-net",
            Request::Close { .. } => "close",
            Request::Status => "status",
        }
    }

    /// The session this request targets, if any (`Status` has none).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Extract { session }
            | Request::EditDiff { session, .. }
            | Request::Lint { session, .. }
            | Request::Drc { session, .. }
            | Request::QueryNet { session, .. }
            | Request::Close { session } => Some(session),
            Request::Status => None,
        }
    }
}

/// Per-request extraction statistics, a wire-stable subset of
/// [`ace_core::ExtractionReport`] (times flattened to nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireReport {
    /// Boxes swept.
    pub boxes: i64,
    /// Scanline stops made.
    pub scanline_stops: i64,
    /// Net union operations.
    pub net_unions: i64,
    /// Bands answered from the incremental cache.
    pub bands_reused: i64,
    /// Bands re-swept because their content changed.
    pub bands_reswept: i64,
    /// Bytes held by the session's band cache after this request.
    pub cache_bytes: i64,
    /// ERC diagnostics emitted (lint requests only).
    pub lints_emitted: i64,
    /// Geometric DRC violations reported (drc requests only).
    pub drc_violations: i64,
    /// Time spent in the DRC checker, nanoseconds (drc requests
    /// only).
    pub drc_time_ns: i64,
    /// Queued edits that rode along with this request's sweep beyond
    /// the first (edit-diff requests only; see coalescing in the
    /// daemon docs).
    pub coalesced_edits: i64,
    /// Wall-clock time, nanoseconds.
    pub total_ns: i64,
}

/// A successful `extract` / `edit-diff` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractResult {
    /// The circuit in CMU wirelist text form — parse it back with
    /// `ace_wirelist::parse_wirelist`.
    pub wirelist: String,
    /// Per-request statistics.
    pub report: WireReport,
}

/// One lint/DRC finding, flattened for the wire (rule, severity and
/// the primary span survive exactly; related spans are carried only
/// in the pre-rendered text form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Effective severity after config overrides.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// The primary span — lets clients rebuild a [`Diagnostic`] for
    /// structured emitters (SARIF) without re-running the checker.
    pub primary: LintSpan,
    /// The canonical one-line render (`severity[rule] @ anchor: …`),
    /// identical to the in-process [`Diagnostic::render`].
    pub rendered: String,
}

impl From<&Diagnostic> for WireDiagnostic {
    fn from(d: &Diagnostic) -> WireDiagnostic {
        WireDiagnostic {
            rule: d.rule,
            severity: d.severity,
            message: d.message.clone(),
            primary: d.primary.clone(),
            rendered: d.render(),
        }
    }
}

impl WireDiagnostic {
    /// Rebuilds an in-process [`Diagnostic`] (related spans, which
    /// only travel inside [`WireDiagnostic::rendered`], are dropped).
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            rule: self.rule,
            severity: self.severity,
            message: self.message.clone(),
            primary: self.primary.clone(),
            related: Vec::new(),
        }
    }
}

/// A `query-net` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetInfo {
    /// The queried name.
    pub net: String,
    /// Whether the name resolved to a net.
    pub found: bool,
    /// All names on the resolved net (empty when not found).
    pub names: Vec<String>,
    /// Devices whose gate is on this net.
    pub gates: i64,
    /// Device source/drain terminals on this net.
    pub terminals: i64,
    /// Wire capacitance to ground under the default NMOS parameter
    /// table, attofarads (0 when not found).
    pub cap_af: i64,
    /// End-to-end segment-resistance estimate, milliohms (0 when not
    /// found).
    pub res_mohm: i64,
}

/// A `status` answer: daemon-wide gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Resident sessions.
    pub sessions: i64,
    /// Total bytes held by all session caches (the CacheBytes gauge
    /// the evictor works against).
    pub cache_bytes: i64,
    /// Session caches reclaimed by the memory-budget evictor.
    pub evictions: i64,
    /// Jobs the worker pool has completed.
    pub executed: i64,
    /// Jobs run by a worker other than the target shard's owner.
    pub stolen: i64,
    /// Jobs currently queued across all shards.
    pub queued: i64,
    /// Worker threads serving requests.
    pub workers: i64,
    /// Lifetime count of queued edit-diffs that were merged into an
    /// already-scheduled sweep instead of paying their own.
    pub coalesced_edits: i64,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `open` succeeded.
    Opened {
        /// The session name, echoed.
        session: String,
        /// The band count actually used.
        bands: usize,
    },
    /// `extract` / `edit-diff` succeeded.
    Extracted(ExtractResult),
    /// `lint` succeeded.
    Linted {
        /// Findings in canonical report order.
        diagnostics: Vec<WireDiagnostic>,
        /// Per-request statistics (including `lints_emitted`).
        report: WireReport,
    },
    /// `drc` succeeded.
    DrcChecked {
        /// Violations in canonical report order.
        diagnostics: Vec<WireDiagnostic>,
        /// Per-request statistics (including `drc_violations`).
        report: WireReport,
    },
    /// `query-net` succeeded (even when the net was not found —
    /// check [`NetInfo::found`]).
    Net(NetInfo),
    /// `close` succeeded.
    Closed {
        /// The session name, echoed.
        session: String,
        /// Whether the session existed.
        existed: bool,
    },
    /// `status` succeeded.
    Status(ServiceStatus),
    /// The request failed; see [`ServiceError::code`].
    Error(ServiceError),
}

// ---------------------------------------------------------------------------
// Json conversions: geometry and layout vocabulary
// ---------------------------------------------------------------------------

fn rect_to_json(r: Rect) -> Json {
    Json::Arr(vec![
        Json::Int(r.x_min),
        Json::Int(r.y_min),
        Json::Int(r.x_max),
        Json::Int(r.y_max),
    ])
}

fn rect_from_json(v: &Json) -> Result<Rect, ProtoError> {
    let items = v
        .as_arr()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| ProtoError::new("rect must be [x_min,y_min,x_max,y_max]"))?;
    let mut c = [0i64; 4];
    for (slot, item) in c.iter_mut().zip(items) {
        *slot = item
            .as_int()
            .ok_or_else(|| ProtoError::new("rect coordinates must be integers"))?;
    }
    Ok(Rect::new(c[0], c[1], c[2], c[3]))
}

fn point_to_json(p: Point) -> Json {
    Json::Arr(vec![Json::Int(p.x), Json::Int(p.y)])
}

fn point_from_json(v: &Json) -> Result<Point, ProtoError> {
    let items = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| ProtoError::new("point must be [x,y]"))?;
    let x = items[0]
        .as_int()
        .ok_or_else(|| ProtoError::new("point coordinates must be integers"))?;
    let y = items[1]
        .as_int()
        .ok_or_else(|| ProtoError::new("point coordinates must be integers"))?;
    Ok(Point::new(x, y))
}

fn layer_to_json(layer: Layer) -> Json {
    Json::str(layer.cif_name())
}

fn layer_from_json(v: &Json) -> Result<Layer, ProtoError> {
    let name = v
        .as_str()
        .ok_or_else(|| ProtoError::new("layer must be a CIF layer name"))?;
    Layer::from_cif_name(name).ok_or_else(|| ProtoError::new(format!("unknown layer '{name}'")))
}

fn opt_layer_to_json(layer: Option<Layer>) -> Json {
    match layer {
        Some(l) => layer_to_json(l),
        None => Json::Null,
    }
}

fn boxes_to_json(boxes: &[ace_layout::LayerBox]) -> Json {
    Json::Arr(
        boxes
            .iter()
            .map(|b| {
                Json::obj([
                    ("layer", layer_to_json(b.layer)),
                    ("rect", rect_to_json(b.rect)),
                ])
            })
            .collect(),
    )
}

fn boxes_from_json(v: &Json) -> Result<Vec<(Layer, Rect)>, ProtoError> {
    v.as_arr()
        .ok_or_else(|| ProtoError::new("box list must be an array"))?
        .iter()
        .map(|b| {
            let layer = layer_from_json(
                b.get("layer")
                    .ok_or_else(|| ProtoError::new("box missing 'layer'"))?,
            )?;
            let rect = rect_from_json(
                b.get("rect")
                    .ok_or_else(|| ProtoError::new("box missing 'rect'"))?,
            )?;
            Ok((layer, rect))
        })
        .collect()
}

fn labels_to_json(labels: &[FlatLabel]) -> Json {
    Json::Arr(
        labels
            .iter()
            .map(|l| {
                Json::obj([
                    ("name", Json::str(&l.name)),
                    ("at", point_to_json(l.at)),
                    ("layer", opt_layer_to_json(l.layer)),
                ])
            })
            .collect(),
    )
}

fn labels_from_json(v: &Json) -> Result<Vec<(String, Point, Option<Layer>)>, ProtoError> {
    v.as_arr()
        .ok_or_else(|| ProtoError::new("label list must be an array"))?
        .iter()
        .map(|l| {
            let name = l
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("label missing 'name'"))?
                .to_string();
            let at = point_from_json(
                l.get("at")
                    .ok_or_else(|| ProtoError::new("label missing 'at'"))?,
            )?;
            let layer = match l.get("layer") {
                None | Some(Json::Null) => None,
                Some(v) => Some(layer_from_json(v)?),
            };
            Ok((name, at, layer))
        })
        .collect()
}

/// Serializes a [`LayoutDiff`] to its wire object.
pub fn diff_to_json(diff: &LayoutDiff) -> Json {
    Json::obj([
        ("boxes_added", boxes_to_json(&diff.boxes_added)),
        ("boxes_removed", boxes_to_json(&diff.boxes_removed)),
        ("labels_added", labels_to_json(&diff.labels_added)),
        ("labels_removed", labels_to_json(&diff.labels_removed)),
    ])
}

/// Parses a [`LayoutDiff`] from its wire object.
///
/// # Errors
///
/// [`ProtoError`] on missing fields or malformed geometry.
pub fn diff_from_json(v: &Json) -> Result<LayoutDiff, ProtoError> {
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| ProtoError::new(format!("diff missing '{key}'")))
    };
    let mut diff = LayoutDiff::new();
    for (layer, rect) in boxes_from_json(field("boxes_added")?)? {
        diff.add_box(layer, rect);
    }
    for (layer, rect) in boxes_from_json(field("boxes_removed")?)? {
        diff.remove_box(layer, rect);
    }
    for (name, at, layer) in labels_from_json(field("labels_added")?)? {
        diff.add_label(name, at, layer);
    }
    for (name, at, layer) in labels_from_json(field("labels_removed")?)? {
        diff.remove_label(name, at, layer);
    }
    Ok(diff)
}

// ---------------------------------------------------------------------------
// Json conversions: options and lint config
// ---------------------------------------------------------------------------

fn opt_usize_to_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::Int(n as i64),
        None => Json::Null,
    }
}

fn opt_usize_from_json(v: Option<&Json>, what: &str) -> Result<Option<usize>, ProtoError> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(n)) if *n >= 0 => Ok(Some(*n as usize)),
        Some(_) => Err(ProtoError::new(format!(
            "'{what}' must be null or a non-negative integer"
        ))),
    }
}

/// Serializes [`ExtractOptions`] to its wire object.
pub fn options_to_json(options: &ExtractOptions) -> Json {
    Json::obj([
        ("geometry", Json::Bool(options.geometry_output)),
        (
            "sort",
            Json::str(match options.sort {
                SortStrategy::Insertion => "insertion",
                SortStrategy::Bin => "bin",
            }),
        ),
        (
            "window",
            match options.window {
                Some(r) => rect_to_json(r),
                None => Json::Null,
            },
        ),
        ("threads", opt_usize_to_json(options.threads)),
        ("bands", opt_usize_to_json(options.bands)),
        ("lints", Json::Bool(options.lints)),
    ])
}

/// Parses [`ExtractOptions`] from its wire object.
///
/// # Errors
///
/// [`ProtoError`] on unknown sort spellings or malformed fields.
pub fn options_from_json(v: &Json) -> Result<ExtractOptions, ProtoError> {
    let mut options = ExtractOptions::new();
    options.geometry_output = v
        .get("geometry")
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::new("options missing boolean 'geometry'"))?;
    options.sort = match v.get("sort").and_then(Json::as_str) {
        Some("insertion") => SortStrategy::Insertion,
        Some("bin") => SortStrategy::Bin,
        Some(other) => return Err(ProtoError::new(format!("unknown sort '{other}'"))),
        None => return Err(ProtoError::new("options missing 'sort'")),
    };
    options.window = match v.get("window") {
        None | Some(Json::Null) => None,
        Some(r) => Some(rect_from_json(r)?),
    };
    options.threads = opt_usize_from_json(v.get("threads"), "threads")?;
    options.bands = opt_usize_from_json(v.get("bands"), "bands")?;
    options.lints = v
        .get("lints")
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::new("options missing boolean 'lints'"))?;
    Ok(options)
}

/// Serializes a [`LintConfig`] to its wire object: one entry per rule
/// (enabled + severity, by stable kebab-case names) plus the supply
/// name sets and the minimum channel dimension.
pub fn lint_config_to_json(config: &LintConfig) -> Json {
    let rules = Json::Arr(
        RuleId::ALL
            .into_iter()
            .map(|rule| {
                Json::obj([
                    ("rule", Json::str(rule.name())),
                    ("enabled", Json::Bool(config.is_enabled(rule))),
                    ("severity", Json::str(config.severity_of(rule).name())),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("rules", rules),
        (
            "vdd",
            Json::Arr(config.vdd_names.iter().map(Json::str).collect()),
        ),
        (
            "gnd",
            Json::Arr(config.gnd_names.iter().map(Json::str).collect()),
        ),
        ("min_channel_dim", Json::Int(config.min_channel_dim)),
        (
            "overload_cap_af_per_drive",
            Json::Int(config.overload_cap_af_per_drive),
        ),
    ])
}

/// Parses a [`LintConfig`] from its wire object.
///
/// [`Severity::Note`] is rejected: the config builder vocabulary
/// (allow/warn/deny, after clippy) cannot express it, so no conforming
/// client produces it.
///
/// # Errors
///
/// [`ProtoError`] on unknown rule/severity spellings or missing
/// fields.
pub fn lint_config_from_json(v: &Json) -> Result<LintConfig, ProtoError> {
    let mut config = LintConfig::new();
    let rules = v
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::new("lint config missing 'rules' array"))?;
    for entry in rules {
        let name = entry
            .get("rule")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("rule entry missing 'rule'"))?;
        let rule = RuleId::from_name(name)
            .ok_or_else(|| ProtoError::new(format!("unknown rule '{name}'")))?;
        let enabled = entry
            .get("enabled")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtoError::new("rule entry missing boolean 'enabled'"))?;
        let severity_name = entry
            .get("severity")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("rule entry missing 'severity'"))?;
        let severity = Severity::from_name(severity_name)
            .ok_or_else(|| ProtoError::new(format!("unknown severity '{severity_name}'")))?;
        config = match severity {
            Severity::Warning => config.warn(rule),
            Severity::Error => config.deny(rule),
            Severity::Note => {
                return Err(ProtoError::new(
                    "severity 'note' is not expressible in a lint config",
                ))
            }
        };
        if !enabled {
            config = config.allow(rule);
        }
    }
    let names = |key: &str| -> Result<Vec<String>, ProtoError> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| ProtoError::new(format!("lint config missing '{key}' array")))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ProtoError::new(format!("'{key}' entries must be strings")))
            })
            .collect()
    };
    config = config.with_supply_names(names("vdd")?, names("gnd")?);
    let dim = v
        .get("min_channel_dim")
        .and_then(Json::as_int)
        .ok_or_else(|| ProtoError::new("lint config missing integer 'min_channel_dim'"))?;
    let overload = v
        .get("overload_cap_af_per_drive")
        .and_then(Json::as_int)
        .ok_or_else(|| {
            ProtoError::new("lint config missing integer 'overload_cap_af_per_drive'")
        })?;
    Ok(config
        .with_min_channel_dim(dim)
        .with_overload_threshold(overload))
}

// ---------------------------------------------------------------------------
// Json conversions: requests
// ---------------------------------------------------------------------------

fn envelope(id: i64, rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("id".to_string(), Json::Int(id)),
    ];
    pairs.extend(rest);
    Json::Obj(pairs)
}

fn check_envelope(v: &Json) -> Result<i64, ProtoError> {
    match v.get("v").and_then(Json::as_int) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(ProtoError::new(format!(
                "protocol version {other} (this build speaks {PROTOCOL_VERSION})"
            )))
        }
        None => return Err(ProtoError::new("missing protocol version 'v'")),
    }
    v.get("id")
        .and_then(Json::as_int)
        .ok_or_else(|| ProtoError::new("missing integer 'id'"))
}

/// Converts a request to its wire JSON value (see [`encode_request`]
/// for the byte form).
pub fn request_to_json(id: i64, request: &Request) -> Json {
    let mut rest: Vec<(String, Json)> = vec![("op".into(), Json::str(request.op()))];
    match request {
        Request::Open {
            session,
            cif,
            bands,
            options,
        } => {
            rest.push(("session".into(), Json::str(session)));
            rest.push(("cif".into(), Json::str(cif)));
            rest.push(("bands".into(), Json::Int(*bands as i64)));
            rest.push(("options".into(), options_to_json(options)));
        }
        Request::Extract { session } | Request::Close { session } => {
            rest.push(("session".into(), Json::str(session)));
        }
        Request::EditDiff { session, seq, diff } => {
            rest.push(("session".into(), Json::str(session)));
            rest.push((
                "seq".into(),
                match seq {
                    Some(n) => Json::Int(*n),
                    None => Json::Null,
                },
            ));
            rest.push(("diff".into(), diff_to_json(diff)));
        }
        Request::Lint { session, config } => {
            rest.push(("session".into(), Json::str(session)));
            rest.push(("config".into(), lint_config_to_json(config)));
        }
        Request::Drc {
            session,
            deck,
            config,
        } => {
            rest.push(("session".into(), Json::str(session)));
            rest.push((
                "deck".into(),
                match deck {
                    Some(text) => Json::str(text),
                    None => Json::Null,
                },
            ));
            rest.push(("config".into(), lint_config_to_json(config)));
        }
        Request::QueryNet { session, net } => {
            rest.push(("session".into(), Json::str(session)));
            rest.push(("net".into(), Json::str(net)));
        }
        Request::Status => {}
    }
    envelope(id, rest)
}

/// Parses a request from its wire JSON value.
///
/// # Errors
///
/// [`ProtoError`] on version mismatch, unknown op, or malformed
/// operands.
pub fn request_from_json(v: &Json) -> Result<(i64, Request), ProtoError> {
    let id = check_envelope(v)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("missing request 'op'"))?;
    let session = || {
        v.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ProtoError::new(format!("'{op}' requires a 'session'")))
    };
    let request = match op {
        "open" => Request::Open {
            session: session()?,
            cif: v
                .get("cif")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("'open' requires 'cif' text"))?
                .to_string(),
            bands: opt_usize_from_json(v.get("bands"), "bands")?
                .ok_or_else(|| ProtoError::new("'open' requires integer 'bands'"))?,
            options: options_from_json(
                v.get("options")
                    .ok_or_else(|| ProtoError::new("'open' requires 'options'"))?,
            )?,
        },
        "extract" => Request::Extract {
            session: session()?,
        },
        "edit-diff" => Request::EditDiff {
            session: session()?,
            // Absent and null both mean "unsequenced", so pre-seq
            // clients keep working unchanged.
            seq: match v.get("seq") {
                None | Some(Json::Null) => None,
                Some(Json::Int(n)) => Some(*n),
                Some(_) => return Err(ProtoError::new("'seq' must be null or integer")),
            },
            diff: diff_from_json(
                v.get("diff")
                    .ok_or_else(|| ProtoError::new("'edit-diff' requires 'diff'"))?,
            )?,
        },
        "lint" => Request::Lint {
            session: session()?,
            config: lint_config_from_json(
                v.get("config")
                    .ok_or_else(|| ProtoError::new("'lint' requires 'config'"))?,
            )?,
        },
        "drc" => Request::Drc {
            session: session()?,
            deck: match v.get("deck") {
                None | Some(Json::Null) => None,
                Some(Json::Str(text)) => Some(text.clone()),
                Some(_) => return Err(ProtoError::new("'deck' must be null or deck text")),
            },
            config: lint_config_from_json(
                v.get("config")
                    .ok_or_else(|| ProtoError::new("'drc' requires 'config'"))?,
            )?,
        },
        "query-net" => Request::QueryNet {
            session: session()?,
            net: v
                .get("net")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("'query-net' requires 'net'"))?
                .to_string(),
        },
        "close" => Request::Close {
            session: session()?,
        },
        "status" => Request::Status,
        other => return Err(ProtoError::new(format!("unknown op '{other}'"))),
    };
    Ok((id, request))
}

/// Encodes a request to its canonical wire bytes (compact JSON; frame
/// it with [`crate::frame::write_frame`]).
pub fn encode_request(id: i64, request: &Request) -> Vec<u8> {
    request_to_json(id, request).to_text().into_bytes()
}

/// Decodes request bytes.
///
/// # Errors
///
/// [`ProtoError`] on invalid UTF-8/JSON or a malformed message.
pub fn decode_request(bytes: &[u8]) -> Result<(i64, Request), ProtoError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| ProtoError::new("request is not valid UTF-8"))?;
    let v = Json::parse(text).map_err(|e| ProtoError::new(e.to_string()))?;
    request_from_json(&v)
}

// ---------------------------------------------------------------------------
// Json conversions: responses
// ---------------------------------------------------------------------------

fn report_to_json(r: &WireReport) -> Json {
    Json::obj([
        ("boxes", Json::Int(r.boxes)),
        ("scanline_stops", Json::Int(r.scanline_stops)),
        ("net_unions", Json::Int(r.net_unions)),
        ("bands_reused", Json::Int(r.bands_reused)),
        ("bands_reswept", Json::Int(r.bands_reswept)),
        ("cache_bytes", Json::Int(r.cache_bytes)),
        ("lints_emitted", Json::Int(r.lints_emitted)),
        ("drc_violations", Json::Int(r.drc_violations)),
        ("drc_time_ns", Json::Int(r.drc_time_ns)),
        ("coalesced_edits", Json::Int(r.coalesced_edits)),
        ("total_ns", Json::Int(r.total_ns)),
    ])
}

fn report_from_json(v: &Json) -> Result<WireReport, ProtoError> {
    let int = |key: &str| {
        v.get(key)
            .and_then(Json::as_int)
            .ok_or_else(|| ProtoError::new(format!("report missing integer '{key}'")))
    };
    Ok(WireReport {
        boxes: int("boxes")?,
        scanline_stops: int("scanline_stops")?,
        net_unions: int("net_unions")?,
        bands_reused: int("bands_reused")?,
        bands_reswept: int("bands_reswept")?,
        cache_bytes: int("cache_bytes")?,
        lints_emitted: int("lints_emitted")?,
        drc_violations: int("drc_violations")?,
        drc_time_ns: int("drc_time_ns")?,
        coalesced_edits: int("coalesced_edits")?,
        total_ns: int("total_ns")?,
    })
}

impl WireReport {
    /// Flattens the wire-relevant fields of an in-process report.
    pub fn from_report(r: &ace_core::ExtractionReport) -> WireReport {
        WireReport {
            boxes: r.boxes as i64,
            scanline_stops: r.scanline_stops as i64,
            net_unions: r.net_unions as i64,
            bands_reused: r.bands_reused as i64,
            bands_reswept: r.bands_reswept as i64,
            cache_bytes: r.cache_bytes as i64,
            lints_emitted: r.lints_emitted as i64,
            drc_violations: r.drc_violations as i64,
            drc_time_ns: r.drc_time.as_nanos().min(i64::MAX as u128) as i64,
            coalesced_edits: r.coalesced_edits as i64,
            total_ns: r.total_time.as_nanos().min(i64::MAX as u128) as i64,
        }
    }
}

fn span_to_json(span: &LintSpan) -> Json {
    let anchor = match span.anchor {
        Anchor::At(p) => Json::obj([("at", point_to_json(p))]),
        Anchor::Area(r) => Json::obj([("area", rect_to_json(r))]),
    };
    Json::obj([
        ("anchor", anchor),
        ("label", Json::str(&span.label)),
        (
            "name",
            match &span.name {
                Some(n) => Json::str(n),
                None => Json::Null,
            },
        ),
    ])
}

fn span_from_json(v: &Json) -> Result<LintSpan, ProtoError> {
    let anchor_json = v
        .get("anchor")
        .ok_or_else(|| ProtoError::new("span missing 'anchor'"))?;
    let anchor = if let Some(p) = anchor_json.get("at") {
        Anchor::At(point_from_json(p)?)
    } else if let Some(r) = anchor_json.get("area") {
        Anchor::Area(rect_from_json(r)?)
    } else {
        return Err(ProtoError::new("anchor must have 'at' or 'area'"));
    };
    let label = v
        .get("label")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("span missing 'label'"))?;
    let name = match v.get("name") {
        None | Some(Json::Null) => None,
        Some(Json::Str(n)) => Some(n.clone()),
        Some(_) => return Err(ProtoError::new("span 'name' must be null or a string")),
    };
    Ok(LintSpan {
        anchor,
        label: label.to_string(),
        name,
    })
}

fn diagnostics_to_json(diagnostics: &[WireDiagnostic]) -> Json {
    Json::Arr(
        diagnostics
            .iter()
            .map(|d| {
                Json::obj([
                    ("rule", Json::str(d.rule.name())),
                    ("severity", Json::str(d.severity.name())),
                    ("message", Json::str(&d.message)),
                    ("primary", span_to_json(&d.primary)),
                    ("rendered", Json::str(&d.rendered)),
                ])
            })
            .collect(),
    )
}

fn diagnostics_from_json(v: &Json, result: &str) -> Result<Vec<WireDiagnostic>, ProtoError> {
    v.get("diagnostics")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::new(format!("'{result}' missing 'diagnostics'")))?
        .iter()
        .map(|d| {
            let rule_name = d
                .get("rule")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("diagnostic missing 'rule'"))?;
            let severity_name = d
                .get("severity")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("diagnostic missing 'severity'"))?;
            Ok(WireDiagnostic {
                rule: RuleId::from_name(rule_name)
                    .ok_or_else(|| ProtoError::new(format!("unknown rule '{rule_name}'")))?,
                severity: Severity::from_name(severity_name).ok_or_else(|| {
                    ProtoError::new(format!("unknown severity '{severity_name}'"))
                })?,
                message: d
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::new("diagnostic missing 'message'"))?
                    .to_string(),
                primary: span_from_json(
                    d.get("primary")
                        .ok_or_else(|| ProtoError::new("diagnostic missing 'primary'"))?,
                )?,
                rendered: d
                    .get("rendered")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::new("diagnostic missing 'rendered'"))?
                    .to_string(),
            })
        })
        .collect()
}

fn error_to_json(e: &ServiceError) -> Json {
    Json::obj([
        ("code", Json::str(e.code.name())),
        ("message", Json::str(&e.message)),
        (
            "retry_after_ms",
            match e.retry_after_ms {
                Some(ms) => Json::Int(ms),
                None => Json::Null,
            },
        ),
    ])
}

fn error_from_json(v: &Json) -> Result<ServiceError, ProtoError> {
    let code_name = v
        .get("code")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("error missing 'code'"))?;
    let code = ErrorCode::from_name(code_name)
        .ok_or_else(|| ProtoError::new(format!("unknown error code '{code_name}'")))?;
    let message = v
        .get("message")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("error missing 'message'"))?
        .to_string();
    let retry_after_ms = match v.get("retry_after_ms") {
        None | Some(Json::Null) => None,
        Some(Json::Int(ms)) => Some(*ms),
        Some(_) => return Err(ProtoError::new("'retry_after_ms' must be null or integer")),
    };
    Ok(ServiceError {
        code,
        message,
        retry_after_ms,
    })
}

/// Converts a response to its wire JSON value.
pub fn response_to_json(id: i64, response: &Response) -> Json {
    let ok = !matches!(response, Response::Error(_));
    let mut rest: Vec<(String, Json)> = vec![("ok".into(), Json::Bool(ok))];
    match response {
        Response::Opened { session, bands } => {
            rest.push(("result".into(), Json::str("opened")));
            rest.push(("session".into(), Json::str(session)));
            rest.push(("bands".into(), Json::Int(*bands as i64)));
        }
        Response::Extracted(result) => {
            rest.push(("result".into(), Json::str("extracted")));
            rest.push(("wirelist".into(), Json::str(&result.wirelist)));
            rest.push(("report".into(), report_to_json(&result.report)));
        }
        Response::Linted {
            diagnostics,
            report,
        } => {
            rest.push(("result".into(), Json::str("linted")));
            rest.push(("diagnostics".into(), diagnostics_to_json(diagnostics)));
            rest.push(("report".into(), report_to_json(report)));
        }
        Response::DrcChecked {
            diagnostics,
            report,
        } => {
            rest.push(("result".into(), Json::str("drc")));
            rest.push(("diagnostics".into(), diagnostics_to_json(diagnostics)));
            rest.push(("report".into(), report_to_json(report)));
        }
        Response::Net(info) => {
            rest.push(("result".into(), Json::str("net")));
            rest.push(("net".into(), Json::str(&info.net)));
            rest.push(("found".into(), Json::Bool(info.found)));
            rest.push((
                "names".into(),
                Json::Arr(info.names.iter().map(Json::str).collect()),
            ));
            rest.push(("gates".into(), Json::Int(info.gates)));
            rest.push(("terminals".into(), Json::Int(info.terminals)));
            rest.push(("cap_af".into(), Json::Int(info.cap_af)));
            rest.push(("res_mohm".into(), Json::Int(info.res_mohm)));
        }
        Response::Closed { session, existed } => {
            rest.push(("result".into(), Json::str("closed")));
            rest.push(("session".into(), Json::str(session)));
            rest.push(("existed".into(), Json::Bool(*existed)));
        }
        Response::Status(s) => {
            rest.push(("result".into(), Json::str("status")));
            rest.push(("sessions".into(), Json::Int(s.sessions)));
            rest.push(("cache_bytes".into(), Json::Int(s.cache_bytes)));
            rest.push(("evictions".into(), Json::Int(s.evictions)));
            rest.push(("executed".into(), Json::Int(s.executed)));
            rest.push(("stolen".into(), Json::Int(s.stolen)));
            rest.push(("queued".into(), Json::Int(s.queued)));
            rest.push(("workers".into(), Json::Int(s.workers)));
            rest.push(("coalesced_edits".into(), Json::Int(s.coalesced_edits)));
        }
        Response::Error(e) => {
            rest.push(("error".into(), error_to_json(e)));
        }
    }
    envelope(id, rest)
}

/// Parses a response from its wire JSON value.
///
/// # Errors
///
/// [`ProtoError`] on version mismatch or malformed payloads.
pub fn response_from_json(v: &Json) -> Result<(i64, Response), ProtoError> {
    let id = check_envelope(v)?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::new("missing boolean 'ok'"))?;
    if !ok {
        let e = error_from_json(
            v.get("error")
                .ok_or_else(|| ProtoError::new("failed response missing 'error'"))?,
        )?;
        return Ok((id, Response::Error(e)));
    }
    let result = v
        .get("result")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("ok response missing 'result'"))?;
    let session = || {
        v.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ProtoError::new(format!("'{result}' missing 'session'")))
    };
    let response = match result {
        "opened" => Response::Opened {
            session: session()?,
            bands: opt_usize_from_json(v.get("bands"), "bands")?
                .ok_or_else(|| ProtoError::new("'opened' missing 'bands'"))?,
        },
        "extracted" => Response::Extracted(ExtractResult {
            wirelist: v
                .get("wirelist")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("'extracted' missing 'wirelist'"))?
                .to_string(),
            report: report_from_json(
                v.get("report")
                    .ok_or_else(|| ProtoError::new("'extracted' missing 'report'"))?,
            )?,
        }),
        "linted" => Response::Linted {
            diagnostics: diagnostics_from_json(v, "linted")?,
            report: report_from_json(
                v.get("report")
                    .ok_or_else(|| ProtoError::new("'linted' missing 'report'"))?,
            )?,
        },
        "drc" => Response::DrcChecked {
            diagnostics: diagnostics_from_json(v, "drc")?,
            report: report_from_json(
                v.get("report")
                    .ok_or_else(|| ProtoError::new("'drc' missing 'report'"))?,
            )?,
        },
        "net" => Response::Net(NetInfo {
            net: v
                .get("net")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("'net' missing 'net'"))?
                .to_string(),
            found: v
                .get("found")
                .and_then(Json::as_bool)
                .ok_or_else(|| ProtoError::new("'net' missing 'found'"))?,
            names: v
                .get("names")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::new("'net' missing 'names'"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ProtoError::new("'names' entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            gates: v
                .get("gates")
                .and_then(Json::as_int)
                .ok_or_else(|| ProtoError::new("'net' missing 'gates'"))?,
            terminals: v
                .get("terminals")
                .and_then(Json::as_int)
                .ok_or_else(|| ProtoError::new("'net' missing 'terminals'"))?,
            cap_af: v
                .get("cap_af")
                .and_then(Json::as_int)
                .ok_or_else(|| ProtoError::new("'net' missing 'cap_af'"))?,
            res_mohm: v
                .get("res_mohm")
                .and_then(Json::as_int)
                .ok_or_else(|| ProtoError::new("'net' missing 'res_mohm'"))?,
        }),
        "closed" => Response::Closed {
            session: session()?,
            existed: v
                .get("existed")
                .and_then(Json::as_bool)
                .ok_or_else(|| ProtoError::new("'closed' missing 'existed'"))?,
        },
        "status" => {
            let int = |key: &str| {
                v.get(key)
                    .and_then(Json::as_int)
                    .ok_or_else(|| ProtoError::new(format!("'status' missing '{key}'")))
            };
            Response::Status(ServiceStatus {
                sessions: int("sessions")?,
                cache_bytes: int("cache_bytes")?,
                evictions: int("evictions")?,
                executed: int("executed")?,
                stolen: int("stolen")?,
                queued: int("queued")?,
                workers: int("workers")?,
                coalesced_edits: int("coalesced_edits")?,
            })
        }
        other => return Err(ProtoError::new(format!("unknown result '{other}'"))),
    };
    Ok((id, response))
}

/// Encodes a response to its canonical wire bytes.
pub fn encode_response(id: i64, response: &Response) -> Vec<u8> {
    response_to_json(id, response).to_text().into_bytes()
}

/// Decodes response bytes.
///
/// # Errors
///
/// [`ProtoError`] on invalid UTF-8/JSON or a malformed message.
pub fn decode_response(bytes: &[u8]) -> Result<(i64, Response), ProtoError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| ProtoError::new("response is not valid UTF-8"))?;
    let v = Json::parse(text).map_err(|e| ProtoError::new(e.to_string()))?;
    response_from_json(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip_and_stay_kebab() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_name(code.name()), Some(code));
            assert!(
                code.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{code}"
            );
        }
        assert_eq!(ErrorCode::from_name("no-such-code"), None);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut v = request_to_json(1, &Request::Status);
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::Int(99);
        }
        let err = request_from_json(&v).unwrap_err();
        assert!(err.message.contains("version 99"));
    }

    #[test]
    fn unknown_op_and_missing_fields_are_protocol_errors() {
        let v = Json::obj([
            ("v", Json::Int(PROTOCOL_VERSION)),
            ("id", Json::Int(1)),
            ("op", Json::str("frobnicate")),
        ]);
        assert!(request_from_json(&v)
            .unwrap_err()
            .message
            .contains("frobnicate"));

        let v = Json::obj([
            ("v", Json::Int(PROTOCOL_VERSION)),
            ("id", Json::Int(1)),
            ("op", Json::str("extract")),
        ]);
        assert!(request_from_json(&v)
            .unwrap_err()
            .message
            .contains("session"));
    }

    #[test]
    fn lint_config_severity_note_is_rejected() {
        let mut v = lint_config_to_json(&LintConfig::new());
        // Corrupt the first rule's severity.
        if let Some(Json::Arr(rules)) = v.get("rules").cloned() {
            let mut rules = rules;
            if let Json::Obj(pairs) = &mut rules[0] {
                for (k, val) in pairs.iter_mut() {
                    if k == "severity" {
                        *val = Json::str("note");
                    }
                }
            }
            if let Json::Obj(pairs) = &mut v {
                for (k, val) in pairs.iter_mut() {
                    if k == "rules" {
                        *val = Json::Arr(rules.clone());
                    }
                }
            }
        }
        assert!(lint_config_from_json(&v)
            .unwrap_err()
            .message
            .contains("note"));
    }

    #[test]
    fn wire_report_flattens_in_process_report() {
        let r = ace_core::ExtractionReport {
            boxes: 12,
            bands_reused: 3,
            cache_bytes: 4096,
            coalesced_edits: 2,
            total_time: std::time::Duration::from_micros(7),
            ..Default::default()
        };
        let w = WireReport::from_report(&r);
        assert_eq!(w.boxes, 12);
        assert_eq!(w.bands_reused, 3);
        assert_eq!(w.cache_bytes, 4096);
        assert_eq!(w.coalesced_edits, 2);
        assert_eq!(w.total_ns, 7_000);
    }
}
