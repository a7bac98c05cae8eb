//! The `aced-edit` workload: a closed loop of client threads, each
//! with its own connection and session on an in-process daemon over
//! loopback TCP, editing and reading the cherry proxy.
//!
//! A round is `edit-diff`, `query-net`, `extract`, `query-net`, plus
//! `lint` every fourth round. The edit alternates between a seeded
//! localized diff and its inverse, so every answer has a known
//! reference: an in-process `IncrementalExtractor` holding the same
//! layout state.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ace_core::{CircuitExtractor, ExtractOptions, IncrementalExtractor, NullProbe};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_lint::{lint_extraction, LintConfig};
use ace_service::frame::{read_frame, write_frame};
use ace_service::protocol::{decode_response, encode_request};
use ace_service::{Client, Daemon, ErrorCode, Request, Response, ServiceConfig, WireReport};
use ace_wirelist::{write_wirelist, Netlist, WirelistOptions};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};
use ace_workloads::edits::localized_edit_fraction;

use crate::calib::{self, Paired};
use crate::checks::{equal, same_lines, same_text, Checks};
use crate::trace::Trace;
use crate::{mix, secs, stats, Outcome, Run};

/// Client threads, each with its own connection and session.
const CLIENTS: usize = 2;
/// The cherry proxy at this scale: about 1,850 boxes.
const SCALE: f64 = 0.25;
/// Share of the boxes one edit touches.
const EDIT_FRACTION: f64 = 0.001;
/// The net every `query-net` asks for (a label every chip proxy has).
const QUERY_NET: &str = "PHI1";
/// Every this many rounds, the round also lints.
const LINT_EVERY: u64 = 4;
/// The name the daemon extracts sessions under.
const EXTRACT_NAME: &str = "aced";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Edit,
    Query,
    Extract,
    Lint,
}

impl Op {
    /// The op's infix in `service.<op>.*` metric names.
    fn metric(self) -> &'static str {
        match self {
            Op::Edit => "edit",
            Op::Query => "query",
            Op::Extract => "extract",
            Op::Lint => "lint",
        }
    }
}

/// What a `query-net` answer must say.
#[derive(Debug, Clone, PartialEq)]
struct NetSummary {
    found: bool,
    names: Vec<String>,
    gates: i64,
    terminals: i64,
}

fn summary(netlist: &Netlist, net: &str) -> NetSummary {
    let Some(id) = netlist.net_by_name(net) else {
        return NetSummary {
            found: false,
            names: Vec::new(),
            gates: 0,
            terminals: 0,
        };
    };
    let mut gates = 0;
    let mut terminals = 0;
    for d in netlist.devices() {
        gates += i64::from(d.gate == id);
        terminals += i64::from(d.source == id) + i64::from(d.drain == id);
    }
    NetSummary {
        found: true,
        names: netlist.net(id).names.clone(),
        gates,
        terminals,
    }
}

/// The answers for one layout state.
#[derive(Debug, Clone, PartialEq)]
struct State {
    wirelist: String,
    lint: Vec<String>,
    query: NetSummary,
}

/// One session's plan: its edit, the edit's inverse, and the answers
/// for the unedited (0) and edited (1) layout.
struct Plan {
    session: String,
    forward: LayoutDiff,
    inverse: LayoutDiff,
    states: [State; 2],
}

impl Plan {
    /// The requests of round `r`, and the layout state they see.
    fn round(&self, r: u64) -> (usize, Vec<(Op, Request)>) {
        let session = self.session.clone();
        let edited = usize::from(r.is_multiple_of(2));
        let diff = if edited == 1 {
            self.forward.clone()
        } else {
            self.inverse.clone()
        };
        let query = || Request::QueryNet {
            session: session.clone(),
            net: QUERY_NET.to_string(),
        };
        let mut requests = vec![
            (
                Op::Edit,
                Request::EditDiff {
                    session: session.clone(),
                    seq: None,
                    diff,
                },
            ),
            (Op::Query, query()),
            (
                Op::Extract,
                Request::Extract {
                    session: session.clone(),
                },
            ),
            (Op::Query, query()),
        ];
        if r % LINT_EVERY == LINT_EVERY - 1 {
            requests.push((
                Op::Lint,
                Request::Lint {
                    session: session.clone(),
                    config: LintConfig::new(),
                },
            ));
        }
        (edited, requests)
    }
}

/// The in-process reference for one layout and edit: the answers
/// for the unedited and the edited layout, or `None` when the edit
/// leaves the circuit as it was.
fn oracle(
    flat: &FlatLayout,
    bands: usize,
    forward: &LayoutDiff,
    inverse: &LayoutDiff,
) -> Result<Option<[State; 2]>, String> {
    let mut ex = IncrementalExtractor::new(flat.clone(), bands);
    let state = |ex: &mut IncrementalExtractor| -> Result<State, String> {
        let mut extraction = ex.extract(EXTRACT_NAME).map_err(|e| e.to_string())?;
        let lint = lint_extraction(&mut extraction, ex.layout(), &LintConfig::new(), &NullProbe);
        Ok(State {
            wirelist: write_wirelist(&extraction.netlist, WirelistOptions::new()),
            lint: lint.iter().map(|d| d.render()).collect(),
            query: summary(&extraction.netlist, QUERY_NET),
        })
    };
    let clean = state(&mut ex)?;
    ex.apply(forward).map_err(|e| e.to_string())?;
    let edited = state(&mut ex)?;
    ex.apply(inverse).map_err(|e| e.to_string())?;
    if state(&mut ex)? != clean {
        return Err("undoing the edit in process does not restore the circuit".into());
    }
    Ok((edited.wirelist != clean.wirelist).then_some([clean, edited]))
}

/// Salts tried per client for an edit that changes the circuit.
const EDIT_SALTS: u64 = 64;

fn plans(seed: u64) -> Result<(String, Vec<Plan>), String> {
    let paper = paper_chip("cherry").expect("cherry is a paper chip");
    let chip = generate_chip(
        &ChipSpec {
            seed: paper.seed.wrapping_add(seed),
            ..*paper
        }
        .scaled(SCALE),
    );
    let lib = Library::from_cif_text(&chip.cif).map_err(|e| e.to_string())?;
    let flat = FlatLayout::from_library(&lib);
    let bands = ServiceConfig::default().default_bands;
    let mut plans = Vec::new();
    for client in 0..CLIENTS as u64 {
        let mut found = None;
        for salt in 0..EDIT_SALTS {
            let forward = localized_edit_fraction(
                &flat,
                EDIT_FRACTION,
                mix(seed, client * EDIT_SALTS + salt),
            );
            let mut edited = flat.clone();
            forward.apply_to(&mut edited).map_err(|e| e.to_string())?;
            let inverse = LayoutDiff::between(&edited, &flat);
            if let Some(states) = oracle(&flat, bands, &forward, &inverse)? {
                found = Some((forward, inverse, states));
                break;
            }
        }
        let (forward, inverse, states) = found.ok_or("no seeded edit changes the circuit")?;
        plans.push(Plan {
            session: format!("bench-{client}"),
            forward,
            inverse,
            states,
        });
    }
    Ok((chip.cif, plans))
}

/// Checks one answer against the reference state.
fn check(op: Op, response: &Response, want: &State) -> Result<(), String> {
    match (op, response) {
        (Op::Edit | Op::Extract, Response::Extracted(r)) => {
            same_text("wirelist", &r.wirelist, &want.wirelist)
        }
        (Op::Query, Response::Net(info)) => equal(
            "query-net",
            NetSummary {
                found: info.found,
                names: info.names.clone(),
                gates: info.gates,
                terminals: info.terminals,
            },
            want.query.clone(),
        ),
        (Op::Lint, Response::Linted { diagnostics, .. }) => {
            let rendered: Vec<String> = diagnostics.iter().map(|d| d.rendered.clone()).collect();
            same_lines("lint", &rendered, &want.lint)
        }
        (_, Response::Error(e)) => Err(format!("service error: {e}")),
        (_, other) => Err(format!("unexpected answer {other:?}")),
    }
}

fn report_of(response: &Response) -> Option<WireReport> {
    match response {
        Response::Extracted(r) => Some(r.report),
        Response::Linted { report, .. } => Some(*report),
        _ => None,
    }
}

/// A queue-full answer's retry hint.
fn queue_full(response: &Response) -> Option<Duration> {
    match response {
        Response::Error(e) if e.code == ErrorCode::QueueFull => Some(Duration::from_millis(
            e.retry_after_ms.unwrap_or(10).max(1) as u64,
        )),
        _ => None,
    }
}

/// One answered request.
struct Answer {
    op: Op,
    rt: Duration,
    /// The calibration kernel's time at the start of the round.
    kernel: f64,
    report: Option<WireReport>,
    /// Stage breakdown, traced requests only.
    stages: Option<Stages>,
}

impl Answer {
    /// The daemon's own time for this request, when the answer reports
    /// one. Only an `edit-diff` answer does: an `extract` answer echoes
    /// the report of the sweep that built the snapshot it reads, a
    /// `lint` report leaves `total_ns` at 0, and `query-net` carries no
    /// report.
    fn server_ns(&self) -> Option<i64> {
        match self.op {
            Op::Edit => self.report.map(|r| r.total_ns),
            _ => None,
        }
    }
}

#[derive(Clone, Copy)]
struct Stages {
    encode: Duration,
    decode: Duration,
    response_bytes: usize,
}

/// A raw connection that splits each request into the steps
/// `Client::call` takes, each in its own span.
struct TracedConn {
    stream: TcpStream,
    next_id: i64,
}

impl TracedConn {
    fn connect(addr: &str) -> Result<TracedConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(TracedConn { stream, next_id: 1 })
    }

    fn call(
        &mut self,
        op: Op,
        request: &Request,
        trace: &Trace,
        parent: usize,
        iter: u64,
    ) -> Result<(Response, Stages), String> {
        let id = self.next_id;
        self.next_id += 1;
        let stream = &mut self.stream;
        // One timestamp per stage boundary: each stage ends where the
        // next begins, so the stages tile the request exactly.
        let mut bounds = [trace.now_ns(); 6];
        let payload = encode_request(id, request);
        bounds[1] = trace.now_ns();
        write_frame(stream, &payload).map_err(|e| e.to_string())?;
        bounds[2] = trace.now_ns();
        stream.peek(&mut [0u8; 1]).map_err(|e| e.to_string())?;
        bounds[3] = trace.now_ns();
        let frame = read_frame(stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the connection")?;
        bounds[4] = trace.now_ns();
        let (echo, response) = decode_response(&frame).map_err(|e| e.to_string())?;
        bounds[5] = trace.now_ns();
        if echo != id && echo != 0 {
            return Err(format!("response id {echo} for request {id}"));
        }
        let req = trace.record(
            &format!("request.{}", op.metric()),
            Some(parent),
            iter,
            (bounds[0], bounds[5]),
            true,
        );
        let stages = [
            "client.encode",
            "wire.write",
            "wire.wait",
            "wire.read",
            "client.decode",
        ];
        for (k, stage) in stages.iter().enumerate() {
            trace.record(stage, Some(req), iter, (bounds[k], bounds[k + 1]), false);
        }
        let ns = |k: usize| Duration::from_nanos(bounds[k + 1] - bounds[k]);
        Ok((
            response,
            Stages {
                encode: ns(0),
                decode: ns(4),
                response_bytes: frame.len(),
            },
        ))
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    /// Every round's wall time, with the kernel run before it.
    rounds: Vec<Paired>,
    traced_rounds: Vec<f64>,
    checks: Checks,
}

/// Sends one request through `call`, honouring queue-full pushback.
fn with_retries(
    retries: &AtomicU64,
    mut call: impl FnMut() -> Result<(Response, Option<Stages>), String>,
) -> (Duration, Result<(Response, Option<Stages>), String>) {
    loop {
        let t = Instant::now();
        let outcome = call();
        let rt = t.elapsed();
        if let Ok((response, _)) = &outcome {
            if let Some(wait) = queue_full(response) {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(wait);
                continue;
            }
        }
        return (rt, outcome);
    }
}

struct Session {
    client: Client,
    traced: Option<TracedConn>,
}

/// Runs rounds until the deadline, each after one run of the
/// calibration kernel. A traced run alternates blocks of
/// [`LINT_EVERY`] plain and traced rounds.
fn client_loop(
    plan: &Plan,
    session: &mut Session,
    run: &Run,
    trace: &Trace,
    retries: &AtomicU64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let began = Instant::now();
    let mut r = 0u64;
    while r == 0 || began.elapsed() < run.seconds {
        let kernel = calib::kernel();
        let (state, requests) = plan.round(r);
        let traced = run.trace && (r / LINT_EVERY) % 2 == 1;
        let round_start = Instant::now();
        let round = traced.then(|| trace.open_covered("round", None, r));
        let mut results = Vec::new();
        for (op, request) in &requests {
            let (rt, outcome) = with_retries(retries, || match (round, session.traced.as_mut()) {
                (Some(parent), Some(conn)) => conn
                    .call(*op, request, trace, parent, r)
                    .map(|(resp, stages)| (resp, Some(stages))),
                _ => session
                    .client
                    .call(request)
                    .map(|resp| (resp, None))
                    .map_err(|e| e.to_string()),
            });
            results.push((*op, rt, outcome));
        }
        if let Some(id) = round {
            trace.close(id);
        }
        let elapsed = secs(round_start.elapsed());
        if traced {
            log.traced_rounds.push(elapsed);
        } else {
            log.rounds.push(Paired {
                time: elapsed,
                kernel,
            });
        }
        for (op, rt, outcome) in results {
            let verdict = outcome
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|(response, _)| check(op, response, &plan.states[state]));
            log.checks.record(op.metric(), verdict);
            if let Ok((response, stages)) = outcome {
                log.answers.push(Answer {
                    op,
                    rt,
                    kernel,
                    report: report_of(&response),
                    stages,
                });
            }
        }
        r += 1;
    }
    log
}

/// Starts a daemon, opens every session and warms it with one read
/// of each kind on the unedited layout. The warm-up answers are the
/// same as the loop's, which checks every one.
fn set_up(cif: &str, plans: &[Plan], traced: bool) -> Result<(Daemon, Vec<Session>), String> {
    let daemon = Daemon::new(ServiceConfig::default());
    let addr = daemon
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("cannot start the daemon: {e}"))?
        .to_string();
    let mut sessions = Vec::new();
    for plan in plans {
        let mut client = Client::connect_tcp(&addr).map_err(|e| e.to_string())?;
        let bands = client
            .open(&plan.session, cif, 0, ExtractOptions::new())
            .map_err(|e| format!("open: {e}"))?;
        equal("bands", bands, ServiceConfig::default().default_bands)?;
        for request in [
            Request::Extract {
                session: plan.session.clone(),
            },
            Request::Lint {
                session: plan.session.clone(),
                config: LintConfig::new(),
            },
            Request::QueryNet {
                session: plan.session.clone(),
                net: QUERY_NET.to_string(),
            },
        ] {
            client.call(&request).map_err(|e| format!("warm-up: {e}"))?;
        }
        let traced = traced.then(|| TracedConn::connect(&addr)).transpose()?;
        sessions.push(Session { client, traced });
    }
    Ok((daemon, sessions))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (cif, plans) = plans(run.seed)?;

    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..run.setups() {
        let (setup, up) = calib::timed(|| set_up(&cif, &plans, run.trace));
        let (daemon, sessions) = up?;
        setups.push(setup);
        if k + 1 < run.setups() {
            drop(sessions);
            daemon.join();
        } else {
            live = Some((daemon, sessions));
        }
    }
    let (daemon, mut sessions) = live.expect("at least one set-up");

    let trace = Trace::new();
    let retries = AtomicU64::new(0);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(sessions.iter_mut())
            .map(|(plan, session)| {
                let (trace, retries) = (&trace, &retries);
                scope.spawn(move || client_loop(plan, session, run, trace, retries))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<ClientLog>>()
    });
    drop(sessions);
    daemon.join();

    let mut out = Outcome::default();
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut answers = Vec::new();
    // Closed-loop clients: the session's rate is the sum of theirs,
    // each over its rounds' wall time, raw and with every round
    // converted to reference-host seconds by its own kernel.
    let (mut raw_ops_per_s, mut ops_per_s) = (0.0, 0.0);
    for log in logs {
        let ops = log.answers.len() as f64;
        raw_ops_per_s += ops / log.rounds.iter().map(|p| p.time).sum::<f64>();
        ops_per_s += ops / log.rounds.iter().map(calib::adjusted).sum::<f64>();
        out.checks.merge(log.checks);
        plain_rounds.extend(log.rounds.iter().map(|p| p.time));
        traced_rounds.extend(log.traced_rounds);
        answers.extend(log.answers);
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let plain = |op: Op| -> Vec<Paired> {
        answers
            .iter()
            .filter(|a| a.op == op && a.stages.is_none())
            .map(|a| Paired {
                time: secs(a.rt),
                kernel: a.kernel,
            })
            .collect()
    };

    if run.trace {
        let m = &mut out.metrics;
        let mut by_op: BTreeMap<Op, Vec<&Answer>> = BTreeMap::new();
        for a in answers.iter().filter(|a| a.stages.is_some()) {
            by_op.entry(a.op).or_default().push(a);
        }
        for (op, list) in &by_op {
            let name = |stage: &str| format!("service.{}.{stage}", op.metric());
            let stages: Vec<Stages> = list.iter().map(|a| a.stages.expect("traced")).collect();
            let server: Vec<Option<f64>> = list
                .iter()
                .map(|a| a.server_ns().map(|ns| ns as f64 / 1e6))
                .collect();
            let wire: Vec<f64> = list
                .iter()
                .zip(&stages)
                .zip(&server)
                .map(|((a, s), server)| {
                    ms(a.rt) - ms(s.encode) - ms(s.decode) - server.unwrap_or(0.0)
                })
                .collect();
            let server: Vec<f64> = server.into_iter().flatten().collect();
            m.set_median(&name("server_ms"), &server);
            m.set_median(
                &name("client_encode_ms"),
                &stages.iter().map(|s| ms(s.encode)).collect::<Vec<_>>(),
            );
            m.set_median(
                &name("client_decode_ms"),
                &stages.iter().map(|s| ms(s.decode)).collect::<Vec<_>>(),
            );
            m.set_median(&name("wire_ms"), &wire);
            m.set_median(
                &name("response_bytes"),
                &stages
                    .iter()
                    .map(|s| s.response_bytes as f64)
                    .collect::<Vec<_>>(),
            );
        }
        let edits: Vec<WireReport> = answers
            .iter()
            .filter(|a| a.op == Op::Edit)
            .filter_map(|a| a.report)
            .collect();
        let reswept: Vec<f64> = edits.iter().map(|r| r.bands_reswept as f64).collect();
        m.set_median("incremental.bands_reswept", &reswept);
        let reused: i64 = edits.iter().map(|r| r.bands_reused).sum();
        let total: i64 = edits.iter().map(|r| r.bands_reused + r.bands_reswept).sum();
        m.set(
            "incremental.reuse_ratio",
            reused as f64 / total.max(1) as f64,
        );
        m.set(
            "service.coalesced_edits",
            edits.iter().map(|r| r.coalesced_edits).sum::<i64>() as f64,
        );
        let lints: Vec<f64> = answers
            .iter()
            .filter(|a| a.op == Op::Lint)
            .filter_map(|a| a.report)
            .map(|r| r.lints_emitted as f64)
            .collect();
        m.set_median("lint.diagnostics", &lints);
        m.set(
            "service.queue_full_retries",
            retries.load(Ordering::Relaxed) as f64,
        );
        out.trace_overhead(&traced_rounds, &plain_rounds);
        out.spans = trace.spans();
        return Ok(out);
    }

    let (_, setup) = out.timing("setup_s", "s", 1.0, &setups)?;
    let (_, edit) = out.timing("edit_p50_ms", "ms", 1e3, &plain(Op::Edit))?;
    let edits: Vec<f64> = plain(Op::Edit).iter().map(|p| p.time * 1e3).collect();
    match stats::tail(&edits) {
        Some(t) => out.ledger(
            &format!("edit_p{}_ms (of {} edits)", t.percentile, t.samples),
            "ms",
            t.value,
        ),
        None => out.ledger(
            "edit tail: fewer than 20 edits",
            "count",
            edits.len() as f64,
        ),
    }
    let (_, read) = out.timing("extract_read_p50_ms", "ms", 1e3, &plain(Op::Extract))?;
    out.timing("lint_read_p50_ms", "ms", 1e3, &plain(Op::Lint))?;
    out.timing("query_p50_ms", "ms", 1e3, &plain(Op::Query))?;
    out.ledger_adjusted("session_ops_per_s", "1/s", raw_ops_per_s, ops_per_s);
    out.ledger(
        "queue_full_retries",
        "count",
        retries.load(Ordering::Relaxed) as f64,
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup);
    m.set("main_p50_ms", edit * 1e3);
    m.set("second_p50_ms", read * 1e3);
    m.set("throughput_per_s", ops_per_s);
    Ok(out)
}
