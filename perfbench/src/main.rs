//! The serving benchmark: closed-loop trace replay over a real Unix
//! socket against an in-process `ReplayServer`, plus a traced per-layer
//! waterfall (`waterfall.rs`). `run.py` builds and runs this binary;
//! `README.md` records why each workload and metric was chosen.
//!
//! Usage: `perfbench --workload <mixed_replay|bitwise_replay|fleet_replay>
//! --seed N --seconds S --trace <0|1> [--ops N]`
//!
//! Every run first passes the correctness gates: both pinned sample
//! traces land on their pinned row counts and checksums through the
//! serving path. A run that misses a gate exits non-zero before it prints
//! any number. With `--trace 0` the run then replays the workload's
//! seeded traces session after session for `--seconds` and prints the
//! end-to-end metrics, its wall-clock ones at a reference host speed
//! (`host.rs`); with `--trace 1` it runs the layer waterfall and
//! prints the per-layer metrics. The last line of stdout is the result
//! object; the line before it stamps the environment and the run shape.

mod host;
mod waterfall;

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use codic_core::ops::CodicOp;
use codic_dram::{DramGeometry, TimingParams};
use codic_server::client::{replay_stream, verify_against_reference, ClientReport};
use codic_server::proto::{self, Fnv64, SessionParams};
use codic_server::server::{ReplayCompletion, ReplayEngine, ReplayServer, ServerConfig};
use codic_server::trace::{generate_bulk_bitwise, generate_mixed, parse_trace};
use host::Kernel;

/// Ops per `Batch` frame; every client keeps exactly one batch in flight.
/// A host stall lengthens about one round trip whatever the batch size,
/// so the more round trips a run carries, the more stalls it takes to
/// move the p99. In interleaved runs at 1024, the p99 of `mixed_replay`
/// and every figure of `fleet_replay` spread about twice as wide.
const BATCH: usize = 256;
/// Session length of the row-op workloads, per client. Socket rows/s
/// falls as sessions get longer while the in-process layers stay flat,
/// so the length is part of the workload's definition.
const MIXED_OPS: usize = 131_072;
/// Session length of the compute workload.
const BITWISE_OPS: usize = 16_384;
/// Rows of the compute region at the top of the module.
const COMPUTE_ROWS: u64 = 64;
/// The module capacity every session runs on (the server default).
const MODULE_MIB: u64 = 64;
/// Fewest timed sessions per run, however short `--seconds` is.
const MIN_SESSIONS: usize = 3;
/// Empty sessions (Hello, Bye) per run whose set-up time is sampled; a
/// set-up takes well under a millisecond, so one sample is mostly noise.
const SETUP_SAMPLES: usize = 64;

const SAMPLE_MIXED: &str = include_str!("../../crates/server/traces/sample_mixed.trace");
const SAMPLE_BITWISE: &str = include_str!("../../crates/server/traces/sample_bitwise.trace");
/// The repository's pins (row operations, checksum), taken at the replay
/// client's default batch.
const PIN_BATCH: usize = 1024;
const MIXED_PIN: (u64, u64) = (1693, 0x2361_aca9_1f8d_dfd0);
const BITWISE_PIN: (u64, u64) = (1138, 0xe94e_5d20_4a96_20d1);

/// Where sockets and span files go, relative to the checkout root.
const RUN_DIR: &str = ".bench_build/perfbench";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mixed,
    Bitwise,
    Fleet,
}

/// One workload: the server it runs against, the client's `Hello`, and
/// the seeded traces.
struct Workload {
    name: &'static str,
    kind: Kind,
    config: ServerConfig,
    hello: SessionParams,
    /// Two traces, tenant 0 and tenant 1. End to end, `fleet_replay`
    /// replays both at once and the other workloads replay tenant 0; the
    /// waterfall's two-thread fleet step uses both on every workload.
    traces: Vec<Vec<CodicOp>>,
}

impl Workload {
    fn new(name: &str, seed: u64, ops: Option<usize>) -> Option<Self> {
        let (name, kind) = match name {
            "mixed_replay" => ("mixed_replay", Kind::Mixed),
            "bitwise_replay" => ("bitwise_replay", Kind::Bitwise),
            "fleet_replay" => ("fleet_replay", Kind::Fleet),
            _ => return None,
        };
        let rows = DramGeometry::module_mib(MODULE_MIB).total_rows();
        // Tenant 0 replays exactly the trace `seed` names, so fleet
        // tenant 0 and mixed_replay share a trace for the same seed.
        let tenant_seed = |tenant: u64| seed ^ (tenant << 32);
        let mut config = ServerConfig::default();
        let mut hello = SessionParams::defaults();
        let traces = match kind {
            Kind::Mixed | Kind::Fleet => {
                let n = ops.unwrap_or(MIXED_OPS);
                if kind == Kind::Fleet {
                    config.fleet_slots = 2;
                }
                (0..2)
                    .map(|t| generate_mixed(n, rows, tenant_seed(t)))
                    .collect()
            }
            Kind::Bitwise => {
                hello.compute_rows = COMPUTE_ROWS as u32;
                let n = ops.unwrap_or(BITWISE_OPS);
                (0..2).map(|t| bitwise_trace(n, tenant_seed(t))).collect()
            }
        };
        Some(Workload {
            name,
            kind,
            config,
            hello,
            traces,
        })
    }

    /// The calibration kernel its rows/s and batch latency are divided
    /// by: the kernel of the host work that bounds it. In runs where the
    /// memory kernel slowed 24 %, `bitwise_replay` slowed 4 %.
    fn kernel(&self) -> Kernel {
        match self.kind {
            Kind::Mixed | Kind::Fleet => Kernel::Memory,
            Kind::Bitwise => Kernel::Compute,
        }
    }

    /// Concurrent client connections in the end-to-end runs.
    fn clients(&self) -> usize {
        if self.kind == Kind::Fleet {
            2
        } else {
            1
        }
    }

    /// The effective session parameters a private-pool session runs with.
    fn params(&self) -> SessionParams {
        self.config.negotiate(&self.hello)
    }
}

/// A window of `ops` ops of the bulk-bitwise generator (8-bit lanes) in
/// the compute region at the top of the module. Every round has the same
/// op sequence, so the seed also picks where in a round the window
/// starts: otherwise the simulated time per row would be one constant
/// for every seed.
fn bitwise_trace(ops: usize, seed: u64) -> Vec<CodicOp> {
    let rows = DramGeometry::module_mib(MODULE_MIB).total_rows();
    let base = (rows - COMPUTE_ROWS) * DramGeometry::ROW_BYTES;
    let per_round = generate_bulk_bitwise(1, base, 8, seed).len();
    let offset = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % per_round;
    let rounds = (offset + ops).div_ceil(per_round);
    let mut trace = generate_bulk_bitwise(rounds, base, 8, seed);
    assert!(
        trace.len() >= offset + ops,
        "every round has the same length"
    );
    trace.truncate(offset + ops);
    trace.drain(..offset);
    trace
}

/// Stamps the arrival of the first reply byte (the `HelloAck`).
struct FirstByte<R> {
    inner: R,
    at: Option<Instant>,
}

impl<R: Read> Read for FirstByte<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.at.is_none() {
            self.at = Some(Instant::now());
        }
        Ok(n)
    }
}

/// Stamps every flush. `replay_stream` flushes once per frame it sends
/// (Hello, each Batch, Bye), so consecutive stamps after the Hello
/// bracket one closed-loop batch round trip, measured under the client's
/// own code.
struct FlushStamps<W> {
    inner: W,
    stamps: Vec<Instant>,
}

impl<W: Write> Write for FlushStamps<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.stamps.push(Instant::now());
        Ok(())
    }
}

/// One client's side of one session.
struct ClientRun {
    report: ClientReport,
    /// Flush stamps: Hello, every Batch, Bye.
    flushes: Vec<Instant>,
    /// First `HelloAck` byte.
    ack: Instant,
    /// `replay_stream` returned, `Summary` checked.
    end: Instant,
}

impl ClientRun {
    fn first_batch(&self) -> Instant {
        self.flushes[1]
    }

    /// Wall time per op of this client's stream, first `Batch` flush to
    /// `Summary`.
    fn ns_per_op(&self) -> f64 {
        (self.end - self.first_batch()).as_secs_f64() * 1e9 / self.report.summary.ops.max(1) as f64
    }
}

/// Every client of one session, against one freshly bound server.
struct SessionRun {
    started: Instant,
    clients: Vec<ClientRun>,
}

impl SessionRun {
    /// `ReplayServer::bind` through the last client's first `HelloAck` byte.
    fn setup_s(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| (c.ack - self.started).as_secs_f64())
            .fold(0.0, f64::max)
    }

    fn rows(&self) -> u64 {
        self.clients.iter().map(|c| c.report.summary.ops).sum()
    }

    /// Completed ops over the wall time from the first `Batch` flush of
    /// any client to the last `Summary`.
    fn rows_per_s(&self) -> f64 {
        let first = self.clients.iter().map(ClientRun::first_batch).min();
        let last = self.clients.iter().map(|c| c.end).max();
        match (first, last) {
            (Some(first), Some(last)) => self.rows() as f64 / (last - first).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Mean over clients of one client stream's wall time per op.
    fn client_ns_per_op(&self) -> f64 {
        self.clients.iter().map(ClientRun::ns_per_op).sum::<f64>() / self.clients.len() as f64
    }

    /// Appends every batch round trip, in ms: from a `Batch` flush to the
    /// client's next flush (the next `Batch`, or the `Bye`).
    fn batch_rtts_ms(&self, out: &mut Vec<f64>) {
        for c in &self.clients {
            out.extend(
                c.flushes[1..]
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3),
            );
        }
    }
}

/// Binds a fresh server at `socket`, connects one client per trace, and
/// replays each trace over its own connection at the same time. With one
/// client, the server and client threads run pinned to one CPU.
fn serve_once(
    config: &ServerConfig,
    hello: &SessionParams,
    traces: &[Vec<CodicOp>],
    batch: usize,
    socket: &Path,
) -> Result<SessionRun, String> {
    let started = Instant::now();
    let server = ReplayServer::bind(socket, config.clone())
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
    // Connect before the accept loop starts: the connections wait in the
    // listen backlog, so the loop's first poll accepts them and its idle
    // sleep never lands inside the measured set-up.
    let streams = traces
        .iter()
        .map(|_| UnixStream::connect(socket))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let connections = streams.len();
    let pin = || match connections {
        1 => host::pin_to_one_cpu().map(drop),
        _ => Ok(()),
    };
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            pin().map_err(io::Error::other)?;
            server.serve_connections(connections)
        });
        let clients: Vec<_> = streams
            .into_iter()
            .zip(traces)
            .map(|(stream, ops)| {
                scope.spawn(move || {
                    pin()?;
                    run_client(stream, hello, ops, batch)
                })
            })
            .collect();
        let clients = clients
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>();
        serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        Ok(SessionRun {
            started,
            clients: clients?,
        })
    })
}

fn run_client(
    stream: UnixStream,
    hello: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
) -> Result<ClientRun, String> {
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(FirstByte {
        inner: read_half,
        at: None,
    });
    let mut writer = FlushStamps {
        inner: BufWriter::new(stream),
        stamps: Vec::with_capacity(ops.len() / batch + 3),
    };
    let report = replay_stream(&mut reader, &mut writer, hello, ops, batch)
        .map_err(|e| format!("session failed: {e}"))?;
    let end = Instant::now();
    let ack = reader
        .get_ref()
        .at
        .ok_or("the server never answered the Hello")?;
    if writer.stamps.len() != ops.len().div_ceil(batch) + 2 {
        return Err(format!(
            "expected one flush per frame, saw {} for {} ops",
            writer.stamps.len(),
            ops.len()
        ));
    }
    Ok(ClientRun {
        report,
        flushes: writer.stamps,
        ack,
        end,
    })
}

/// Folds completions into the session checksum exactly as the server's
/// tally does: each event's wire payload, in emission order.
fn fold_checksum(sum: &mut Fnv64, payload: &mut Vec<u8>, completions: &[ReplayCompletion]) {
    for c in completions {
        payload.clear();
        match c.to_wire_failure() {
            Some(failure) => proto::failure_payload(&failure, payload),
            None => proto::completion_payload(&c.to_wire(), payload),
        }
        sum.update(payload);
    }
}

/// The checksum `ops` lands on when replayed alone on a private pool.
fn solo_checksum(params: &SessionParams, ops: &[CodicOp], batch: usize) -> Result<u64, String> {
    let mut engine = ReplayEngine::new(params);
    let (mut sum, mut payload) = (Fnv64::new(), Vec::new());
    for chunk in ops.chunks(batch) {
        let drained = engine
            .submit_batch(chunk)
            .map_err(|e| format!("solo replay rejected a batch: {e}"))?;
        fold_checksum(&mut sum, &mut payload, &drained);
    }
    fold_checksum(&mut sum, &mut payload, &engine.flush());
    Ok(sum.value())
}

/// Replays a pinned sample trace through the serving path and demands
/// its pinned row-operation count and checksum.
fn pin_gate(
    config: &ServerConfig,
    hello: &SessionParams,
    text: &str,
    (row_ops, checksum): (u64, u64),
    socket: &Path,
) -> Result<(), String> {
    let ops = parse_trace(text).map_err(|e| format!("pinned trace: {e}"))?;
    let run = serve_once(config, hello, &[ops], PIN_BATCH, socket)?;
    let report = &run.clients[0].report;
    if (report.summary.row_ops, report.checksum) != (row_ops, checksum) {
        return Err(format!(
            "pinned trace landed {} row ops / {:#018x}, pin is {row_ops} / {checksum:#018x}",
            report.summary.row_ops, report.checksum
        ));
    }
    Ok(())
}

/// The correctness gates every run passes before it times anything.
/// Returns the names of the gates passed.
fn gates(w: &Workload, socket: &Path) -> Result<Vec<&'static str>, String> {
    let private = ServerConfig::default();
    let mut passed = Vec::new();
    pin_gate(
        &private,
        &SessionParams::defaults(),
        SAMPLE_MIXED,
        MIXED_PIN,
        socket,
    )?;
    passed.push("sample_mixed_pin");
    let compute = SessionParams {
        compute_rows: COMPUTE_ROWS as u32,
        ..SessionParams::defaults()
    };
    pin_gate(&private, &compute, SAMPLE_BITWISE, BITWISE_PIN, socket)?;
    passed.push("sample_bitwise_pin");
    if w.kind == Kind::Fleet {
        pin_gate(
            &w.config,
            &SessionParams::defaults(),
            SAMPLE_MIXED,
            MIXED_PIN,
            socket,
        )?;
        passed.push("sample_mixed_pin_fleet");
    }
    Ok(passed)
}

/// The first timed session's gates: every client's stream is
/// bit-identical to the in-process reference, and on the fleet every
/// tenant lands the checksum of its solo private-pool run.
fn check_first_session(w: &Workload, run: &SessionRun) -> Result<(), String> {
    for (client, ops) in run.clients.iter().zip(&w.traces) {
        verify_against_reference(&client.report, ops, BATCH)
            .map_err(|e| format!("first timed session: {e}"))?;
        if w.kind == Kind::Fleet {
            let solo = solo_checksum(&client.report.params, ops, BATCH)?;
            if solo != client.report.checksum {
                return Err(format!(
                    "fleet tenant landed {:#018x}, its solo private-pool run {solo:#018x}",
                    client.report.checksum
                ));
            }
        }
    }
    Ok(())
}

/// What one run reports: metrics `(name, value, unit)` plus the run
/// shape for the stamp line.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    checksums: Vec<u64>,
    sessions: usize,
    batch_samples: usize,
    /// Reported on the stamp line only: on a shared two-vCPU host it
    /// measures how many host stalls a run caught more than the program.
    batch_p99_ms: Option<f64>,
    /// The host figures behind the normalised metrics, for the stamp
    /// line: `(key, JSON value)`.
    host: Vec<(&'static str, String)>,
}

/// `--trace 0`: set-up samples, then timed sessions for `seconds`. The
/// first timed session must also pass the first-session gates, and every
/// later one must repeat its checksums.
///
/// Every sample is followed by one pass of a calibration kernel (see
/// `host.rs`), and its wall-clock figures are divided by that pass's
/// slowdown: a set-up sample by `Kernel::Spawn`'s, a session's rows/s and
/// batch round trips by the workload's kernel's.
fn end_to_end(w: &Workload, seconds: f64, socket: &Path) -> Result<Outcome, String> {
    let traces = &w.traces[..w.clients()];
    // The calibration passes run on the CPU the sessions are pinned to.
    let pinned = match traces.len() {
        1 => Some(host::pin_to_one_cpu()?),
        _ => None,
    };
    let timing = TimingParams::ddr3_1600_11();
    let mut checksums: Vec<u64> = Vec::new();
    let (mut setups, mut setup_slowdowns, mut raw_setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut slowdowns, mut raw_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rtts, mut raw_rtts) = (Vec::new(), Vec::new());
    let (mut attempted, mut completed) = (0u64, 0u64);
    let (mut sim_ns, mut energy_nj, mut rows) = (0.0f64, 0.0f64, 0u64);
    for _ in 0..SETUP_SAMPLES {
        let empty = vec![Vec::new(); traces.len()];
        let setup = serve_once(&w.config, &w.hello, &empty, BATCH, socket)?.setup_s();
        let slowdown = Kernel::Spawn.slowdown()?;
        setups.push(setup / slowdown);
        setup_slowdowns.push(slowdown);
        raw_setups.push(setup);
    }
    let started = Instant::now();
    let mut sessions = 0;
    while sessions < MIN_SESSIONS || started.elapsed().as_secs_f64() < seconds {
        let run = serve_once(&w.config, &w.hello, traces, BATCH, socket)?;
        let slowdown = w.kernel().slowdown()?;
        let sums: Vec<u64> = run.clients.iter().map(|c| c.report.checksum).collect();
        if checksums.is_empty() {
            check_first_session(w, &run)?;
            checksums = sums;
            // Equal checksums make every later session's Summary equal
            // to this one's, so the simulated figures come from here.
            for s in run.clients.iter().map(|c| c.report.summary) {
                sim_ns = sim_ns.max(timing.ns(s.max_finish_cycle));
                energy_nj += s.total_energy_nj;
                rows += s.ops;
            }
        } else if sums != checksums {
            return Err(format!(
                "session checksums drifted: {sums:#x?} after {checksums:#x?}"
            ));
        }
        attempted += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        completed += run.rows();
        sessions += 1;
        rates.push(run.rows_per_s() * slowdown);
        slowdowns.push(slowdown);
        raw_rates.push(run.rows_per_s());
        let first = raw_rtts.len();
        run.batch_rtts_ms(&mut raw_rtts);
        rtts.extend(raw_rtts[first..].iter().map(|ms| ms / slowdown));
    }
    let rows = rows as f64;
    rtts.sort_by(f64::total_cmp);
    raw_rtts.sort_by(f64::total_cmp);
    let metrics = vec![
        ("rows_per_s", median(&mut rates), "rows/s"),
        ("batch_p50_ms", percentile(&rtts, 0.50), "ms"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ("ok_ratio", completed as f64 / attempted as f64, "ratio"),
        ("sim_ns_per_row", sim_ns / rows, "ns"),
        ("sim_nj_per_row", energy_nj / rows, "nJ"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed: attempted - completed,
        checksums,
        sessions,
        batch_samples: raw_rtts.len(),
        batch_p99_ms: Some(percentile(&raw_rtts, 0.99)),
        host: vec![
            (
                "pinned_cpu",
                pinned.map_or("null".into(), |c| c.to_string()),
            ),
            ("kernel", json_str(w.kernel().name())),
            ("slowdown", median(&mut slowdowns).to_string()),
            ("setup_slowdown", median(&mut setup_slowdowns).to_string()),
            ("raw_rows_per_s", median(&mut raw_rates).to_string()),
            ("raw_batch_p50_ms", percentile(&raw_rtts, 0.50).to_string()),
            ("raw_setup_s", median(&mut raw_setups).to_string()),
        ],
    })
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let ops = match value("--ops") {
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("--ops takes a positive count")?,
        ),
        None => None,
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        ops,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Taken before any thread is pinned to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let w = Workload::new(&args.workload, args.seed, args.ops)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let run_dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let socket = run_dir.join(format!("{}.sock", std::process::id()));

    let passed = gates(&w, &socket)?;
    let spans = args
        .trace
        .then(|| run_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed)));
    let outcome = match &spans {
        Some(spans) => waterfall::run(&w, args.seconds, &socket, spans)?,
        None => end_to_end(&w, args.seconds, &socket)?,
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }

    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let checksums: Vec<String> = outcome
        .checksums
        .iter()
        .map(|c| json_str(&format!("{c:#018x}")))
        .collect();
    let gates: Vec<String> = passed.iter().map(|g| json_str(g)).collect();
    let tail = (outcome.batch_samples as f64 * 0.01).floor();
    let host: Vec<String> = outcome
        .host
        .iter()
        .map(|(name, value)| format!("{}: {value}", json_str(name)))
        .collect();
    println!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": {}, \"git_commit\": {}, \"rustc\": {}, \"ops_per_session\": {}, \
         \"batch\": {}, \"clients\": {}, \"sessions\": {}, \"batch_samples\": {}, \
         \"batch_p99_ms\": {}, \"samples_beyond_p99\": {tail}, \"checksums\": [{}], \"gates\": [{}], \"spans\": {}, \
         \"host\": {{{}}}}}}}",
        json_str(w.name),
        args.seed,
        u8::from(args.trace),
        json_str(profile),
        json_str(&env("PERFBENCH_GIT_COMMIT")),
        json_str(&env("PERFBENCH_RUSTC")),
        w.traces[0].len(),
        BATCH,
        w.clients(),
        outcome.sessions,
        outcome.batch_samples,
        outcome
            .batch_p99_ms
            .map_or_else(|| "null".into(), |v| v.to_string()),
        checksums.join(", "),
        gates.join(", "),
        spans.map_or_else(|| "null".into(), |p| json_str(&p.display().to_string())),
        host.join(", "),
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}
