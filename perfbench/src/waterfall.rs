//! The traced per-layer waterfall of `--trace 1`.
//!
//! Each pass drives the workload's tenant-0 trace through one layer's
//! public entry points at a time, from the raw scheduler up to the
//! socket, and records a span around every layer run and every batch:
//!
//! | layer     | driven through                                              |
//! |-----------|-------------------------------------------------------------|
//! | `dram`    | `MemoryController::push`/`step_event`/`run_to_idle`         |
//! | `device`  | `CodicDevice::submit_async` + `run_to_idle` + `try_take`    |
//! | `data`    | `DataPlane::apply`                                          |
//! | `pool`    | `DevicePool::submit_all_async_routed` + `step` + `drive`    |
//! | `fleet`   | `FleetHandle::submit`/`flush`, from one and two threads     |
//! | `engine`  | `ReplayEngine::submit_batch` + `flush`                      |
//! | `session` | `serve_session` over an in-memory `Read` and `Vec<u8>`      |
//! | `client`  | `read_frame_crc` + checksum fold over the session's bytes   |
//! | `socket`  | a real-socket session, minus `session` and `client`         |
//!
//! A layer below the pool gets each op routed to its shard with
//! `DevicePool::shard_of`, in trace order. Every layer's output is
//! checked (op counts, finish cycles, fingerprints, checksums) against
//! the layer above it, so each one provably did the same work. Spans
//! stay in memory and are written as JSON lines when the run ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use codic_core::data::DataPlane;
use codic_core::device::{CodicDevice, DeviceConfig, OpCompletion};
use codic_core::executor::OpFuture;
use codic_core::fleet::{FleetConfig, FleetHandle};
use codic_core::ops::CodicOp;
use codic_core::pool::DevicePool;
use codic_dram::{MemRequest, MemStats, MemoryController, ReqKind};
use codic_power::accounting;
use codic_server::proto::{self, read_frame_crc, write_frame_crc, Fnv64, Frame, SessionEvent};
use codic_server::server::{
    serve_session, ReplayCompletion, ReplayEngine, ServerConfig, SessionEnd,
};

use crate::{
    fold_checksum, json_str, median, percentile, serve_once, Outcome, SessionRun, Workload, BATCH,
};

/// One recorded span. `batch` is `None` for a span covering a whole
/// layer run (or a whole pass).
struct Span {
    layer: &'static str,
    batch: Option<usize>,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, layer: &'static str, batch: Option<usize>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(layer, batch, now, now, parent)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    fn push(
        &mut self,
        layer: &'static str,
        batch: Option<usize>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer,
            batch,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    fn write(&self, workload: &str, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let ns = |t: Instant| (t - self.origin).as_nanos();
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"workload\": {}, \"layer\": {}, \"batch\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                json_str(workload),
                json_str(s.layer),
                opt(s.batch),
                ns(s.start),
                ns(s.end),
                opt(s.parent),
            )?;
        }
        out.flush()
    }
}

/// What every layer replays: tenant 0's trace, pre-routed and pre-lowered
/// outside the timed region.
struct Inputs<'a> {
    workload: &'a Workload,
    params: proto::SessionParams,
    device: DeviceConfig,
    ops: &'a [CodicOp],
    /// The shard each op routes to (`DevicePool::shard_of`).
    routes: Vec<usize>,
    /// Each op lowered to the controller request the device issues.
    requests: Vec<MemRequest>,
    /// The session's client-side frames: Hello, every Batch, Bye.
    session_input: Vec<u8>,
    /// The session checksum tenant 0's trace lands on end to end.
    checksum: u64,
}

/// What a layer delivered, for comparison with its neighbours.
#[derive(Default, PartialEq, Debug)]
struct Delivered {
    ops: usize,
    max_finish: u64,
    /// Wrapping sum of row fingerprints: order-free, value-checking.
    fingerprints: u64,
}

impl Delivered {
    fn add(&mut self, c: &OpCompletion) {
        self.ops += 1;
        self.max_finish = self.max_finish.max(c.finish_cycle);
        self.fingerprints = self.fingerprints.wrapping_add(c.fingerprint);
    }
}

/// Takes every resolved future out of `pending`.
fn drain(pending: &mut Vec<OpFuture>, scratch: &mut Vec<OpFuture>, out: &mut Delivered) {
    for mut future in pending.drain(..) {
        match future.try_take() {
            Some(c) => out.add(&c),
            None => scratch.push(future),
        }
    }
    std::mem::swap(pending, scratch);
}

fn shards(inp: &Inputs) -> usize {
    (inp.params.shards as usize).max(1)
}

fn dram(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<(f64, MemStats), String> {
    let mut mcs: Vec<MemoryController> = (0..shards(inp))
        .map(|_| {
            let mut mc = MemoryController::new(inp.device.geometry, inp.device.timing);
            mc.set_refresh_enabled(inp.device.refresh_enabled);
            mc
        })
        .collect();
    let mut done = 0usize;
    let span = tr.open("dram", None, Some(parent));
    let batches = inp.requests.chunks(BATCH).zip(inp.routes.chunks(BATCH));
    for (b, (requests, routes)) in batches.enumerate() {
        let s = tr.open("dram", Some(b), Some(span));
        for (&request, &shard) in requests.iter().zip(routes) {
            let mc = &mut mcs[shard];
            while !mc.can_accept(request.kind) {
                if !mc.step_event() {
                    return Err("dram: a full queue made no progress".into());
                }
            }
            mc.push(request)
                .map_err(|_| "dram: push refused after can_accept")?;
        }
        for mc in &mut mcs {
            done += mc.take_completions().len();
        }
        tr.close(s);
    }
    for mc in &mut mcs {
        mc.run_to_idle();
        done += mc.take_completions().len();
    }
    tr.close(span);
    if done != inp.ops.len() {
        return Err(format!(
            "dram: {done} of {} requests completed",
            inp.ops.len()
        ));
    }
    let mut stats = MemStats::default();
    for mc in &mcs {
        stats.merge(mc.stats());
    }
    Ok((tr.secs(span), stats))
}

fn device(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<(f64, Delivered), String> {
    let mut devices: Vec<CodicDevice> = (0..shards(inp))
        .map(|_| CodicDevice::new(inp.device.clone()))
        .collect();
    let (mut pending, mut scratch) = (Vec::new(), Vec::new());
    let mut out = Delivered::default();
    let span = tr.open("device", None, Some(parent));
    let batches = inp.ops.chunks(BATCH).zip(inp.routes.chunks(BATCH));
    for (b, (ops, routes)) in batches.enumerate() {
        let s = tr.open("device", Some(b), Some(span));
        for (&op, &shard) in ops.iter().zip(routes) {
            let future = devices[shard]
                .submit_async(op)
                .map_err(|e| format!("device: {e}"))?;
            pending.push(future);
        }
        drain(&mut pending, &mut scratch, &mut out);
        tr.close(s);
    }
    for d in &mut devices {
        d.run_to_idle();
    }
    drain(&mut pending, &mut scratch, &mut out);
    tr.close(span);
    Ok((tr.secs(span), out))
}

fn data(inp: &Inputs, tr: &mut Tracer, parent: usize) -> (f64, u64) {
    let mut plane = DataPlane::new(inp.device.compute_range());
    let mut fingerprints = 0u64;
    let span = tr.open("data", None, Some(parent));
    for (b, ops) in inp.ops.chunks(BATCH).enumerate() {
        let s = tr.open("data", Some(b), Some(span));
        for &op in ops {
            fingerprints = fingerprints.wrapping_add(plane.apply(op));
        }
        tr.close(s);
    }
    tr.close(span);
    (tr.secs(span), fingerprints)
}

fn pool(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<(f64, Delivered), String> {
    let mut pool = DevicePool::new(shards(inp), &inp.device);
    let window = (inp.params.max_outstanding as usize).max(1);
    let (mut pending, mut scratch) = (Vec::new(), Vec::new());
    let mut out = Delivered::default();
    let span = tr.open("pool", None, Some(parent));
    for (b, ops) in inp.ops.chunks(BATCH).enumerate() {
        let s = tr.open("pool", Some(b), Some(span));
        let routed = pool
            .submit_all_async_routed(ops)
            .map_err(|e| format!("pool: {e}"))?;
        pending.extend(routed.into_iter().map(|(_, future)| future));
        while pool.outstanding() > window && pool.step() {}
        drain(&mut pending, &mut scratch, &mut out);
        tr.close(s);
    }
    pool.drive();
    drain(&mut pending, &mut scratch, &mut out);
    tr.close(span);
    Ok((tr.secs(span), out))
}

fn engine(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<(f64, Delivered), String> {
    let mut engine = ReplayEngine::new(&inp.params);
    let mut drained: Vec<Vec<ReplayCompletion>> = Vec::with_capacity(inp.ops.len() / BATCH + 2);
    let span = tr.open("engine", None, Some(parent));
    for (b, ops) in inp.ops.chunks(BATCH).enumerate() {
        let s = tr.open("engine", Some(b), Some(span));
        drained.push(
            engine
                .submit_batch(ops)
                .map_err(|e| format!("engine: {e}"))?,
        );
        tr.close(s);
    }
    drained.push(engine.flush());
    tr.close(span);
    let (mut sum, mut payload) = (Fnv64::new(), Vec::new());
    let mut out = Delivered::default();
    for completions in &drained {
        fold_checksum(&mut sum, &mut payload, completions);
        completions.iter().for_each(|c| out.add(&c.completion));
    }
    if sum.value() != inp.checksum {
        return Err(format!(
            "engine: checksum {:#018x}, end to end {:#018x}",
            sum.value(),
            inp.checksum
        ));
    }
    Ok((tr.secs(span), out))
}

fn session(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<(f64, Vec<u8>), String> {
    // The session layer always runs a private pool; fleet tenancy is the
    // fleet layer's to measure.
    let config = ServerConfig {
        fleet_slots: 0,
        ..inp.workload.config.clone()
    };
    let mut reader: &[u8] = &inp.session_input;
    let mut out = Vec::new();
    let span = tr.open("session", None, Some(parent));
    let end = serve_session(&mut reader, &mut out, &config);
    tr.close(span);
    match end {
        Ok(SessionEnd::Bye) => Ok((tr.secs(span), out)),
        other => Err(format!("session ended with {other:?}")),
    }
}

fn absorb(inp: &Inputs, bytes: &[u8], tr: &mut Tracer, parent: usize) -> Result<f64, String> {
    let mut reader = bytes;
    let (mut sum, mut payload) = (Fnv64::new(), Vec::new());
    let mut events = 0usize;
    let span = tr.open("client", None, Some(parent));
    let mut b = 0;
    let mut s = tr.open("client", Some(b), Some(span));
    let summary = loop {
        let frame = read_frame_crc(&mut reader).map_err(|e| format!("client: {e}"))?;
        match frame {
            Frame::HelloAck { .. } => {}
            Frame::Events(units) => {
                for unit in &units {
                    payload.clear();
                    match unit {
                        SessionEvent::Completion(c) => proto::completion_payload(c, &mut payload),
                        SessionEvent::Failure(x) => proto::failure_payload(x, &mut payload),
                    }
                    sum.update(&payload);
                }
                events += units.len();
            }
            Frame::Batched(_) => {
                tr.close(s);
                b += 1;
                s = tr.open("client", Some(b), Some(span));
            }
            Frame::Summary(summary) => break summary,
            other => return Err(format!("client: unexpected frame {other:?}")),
        }
    };
    tr.close(s);
    tr.close(span);
    if events != inp.ops.len() || sum.value() != summary.checksum || sum.value() != inp.checksum {
        return Err(format!(
            "client: {events} events folding to {:#018x}; summary {:#018x}, end to end {:#018x}",
            sum.value(),
            summary.checksum,
            inp.checksum
        ));
    }
    Ok(tr.secs(span))
}

/// One tenant thread of the fleet step.
struct Tenant {
    start: Instant,
    end: Instant,
    /// `FleetHandle::submit` call, start and end, per batch.
    submits: Vec<(Instant, Instant)>,
    ops: usize,
}

struct FleetStep {
    /// ns/op of one tenant alone.
    ns_per_op: f64,
    /// Two tenants' aggregate rows/s over one tenant's.
    scaling: f64,
    /// Slowest of two tenants' rows/s over their mean.
    share_min: f64,
    /// p99 `submit` call time with two tenants, ms.
    submit_wait_p99_ms: f64,
}

/// Replays each trace as one tenant thread of one fleet shaped like the
/// server's (`fleet_slots = 2`, the session's shards per slot).
fn fleet_tenants(
    inp: &Inputs,
    traces: &[&[CodicOp]],
    tr: &mut Tracer,
    parent: usize,
) -> Result<Vec<Tenant>, String> {
    let config = &inp.workload.config;
    let device = inp.device.clone().with_retry(config.retry);
    let fleet = FleetHandle::new(
        FleetConfig::new(2, shards(inp), device)
            .with_quota(config.max_outstanding.max(1))
            .with_health(config.health),
    );
    let quota = (inp.params.max_outstanding as usize).max(1);
    let expected = inp.checksum;
    let tenants = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let fleet = fleet.clone();
                scope.spawn(move || -> Result<Tenant, String> {
                    let id = fleet.acquire_with(1, quota).ok_or("fleet: no free slot")?;
                    let mut submits = Vec::with_capacity(ops.len() / BATCH + 1);
                    let mut events = Vec::with_capacity(ops.len() / BATCH + 2);
                    let start = Instant::now();
                    for chunk in ops.chunks(BATCH) {
                        let t0 = Instant::now();
                        let (_, drained) =
                            fleet.submit(id, chunk).map_err(|e| format!("fleet: {e}"))?;
                        submits.push((t0, Instant::now()));
                        events.push(drained);
                    }
                    events.push(fleet.flush(id).1);
                    let end = Instant::now();
                    fleet.release(id);
                    // Tenant 0 replays the end-to-end trace; its stream
                    // must be bit-identical to the private pool's.
                    let delivered: usize = events.iter().map(Vec::len).sum();
                    if delivered != ops.len() {
                        return Err(format!("fleet: {delivered} of {} events", ops.len()));
                    }
                    if t == 0 {
                        let (mut sum, mut payload) = (Fnv64::new(), Vec::new());
                        for batch in &events {
                            let completions: Vec<ReplayCompletion> = batch
                                .iter()
                                .map(|e| ReplayCompletion {
                                    seq: e.seq,
                                    shard: e.shard,
                                    completion: e.completion,
                                })
                                .collect();
                            fold_checksum(&mut sum, &mut payload, &completions);
                        }
                        if sum.value() != expected {
                            return Err(format!(
                                "fleet: tenant 0 landed {:#018x}, end to end {expected:#018x}",
                                sum.value()
                            ));
                        }
                    }
                    Ok(Tenant {
                        start,
                        end,
                        submits,
                        ops: ops.len(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "fleet tenant panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    for t in &tenants {
        let span = tr.push("fleet", None, t.start, t.end, Some(parent));
        for (b, &(start, end)) in t.submits.iter().enumerate() {
            tr.push("fleet", Some(b), start, end, Some(span));
        }
    }
    Ok(tenants)
}

fn fleet(inp: &Inputs, tr: &mut Tracer, parent: usize) -> Result<FleetStep, String> {
    let rate = |t: &Tenant| t.ops as f64 / (t.end - t.start).as_secs_f64();
    let solo = fleet_tenants(inp, &[inp.ops], tr, parent)?;
    let solo_rate = rate(&solo[0]);
    let second = inp.workload.traces[1].as_slice();
    let pair = fleet_tenants(inp, &[inp.ops, second], tr, parent)?;
    let rates: Vec<f64> = pair.iter().map(rate).collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let first = pair.iter().map(|t| t.start).min().expect("two tenants");
    let last = pair.iter().map(|t| t.end).max().expect("two tenants");
    let aggregate = pair.iter().map(|t| t.ops).sum::<usize>() as f64 / (last - first).as_secs_f64();
    let mut waits: Vec<f64> = pair
        .iter()
        .flat_map(|t| t.submits.iter().map(|(s, e)| (*e - *s).as_secs_f64() * 1e3))
        .collect();
    waits.sort_by(f64::total_cmp);
    Ok(FleetStep {
        ns_per_op: 1e9 / solo_rate,
        scaling: aggregate / solo_rate,
        share_min: rates.iter().copied().fold(f64::INFINITY, f64::min) / mean,
        submit_wait_p99_ms: percentile(&waits, 0.99),
    })
}

/// A real-socket session of the workload, its client batches recorded as
/// `socket` spans when `traced`.
fn socket_session(
    inp: &Inputs,
    socket: &Path,
    traced: bool,
    tr: &mut Tracer,
    parent: usize,
) -> Result<SessionRun, String> {
    let w = inp.workload;
    let run = serve_once(&w.config, &w.hello, &w.traces[..w.clients()], BATCH, socket)?;
    if run.clients[0].report.checksum != inp.checksum {
        return Err("socket session checksum drifted".into());
    }
    if traced {
        let end = run
            .clients
            .iter()
            .map(|c| c.end)
            .max()
            .unwrap_or(run.started);
        let span = tr.push("socket", None, run.started, end, Some(parent));
        for c in &run.clients {
            for (b, w) in c.flushes[1..].windows(2).enumerate() {
                tr.push("socket", Some(b), w[0], w[1], Some(span));
            }
        }
    }
    Ok(run)
}

/// One pass's figures: seconds per op for each in-process layer, ns per
/// op for the socket sessions and the solo fleet tenant.
struct Pass {
    dram: f64,
    device: f64,
    data: f64,
    pool: f64,
    engine: f64,
    session: f64,
    client: f64,
    untraced_ns: f64,
    traced_ns: f64,
    fleet_ns: f64,
    fleet_scaling: f64,
    fleet_share_min: f64,
    fleet_wait_p99_ms: f64,
}

/// Lowers `op` to the controller request `CodicDevice` issues for it.
fn lower(op: CodicOp, device: &DeviceConfig) -> MemRequest {
    let kind = match op {
        CodicOp::Read { .. } => ReqKind::Read,
        CodicOp::Write { .. } => ReqKind::Write,
        _ => {
            let op = op.row_op_kind().expect("non-data ops are row ops");
            ReqKind::RowOp {
                op,
                busy_cycles: accounting::row_op_busy_cycles(op, &device.timing),
            }
        }
    };
    MemRequest::new(op.row_addr(), kind)
}

fn encode_session(hello: &proto::SessionParams, ops: &[CodicOp]) -> Vec<u8> {
    let mut input = Vec::new();
    write_frame_crc(&mut input, &Frame::Hello(*hello)).expect("Vec writes never fail");
    for chunk in ops.chunks(BATCH) {
        write_frame_crc(&mut input, &Frame::Batch(chunk.to_vec())).expect("Vec writes never fail");
    }
    write_frame_crc(&mut input, &Frame::Bye).expect("Vec writes never fail");
    input
}

/// Runs waterfall passes for at least `seconds` and reports the median of
/// every layer's cost across passes.
pub fn run(w: &Workload, seconds: f64, socket: &Path, spans: &Path) -> Result<Outcome, String> {
    let params = w.params();
    let device_config = ServerConfig::device_config(&params);
    let ops = w.traces[0].as_slice();
    let router = DevicePool::new((params.shards as usize).max(1), &device_config);
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    // The first socket session fixes the checksum every layer must land.
    let root = tr.open("waterfall", None, None);
    let first = serve_once(&w.config, &w.hello, &w.traces[..w.clients()], BATCH, socket)?;
    crate::check_first_session(w, &first)?;
    let inp = Inputs {
        workload: w,
        params,
        routes: ops.iter().map(|&op| router.shard_of(op)).collect(),
        requests: ops.iter().map(|&op| lower(op, &device_config)).collect(),
        session_input: encode_session(&w.hello, ops),
        checksum: first.clients[0].report.checksum,
        device: device_config,
        ops,
    };
    let checksums = first.clients.iter().map(|c| c.report.checksum).collect();
    drop(first);

    let mut passes: Vec<Pass> = Vec::new();
    let mut stats = MemStats::default();
    let mut out_bytes = 0usize;
    let mut attempted = 0u64;
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pass_span = tr.open("pass", Some(passes.len()), Some(root));
        let untraced = socket_session(&inp, socket, false, &mut tr, pass_span)?;
        let (dram_s, dram_stats) = dram(&inp, &mut tr, pass_span)?;
        let (device_s, by_device) = device(&inp, &mut tr, pass_span)?;
        let (data_s, fingerprints) = data(&inp, &mut tr, pass_span);
        let (pool_s, by_pool) = pool(&inp, &mut tr, pass_span)?;
        let (engine_s, by_engine) = engine(&inp, &mut tr, pass_span)?;
        let (session_s, bytes) = session(&inp, &mut tr, pass_span)?;
        let client_s = absorb(&inp, &bytes, &mut tr, pass_span)?;
        let fleet_step = fleet(&inp, &mut tr, pass_span)?;
        let traced = socket_session(&inp, socket, true, &mut tr, pass_span)?;
        tr.close(pass_span);

        // Every layer delivered the same ops, finish cycles and values.
        if by_device != by_engine || by_pool != by_engine || by_engine.ops != ops.len() {
            return Err(format!(
                "layers diverged: device {by_device:?}, pool {by_pool:?}, engine {by_engine:?}"
            ));
        }
        if fingerprints != by_engine.fingerprints {
            return Err("data plane fingerprints diverged from the device's".into());
        }
        stats = dram_stats;
        out_bytes = bytes.len();
        // Socket sessions, seven in-process layers, three fleet tenants.
        attempted += (2 * w.clients() + 10) as u64 * ops.len() as u64;
        let n = ops.len() as f64;
        passes.push(Pass {
            dram: dram_s / n,
            device: device_s / n,
            data: data_s / n,
            pool: pool_s / n,
            engine: engine_s / n,
            session: session_s / n,
            client: client_s / n,
            untraced_ns: untraced.client_ns_per_op(),
            traced_ns: traced.client_ns_per_op(),
            fleet_ns: fleet_step.ns_per_op,
            fleet_scaling: fleet_step.scaling,
            fleet_share_min: fleet_step.share_min,
            fleet_wait_p99_ms: fleet_step.submit_wait_p99_ms,
        });
    }
    tr.close(root);
    tr.write(w.name, spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    let med = |f: fn(&Pass) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    let ns = |f: fn(&Pass) -> f64| med(f) * 1e9;
    let (dram_ns, device_ns, pool_ns) = (ns(|p| p.dram), ns(|p| p.device), ns(|p| p.pool));
    let (engine_ns, session_ns) = (ns(|p| p.engine), ns(|p| p.session));
    let client_ns = ns(|p| p.client);
    let untraced = med(|p| p.untraced_ns);
    let n = ops.len() as f64;
    let metrics = vec![
        ("dram.ns_per_op", dram_ns, "ns"),
        (
            "dram.commands_per_op",
            stats.total_commands() as f64 / n,
            "count",
        ),
        (
            "dram.row_hit_ratio",
            stats.row_hit_rate().unwrap_or(0.0),
            "ratio",
        ),
        ("device.ns_per_op", device_ns, "ns"),
        ("device.self_ns_per_op", device_ns - dram_ns, "ns"),
        ("data.ns_per_op", ns(|p| p.data), "ns"),
        ("pool.ns_per_op", pool_ns, "ns"),
        ("pool.self_ns_per_op", pool_ns - device_ns, "ns"),
        ("fleet.ns_per_op", med(|p| p.fleet_ns), "ns"),
        (
            "fleet.submit_wait_p99_ms",
            med(|p| p.fleet_wait_p99_ms),
            "ms",
        ),
        ("fleet.scaling", med(|p| p.fleet_scaling), "ratio"),
        ("fleet.share_min", med(|p| p.fleet_share_min), "ratio"),
        ("engine.ns_per_op", engine_ns, "ns"),
        ("engine.self_ns_per_op", engine_ns - pool_ns, "ns"),
        ("session.ns_per_op", session_ns, "ns"),
        ("session.self_ns_per_op", session_ns - engine_ns, "ns"),
        ("session.out_bytes_per_op", out_bytes as f64 / n, "B"),
        ("client.absorb_ns_per_op", client_ns, "ns"),
        (
            "socket.self_ns_per_op",
            untraced - session_ns - client_ns,
            "ns",
        ),
        (
            "trace.overhead",
            med(|p| p.traced_ns) / untraced - 1.0,
            "ratio",
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed: 0,
        checksums,
        sessions: 2 * passes.len() + 1,
        batch_samples: 0,
        batch_p99_ms: None,
        host: Vec::new(),
    })
}
