//! The replay server: Unix-socket and TCP sessions, each served as one
//! tenancy of a sharded device [`FleetHandle`].
//!
//! Each connection is one independent session served on its own
//! thread. Its substrate is a pool of shards with their own clocks,
//! mode registers, and policy state, owned by the session's slot: the
//! only slot of a fleet built for the session, or one slot of the
//! server's shared fleet ([`ServerConfig::fleet_slots`]). The
//! per-session serving loop is [`ReplayEngine`], and the fleet runs its
//! discipline on the slot's pool:
//!
//! 1. a decoded [`Frame::Batch`] is submitted through
//!    [`FleetHandle::submit`] (all-or-nothing policy: a rejected batch
//!    turns into one `Error` frame and touches nothing);
//! 2. backpressure: while the pool's outstanding ops exceed the
//!    session's `max_outstanding`, the fleet steps the pool's shards
//!    one event at a time, never blocking the socket;
//! 3. resolved operations drain as [`FleetEvent`]s and stream back as
//!    typed completion units of `Events` frames in completion order
//!    (ascending finish cycle at each drain point, ties broken by
//!    submission sequence).
//!
//! Determinism contract: the engine's DRAM timeline is a pure function
//! of the submission sequence (batch boundaries included). With
//! `max_outstanding` at or above the pool's natural in-flight bound
//! (three 64-deep queues plus in-flight commands per shard), the
//! backpressure loop never fires and the served timeline is
//! *instruction-for-instruction* the direct run of
//! [`DevicePool::submit_all_async_routed`](codic_core::pool::DevicePool::submit_all_async_routed)
//! and [`DevicePool::drive`](codic_core::pool::DevicePool::drive) —
//! the bit-identity the end-to-end tests pin. Below that bound it stays
//! deterministic, but clocks advance earlier. The replay-rate governor
//! only ever sleeps the host thread, so it cannot perturb cycles.
//! However the units are packed into `Events` frames, the session
//! checksum hashes only their payload bytes, in emission order.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use codic_core::device::DeviceConfig;
use codic_core::error::CodicError;
use codic_core::fault::{FaultPlan, HealthPolicy, RetryPolicy};
use codic_core::fleet::{FleetConfig, FleetEvent, FleetHandle, TenantId};
use codic_core::ops::CodicOp;
use codic_dram::{DramGeometry, TimingParams};

use crate::governor::RateGovernor;
use crate::proto::{
    self, write_frame_crc, BatchAck, ErrorCode, FlushAck, Fnv64, Frame, ProtoError, ResumeAck,
    SessionParams, Summary, MAX_QOS_WEIGHT, MAX_QUOTA_CLAIM, MAX_TENANT_CLAIM, PROTOCOL_VERSION,
};

/// Server-side session defaults and caps, read from the flags by
/// [`crate::cli::server_config`]: every session's substrate is built
/// from them by [`ServerConfig::fleet`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default pool shards per session (a `Hello` may override).
    pub shards: usize,
    /// Default module capacity per session, in MiB.
    pub module_mib: u64,
    /// Default and maximum outstanding-operation bound per session.
    pub max_outstanding: usize,
    /// Server-wide replay-rate cap in rows/s (0 = uncapped); a session's
    /// own target can only lower it.
    pub target_rows_per_s: u64,
    /// Default refresh-engine state.
    pub refresh: bool,
    /// Seeded fault-injection plan applied to every session's pool
    /// (`None` = no injection — the production default).
    pub fault: Option<FaultPlan>,
    /// Retry policy for misfired operations.
    pub retry: RetryPolicy,
    /// When sessions quarantine their shards.
    pub health: HealthPolicy,
    /// Default bulk-bitwise compute region, in rows at the top of the
    /// module (0 = compute disabled; a `Hello` may request its own).
    pub compute_rows: u64,
    /// Socket read timeout in milliseconds: how long a session thread
    /// parks inside one socket read before re-checking the shutdown flag
    /// and the idle deadline, then resuming the same frame
    /// (`--read-timeout-ms`). The accept loop also runs the
    /// parked-session reaper at this interval.
    pub read_timeout_ms: u64,
    /// Idle deadline in milliseconds (`--session-idle-ms`): a connected
    /// session that sends no frame for this long is torn down with an
    /// honest `Error` + `Summary` ([`SessionEnd::Idle`]), and a parked
    /// session nobody resumes for this long is reaped and its journal
    /// freed.
    pub session_idle_ms: u64,
    /// Per-session cap on the resume journal, in bytes: the journal
    /// keeps the most recent encoded event units up to this bound,
    /// evicting the oldest whole units first. The cap applies once an
    /// emission (or a resume replay) has been written, so a session
    /// briefly holds the cap plus one emission (at most [`proto::MAX_BATCH_OPS`] +
    /// `max_outstanding` units). A `Resume` pointing before the retained
    /// window is honestly rejected (`--journal-max-kib`).
    pub journal_max_bytes: usize,
    /// Tenant slots in the shared fleet (`--fleet-slots`). With `N > 0`
    /// every session is served from one [`FleetHandle`] of `N` slots,
    /// each tenant on its own pool of [`ServerConfig::shards`] shards
    /// behind its own slot lock: sessions share only the slot count, and
    /// each tenant's event stream stays bit-identical to a private pool
    /// of its slot shape.
    /// 0 (the default) means each session gets its own one-slot fleet,
    /// shaped by its own `Hello`.
    pub fleet_slots: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            module_mib: 64,
            // At or above the pool's natural in-flight bound for the
            // default 4 shards, so paced replay is instruction-for-
            // instruction the direct submit_all_async_routed + drive run.
            max_outstanding: 1024,
            target_rows_per_s: 0,
            refresh: false,
            fault: None,
            retry: RetryPolicy::default(),
            health: HealthPolicy::default(),
            compute_rows: 0,
            read_timeout_ms: 25,
            session_idle_ms: 30_000,
            journal_max_bytes: 8 << 20,
            fleet_slots: 0,
        }
    }
}

impl ServerConfig {
    /// Resolves a client `Hello` against the server's defaults and caps
    /// into the effective session parameters of the `HelloAck`. The
    /// `Hello`'s version is checked at the handshake, not here.
    #[must_use]
    pub fn negotiate(&self, hello: &SessionParams) -> SessionParams {
        let shards = match hello.shards {
            0 => self.shards,
            n => (n as usize).min(64),
        };
        let module_mib = match hello.module_mib {
            0 => self.module_mib,
            // Keep the per-session footprint bounded and row-divisible.
            n => u64::from(n).clamp(1, 4096).next_power_of_two(),
        };
        let max_outstanding = match hello.max_outstanding {
            0 => self.max_outstanding,
            n => (n as usize).min(self.max_outstanding.max(1)),
        };
        // quota_ops is an additional bound on the outstanding window —
        // the fleet enforces the effective value as the tenant's quota,
        // and a private-pool session's engine uses it as its
        // backpressure window, so the two serve identically.
        let max_outstanding = match hello.quota_ops {
            0 => max_outstanding,
            q => max_outstanding.min(q as usize).max(1),
        };
        let target_rows_per_s = match (self.target_rows_per_s, hello.target_rows_per_s) {
            (0, t) => t,
            (s, 0) => s,
            (s, t) => s.min(t),
        };
        let refresh = match hello.refresh {
            0 => false,
            1 => true,
            _ => self.refresh,
        };
        // The compute region can never exceed the module (the HelloAck
        // reports the honest effective row count).
        let module_rows = DramGeometry::module_mib(module_mib).total_rows();
        let compute_rows = match hello.compute_rows {
            0 => self.compute_rows,
            n => u64::from(n),
        }
        .min(module_rows);
        SessionParams {
            version: PROTOCOL_VERSION,
            shards: shards as u16,
            module_mib: module_mib as u32,
            max_outstanding: max_outstanding as u32,
            target_rows_per_s,
            refresh: u8::from(refresh),
            compute_rows: compute_rows as u32,
            qos_weight: match hello.qos_weight {
                0 => 1,
                w => w.min(MAX_QOS_WEIGHT),
            },
            // `tenants` is 0 for private-pool serving; fleet-mode
            // handshakes overwrite it with the fleet's slot count.
            tenants: 0,
            quota_ops: max_outstanding as u32,
        }
    }

    /// The device configuration a session with `params` runs on.
    /// The protocol pins the timing to DDR3-1600 (11-11-11).
    #[must_use]
    pub fn device_config(params: &SessionParams) -> DeviceConfig {
        DeviceConfig::new(
            DramGeometry::module_mib(u64::from(params.module_mib)),
            TimingParams::ddr3_1600_11(),
        )
        .with_refresh(params.refresh == 1)
        .with_compute_rows(u64::from(params.compute_rows))
    }

    /// The fleet a session with `params` runs on: `slots` slots of
    /// `params.shards` shards each, with this config's fault plan, retry
    /// and health policy, and the session's outstanding cap as the
    /// per-tenant quota. A private session's fleet has one slot, a
    /// shared server's [`ServerConfig::fleet_slots`].
    #[must_use]
    pub fn fleet(&self, params: &SessionParams, slots: usize) -> FleetHandle {
        let mut device = ServerConfig::device_config(params).with_retry(self.retry);
        if let Some(plan) = self.fault {
            device = device.with_faults(plan);
        }
        FleetHandle::new(
            FleetConfig::new(slots, (params.shards as usize).max(1), device)
                .with_quota((params.max_outstanding as usize).max(1))
                .with_health(self.health),
        )
    }
}

/// One finished operation with its session metadata: the fleet's event
/// record itself, which projects to the client-visible records with
/// [`FleetEvent::to_wire`] and [`FleetEvent::to_wire_failure`].
pub type ReplayCompletion = FleetEvent;

/// The deterministic per-session serving core: typed batches in,
/// completion-ordered [`ReplayCompletion`]s out.
///
/// Every engine is one tenancy on a fleet of [`ServerConfig::fleet`]:
/// a private session holds the only slot of a fleet built for it, a
/// shared-fleet session one slot of the server's. The fleet runs the whole discipline
/// on the tenant's own pool — routed all-or-nothing submission,
/// step-wise quota backpressure, a health check at every batch
/// boundary, a `(finish_cycle, seq)` drain — so both serve the same
/// stream. This is exactly what the wire server runs, factored out so
/// the client's `--verify` mode and the end-to-end tests can replay it
/// in process and demand bit-identical results.
///
/// Dropping the engine — session finished, torn down, or reaped while
/// parked — releases its slot back to the fleet for the next `Hello`.
#[derive(Debug)]
pub struct ReplayEngine {
    handle: FleetHandle,
    tenant: TenantId,
    next_seq: u64,
}

impl Drop for ReplayEngine {
    fn drop(&mut self) {
        self.handle.release(self.tenant);
    }
}

impl ReplayEngine {
    /// An engine on a fresh one-slot fleet of the default config, so
    /// with no fault injection: the reference `--verify` replays against.
    #[must_use]
    pub fn new(params: &SessionParams) -> Self {
        ReplayEngine::for_fleet(params, &ServerConfig::default().fleet(params, 1))
            .expect("a new one-slot fleet has its slot free")
    }

    /// An engine serving one tenant of a shared fleet: acquires a slot
    /// with the session's outstanding-op quota and returns `None` when
    /// every slot is taken. The negotiated QoS weight is passed along
    /// but has no scheduling effect. The slot is released when the
    /// engine drops.
    #[must_use]
    pub fn for_fleet(params: &SessionParams, handle: &FleetHandle) -> Option<Self> {
        let quota = (params.max_outstanding as usize).max(1);
        let tenant = handle.acquire_with(u32::from(params.qos_weight.max(1)), quota)?;
        Some(ReplayEngine {
            handle: handle.clone(),
            tenant,
            next_seq: 0,
        })
    }

    /// Submits one batch and returns the completions that drained at
    /// this boundary, in completion order.
    ///
    /// # Errors
    ///
    /// Returns the policy error; the batch was all-or-nothing rejected
    /// and the engine state is untouched (no sequence numbers consumed).
    pub fn submit_batch(&mut self, ops: &[CodicOp]) -> Result<Vec<ReplayCompletion>, CodicError> {
        let (receipt, events) = self.handle.submit(self.tenant, ops)?;
        self.next_seq += u64::from(receipt.accepted);
        Ok(events)
    }

    /// Drives every shard to idle and returns everything still pending,
    /// in completion order. A shard that cannot reach idle (stuck clock)
    /// is quarantined at this boundary and its stranded operations are
    /// delivered as typed failures, so a flush always resolves every
    /// pending operation one way or the other.
    pub fn flush(&mut self) -> Vec<ReplayCompletion> {
        self.handle.flush(self.tenant).1
    }

    /// Operations submitted but not yet completed (the backpressure
    /// signal; bounded by the session's `max_outstanding` between
    /// batches).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.handle.outstanding(self.tenant)
    }

    /// The slowest shard's current cycle.
    #[must_use]
    pub fn now_max(&self) -> u64 {
        self.handle.now_max(self.tenant)
    }

    /// Sequence number the next submitted operation will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Why a session ended.
#[derive(Debug)]
pub enum SessionEnd {
    /// The client said `Bye`; the summary was sent.
    Bye,
    /// The client hung up without a `Bye`.
    Disconnected,
    /// The session was aborted after a malformed frame (an `Error`
    /// frame was sent when possible).
    Protocol(ProtoError),
    /// The session was rejected before or during the handshake, or a
    /// well-formed frame arrived out of protocol order; the reason was
    /// also sent to the client as an `Error` frame.
    Rejected(String),
    /// The server shut down gracefully: in-flight operations were
    /// drained (or failed with a typed cause) and an honest `Summary`
    /// was sent before the connection closed.
    Shutdown,
    /// The client sent no frame for the whole idle deadline
    /// ([`ServerConfig::session_idle_ms`]): in-flight operations were
    /// drained, an `Error` and an honest `Summary` were sent, and the
    /// session's memory (journal included) was freed.
    Idle,
    /// The session's connection was cut or corrupted mid-stream: the
    /// session state was parked in the server's registry of
    /// disconnected sessions, and a reconnecting client can
    /// [`Frame::Resume`] it. This ends the *connection*, not the
    /// session.
    Suspended,
    /// The socket failed.
    Io(io::Error),
}

/// The state of one session that outlives its connections, so a cut
/// can park it and a [`Frame::Resume`] can pick it back up. The
/// session's [`ReplayEngine`] travels beside it: a session parked
/// without one is a finished tombstone that only re-delivers its
/// journal tail and `Summary`.
struct SessionState {
    params: SessionParams,
    token: u64,
    governor: RateGovernor,
    tally: SessionTally,
}

impl SessionState {
    fn new(params: SessionParams, token: u64, config: &ServerConfig) -> Self {
        SessionState {
            params,
            token,
            governor: RateGovernor::new(params.target_rows_per_s),
            tally: SessionTally::new(config.journal_max_bytes),
        }
    }
}

/// A parked session awaiting its client's [`Frame::Resume`]: a cut live
/// session with its engine, or a finished tombstone (`engine: None`).
struct ParkedSession {
    session: SessionState,
    engine: Option<ReplayEngine>,
    parked_at: Instant,
}

/// Where disconnected sessions wait for their clients to come back.
///
/// One registry serves one [`ReplayServer`] (every connection thread
/// shares it); the in-memory [`serve_session`] helpers create a
/// throwaway registry per call, so a parked session there is simply
/// dropped — exactly the old semantics. Parked sessions are bounded in
/// time by [`SessionRegistry::reap_idle`] (the accept loop runs it) and
/// in memory by each session's journal cap.
#[derive(Default)]
struct SessionRegistry {
    inner: Mutex<HashMap<u64, ParkedSession>>,
    /// Signalled on every park, so a resume that arrives before the old
    /// connection's thread noticed the cut can wait for the handoff.
    parked: Condvar,
    tokens: AtomicU64,
    /// The key of the token PRF: SipHash keys that std draws at random
    /// per process, one key per registry.
    key: RandomState,
}

impl fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionRegistry({} parked)", self.parked_sessions())
    }
}

impl SessionRegistry {
    /// Sessions currently parked (cut mid-stream, awaiting resume).
    fn parked_sessions(&self) -> usize {
        self.lock().len()
    }

    /// Drops every parked session older than `idle`, freeing its
    /// journal, and returns how many were reaped.
    fn reap_idle(&self, idle: Duration) -> usize {
        let mut inner = self.lock();
        let before = inner.len();
        inner.retain(|_, parked| parked.parked_at.elapsed() < idle);
        before - inner.len()
    }

    /// A fresh session token: a counter hashed under the registry's
    /// secret key, so no peer can predict a token from the ones it has
    /// seen or from another server's (a keyed bijection such as a
    /// whitened counter would hand a client every later token once it
    /// inverted its own). Re-minted on 0 and on a parked session's
    /// token, so a token names at most one session.
    fn mint_token(&self) -> u64 {
        loop {
            let n = self.tokens.fetch_add(1, Ordering::Relaxed);
            let token = self.key.hash_one(n);
            if token != 0 && !self.lock().contains_key(&token) {
                return token;
            }
        }
    }

    fn park(&self, session: SessionState, engine: Option<ReplayEngine>) {
        let mut inner = self.lock();
        inner.insert(
            session.token,
            ParkedSession {
                session,
                engine,
                parked_at: Instant::now(),
            },
        );
        self.parked.notify_all();
    }

    /// Removes and returns the parked session with `token`, waiting up
    /// to `grace` for the previous connection's thread to park it (the
    /// reconnect usually wins that race by a few milliseconds).
    fn claim(&self, token: u64, grace: Duration) -> Option<(SessionState, Option<ReplayEngine>)> {
        let deadline = Instant::now() + grace;
        let mut inner = self.lock();
        loop {
            if let Some(parked) = inner.remove(&token) {
                return Some((parked.session, parked.engine));
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            inner = match self.parked.wait_timeout(inner, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// The registry lock, recovered from poisoning: a panicking session
    /// thread must not wedge every other session's resume path.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, ParkedSession>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Serves one established session over any byte stream, such as an
/// in-memory pipe, through the same connection entry as every socket.
///
/// # Errors
///
/// Returns the socket failure that ended the session, if any; protocol
/// violations and client disconnects are reported in [`SessionEnd`].
pub fn serve_session<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    config: &ServerConfig,
) -> io::Result<SessionEnd> {
    let shutdown = AtomicBool::new(false);
    let mut reader = SessionReader::new(reader, &shutdown, config);
    let registry = SessionRegistry::default();
    serve_connection(&mut reader, writer, config, &registry, None)
}

/// What the serving loop pulled from the stream between frames.
enum Input {
    Frame(Frame),
    Shutdown,
    Idle,
}

/// One connection's read half as the serving loop sees it: a [`Read`]
/// adapter that waits out the socket's read timeouts inside `read`, so
/// a frame straddling a timeout keeps every byte already read, and
/// gives up only when the shutdown flag or the idle deadline fires —
/// recording which, so [`SessionReader::next_input`] can tell a stop
/// from a stream failure. Frames are read with [`proto::read_body_crc`]
/// into one body buffer kept for the whole connection. A stream without
/// a read timeout just blocks, so shutdown and idle are seen only
/// between frames there; sockets set [`ServerConfig::read_timeout_ms`].
struct SessionReader<'a, R> {
    inner: &'a mut R,
    shutdown: &'a AtomicBool,
    idle: Duration,
    /// When the wait for the current frame began.
    since: Instant,
    /// Why the last `read` gave up, if it did.
    stopped: Option<Input>,
    body: Vec<u8>,
}

impl<'a, R: Read> SessionReader<'a, R> {
    fn new(inner: &'a mut R, shutdown: &'a AtomicBool, config: &ServerConfig) -> Self {
        SessionReader {
            inner,
            shutdown,
            idle: Duration::from_millis(config.session_idle_ms.max(1)),
            since: Instant::now(),
            stopped: None,
            body: Vec::new(),
        }
    }

    /// Reads the next frame, or the shutdown request or idle deadline
    /// that ended the wait for it.
    fn next_input(&mut self) -> Result<Input, ProtoError> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Ok(Input::Shutdown);
        }
        self.since = Instant::now();
        let mut body = std::mem::take(&mut self.body);
        let frame = proto::read_body_crc(self, &mut body).and_then(proto::decode_body);
        self.body = body;
        match self.stopped.take() {
            Some(stop) => Ok(stop),
            None => frame.map(Input::Frame),
        }
    }
}

impl<R: Read> Read for SessionReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let timed_out = match self.inner.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => e,
                read => return read,
            };
            self.stopped = if self.shutdown.load(Ordering::Relaxed) {
                Some(Input::Shutdown)
            } else if self.since.elapsed() >= self.idle {
                Some(Input::Idle)
            } else {
                continue;
            };
            return Err(timed_out);
        }
    }
}

/// Serves one *connection* against a shared [`SessionRegistry`]: a
/// `Hello` opens a fresh session; a `Resume` re-attaches a parked one.
/// [`serve_session`] and every [`ReplayServer`] session thread enter
/// here. With `Some(fleet)` the `Hello` acquires a slot of that shared
/// fleet, whose substrate (shards, capacity, refresh, compute region)
/// is fleet-wide: the client's requests for it are ignored and the ack
/// reports the fleet's shape (`tenants` = slot count). Without one it
/// gets a private one-slot fleet.
///
/// # Errors
///
/// Returns the socket failure that ended the session, if any; protocol
/// violations, disconnects, deadlines, and parking are reported in
/// [`SessionEnd`].
fn serve_connection<R: Read, W: Write>(
    reader: &mut SessionReader<'_, R>,
    writer: &mut W,
    config: &ServerConfig,
    registry: &SessionRegistry,
    fleet: Option<&FleetHandle>,
) -> io::Result<SessionEnd> {
    // The first frame must already carry a valid CRC trailer: a frame
    // without one is a typed Malformed error, and the connection closes.
    let first = match reader.next_input() {
        Ok(Input::Frame(frame)) => frame,
        Ok(Input::Shutdown) => {
            send_error(writer, ErrorCode::Unavailable, "server is shutting down")?;
            return Ok(SessionEnd::Shutdown);
        }
        Ok(Input::Idle) => {
            send_error(
                writer,
                ErrorCode::Unavailable,
                "handshake idle deadline exceeded",
            )?;
            return Ok(SessionEnd::Idle);
        }
        Err(ProtoError::Io(e)) => return io_end(e),
        Err(e) => {
            send_error(writer, ErrorCode::Malformed, &e.to_string())?;
            return Ok(SessionEnd::Protocol(e));
        }
    };
    match first {
        Frame::Hello(hello) => {
            if hello.version != PROTOCOL_VERSION {
                return reject(writer, ErrorCode::Version, version_mismatch(hello.version));
            }
            // Oversized resource claims are rejected here, before
            // anything is negotiated or allocated from their numbers.
            if hello.tenants > MAX_TENANT_CLAIM || hello.quota_ops > MAX_QUOTA_CLAIM {
                let reason = format!(
                    "resource claim out of range: tenants {} (max {MAX_TENANT_CLAIM}), \
                     quota_ops {} (max {MAX_QUOTA_CLAIM})",
                    hello.tenants, hello.quota_ops
                );
                return reject(writer, ErrorCode::Policy, reason);
            }
            // A shared fleet's shape was fixed at bind, so the client's
            // substrate fields become "server default" sentinels.
            let hello = match fleet {
                Some(_) => SessionParams {
                    shards: 0,
                    module_mib: 0,
                    refresh: 2,
                    compute_rows: 0,
                    ..hello
                },
                None => hello,
            };
            let mut params = config.negotiate(&hello);
            params.tenants = fleet.map_or(0, |f| f.slots().min(usize::from(u16::MAX)) as u16);
            let fleet = fleet.cloned().unwrap_or_else(|| config.fleet(&params, 1));
            let Some(engine) = ReplayEngine::for_fleet(&params, &fleet) else {
                let reason = format!("no free tenant slots (fleet serves {})", fleet.slots());
                return reject(writer, ErrorCode::Unavailable, reason);
            };
            let token = registry.mint_token();
            write_frame_crc(writer, &Frame::HelloAck { params, token })?;
            writer.flush()?;
            run_session(
                (SessionState::new(params, token, config), engine),
                reader,
                writer,
                config,
                registry,
            )
        }
        Frame::Resume(req) => resume_session(req, reader, writer, config, registry),
        other => {
            let reason = format!("expected Hello or Resume, got {}", frame_name(&other));
            reject(writer, ErrorCode::Malformed, reason)
        }
    }
}

/// The reason a `Hello` or `Resume` at `version` is refused.
fn version_mismatch(version: u16) -> String {
    format!("server speaks v{PROTOCOL_VERSION} only, client sent v{version}")
}

/// Re-attaches a parked session to a fresh connection: validates the
/// token and the requested journal window, acks, re-emits the journal
/// tail, and hands control back to the serving loop (or re-delivers the
/// final `Summary` of an already-finished session).
fn resume_session<R: Read, W: Write>(
    req: proto::ResumeRequest,
    reader: &mut SessionReader<'_, R>,
    writer: &mut W,
    config: &ServerConfig,
    registry: &SessionRegistry,
) -> io::Result<SessionEnd> {
    if req.version != PROTOCOL_VERSION {
        return reject(writer, ErrorCode::Version, version_mismatch(req.version));
    }
    // Wait briefly for the previous connection's thread to notice the
    // cut and park the session — the reconnect usually wins that race.
    let grace = Duration::from_millis((config.read_timeout_ms.max(1) * 8).max(500));
    let Some((mut session, engine)) = registry.claim(req.token, grace) else {
        let reason = "unknown, expired, or still-active session token".to_string();
        return reject(writer, ErrorCode::Unavailable, reason);
    };
    let (base, total) = session.tally.journal.window();
    if req.events_received > total || req.events_received < base {
        // The claim consumed the session: a client whose resume point
        // fell outside the bounded journal can never be made whole, so
        // the session — and its journal memory — is dropped here. The
        // window check is pure arithmetic on the already-bounded
        // journal; nothing is allocated from the request's numbers.
        let reason = format!(
            "resume point {} outside the retained journal window {base}..={total}",
            req.events_received
        );
        return reject(writer, ErrorCode::Unavailable, reason);
    }
    // A finished session's `Bye` flush resolved every submitted op
    // into exactly one event, so its journal total is its next seq.
    let ack = Frame::ResumeAck(ResumeAck {
        params: session.params,
        token: session.token,
        next_seq: engine.as_ref().map_or(total, ReplayEngine::next_seq),
        replay_events: total - req.events_received,
        finished: u8::from(engine.is_none()),
    });
    let handoff = (|| -> io::Result<()> {
        write_frame_crc(writer, &ack)?;
        session.tally.replay_journal(writer, req.events_received)?;
        if engine.is_none() {
            write_frame_crc(writer, &Frame::Summary(session.tally.summary()))?;
        }
        writer.flush()
    })();
    if handoff.is_err() {
        // The replacement connection died too: park again for the next
        // attempt (the journal still covers everything unacknowledged).
        registry.park(session, engine);
        return Ok(SessionEnd::Suspended);
    }
    match engine {
        Some(engine) => run_session((session, engine), reader, writer, config, registry),
        None => {
            // Keep the tombstone around until the reaper claims it, in
            // case this Summary is lost in a cut as well.
            registry.park(session, None);
            Ok(SessionEnd::Bye)
        }
    }
}

/// The established-session serving loop, generic over how the session
/// started (fresh `Hello` or `Resume`). Owns the session state and its
/// engine so a cut can move both into the registry.
fn run_session<R: Read, W: Write>(
    (mut session, mut engine): (SessionState, ReplayEngine),
    reader: &mut SessionReader<'_, R>,
    writer: &mut W,
    config: &ServerConfig,
    registry: &SessionRegistry,
) -> io::Result<SessionEnd> {
    loop {
        let end = match reader.next_input() {
            Ok(Input::Frame(Frame::Bye)) => match close(&mut session, &mut engine, writer, None) {
                // The Summary wrote cleanly: the finished session gives
                // its fleet slot and pool back now, and parks as a
                // tombstone, so a client whose cut ate the Summary can
                // Resume for journal + Summary. A cut before this point
                // resumes into the live session, where the re-sent Bye
                // produces the identical Summary.
                Ok(()) => {
                    drop(engine);
                    registry.park(session, None);
                    return Ok(SessionEnd::Bye);
                }
                Err(_) => SessionEnd::Suspended,
            },
            Ok(Input::Frame(frame)) => match handle_frame(&mut session, &mut engine, frame, writer)
            {
                Ok(None) => continue,
                Ok(Some(end)) => return Ok(end),
                // The write path died mid-emission: the whole emission
                // was journaled before its first byte went out, so park
                // for resume instead of losing the session.
                Err(_) => SessionEnd::Suspended,
            },
            Ok(Input::Shutdown) => {
                // Graceful teardown: the client gets the honest totals of
                // what the session really delivered.
                close(&mut session, &mut engine, writer, None)?;
                return Ok(SessionEnd::Shutdown);
            }
            Ok(Input::Idle) => {
                // A silent client is torn down honestly and told why,
                // and its memory (journal included) freed. Best-effort
                // writes: the peer may already be gone, and the reap
                // must happen regardless.
                let reason = format!(
                    "session idle deadline ({} ms) exceeded",
                    config.session_idle_ms
                );
                let _ = close(&mut session, &mut engine, writer, Some(&reason));
                return Ok(SessionEnd::Idle);
            }
            // A cut or corrupted stream parks the session for resume —
            // *any* read failure, decode errors included: a corrupted
            // length prefix desynchronizes everything after it, so the
            // whole wire is untrustworthy while the session state is
            // still consistent. The client reconnects and resumes; a
            // client that never does is bounded by the idle reaper.
            Err(_) => SessionEnd::Suspended,
        };
        registry.park(session, Some(engine));
        return Ok(end);
    }
}

/// Handles one in-session frame other than `Bye`, returning the end of
/// a session it refuses. Write errors bubble up so the caller can park
/// the session instead of dropping it.
fn handle_frame<W: Write>(
    session: &mut SessionState,
    engine: &mut ReplayEngine,
    frame: Frame,
    writer: &mut W,
) -> io::Result<Option<SessionEnd>> {
    match frame {
        Frame::Batch(ops) => {
            let seq_base = engine.next_seq();
            match engine.submit_batch(&ops) {
                Ok(completions) => {
                    let ack = BatchAck {
                        seq_base,
                        accepted: ops.len() as u32,
                        emitted: completions.len() as u32,
                        outstanding: engine.outstanding() as u64,
                    };
                    session
                        .tally
                        .emit(writer, &completions, |_| Frame::Batched(ack))?;
                    if let Some(pause) = session.governor.on_rows(ops.len() as u64) {
                        thread::sleep(pause);
                    }
                }
                Err(CodicError::NoHealthyShards) => {
                    send_error(
                        writer,
                        ErrorCode::Unavailable,
                        &CodicError::NoHealthyShards.to_string(),
                    )?;
                }
                Err(policy) => {
                    send_error(writer, ErrorCode::Policy, &policy.to_string())?;
                }
            }
            Ok(None)
        }
        Frame::Flush => {
            let completions = engine.flush();
            let ack = FlushAck {
                emitted: completions.len() as u64,
                now_max: engine.now_max(),
            };
            session
                .tally
                .emit(writer, &completions, |_| Frame::Flushed(ack))?;
            Ok(None)
        }
        other => {
            let reason = format!("expected Batch/Flush/Bye, got {}", frame_name(&other));
            reject(writer, ErrorCode::Malformed, reason).map(Some)
        }
    }
}

/// Ends a live session on `Bye`, shutdown or the idle deadline: drains
/// everything in flight (or fails it with a typed cause) and streams
/// it, sends `error` as an `Unavailable` frame when there is one, then
/// the `Summary` of what the session really delivered.
fn close<W: Write>(
    session: &mut SessionState,
    engine: &mut ReplayEngine,
    writer: &mut W,
    error: Option<&str>,
) -> io::Result<()> {
    let completions = engine.flush();
    let Some(detail) = error else {
        return session.tally.emit(writer, &completions, Frame::Summary);
    };
    let reason = |_| Frame::Error {
        code: ErrorCode::Unavailable,
        detail: detail.to_string(),
    };
    session.tally.emit(writer, &completions, reason)?;
    write_frame_crc(writer, &Frame::Summary(session.tally.summary()))?;
    writer.flush()
}

/// The session's event stream, encoded once. Live `Events` frames are
/// written from these bytes, and after a cut the same bytes are
/// replayed to the next connection, so a resumed stream is
/// byte-identical to an uninterrupted one.
///
/// Each emission's units (kind byte + payload, back to back) are encoded
/// into one reusable open buffer, then sealed into buffers allocated once
/// at their exact size, so no journal buffer ever regrows: a session
/// holds its retained units, their one-byte lengths, and an open buffer
/// the size of its largest emission.
///
/// Bounded by a byte cap that [`EventJournal::trim`] applies once an
/// emission or a resume replay has been written: the oldest whole units
/// are evicted, sliding the retained window's base forward, so a unit
/// is never evicted before it was sent, and an emission's buffers are
/// freed with its last unit. A resume pointing before the base is
/// honestly rejected — nothing here ever allocates from a
/// client-supplied number.
#[derive(Debug)]
struct EventJournal {
    /// Sealed emissions, oldest first.
    emissions: VecDeque<Emission>,
    /// The emission being encoded (units and lengths), sealed into
    /// `emissions` by [`EventJournal::seal`]. Reused, so it grows only
    /// to the largest emission.
    open_units: Vec<u8>,
    open_lens: Vec<u8>,
    /// Units at the front of the oldest emission that are evicted.
    dead: usize,
    /// Unit bytes of the sealed emissions not yet evicted.
    retained: usize,
    /// Index of the oldest retained unit in the session's full stream.
    base: u64,
    /// Sealed units ever emitted.
    total: u64,
    cap: usize,
}

/// One emission's encoded units back to back, and each unit's length.
#[derive(Debug)]
struct Emission {
    units: Box<[u8]>,
    lens: Box<[u8]>,
}

impl EventJournal {
    fn new(cap: usize) -> Self {
        EventJournal {
            emissions: VecDeque::new(),
            open_units: Vec::new(),
            open_lens: Vec::new(),
            dead: 0,
            retained: 0,
            base: 0,
            total: 0,
            cap: cap.max(1),
        }
    }

    /// Appends one unit of `kind` whose payload `encode` writes to the
    /// open emission, and returns the payload bytes (the slice the
    /// session checksum hashes).
    fn push(&mut self, kind: u8, encode: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        self.open_units.push(kind);
        let start = self.open_units.len();
        encode(&mut self.open_units);
        let len =
            u8::try_from(self.open_units.len() + 1 - start).expect("event units fit a u8 length");
        self.open_lens.push(len);
        &self.open_units[start..]
    }

    /// Seals the units pushed since the last seal into buffers of their
    /// exact size and returns them as `(units, lens)`. An empty emission
    /// allocates nothing and is not kept.
    fn seal(&mut self) -> (&[u8], &[u8]) {
        if self.open_lens.is_empty() {
            return (&[], &[]);
        }
        // Exact-size copies, not the open buffers themselves: glibc's
        // allocator packs exact requests back to back, while shrinking
        // an over-reserved buffer in place leaves a hole per emission
        // (perfbench `mixed_replay` on a 2-vCPU x86-64 host peaked at
        // ~25.0 MiB RSS that way, ~23.3 MiB with copies).
        let emission = Emission {
            units: Box::from(self.open_units.as_slice()),
            lens: Box::from(self.open_lens.as_slice()),
        };
        self.open_units.clear();
        self.open_lens.clear();
        self.retained += emission.units.len();
        self.total += emission.lens.len() as u64;
        self.emissions.push_back(emission);
        let sealed = self.emissions.back().expect("an emission was just sealed");
        (&sealed.units, &sealed.lens)
    }

    /// Evicts the oldest whole units until the retained bytes fit the
    /// cap, keeping at least the newest unit even if it alone exceeds
    /// it: a journal that can't hold one unit is useless.
    fn trim(&mut self) {
        while self.retained > self.cap && self.total - self.base > 1 {
            let front = self.emissions.front().expect("retained units are sealed");
            self.retained -= usize::from(front.lens[self.dead]);
            self.dead += 1;
            self.base += 1;
            if self.dead == front.lens.len() {
                self.emissions.pop_front();
                self.dead = 0;
            }
        }
    }

    /// The retained window as `(base, total)`: units `base..total` of
    /// the session's stream can be replayed; `total` is the count of
    /// all sealed units ever emitted.
    fn window(&self) -> (u64, u64) {
        (self.base, self.total)
    }

    /// Unit bytes retained for replay.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// The sealed units from stream index `from` (clamped to the window)
    /// onward, as one `(units, lens)` run per emission, oldest first.
    fn tail(&self, from: u64) -> impl Iterator<Item = (&[u8], &[u8])> {
        let (base, total) = self.window();
        let mut skip = self.dead + (from.clamp(base, total) - base) as usize;
        self.emissions.iter().filter_map(move |emission| {
            let skipped = skip.min(emission.lens.len());
            skip -= skipped;
            let bytes: usize = emission.lens[..skipped]
                .iter()
                .map(|&len| usize::from(len))
                .sum();
            (skipped < emission.lens.len())
                .then(|| (&emission.units[bytes..], &emission.lens[skipped..]))
        })
    }
}

/// Running totals and checksum of one session's completion stream.
#[derive(Debug)]
struct SessionTally {
    /// The totals so far. Its `checksum` field stays 0:
    /// [`SessionTally::summary`] fills it in from the running hash.
    totals: Summary,
    checksum: Fnv64,
    /// The resume journal, which every `Events` frame is written from.
    journal: EventJournal,
}

impl SessionTally {
    fn new(journal_max_bytes: usize) -> Self {
        SessionTally {
            totals: Summary::default(),
            checksum: Fnv64::new(),
            journal: EventJournal::new(journal_max_bytes),
        }
    }

    /// Streams `completions` as `Events` frames, then the frame `reply`
    /// builds from the updated totals, and flushes: the last `Events`
    /// frame and the reply leave in one vectored write, so a reply whose
    /// emission fits one frame costs the stream a single write. Every
    /// unit is first encoded into the resume journal and its *payload*
    /// folded into the totals and the session checksum; only then is any
    /// byte written, so a failed write leaves the whole emission
    /// journaled for resume. Successes count toward
    /// `ops`/`row_ops`/energy; failures only toward `failed` — the
    /// `Summary` reports what the session really delivered, not what it
    /// attempted.
    fn emit<W: Write>(
        &mut self,
        writer: &mut W,
        completions: &[ReplayCompletion],
        reply: impl FnOnce(Summary) -> Frame,
    ) -> io::Result<()> {
        let totals = &mut self.totals;
        for c in completions {
            let payload = if let Some(failure) = c.to_wire_failure() {
                totals.failed += 1;
                totals.max_finish_cycle = totals.max_finish_cycle.max(failure.at_cycle);
                self.journal.push(proto::EVENT_FAILURE, |buf| {
                    proto::failure_payload(&failure, buf);
                })
            } else {
                let wire = c.to_wire();
                totals.ops += 1;
                totals.row_ops += u64::from(wire.op.row_op_kind().is_some());
                totals.max_finish_cycle = totals.max_finish_cycle.max(wire.finish_cycle);
                totals.total_energy_nj += wire.energy_nj;
                self.journal.push(proto::EVENT_COMPLETION, |buf| {
                    proto::completion_payload(&wire, buf);
                })
            };
            self.checksum.update(payload);
        }
        // The whole run ships, in as few frames as the cap allows,
        // before the reply.
        let reply = reply(self.summary());
        let (units, lens) = self.journal.seal();
        proto::write_reply_crc(writer, units, lens, &reply)?;
        self.journal.trim();
        writer.flush()
    }

    /// Re-emits journaled units from stream index `from` onward as
    /// `Events` frames — the very bytes of their first emission, so the
    /// client-side checksum can't tell a resumed stream from an
    /// uninterrupted one. Trims once the replay is written, so an
    /// emission whose own write failed is capped too.
    fn replay_journal<W: Write>(&mut self, writer: &mut W, from: u64) -> io::Result<()> {
        // Replay frames are deliberately small: a resuming client must
        // be able to absorb at least one whole frame per connection to
        // make forward progress, even over a wire that keeps dying.
        // Packing the tail into one maximal frame would livelock resume
        // whenever that frame outlives every connection attempt. Each
        // emission's run is framed on its own, so no unit is copied.
        const REPLAY_FRAME_BYTES: usize = 8 << 10;
        for (units, lens) in self.journal.tail(from) {
            proto::write_events_crc(writer, units, lens, REPLAY_FRAME_BYTES)?;
        }
        self.journal.trim();
        Ok(())
    }

    fn summary(&self) -> Summary {
        Summary {
            checksum: self.checksum.value(),
            ..self.totals
        }
    }
}

fn io_end(e: io::Error) -> io::Result<SessionEnd> {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Ok(SessionEnd::Disconnected)
    } else {
        Ok(SessionEnd::Io(e))
    }
}

/// The frame's name, for diagnostics (a `Batch`'s debug form would dump
/// the whole operation vector).
fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello(_) => "Hello",
        Frame::HelloAck { .. } => "HelloAck",
        Frame::Batch(_) => "Batch",
        Frame::Flush => "Flush",
        Frame::Bye => "Bye",
        Frame::Resume(_) => "Resume",
        Frame::ResumeAck(_) => "ResumeAck",
        Frame::Batched(_) => "Batched",
        Frame::Flushed(_) => "Flushed",
        Frame::Summary(_) => "Summary",
        Frame::Error { .. } => "Error",
        Frame::Events(_) => "Events",
    }
}

fn send_error<W: Write>(writer: &mut W, code: ErrorCode, detail: &str) -> io::Result<()> {
    write_frame_crc(
        writer,
        &Frame::Error {
            code,
            detail: detail.to_string(),
        },
    )?;
    writer.flush()
}

/// Refuses the session: tells the client why in an `Error` frame and
/// ends the session [`SessionEnd::Rejected`] with the same reason.
fn reject<W: Write>(writer: &mut W, code: ErrorCode, reason: String) -> io::Result<SessionEnd> {
    send_error(writer, code, &reason)?;
    Ok(SessionEnd::Rejected(reason))
}

/// A cloneable handle that requests a [`ReplayServer`]'s graceful
/// shutdown: the accept loop stops taking new connections and every
/// live session drains its in-flight operations and sends an honest
/// `Summary` before closing.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown (idempotent).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One bound accept endpoint: the filesystem Unix socket or a TCP
/// listener. Both feed the same accept loop and speak the same
/// protocol, frame for frame.
#[derive(Debug)]
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// An accepted connection as a session thread reads and writes it,
/// whichever transport carried it.
type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl Listener {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection and readies it for its session thread:
    /// blocking, with `read_timeout` on every read, so the session's
    /// reader parks in one socket read for at most that long before it
    /// re-checks the shutdown flag and the idle deadline. The outer
    /// error is the listener's; the inner one is this connection's own
    /// setup failure, which costs only this connection.
    fn accept(&self, read_timeout: Duration) -> io::Result<io::Result<Halves>> {
        let timeout = Some(read_timeout);
        Ok(match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                let reader = s
                    .set_nonblocking(false)
                    .and_then(|()| s.set_read_timeout(timeout))
                    .and_then(|()| s.try_clone());
                halves(s, reader)
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Frames are already written through a BufWriter and
                // flushed at ack boundaries; Nagle would only add
                // latency on top of that.
                let _ = s.set_nodelay(true);
                let reader = s
                    .set_nonblocking(false)
                    .and_then(|()| s.set_read_timeout(timeout))
                    .and_then(|()| s.try_clone());
                halves(s, reader)
            }
        })
    }
}

/// `stream` as the write half beside its clone `reader`, when cloning
/// and configuring it worked.
fn halves<S: Read + Write + Send + 'static>(
    stream: S,
    reader: io::Result<S>,
) -> io::Result<Halves> {
    Ok((Box::new(reader?), Box::new(stream)))
}

/// The replay server.
///
/// Binds a filesystem Unix socket ([`ReplayServer::bind`]), optionally
/// with TCP listeners beside it ([`ReplayServer::with_tcp`]), then
/// serves each accepted connection — whichever transport it arrived
/// on — as an independent session on its own thread. The socket file is
/// removed on drop.
#[derive(Debug)]
pub struct ReplayServer {
    listeners: Vec<Listener>,
    config: ServerConfig,
    path: PathBuf,
    shutdown: ShutdownHandle,
    /// Shared across every connection thread: where cut sessions park
    /// for resume, reaped on the idle deadline by the accept loop.
    registry: Arc<SessionRegistry>,
    /// The shared tenant fleet ([`ServerConfig::fleet_slots`] > 0):
    /// built at bind; each session's slot builds its own pool.
    fleet: Option<FleetHandle>,
    /// Threads of the sessions the accept loop has spawned and not yet
    /// joined: one per *live* session, because each accept round joins
    /// the ones that finished.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ReplayServer {
    /// Binds `path`, reclaiming a *stale* socket file (one left behind
    /// by a dead server) but refusing to hijack a live endpoint: if a
    /// peer still accepts connections on `path`, this fails with
    /// [`io::ErrorKind::AddrInUse`] instead of silently unlinking the
    /// running server's socket.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; [`io::ErrorKind::AddrInUse`] when a
    /// live server already serves `path`.
    pub fn bind<P: AsRef<Path>>(path: P, config: ServerConfig) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        match UnixStream::connect(&path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is served by a live replay server", path.display()),
                ))
            }
            // No socket file at all: nothing to reclaim.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            // A socket file nobody accepts on: a dead server's leftover.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                std::fs::remove_file(&path)?;
            }
            // Anything else (not a socket, no permission, …): leave the
            // path alone and let bind() report the real conflict.
            Err(_) => {}
        }
        let listener = Listener::Unix(UnixListener::bind(&path)?);
        Ok(ReplayServer::build(listener, path, config))
    }

    /// Adds a TCP listener beside this server's existing endpoints: the
    /// accept loop serves both, and a session is the same session
    /// whichever transport carried it (a session cut on one listener
    /// can even resume through the other).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn with_tcp<A: ToSocketAddrs>(mut self, addr: A) -> io::Result<Self> {
        self.listeners.push(Listener::Tcp(TcpListener::bind(addr)?));
        Ok(self)
    }

    /// The local address of the first TCP listener, when one is bound
    /// (tests bind `127.0.0.1:0` and read the ephemeral port here).
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.listeners.iter().find_map(|l| match l {
            Listener::Tcp(listener) => listener.local_addr().ok(),
            Listener::Unix(_) => None,
        })
    }

    /// Assembles the server, building the shared fleet when
    /// [`ServerConfig::fleet_slots`] asks for one, on the substrate the
    /// server's defaults negotiate.
    fn build(listener: Listener, path: PathBuf, config: ServerConfig) -> Self {
        let defaults = config.negotiate(&SessionParams::defaults());
        let fleet = (config.fleet_slots > 0).then(|| config.fleet(&defaults, config.fleet_slots));
        ReplayServer {
            listeners: vec![listener],
            config,
            path,
            shutdown: ShutdownHandle::default(),
            registry: Arc::default(),
            fleet,
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Sessions currently parked for resume (cut mid-stream, client not
    /// yet back). Parked sessions are reaped — journal freed — once
    /// they sit unclaimed past [`ServerConfig::session_idle_ms`].
    #[must_use]
    pub fn parked_sessions(&self) -> usize {
        self.registry.parked_sessions()
    }

    /// Free tenant slots on the shared fleet; `None` when this server
    /// runs private pools ([`ServerConfig::fleet_slots`] = 0).
    #[must_use]
    pub fn free_tenant_slots(&self) -> Option<usize> {
        self.fleet.as_ref().map(FleetHandle::free_slots)
    }

    /// A handle that stops this server gracefully from another thread:
    /// the accept loop exits and every live session drains its pool and
    /// sends an honest `Summary` before closing.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serves exactly `connections` sessions (each on its own thread),
    /// then returns. `replay-server --connections N` and every test use
    /// this; [`ReplayServer::serve_forever`] is the daemon mode. Returns
    /// early — after joining live sessions — when the
    /// [`ShutdownHandle`] fires.
    ///
    /// # Errors
    ///
    /// Propagates an accept failure.
    pub fn serve_connections(&self, connections: usize) -> io::Result<()> {
        self.accept_loop(Some(connections))
    }

    /// Accepts and serves sessions until the [`ShutdownHandle`] fires
    /// (joining live sessions before returning) or the process exits.
    ///
    /// # Errors
    ///
    /// Propagates an accept failure.
    pub fn serve_forever(&self) -> io::Result<()> {
        self.accept_loop(None)
    }

    /// The shutdown-aware accept loop: non-blocking accepts polled at a
    /// small interval, so a shutdown request is noticed within ~10 ms
    /// even while no client is connecting.
    fn accept_loop(&self, connections: Option<usize>) -> io::Result<()> {
        for listener in &self.listeners {
            listener.set_nonblocking(true)?;
        }
        let idle = Duration::from_millis(self.config.session_idle_ms.max(1));
        // The reaper ticks every read timeout on wall time, not on quiet
        // rounds, so a steady stream of connects cannot starve it.
        let read_timeout = Duration::from_millis(self.config.read_timeout_ms.max(1));
        let mut last_reap = Instant::now();
        let mut accepted = 0usize;
        'accept: while connections.is_none_or(|n| accepted < n) {
            if self.shutdown.is_shutdown() {
                break;
            }
            self.join_finished_sessions();
            // Poll every listener once; sleep only after a fully quiet
            // round.
            let mut quiet = true;
            for listener in &self.listeners {
                if connections.is_some_and(|n| accepted >= n) {
                    break 'accept;
                }
                match listener.accept(read_timeout) {
                    Ok(connection) => {
                        // A connection whose own setup failed is dropped
                        // alone; it still counts as served.
                        if let Ok(halves) = connection {
                            let handle = self.spawn_session(halves);
                            self.session_threads().push(handle);
                        }
                        accepted += 1;
                        quiet = false;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Parked sessions nobody resumed past the idle deadline are
            // dropped and their journals freed.
            if last_reap.elapsed() >= read_timeout {
                self.registry.reap_idle(idle);
                last_reap = Instant::now();
            }
            if quiet {
                thread::sleep(Duration::from_millis(5));
            }
        }
        for handle in std::mem::take(&mut *self.session_threads()) {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Joins and drops the threads of sessions that have ended, so a
    /// long-lived server holds no state per connection it ever served.
    fn join_finished_sessions(&self) {
        let mut threads = self.session_threads();
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                // Already exited: the join returns at once.
                let _ = threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }

    /// The session-thread list, recovered from poisoning.
    fn session_threads(&self) -> std::sync::MutexGuard<'_, Vec<thread::JoinHandle<()>>> {
        self.threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn spawn_session(&self, (reader, writer): Halves) -> thread::JoinHandle<()> {
        let config = self.config.clone();
        let shutdown = self.shutdown.clone();
        let registry = Arc::clone(&self.registry);
        let fleet = self.fleet.clone();
        thread::spawn(move || {
            let mut read_half = BufReader::new(reader);
            let mut reader = SessionReader::new(&mut read_half, &shutdown.0, &config);
            let mut writer = BufWriter::new(writer);
            let _ = serve_connection(&mut reader, &mut writer, &config, &registry, fleet.as_ref());
        })
    }
}

impl Drop for ReplayServer {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpStream;

    use super::*;
    use crate::proto::{WireCompletion, WireFailure};
    use codic_core::executor::OpFuture;
    use codic_core::ops::VariantId;
    use codic_core::pool::DevicePool;

    fn params(max_outstanding: u32) -> SessionParams {
        SessionParams {
            version: PROTOCOL_VERSION,
            shards: 2,
            module_mib: 64,
            max_outstanding,
            target_rows_per_s: 0,
            refresh: 0,
            compute_rows: 0,
            qos_weight: 1,
            tenants: 0,
            quota_ops: max_outstanding,
        }
    }

    fn zero_ops(rows: u64) -> Vec<CodicOp> {
        (0..rows)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect()
    }

    #[test]
    fn negotiation_applies_defaults_and_caps() {
        let config = ServerConfig::default();
        let effective = config.negotiate(&SessionParams::defaults());
        assert_eq!(effective.shards, 4);
        assert_eq!(effective.module_mib, 64);
        assert_eq!(effective.max_outstanding, 1024);
        assert_eq!(effective.target_rows_per_s, 0);
        assert_eq!(effective.refresh, 0);

        // A client can lower but not raise the outstanding cap, and the
        // rate target combines as a minimum.
        let server = ServerConfig {
            target_rows_per_s: 1_000,
            ..ServerConfig::default()
        };
        let aggressive = SessionParams {
            version: PROTOCOL_VERSION,
            shards: 200,
            module_mib: 100,
            max_outstanding: 1 << 30,
            target_rows_per_s: 5_000,
            refresh: 1,
            compute_rows: u32::MAX,
            qos_weight: 200,
            tenants: 0,
            quota_ops: 0,
        };
        let effective = server.negotiate(&aggressive);
        assert_eq!(effective.shards, 64, "shards are capped");
        assert_eq!(
            effective.module_mib, 128,
            "capacity rounds to a power of two"
        );
        assert_eq!(
            effective.max_outstanding, 1024,
            "cannot exceed the server cap"
        );
        assert_eq!(
            effective.target_rows_per_s, 1_000,
            "rate caps combine as min"
        );
        assert_eq!(effective.refresh, 1);
        assert_eq!(
            u64::from(effective.compute_rows),
            DramGeometry::module_mib(128).total_rows(),
            "compute region is clamped to the module"
        );

        // A server-side default region applies when the client defers.
        let server = ServerConfig {
            compute_rows: 64,
            ..ServerConfig::default()
        };
        let effective = server.negotiate(&SessionParams::defaults());
        assert_eq!(effective.compute_rows, 64);
    }

    #[test]
    fn engine_completions_match_the_direct_async_run_bit_for_bit() {
        let params = params(1024);
        let ops = zero_ops(300);
        let batches: Vec<&[CodicOp]> = ops.chunks(64).collect();

        // Served discipline.
        let mut engine = ReplayEngine::new(&params);
        let mut served = Vec::new();
        for batch in &batches {
            served.extend(engine.submit_batch(batch).unwrap());
        }
        served.extend(engine.flush());
        assert_eq!(served.len(), ops.len());

        // Direct run: same batches through bare submit_all_async_routed,
        // one drive at the end.
        let config = ServerConfig::device_config(&params);
        let mut pool = DevicePool::new(params.shards as usize, &config);
        let mut routed = Vec::new();
        for batch in &batches {
            routed.extend(pool.submit_all_async_routed(batch).unwrap());
        }
        pool.drive();
        let direct: Vec<_> = routed
            .iter_mut()
            .map(|(_, f)| f.try_take().expect("driven to idle"))
            .collect();

        for (i, c) in direct.iter().enumerate() {
            let served = served
                .iter()
                .find(|r| r.seq == i as u64)
                .expect("every op completes once");
            assert_eq!(served.completion.op, c.op);
            assert_eq!(served.completion.finish_cycle, c.finish_cycle, "op {i}");
            assert_eq!(
                served.completion.cost.energy_nj.to_bits(),
                c.cost.energy_nj.to_bits(),
                "op {i}"
            );
        }
    }

    /// Hands out `bytes` one per read, reporting `WouldBlock` before
    /// each; once they run out it reports EOF, or with `stall` set keeps
    /// reporting `WouldBlock` and raises `stall`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        starved: bool,
        stall: Option<&'a AtomicBool>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let would_block = io::Error::new(io::ErrorKind::WouldBlock, "later");
            match (self.bytes.split_first(), self.stall) {
                (None, Some(stall)) => {
                    stall.store(true, Ordering::Relaxed);
                    Err(would_block)
                }
                (None, None) => Ok(0),
                (Some(_), _) if !self.starved => {
                    self.starved = true;
                    Err(would_block)
                }
                (Some((&b, rest)), _) => {
                    self.starved = false;
                    buf[0] = b;
                    self.bytes = rest;
                    Ok(1)
                }
            }
        }
    }

    #[test]
    fn session_reader_reassembles_frames_across_would_block_reads() {
        let frames = [
            Frame::Hello(SessionParams::defaults()),
            Frame::Batch(vec![CodicOp::read(0x40), CodicOp::write(0x80)]),
            Frame::Bye,
        ];
        let wire = crc_input(&frames);
        let config = ServerConfig::default();
        let shutdown = AtomicBool::new(false);
        // A whole stream decodes frame by frame and ends in a clean EOF
        // at the boundary; cut one byte short, the last frame is lost to
        // an EOF error instead of surfacing half-read.
        for (cut, whole) in [(0, 3), (1, 2)] {
            let mut stream = Trickle {
                bytes: &wire[..wire.len() - cut],
                starved: false,
                stall: None,
            };
            let mut reader = SessionReader::new(&mut stream, &shutdown, &config);
            let mut decoded = Vec::new();
            let eof = loop {
                match reader.next_input() {
                    Ok(Input::Frame(frame)) => decoded.push(frame),
                    Ok(_) => panic!("neither stop condition can fire here"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(&eof, ProtoError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "{eof:?}"
            );
            assert_eq!(decoded, frames[..whole]);
            assert!(stream.bytes.is_empty(), "every byte was consumed");
        }
        // Oversized prefixes are rejected before the body buffer grows.
        let mut wire = (proto::MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        wire.push(0x03);
        let mut stream = wire.as_slice();
        let mut reader = SessionReader::new(&mut stream, &shutdown, &config);
        assert!(matches!(reader.next_input(), Err(ProtoError::Oversized(_))));
        assert_eq!(reader.body.capacity(), 0);
    }

    #[test]
    fn session_reader_stops_mid_frame_on_shutdown_then_idle() {
        let wire = crc_input(&[Frame::Bye, Frame::Flush]);
        // The stall raises the shutdown flag: shutdown wins over a
        // long idle deadline.
        let shutdown = AtomicBool::new(false);
        let mut stream = Trickle {
            bytes: &wire[..wire.len() - 3],
            starved: false,
            stall: Some(&shutdown),
        };
        let config = ServerConfig {
            session_idle_ms: 60_000,
            ..ServerConfig::default()
        };
        let mut reader = SessionReader::new(&mut stream, &shutdown, &config);
        assert!(matches!(reader.next_input(), Ok(Input::Frame(Frame::Bye))));
        assert!(matches!(reader.next_input(), Ok(Input::Shutdown)));
        // Nothing raises the flag: the idle deadline ends the wait for
        // a half-read frame.
        let quiet = AtomicBool::new(false);
        let mut stream = Trickle {
            bytes: &wire[..5],
            starved: false,
            stall: Some(&quiet),
        };
        let config = ServerConfig {
            session_idle_ms: 1,
            ..ServerConfig::default()
        };
        let shutdown = AtomicBool::new(false);
        let mut reader = SessionReader::new(&mut stream, &shutdown, &config);
        assert!(matches!(reader.next_input(), Ok(Input::Idle)));
    }

    #[test]
    fn drained_completions_arrive_in_completion_order() {
        let params = params(1024);
        let mut engine = ReplayEngine::new(&params);
        let mut all = Vec::new();
        for batch in zero_ops(500).chunks(128) {
            all.extend(engine.submit_batch(batch).unwrap());
        }
        all.extend(engine.flush());
        // Per shard, finish cycles never go backwards; within a drain,
        // ties break by sequence.
        for shard in 0..params.shards {
            let cycles: Vec<u64> = all
                .iter()
                .filter(|r| r.shard == shard)
                .map(|r| r.completion.finish_cycle)
                .collect();
            assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "shard {shard}");
            assert!(!cycles.is_empty());
        }
    }

    #[test]
    fn tiny_outstanding_bound_is_enforced_between_batches() {
        let tiny = params(8);
        let mut engine = ReplayEngine::new(&tiny);
        for batch in zero_ops(256).chunks(32) {
            engine.submit_batch(batch).unwrap();
            assert!(
                engine.outstanding() <= 8,
                "backpressure must hold the window at 8, got {}",
                engine.outstanding()
            );
        }
        let rest = engine.flush();
        assert!(engine.outstanding() == 0 && !rest.is_empty());
    }

    #[test]
    fn bind_reclaims_stale_sockets_but_never_hijacks_live_ones() {
        let path = std::env::temp_dir().join(format!("codic-bind-{}.sock", std::process::id()));
        // A live server on the path: a second bind must refuse.
        let live = ReplayServer::bind(&path, ServerConfig::default()).expect("first bind");
        let err = ReplayServer::bind(&path, ServerConfig::default())
            .expect_err("must not hijack a live endpoint");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        drop(live); // removes the socket file
                    // A stale socket file (dead listener, file left behind): reclaim.
        let dead = std::os::unix::net::UnixListener::bind(&path).expect("raw bind");
        drop(dead); // the raw listener does NOT unlink its file
        assert!(path.exists(), "stale socket file left behind");
        let reclaimed =
            ReplayServer::bind(&path, ServerConfig::default()).expect("stale socket is reclaimed");
        drop(reclaimed);
        assert!(!path.exists());
    }

    /// Each batch's drain (or rejection), then the flush's drain.
    type Drains = Vec<Result<Vec<ReplayCompletion>, CodicError>>;

    /// The private-pool serving discipline written out by hand on a
    /// bare `DevicePool`: routed submission, quota backpressure, a
    /// health check and a `(finish_cycle, seq)` drain at every 64-op
    /// batch boundary, then a flush.
    fn hand_written_run(
        params: &SessionParams,
        fault: Option<FaultPlan>,
        retry: RetryPolicy,
        health: HealthPolicy,
        ops: &[CodicOp],
    ) -> Drains {
        fn drain(pending: &mut Vec<(u64, u16, OpFuture)>) -> Vec<ReplayCompletion> {
            let mut ready = Vec::new();
            pending.retain_mut(|(seq, shard, future)| match future.try_take() {
                Some(completion) => {
                    ready.push(ReplayCompletion {
                        seq: *seq,
                        shard: *shard,
                        completion,
                    });
                    false
                }
                None => true,
            });
            ready.sort_by_key(|r| (r.completion.finish_cycle, r.seq));
            ready
        }
        let mut device = ServerConfig::device_config(params).with_retry(retry);
        if let Some(plan) = fault {
            device = device.with_faults(plan);
        }
        let mut pool = DevicePool::new(params.shards as usize, &device);
        pool.set_health_policy(health);
        let (mut pending, mut next_seq, mut out) = (Vec::new(), 0, Vec::new());
        for batch in ops.chunks(64) {
            let routed = match pool.submit_all_async_routed(batch) {
                Ok(routed) => routed,
                Err(e) => {
                    out.push(Err(e));
                    continue;
                }
            };
            for (shard, future) in routed {
                pending.push((next_seq, shard as u16, future));
                next_seq += 1;
            }
            while pool.outstanding() > params.max_outstanding as usize && pool.step() {}
            pool.check_health();
            out.push(Ok(drain(&mut pending)));
        }
        pool.drive();
        pool.check_health();
        out.push(Ok(drain(&mut pending)));
        out
    }

    #[test]
    fn faulted_engine_matches_the_hand_written_pool_discipline() {
        let params = params(64);
        let fault = Some(FaultPlan::new(11).with_misfires(16_384));
        let retry = RetryPolicy::attempts(2);
        let health = HealthPolicy {
            max_failed_per_64k: 2048,
            min_ops: 32,
        };
        let ops = zero_ops(400);
        let reference = hand_written_run(&params, fault, retry, health, &ops);
        // Each setting shapes the stream, so an engine that dropped any
        // one of them on the way into its fleet could not match.
        let dropped = [
            (
                "fault plan",
                hand_written_run(&params, None, retry, health, &ops),
            ),
            (
                "retry policy",
                hand_written_run(&params, fault, RetryPolicy::default(), health, &ops),
            ),
            (
                "health policy",
                hand_written_run(&params, fault, retry, HealthPolicy::default(), &ops),
            ),
        ];
        for (setting, stream) in dropped {
            assert_ne!(stream, reference, "the {setting} must matter");
        }
        let config = ServerConfig {
            fault,
            retry,
            health,
            ..ServerConfig::default()
        };
        let mut engine = ReplayEngine::for_fleet(&params, &config.fleet(&params, 1)).unwrap();
        let mut served: Drains = ops.chunks(64).map(|b| engine.submit_batch(b)).collect();
        served.push(Ok(engine.flush()));
        assert_eq!(served, reference);
    }

    /// Serves one connection from the bytes `input` into `output`, the
    /// way a [`ReplayServer`] session thread does: against `registry`,
    /// watching `shutdown`, on `fleet` when there is one.
    fn serve_in_memory(
        mut input: &[u8],
        output: &mut impl Write,
        config: &ServerConfig,
        shutdown: &AtomicBool,
        registry: &SessionRegistry,
        fleet: Option<&FleetHandle>,
    ) -> io::Result<SessionEnd> {
        let mut reader = SessionReader::new(&mut input, shutdown, config);
        serve_connection(&mut reader, output, config, registry, fleet)
    }

    /// The frames of a 300-op session: Hello, 64-op batches, Bye.
    fn zero_session(hello: SessionParams) -> Vec<Frame> {
        let mut frames = vec![Frame::Hello(hello)];
        for batch in zero_ops(300).chunks(64) {
            frames.push(Frame::Batch(batch.to_vec()));
        }
        frames.push(Frame::Bye);
        frames
    }

    #[test]
    fn sessions_stream_every_event_after_a_v5_ack_with_a_token() {
        let session = zero_session(SessionParams::defaults());
        let (end, served) = run_crc_session(&session, &ServerConfig::default(), None);
        assert!(matches!(end, SessionEnd::Bye), "{end:?}");
        assert_eq!(event_units(&served).len(), 300);
        // The ack carries the one protocol version and a resume token.
        assert!(matches!(
            served[0],
            Frame::HelloAck { params: p, token } if p.version == PROTOCOL_VERSION && token != 0
        ));
    }

    /// Serves a connection whose first frame is `hello` and asserts it
    /// is refused with `code`: exactly one CRC-framed `Error`, no ack.
    fn assert_hello_refused(input: &[u8], code: ErrorCode) -> SessionEnd {
        let mut output = Vec::new();
        let end = serve_session(&mut &input[..], &mut output, &ServerConfig::default()).unwrap();
        let replies = crc_frames(&output);
        assert!(
            matches!(&replies[..], [Frame::Error { code: c, .. }] if *c == code),
            "expected one {code:?} error, got {replies:?}"
        );
        end
    }

    #[test]
    fn out_of_range_versions_are_rejected() {
        for version in [0u16, 1, 6, u16::MAX] {
            let hello = SessionParams {
                version,
                ..SessionParams::defaults()
            };
            let end = assert_hello_refused(&crc_input(&[Frame::Hello(hello)]), ErrorCode::Version);
            assert!(
                matches!(end, SessionEnd::Rejected(_)),
                "v{version}: {end:?}"
            );
        }
    }

    #[test]
    fn pre_v5_hellos_get_a_version_error_and_no_ack() {
        for version in [2u16, 3, 4] {
            let hello = SessionParams {
                version,
                ..SessionParams::defaults()
            };
            let end = assert_hello_refused(&crc_input(&zero_session(hello)), ErrorCode::Version);
            assert!(
                matches!(end, SessionEnd::Rejected(_)),
                "v{version}: {end:?}"
            );
        }
    }

    #[test]
    fn bare_framed_hellos_get_a_typed_malformed_error() {
        // A v3-era handshake: length prefix and body, no CRC trailer.
        for version in [3u16, PROTOCOL_VERSION] {
            let mut body = Vec::new();
            proto::encode_body(
                &Frame::Hello(SessionParams {
                    version,
                    ..SessionParams::defaults()
                }),
                &mut body,
            );
            let mut input = (body.len() as u32).to_le_bytes().to_vec();
            input.extend_from_slice(&body);
            let end = assert_hello_refused(&input, ErrorCode::Malformed);
            assert!(
                matches!(end, SessionEnd::Protocol(ProtoError::Crc { .. })),
                "v{version}: {end:?}"
            );
        }
    }

    /// Encodes `frames` exactly as a client sends them: CRC-trailed.
    fn crc_input(frames: &[Frame]) -> Vec<u8> {
        let mut input = Vec::new();
        for frame in frames {
            proto::write_frame_crc(&mut input, frame).unwrap();
        }
        input
    }

    /// Decodes every CRC-framed reply in `output`.
    fn crc_frames(mut output: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !output.is_empty() {
            frames.push(proto::read_frame_crc(&mut output).unwrap());
        }
        frames
    }

    /// Flattens a reply stream into its event units, delivery order.
    fn event_units(frames: &[Frame]) -> Vec<proto::SessionEvent> {
        let mut units = Vec::new();
        for frame in frames {
            if let Frame::Events(events) = frame {
                units.extend(events.iter().copied());
            }
        }
        units
    }

    /// The stream's final `Summary`, which every complete session sends.
    fn summary_of(frames: &[Frame]) -> Summary {
        frames
            .iter()
            .find_map(|f| match f {
                Frame::Summary(s) => Some(*s),
                _ => None,
            })
            .expect("stream carries a Summary")
    }

    #[test]
    fn v4_cut_sessions_park_and_resume_into_a_bit_identical_stream() {
        let config = ServerConfig::default();
        let ops = zero_ops(300);
        let shutdown = AtomicBool::new(false);

        // The uninterrupted reference: one connection, all batches.
        let mut clean_session = vec![Frame::Hello(SessionParams::defaults())];
        for chunk in ops.chunks(64) {
            clean_session.push(Frame::Batch(chunk.to_vec()));
        }
        clean_session.push(Frame::Bye);
        let input = crc_input(&clean_session);
        let mut output = Vec::new();
        let registry = SessionRegistry::default();
        let end =
            serve_in_memory(&input, &mut output, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Bye), "clean run: {end:?}");
        let clean = crc_frames(&output);
        let clean_units = event_units(&clean);
        let clean_summary = summary_of(&clean);
        assert_eq!(clean_units.len(), 300);

        // The interrupted run: three whole batches arrive, then the
        // stream dies mid-way through the fourth batch's frame.
        let registry = SessionRegistry::default();
        let mut first = vec![Frame::Hello(SessionParams::defaults())];
        for chunk in ops.chunks(64).take(3) {
            first.push(Frame::Batch(chunk.to_vec()));
        }
        let mut input = crc_input(&first);
        let cut_frame = crc_input(&[Frame::Batch(ops[192..256].to_vec())]);
        input.extend_from_slice(&cut_frame[..cut_frame.len() / 2]);
        let mut output1 = Vec::new();
        let end =
            serve_in_memory(&input, &mut output1, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Suspended), "cut parks: {end:?}");
        assert_eq!(registry.parked_sessions(), 1);
        let conn1 = crc_frames(&output1);
        let token = match conn1[0] {
            Frame::HelloAck { token, .. } => token,
            ref other => panic!("expected HelloAck, got {other:?}"),
        };
        assert_ne!(token, 0, "every session gets a resume token");
        let delivered = event_units(&conn1);
        // Pretend the cut also ate the tail of what the server sent:
        // the client resumes from what it actually absorbed.
        let absorbed = delivered.len().saturating_sub(3);

        // The resumed connection: Resume, the remaining batches, Bye.
        let mut second = vec![Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token,
            events_received: absorbed as u64,
        })];
        for chunk in ops[192..].chunks(64) {
            second.push(Frame::Batch(chunk.to_vec()));
        }
        second.push(Frame::Bye);
        let input = crc_input(&second);
        let mut output2 = Vec::new();
        let end =
            serve_in_memory(&input, &mut output2, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Bye), "resumed run: {end:?}");
        let conn2 = crc_frames(&output2);
        let ack = match &conn2[0] {
            Frame::ResumeAck(ack) => *ack,
            other => panic!("expected ResumeAck, got {other:?}"),
        };
        assert_eq!(ack.token, token);
        assert_eq!(
            ack.next_seq, 192,
            "batches are accepted whole, so the resume point is batch-aligned"
        );
        assert_eq!(ack.replay_events, (delivered.len() - absorbed) as u64);
        assert_eq!(ack.finished, 0);

        // The client-visible stream — what connection 1 delivered
        // (minus the lost tail) plus everything connection 2 sent — is
        // the clean run's stream, unit for unit, and the Summary (the
        // server-side checksum included) is bit-identical.
        let mut combined = delivered[..absorbed].to_vec();
        combined.extend(event_units(&conn2));
        assert_eq!(combined, clean_units, "resume is invisible in the stream");
        let resumed_summary = summary_of(&conn2);
        assert_eq!(resumed_summary, clean_summary);
        assert_eq!(resumed_summary.checksum, clean_summary.checksum);

        // The clean Bye parked a finished tombstone for lost-Summary
        // recovery; the reaper bounds its lifetime.
        assert_eq!(registry.parked_sessions(), 1);
    }

    #[test]
    fn finished_v4_sessions_leave_a_tombstone_that_redelivers_the_summary() {
        let config = ServerConfig::default();
        let ops = zero_ops(64);
        let shutdown = AtomicBool::new(false);
        let registry = SessionRegistry::default();
        let session = vec![
            Frame::Hello(SessionParams::defaults()),
            Frame::Batch(ops.clone()),
            Frame::Bye,
        ];
        let input = crc_input(&session);
        let mut output = Vec::new();
        serve_in_memory(&input, &mut output, &config, &shutdown, &registry, None).unwrap();
        let clean = crc_frames(&output);
        let token = match clean[0] {
            Frame::HelloAck { token, .. } => token,
            ref other => panic!("expected HelloAck, got {other:?}"),
        };
        let summary = summary_of(&clean);
        let total = event_units(&clean).len() as u64;
        assert_eq!(registry.parked_sessions(), 1, "Bye parks a tombstone");

        // The client never saw that Summary: its resume re-delivers it
        // (and nothing else — every event was already absorbed).
        let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token,
            events_received: total,
        })]);
        let mut output = Vec::new();
        let end =
            serve_in_memory(&input, &mut output, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Bye), "redelivery: {end:?}");
        let redelivered = crc_frames(&output);
        match &redelivered[0] {
            Frame::ResumeAck(ack) => {
                assert_eq!(ack.finished, 1);
                assert_eq!(ack.replay_events, 0);
            }
            other => panic!("expected ResumeAck, got {other:?}"),
        }
        assert!(event_units(&redelivered).is_empty());
        assert_eq!(summary_of(&redelivered), summary);
        // The tombstone is re-parked in case this Summary is lost too.
        assert_eq!(registry.parked_sessions(), 1);
        assert_eq!(registry.reap_idle(Duration::ZERO), 1, "the reaper frees it");
        assert_eq!(registry.parked_sessions(), 0);
    }

    /// A stream that keeps `left` bytes, then fails every write.
    struct CutAfter {
        bytes: Vec<u8>,
        left: usize,
    }

    impl Write for CutAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "cut"));
            }
            let n = buf.len().min(self.left);
            self.bytes.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_cut_mid_emission_loses_no_events() {
        const OPS: u64 = 120_000;
        let config = ServerConfig::default();
        let shutdown = AtomicBool::new(false);
        let registry = SessionRegistry::default();
        // One batch cycling the 64 MiB module's 8192 rows, whose events
        // (~4.9 MB) outgrow one 4 MiB frame; the wire dies after 2 MiB.
        let ops: Vec<CodicOp> = (0..OPS)
            .map(|i| CodicOp::command(VariantId::DetZero, (i % 8192) * DramGeometry::ROW_BYTES))
            .collect();
        let input = crc_input(&[Frame::Hello(SessionParams::defaults()), Frame::Batch(ops)]);
        let mut cut = CutAfter {
            bytes: Vec::new(),
            left: 2 << 20,
        };
        let end = serve_in_memory(&input, &mut cut, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Suspended), "cut parks: {end:?}");
        assert_eq!(registry.parked_sessions(), 1);
        let token = match proto::read_frame_crc(&mut cut.bytes.as_slice()).unwrap() {
            Frame::HelloAck { token, .. } => token,
            other => panic!("expected HelloAck, got {other:?}"),
        };

        let input = crc_input(&[
            Frame::Resume(proto::ResumeRequest {
                version: PROTOCOL_VERSION,
                token,
                events_received: 0,
            }),
            Frame::Bye,
        ]);
        let mut output = Vec::new();
        let end =
            serve_in_memory(&input, &mut output, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Bye), "resumed run: {end:?}");
        let frames = crc_frames(&output);
        match &frames[0] {
            Frame::ResumeAck(ack) => assert_eq!(ack.next_seq, OPS),
            other => panic!("expected ResumeAck, got {other:?}"),
        }
        let mut seen = vec![false; OPS as usize];
        for unit in event_units(&frames) {
            let seq = match unit {
                proto::SessionEvent::Completion(c) => c.seq,
                proto::SessionEvent::Failure(x) => x.seq,
            };
            assert!(!seen[seq as usize], "seq {seq} arrived twice");
            seen[seq as usize] = true;
        }
        let arrived = seen.iter().filter(|&&s| s).count();
        assert_eq!(arrived, OPS as usize, "every seq arrives exactly once");
        assert_eq!(summary_of(&frames).ops, OPS);
    }

    #[test]
    fn repeated_write_cuts_hold_the_journal_to_the_cap_plus_one_emission() {
        // Every connection resumes at the window top, then dies on its
        // batch's `Events` write: each emission is journaled unsent.
        const CAP: usize = 256;
        let config = ServerConfig {
            journal_max_bytes: CAP,
            ..ServerConfig::default()
        };
        let shutdown = AtomicBool::new(false);
        let registry = SessionRegistry::default();
        let ops = zero_ops(256);
        let hello = SessionParams {
            max_outstanding: 8,
            ..SessionParams::defaults()
        };
        let mut cut = CutAfter {
            bytes: Vec::new(),
            left: crc_input(&[Frame::HelloAck {
                params: config.negotiate(&hello),
                token: 1,
            }])
            .len(),
        };
        let input = crc_input(&[Frame::Hello(hello), Frame::Batch(ops[..64].to_vec())]);
        serve_in_memory(&input, &mut cut, &config, &shutdown, &registry, None).unwrap();
        let token = match proto::read_frame_crc(&mut cut.bytes.as_slice()).unwrap() {
            Frame::HelloAck { token, .. } => token,
            other => panic!("expected HelloAck, got {other:?}"),
        };
        // The parked journal as `(units ever emitted, retained bytes)`.
        let parked_journal = |registry: &SessionRegistry| {
            let parked = registry.lock();
            let journal = &parked[&token].session.tally.journal;
            (journal.window().1, journal.retained_bytes())
        };
        for batch in ops[64..].chunks(64) {
            let (total, _) = parked_journal(&registry);
            let resume = Frame::Resume(proto::ResumeRequest {
                version: PROTOCOL_VERSION,
                token,
                events_received: total,
            });
            let input = crc_input(&[resume, Frame::Batch(batch.to_vec())]);
            let ack = crc_input(&[Frame::ResumeAck(ResumeAck {
                params: config.negotiate(&hello),
                token,
                next_seq: 0,
                replay_events: 0,
                finished: 0,
            })]);
            let mut cut = CutAfter {
                bytes: Vec::new(),
                left: ack.len(),
            };
            let end =
                serve_in_memory(&input, &mut cut, &config, &shutdown, &registry, None).unwrap();
            assert!(matches!(end, SessionEnd::Suspended), "cut parks: {end:?}");
            let (after, bytes) = parked_journal(&registry);
            let emission = (after - total) as usize * 41;
            assert!(emission > CAP, "the batch emitted {} units", after - total);
            assert!(
                bytes <= CAP + emission,
                "journal holds {bytes} B, cap {CAP} + emission {emission} B"
            );
        }
    }

    /// Parks one cut session and returns `(registry, token, events
    /// delivered before the cut)`.
    fn park_cut_session(config: &ServerConfig) -> (SessionRegistry, u64, u64) {
        let ops = zero_ops(128);
        let shutdown = AtomicBool::new(false);
        let registry = SessionRegistry::default();
        let mut input = crc_input(&[
            Frame::Hello(SessionParams::defaults()),
            Frame::Batch(ops[..64].to_vec()),
            Frame::Flush,
        ]);
        input.extend_from_slice(&crc_input(&[Frame::Batch(ops[64..].to_vec())])[..20]);
        let mut output = Vec::new();
        let end = serve_in_memory(&input, &mut output, config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Suspended), "cut parks: {end:?}");
        let conn = crc_frames(&output);
        let token = match conn[0] {
            Frame::HelloAck { token, .. } => token,
            ref other => panic!("expected HelloAck, got {other:?}"),
        };
        (registry, token, event_units(&conn).len() as u64)
    }

    #[test]
    fn resume_points_outside_the_journal_window_are_honestly_rejected() {
        let config = ServerConfig::default();
        let (registry, token, _) = park_cut_session(&config);

        // A resume point past everything ever emitted (the u64::MAX
        // probe): pure-arithmetic rejection, no allocation, and the
        // unrecoverable session's journal memory is freed.
        let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token,
            events_received: u64::MAX,
        })]);
        let mut output = Vec::new();
        let end = serve_in_memory(
            &input,
            &mut output,
            &config,
            &AtomicBool::new(false),
            &registry,
            None,
        )
        .unwrap();
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        match &crc_frames(&output)[0] {
            Frame::Error { code, detail } => {
                assert_eq!(*code, ErrorCode::Unavailable);
                assert!(detail.contains("journal window"), "detail: {detail}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(registry.parked_sessions(), 0, "the dead session is dropped");
    }

    #[test]
    fn resume_behind_an_evicted_journal_window_is_honestly_rejected() {
        // A journal cap small enough that the 64 delivered events (≈41
        // bytes each) slide the window base well past zero: a client
        // claiming to have absorbed nothing can never be made whole.
        let tiny = ServerConfig {
            journal_max_bytes: 256,
            ..ServerConfig::default()
        };
        let (registry, token, delivered) = park_cut_session(&tiny);
        assert!(delivered > 8, "the cut run delivered {delivered} events");
        let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token,
            events_received: 0,
        })]);
        let mut output = Vec::new();
        let end = serve_in_memory(
            &input,
            &mut output,
            &tiny,
            &AtomicBool::new(false),
            &registry,
            None,
        )
        .unwrap();
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        match &crc_frames(&output)[0] {
            Frame::Error { code, .. } => assert_eq!(*code, ErrorCode::Unavailable),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(registry.parked_sessions(), 0);
    }

    #[test]
    fn unknown_tokens_and_pre_v4_resumes_are_rejected() {
        let quick = ServerConfig {
            read_timeout_ms: 1,
            ..ServerConfig::default()
        };
        let registry = SessionRegistry::default();
        let shutdown = AtomicBool::new(false);

        // A pre-v4 resume is a version error before any token lookup.
        let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: 3,
            token: 7,
            events_received: 0,
        })]);
        let mut output = Vec::new();
        let end = serve_in_memory(&input, &mut output, &quick, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        match &crc_frames(&output)[0] {
            Frame::Error { code, .. } => assert_eq!(*code, ErrorCode::Version),
            other => panic!("expected Error, got {other:?}"),
        }

        // An unknown token waits out the park/reconnect grace window,
        // then is refused without inventing a session.
        let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token: 0xdead_beef,
            events_received: 0,
        })]);
        let mut output = Vec::new();
        let end = serve_in_memory(&input, &mut output, &quick, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        match &crc_frames(&output)[0] {
            Frame::Error { code, detail } => {
                assert_eq!(*code, ErrorCode::Unavailable);
                assert!(detail.contains("token"), "detail: {detail}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn resumes_at_any_version_but_5_are_refused() {
        let config = ServerConfig::default();
        let (registry, token, delivered) = park_cut_session(&config);
        let resume = |version: u16| {
            let input = crc_input(&[Frame::Resume(proto::ResumeRequest {
                version,
                token,
                events_received: delivered,
            })]);
            let mut output = Vec::new();
            let end = serve_in_memory(
                &input,
                &mut output,
                &config,
                &AtomicBool::new(false),
                &registry,
                None,
            )
            .unwrap();
            (end, crc_frames(&output))
        };
        for version in [0u16, 2, 3, 4, 6, u16::MAX] {
            let (end, replies) = resume(version);
            assert!(
                matches!(end, SessionEnd::Rejected(_)),
                "v{version}: {end:?}"
            );
            assert!(
                matches!(
                    &replies[..],
                    [Frame::Error {
                        code: ErrorCode::Version,
                        ..
                    }]
                ),
                "v{version}: {replies:?}"
            );
            // Refused before the token lookup: the session stays parked.
            assert_eq!(registry.parked_sessions(), 1, "v{version}");
        }
        let (_, replies) = resume(PROTOCOL_VERSION);
        assert!(matches!(replies[0], Frame::ResumeAck(_)), "{replies:?}");
    }

    /// The journal's tail from `from` as one `(units, lens)` pair.
    fn journal_tail(journal: &EventJournal, from: u64) -> (Vec<u8>, Vec<u8>) {
        let (mut units, mut lens) = (Vec::new(), Vec::new());
        for (run, run_lens) in journal.tail(from) {
            units.extend_from_slice(run);
            lens.extend_from_slice(run_lens);
        }
        (units, lens)
    }

    #[test]
    fn event_journal_evicts_oldest_whole_events_and_keeps_the_newest() {
        // Cap of 30 bytes at 11 bytes per event (10 payload + 1 kind):
        // two events fit; the third always evicts the oldest.
        let mut journal = EventJournal::new(30);
        assert_eq!(journal.window(), (0, 0));
        for i in 0..5u8 {
            journal.push(i % 2, |buf| buf.extend_from_slice(&[i; 10]));
            journal.seal();
            journal.trim();
        }
        assert_eq!(journal.window(), (3, 5), "three oldest evicted");
        assert_eq!(journal.retained_bytes(), 22);
        let mut tail = vec![1];
        tail.extend_from_slice(&[3; 10]);
        tail.push(0);
        tail.extend_from_slice(&[4; 10]);
        // `from` is clamped to the base.
        assert_eq!(journal_tail(&journal, 0), (tail, vec![11u8, 11]));
        assert_eq!(journal_tail(&journal, 4).1.len(), 1, "mid-window tail");
        assert!(
            journal_tail(&journal, 5).0.is_empty(),
            "nothing past the total"
        );

        // One event larger than the whole cap is still retained: a
        // journal that cannot hold one event could never replay.
        let mut journal = EventJournal::new(4);
        journal.push(0, |buf| buf.extend_from_slice(&[7; 64]));
        journal.seal();
        journal.trim();
        assert_eq!(journal.window(), (0, 1));
        journal.push(1, |buf| buf.extend_from_slice(&[8; 64]));
        journal.seal();
        journal.trim();
        assert_eq!(journal.window(), (1, 2), "the newest always survives");
    }

    #[test]
    fn event_journal_evicts_units_within_and_across_emissions() {
        // Emissions of three and two 11-byte units under a 30-byte cap.
        let mut journal = EventJournal::new(30);
        let unit = |i: u8| {
            let mut bytes = vec![0];
            bytes.extend_from_slice(&[i; 10]);
            bytes
        };
        for i in 0..3 {
            journal.push(0, |buf| buf.extend_from_slice(&[i; 10]));
        }
        assert_eq!(
            journal.window(),
            (0, 0),
            "unsealed units are not replayable"
        );
        journal.seal();
        journal.trim();
        assert_eq!(
            journal.window(),
            (1, 3),
            "one unit of the first emission evicted"
        );
        assert_eq!(journal.retained_bytes(), 22);
        assert_eq!(
            journal_tail(&journal, 0),
            ([unit(1), unit(2)].concat(), vec![11, 11])
        );
        for i in 3..5 {
            journal.push(0, |buf| buf.extend_from_slice(&[i; 10]));
        }
        journal.seal();
        journal.trim();
        assert_eq!(journal.window(), (3, 5));
        assert_eq!(journal.emissions.len(), 1, "the emptied emission is freed");
        assert_eq!(journal.retained_bytes(), 22);
        assert_eq!(journal_tail(&journal, 4), (unit(4), vec![11]));
        // An empty emission keeps nothing.
        assert_eq!(journal.seal(), (&[][..], &[][..]));
        assert_eq!(journal.emissions.len(), 1);
    }

    #[test]
    fn event_journal_push_returns_exactly_the_hashed_payload() {
        let completion = WireCompletion {
            seq: 0,
            shard: 1,
            op: CodicOp::RowFill {
                row_addr: 0x2_2000,
                pattern: 0xA5A5_A5A5_A5A5_A5A5,
            },
            finish_cycle: 190,
            busy_cycles: 61,
            activations: 4,
            energy_nj: 27.75,
            fingerprint: 0x0123_4567_89ab_cdef,
        };
        let failure = WireFailure {
            seq: 1,
            shard: 0,
            op: CodicOp::command(VariantId::DetZero, 0x8000),
            at_cycle: 200,
            cause: codic_core::fault::FaultCause::Misfire,
            attempts: 2,
        };
        let mut journal = EventJournal::new(1 << 20);
        let mut hashed = Fnv64::new();
        let mut reference = Fnv64::new();
        // The returned slice is exactly the unit's payload, so the
        // session checksum folds the same bytes the client decodes.
        let mut standalone = Vec::new();
        proto::completion_payload(&completion, &mut standalone);
        let slice = journal.push(proto::EVENT_COMPLETION, |buf| {
            proto::completion_payload(&completion, buf);
        });
        assert_eq!(slice, standalone.as_slice());
        hashed.update(slice);
        reference.update(&standalone);
        let mut standalone = Vec::new();
        proto::failure_payload(&failure, &mut standalone);
        let slice = journal.push(proto::EVENT_FAILURE, |buf| {
            proto::failure_payload(&failure, buf);
        });
        assert_eq!(slice, standalone.as_slice());
        hashed.update(slice);
        reference.update(&standalone);
        assert_eq!(hashed.value(), reference.value());
        journal.seal();
        assert_eq!(journal.window(), (0, 2));
    }

    /// The unit bytes of each raw `Events` frame in `wire`, other
    /// frames skipped.
    fn raw_event_units(mut wire: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        while !wire.is_empty() {
            let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
            // Length prefix, tag and count before the units; the CRC
            // trailer after them.
            if proto::events_payload(&wire[4..]).is_some() {
                frames.push(&wire[9..4 + len - 4]);
            }
            wire = &wire[4 + len..];
        }
        frames
    }

    #[test]
    fn journal_replay_resends_first_emission_bytes_in_small_frames() {
        let mut engine = ReplayEngine::new(&params(1024));
        let mut completions = engine.submit_batch(&zero_ops(1000)).unwrap();
        completions.extend(engine.flush());
        assert_eq!(completions.len(), 1000);
        let mut tally = SessionTally::new(ServerConfig::default().journal_max_bytes);
        let mut live = Vec::new();
        tally.emit(&mut live, &completions, Frame::Summary).unwrap();
        let mut replay = Vec::new();
        tally.replay_journal(&mut replay, 0).unwrap();

        let live = raw_event_units(&live);
        assert_eq!(live.len(), 1, "one emission, one live frame");
        let replayed = raw_event_units(&replay);
        assert!(replayed.len() > 1, "the replay splits into small frames");
        for frame in &replayed {
            assert!(frame.len() <= 8 << 10, "replay frame of {} B", frame.len());
        }
        assert_eq!(
            replayed.concat(),
            live[0],
            "the replay resends the same bytes"
        );
    }

    #[test]
    fn session_registry_mints_unique_nonzero_tokens() {
        let registry = SessionRegistry::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            let token = registry.mint_token();
            assert_ne!(token, 0, "tokens are never 0");
            assert!(seen.insert(token), "token minted twice");
        }
    }

    #[test]
    fn registries_mint_different_first_tokens() {
        let (a, b) = (SessionRegistry::default(), SessionRegistry::default());
        assert_ne!(a.mint_token(), b.mint_token());
    }

    #[test]
    fn a_guessed_token_cannot_resume_another_clients_session() {
        // The first token of a registry that whitened its counter with
        // splitmix64: every such server minted it first.
        let guessed = crate::chaos::mix64(0xc0d1_c0de_5e55_1040);
        assert_eq!(guessed, 0x9f07_491c_ad7c_067c);
        let config = ServerConfig::default();
        let shutdown = AtomicBool::new(false);
        let registry = SessionRegistry::default();

        // The victim: Hello and one batch, then its connection is cut.
        let victim = crc_input(&[
            Frame::Hello(SessionParams::defaults()),
            Frame::Batch(zero_ops(256)),
        ]);
        let mut output = Vec::new();
        let end =
            serve_in_memory(&victim, &mut output, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Suspended), "cut parks: {end:?}");
        assert_eq!(registry.parked_sessions(), 1);

        // The attacker resumes with the guessed token and is refused;
        // the victim's session stays parked for its own resume.
        let attack = crc_input(&[Frame::Resume(proto::ResumeRequest {
            version: PROTOCOL_VERSION,
            token: guessed,
            events_received: 0,
        })]);
        let mut output = Vec::new();
        let end =
            serve_in_memory(&attack, &mut output, &config, &shutdown, &registry, None).unwrap();
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        assert!(
            matches!(
                &crc_frames(&output)[..],
                [Frame::Error {
                    code: ErrorCode::Unavailable,
                    ..
                }]
            ),
            "the guess gets one Unavailable error and no ack"
        );
        assert_eq!(registry.parked_sessions(), 1);
    }

    #[test]
    fn session_registry_parks_claims_and_reaps() {
        let config = ServerConfig::default();
        let registry = SessionRegistry::default();
        let token = registry.mint_token();
        registry.park(SessionState::new(params(16), token, &config), None);
        assert_eq!(registry.parked_sessions(), 1);

        // A wrong token times out its grace window empty-handed without
        // disturbing the parked session.
        assert!(registry
            .claim(token ^ 1, Duration::from_millis(10))
            .is_none());
        assert_eq!(registry.parked_sessions(), 1);

        // The right token claims exactly its session.
        let (claimed, engine) = registry.claim(token, Duration::from_millis(10)).unwrap();
        assert_eq!(claimed.token, token);
        assert_eq!(registry.parked_sessions(), 0);

        // Reaping honors the idle deadline: a fresh park survives a
        // generous deadline and falls to an expired one.
        registry.park(claimed, engine);
        assert_eq!(registry.reap_idle(Duration::from_secs(3600)), 0);
        assert_eq!(registry.parked_sessions(), 1);
        assert_eq!(registry.reap_idle(Duration::ZERO), 1);
        assert_eq!(registry.parked_sessions(), 0);
    }

    /// A fleet built exactly the way [`ReplayServer::build`] builds one
    /// from this config.
    fn test_fleet(config: &ServerConfig, slots: usize) -> FleetHandle {
        config.fleet(&config.negotiate(&SessionParams::defaults()), slots)
    }

    /// Serves one CRC-framed session (fleet or private) in memory and
    /// returns the reply frames.
    fn run_crc_session(
        frames: &[Frame],
        config: &ServerConfig,
        fleet: Option<&FleetHandle>,
    ) -> (SessionEnd, Vec<Frame>) {
        let input = crc_input(frames);
        let mut output = Vec::new();
        let registry = SessionRegistry::default();
        let shutdown = AtomicBool::new(false);
        let end =
            serve_in_memory(&input, &mut output, config, &shutdown, &registry, fleet).unwrap();
        (end, crc_frames(&output))
    }

    #[test]
    fn fleet_sessions_match_private_pool_sessions_bit_for_bit() {
        let config = ServerConfig::default();
        let fleet = test_fleet(&config, 2);
        let ops = zero_ops(300);
        // The fleet client asks for its own substrate; the fleet ignores
        // the request (the pool's shape is fleet-wide).
        let mut fleet_session = vec![Frame::Hello(SessionParams {
            shards: 16,
            module_mib: 512,
            ..SessionParams::defaults()
        })];
        let mut private_session = vec![Frame::Hello(SessionParams::defaults())];
        for chunk in ops.chunks(64) {
            fleet_session.push(Frame::Batch(chunk.to_vec()));
            private_session.push(Frame::Batch(chunk.to_vec()));
        }
        fleet_session.push(Frame::Bye);
        private_session.push(Frame::Bye);

        let (end, private) = run_crc_session(&private_session, &config, None);
        assert!(matches!(end, SessionEnd::Bye), "private: {end:?}");

        for round in 0..2 {
            let input = crc_input(&fleet_session);
            let mut output = Vec::new();
            let registry = SessionRegistry::default();
            let end = serve_in_memory(
                &input,
                &mut output,
                &config,
                &AtomicBool::new(false),
                &registry,
                Some(&fleet),
            )
            .unwrap();
            assert!(matches!(end, SessionEnd::Bye), "round {round}: {end:?}");
            let served = crc_frames(&output);
            match served[0] {
                Frame::HelloAck { params: p, .. } => {
                    assert_eq!(p.tenants, 2, "the ack reports the fleet's slot count");
                    assert_eq!(
                        p.shards, config.shards as u16,
                        "substrate requests are fleet-wide, not per client"
                    );
                    assert_eq!(p.module_mib, 64);
                }
                ref other => panic!("expected HelloAck, got {other:?}"),
            }
            // The tenant's demultiplexed stream is the private pool's
            // stream, unit for unit, checksum included — and a recycled
            // slot (round 1) starts just as fresh.
            assert_eq!(event_units(&served), event_units(&private), "round {round}");
            assert_eq!(summary_of(&served), summary_of(&private), "round {round}");
            // The Bye gave the slot back and parked a resume tombstone
            // that holds no slot; the reaper frees only its journal.
            assert_eq!(fleet.free_slots(), 2, "the finished session's slot is free");
            assert_eq!(registry.reap_idle(Duration::ZERO), 1);
            assert_eq!(fleet.free_slots(), 2);
        }
    }

    #[test]
    fn oversized_v5_resource_claims_are_rejected_before_allocation() {
        let config = ServerConfig::default();
        let fleet = test_fleet(&config, 1);
        let claims = [
            SessionParams {
                tenants: MAX_TENANT_CLAIM + 1,
                ..SessionParams::defaults()
            },
            SessionParams {
                quota_ops: MAX_QUOTA_CLAIM + 1,
                ..SessionParams::defaults()
            },
        ];
        for hello in claims {
            for fleet in [Some(&fleet), None] {
                let (end, served) = run_crc_session(&[Frame::Hello(hello)], &config, fleet);
                assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
                match &served[0] {
                    Frame::Error { code, detail } => {
                        assert_eq!(*code, ErrorCode::Policy);
                        assert!(detail.contains("claim out of range"), "detail: {detail}");
                    }
                    other => panic!("expected Error, got {other:?}"),
                }
            }
            assert_eq!(fleet.free_slots(), 1, "nothing was allocated");
        }
        // The caps themselves are serveable (the claim is a bound, not
        // a quirk of the rejection path).
        let at_cap = SessionParams {
            tenants: MAX_TENANT_CLAIM,
            quota_ops: MAX_QUOTA_CLAIM,
            ..SessionParams::defaults()
        };
        let (end, _) = run_crc_session(&[Frame::Hello(at_cap), Frame::Bye], &config, Some(&fleet));
        assert!(matches!(end, SessionEnd::Bye), "at-cap claim: {end:?}");
    }

    #[test]
    fn fleet_full_hellos_are_rejected_and_slots_recycle() {
        let config = ServerConfig::default();
        let fleet = test_fleet(&config, 1);
        let held = fleet.acquire_with(1, 1).expect("the only slot");
        let session = [
            Frame::Hello(SessionParams::defaults()),
            Frame::Batch(zero_ops(8)),
            Frame::Bye,
        ];
        let (end, served) = run_crc_session(&session, &config, Some(&fleet));
        assert!(matches!(end, SessionEnd::Rejected(_)), "got {end:?}");
        match &served[0] {
            Frame::Error { code, detail } => {
                assert_eq!(*code, ErrorCode::Unavailable);
                assert!(detail.contains("tenant slots"), "detail: {detail}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        fleet.release(held);
        let (end, served) = run_crc_session(&session, &config, Some(&fleet));
        assert!(matches!(end, SessionEnd::Bye), "after release: {end:?}");
        assert_eq!(event_units(&served).len(), 8);
    }

    #[test]
    fn tcp_listeners_serve_the_same_protocol_as_unix_sockets() {
        let path = std::env::temp_dir().join(format!("codic-tcp-{}.sock", std::process::id()));
        let server = ReplayServer::bind(&path, ServerConfig::default())
            .unwrap()
            .with_tcp("127.0.0.1:0")
            .unwrap();
        let addr = server.tcp_addr().expect("a bound TCP address");
        let serving = thread::spawn(move || server.serve_connections(1).unwrap());
        let mut stream = TcpStream::connect(addr).unwrap();
        let session = zero_session(SessionParams::defaults());
        stream.write_all(&crc_input(&session)).unwrap();
        stream.flush().unwrap();
        let mut frames = Vec::new();
        loop {
            let frame = proto::read_frame_crc(&mut stream).unwrap();
            let done = matches!(frame, Frame::Summary(_));
            frames.push(frame);
            if done {
                break;
            }
        }
        serving.join().unwrap();
        // The served stream is the in-memory Unix-path stream of the
        // same session, checksum and all.
        let (_, reference) = run_crc_session(&session, &ServerConfig::default(), None);
        assert_eq!(event_units(&frames), event_units(&reference));
        assert_eq!(summary_of(&frames), summary_of(&reference));
    }

    #[test]
    fn accept_loop_holds_threads_of_live_sessions_only() {
        let path = std::env::temp_dir().join(format!("codic-reap-{}.sock", std::process::id()));
        let server = Arc::new(ReplayServer::bind(&path, ServerConfig::default()).unwrap());
        let serving = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_forever().unwrap())
        };
        let hello = SessionParams {
            shards: 1,
            module_mib: 1,
            ..SessionParams::defaults()
        };
        let ops = zero_ops(4);
        for _ in 0..200 {
            crate::client::replay(&path, &hello, &ops, 4).unwrap();
        }
        // Every client has its Summary, so at most the last session's
        // thread may still be winding down; the loop joins it within a
        // few accept rounds.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.session_threads().is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            server.session_threads().len(),
            0,
            "finished session threads must not accumulate"
        );
        server.shutdown_handle().shutdown();
        serving.join().unwrap();
    }

    #[test]
    fn a_finished_session_gives_back_its_fleet_slot_at_bye() {
        let path = std::env::temp_dir().join(format!("codic-slot-{}.sock", std::process::id()));
        let config = ServerConfig {
            fleet_slots: 1,
            ..ServerConfig::default()
        };
        let server = Arc::new(ReplayServer::bind(&path, config).unwrap());
        let serving = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_forever().unwrap())
        };
        let (hello, ops) = (SessionParams::defaults(), zero_ops(64));
        crate::client::replay(&path, &hello, &ops, 64).unwrap();
        // The slot is released just after the Summary is written, so the
        // next session may race the finishing thread by a moment — but
        // never by the idle deadline a tombstone would hold it for.
        let deadline = Instant::now() + Duration::from_secs(2);
        let second = loop {
            match crate::client::replay(&path, &hello, &ops, 64) {
                Err(crate::client::ClientError::Server {
                    code: ErrorCode::Unavailable,
                    ..
                }) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                other => break other,
            }
        };
        let report = second.expect("the next session gets the only slot");
        assert_eq!(report.summary.ops, 64);
        server.shutdown_handle().shutdown();
        serving.join().unwrap();
        assert_eq!(
            server.parked_sessions(),
            2,
            "both sessions left a tombstone"
        );
        assert_eq!(
            server.free_tenant_slots(),
            Some(1),
            "and neither holds the slot"
        );
    }

    #[test]
    fn parked_sessions_are_reaped_during_a_connect_storm() {
        // A steady stream of connects leaves the accept loop no quiet
        // round; the reaper must still free a parked session at its
        // idle deadline.
        let path = std::env::temp_dir().join(format!("codic-storm-{}.sock", std::process::id()));
        let config = ServerConfig {
            session_idle_ms: 250,
            ..ServerConfig::default()
        };
        let server = Arc::new(ReplayServer::bind(&path, config).unwrap());
        let serving = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_forever().unwrap())
        };
        // Cut a session right after its HelloAck: it parks for resume.
        {
            let stream = UnixStream::connect(&path).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let hello = Frame::Hello(SessionParams::defaults());
            proto::write_frame_crc(&mut writer, &hello).unwrap();
            writer.flush().unwrap();
            let ack = proto::read_frame_crc(&mut reader).unwrap();
            assert!(matches!(ack, Frame::HelloAck { .. }), "got {ack:?}");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.parked_sessions() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.parked_sessions(), 1, "the cut session parks");
        let storming = AtomicBool::new(true);
        let left = thread::scope(|s| {
            s.spawn(|| {
                while storming.load(Ordering::Relaxed) {
                    let _ = UnixStream::connect(&path);
                }
            });
            let deadline = Instant::now() + Duration::from_secs(3);
            while server.parked_sessions() > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            let left = server.parked_sessions();
            storming.store(false, Ordering::Relaxed);
            left
        });
        assert_eq!(left, 0, "the reaper ran while connects kept arriving");
        server.shutdown_handle().shutdown();
        serving.join().unwrap();
    }

    #[test]
    fn rejected_batches_consume_no_sequence_numbers() {
        let restricted = SessionParams {
            module_mib: 64,
            ..params(1024)
        };
        let mut engine = ReplayEngine::new(&restricted);
        // Out-of-module destructive op: rejected by the safe range.
        let bad = vec![CodicOp::command(VariantId::DetZero, 1 << 40)];
        assert!(engine.submit_batch(&bad).is_err());
        assert_eq!(engine.next_seq(), 0);
        assert_eq!(engine.outstanding(), 0);
        let ok = engine.submit_batch(&zero_ops(4)).unwrap();
        let drained = ok.len() + engine.flush().len();
        assert_eq!(drained, 4);
        assert_eq!(engine.next_seq(), 4);
    }
}
