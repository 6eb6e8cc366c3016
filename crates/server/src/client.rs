//! The replay client: plays a typed operation stream against a replay
//! server and verifies the completion stream.
//!
//! [`replay`] drives one full session — `Hello`/`HelloAck`, the trace in
//! `Batch` frames, `Bye`, `Summary` — collecting every typed completion
//! and recomputing the session checksum from the received `Events`
//! units, so a server-side accounting divergence is caught with one
//! `u64` compare.
//!
//! [`replay_resumable_with`] adds crash/cut tolerance on top: when the
//! connection dies — or a CRC trailer exposes wire corruption —
//! mid-session, the client reconnects with capped backoff and sends
//! `Resume` with its session token and the count of events it has
//! already absorbed; the server re-emits exactly the missed event
//! payloads from its journal. Every event is absorbed exactly once, so
//! the recomputed checksum of a resumed session is bit-identical to an
//! uninterrupted run.
//!
//! [`verify_against_reference`] then replays the identical batching
//! discipline in process (through [`ReplayEngine`], the same core the
//! server runs) and demands the socket stream be **bit-identical**:
//! the same completion record, energy bits included, at every stream
//! position.
//!
//! Memory: a report holds every completion and failure it received
//! (the public [`ClientReport`] fields). Verification adds one batch's
//! drained reference events on top of that, compared and dropped at
//! each batch boundary, so its own footprint does not grow with the
//! session's length.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use codic_core::ops::CodicOp;

use crate::proto::{
    self, decode_body, read_body_crc, write_frame_crc, ErrorCode, EventUnits, Fnv64, Frame,
    ProtoError, ResumeRequest, SessionEvent, SessionParams, Summary, WireCompletion, WireFailure,
    PROTOCOL_VERSION,
};
use crate::server::{ReplayCompletion, ReplayEngine};

/// A failed replay session.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// A frame could not be decoded.
    Proto(ProtoError),
    /// The server answered with an error frame.
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        detail: String,
    },
    /// The server broke the session protocol (e.g. no `HelloAck`).
    Protocol(String),
    /// The completion stream failed verification.
    Verification(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol decode error: {e}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error {code:?}: {detail}")
            }
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::Verification(detail) => write!(f, "verification failed: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// Everything one replayed session produced.
#[derive(Debug)]
pub struct ClientReport {
    /// Effective session parameters from the `HelloAck`.
    pub params: SessionParams,
    /// Every completion, in the order the server streamed them.
    pub completions: Vec<WireCompletion>,
    /// Every typed failure, in the order the server streamed them
    /// (empty unless the server runs with fault injection).
    pub failures: Vec<WireFailure>,
    /// The server's session summary.
    pub summary: Summary,
    /// Checksum recomputed client-side from the received events (always
    /// equal to `summary.checksum` — [`replay`] fails otherwise).
    pub checksum: u64,
    /// Wall-clock duration of the session, in seconds.
    pub host_seconds: f64,
    /// Connections this session used: 1 for an uninterrupted run, more
    /// when [`replay_resumable_with`] survived cuts.
    pub connections: u32,
}

impl ClientReport {
    /// Replayed rows per second of host wall-clock time.
    #[must_use]
    pub fn rows_per_s(&self) -> f64 {
        self.summary.ops as f64 / self.host_seconds.max(1e-12)
    }
}

/// Connects to `socket`, retrying with capped exponential backoff: up
/// to `retries` re-attempts after the first failure, sleeping
/// `base × 2^attempt` (capped at two seconds) between attempts. With
/// `retries = 0` this is a plain connect. Useful when the client races
/// a server that is still binding its socket.
///
/// # Errors
///
/// Returns the last connect failure once every attempt is exhausted.
pub fn connect_with_retry(socket: &Path, retries: u32, base: Duration) -> io::Result<UnixStream> {
    with_retry(retries, base, || UnixStream::connect(socket))
}

/// [`connect_with_retry`] for a TCP address: the same capped
/// exponential backoff, the same protocol on the other end. Nagle is
/// disabled — frames are flushed at ack boundaries already.
///
/// # Errors
///
/// Returns the last connect failure once every attempt is exhausted.
pub fn connect_tcp_with_retry<A: ToSocketAddrs>(
    addr: A,
    retries: u32,
    base: Duration,
) -> io::Result<TcpStream> {
    let stream = with_retry(retries, base, || TcpStream::connect(&addr))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Runs `connect` until it succeeds or `retries` re-attempts have
/// failed, with [`backoff_for`] between attempts.
fn with_retry<S>(
    retries: u32,
    base: Duration,
    mut connect: impl FnMut() -> io::Result<S>,
) -> io::Result<S> {
    let mut attempt = 0u32;
    loop {
        match connect() {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt >= retries => return Err(e),
            Err(_) => {
                thread::sleep(backoff_for(attempt, base));
                attempt += 1;
            }
        }
    }
}

/// `base × 2^attempt`, capped at two seconds.
fn backoff_for(attempt: u32, base: Duration) -> Duration {
    const BACKOFF_CAP: Duration = Duration::from_secs(2);
    base.checked_mul(1u32 << attempt.min(20))
        .unwrap_or(BACKOFF_CAP)
        .min(BACKOFF_CAP)
}

/// One running checksum over completion AND failure payloads, in the
/// exact order the server emitted them — the same rule the server's
/// tally applies. The checksum folds over the payload slices of the
/// received frames, which are the bytes the server hashed, so no unit
/// is re-encoded. `events` counts absorbed units: exactly the index the
/// resume protocol reports back as `events_received`.
#[derive(Default)]
struct Absorbed {
    checksum: Fnv64,
    completions: Vec<WireCompletion>,
    failures: Vec<WireFailure>,
    events: u64,
}

impl Absorbed {
    /// Absorbs one `Events` payload unit by unit, in order, hashing each
    /// unit's received payload slice (never the frame's count or kind
    /// bytes). All or nothing: a malformed frame leaves every field as
    /// it was, so a resume never claims units of a frame that failed.
    fn events(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let (checksum, events) = (self.checksum, self.events);
        let (completions, failures) = (self.completions.len(), self.failures.len());
        let walked = self.walk(payload);
        if walked.is_err() {
            (self.checksum, self.events) = (checksum, events);
            self.completions.truncate(completions);
            self.failures.truncate(failures);
        }
        walked
    }

    fn walk(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let mut units = EventUnits::new(payload)?;
        while let Some((event, bytes)) = units.next_unit()? {
            match event {
                SessionEvent::Completion(c) => self.completions.push(c),
                SessionEvent::Failure(x) => self.failures.push(x),
            }
            self.checksum.update(bytes);
            self.events += 1;
        }
        Ok(())
    }
}

/// Plays `ops` against the server at `socket` in batches of `batch`
/// operations, then closes the session and returns the report.
///
/// # Errors
///
/// Returns the socket/protocol failure, the server's error frame, or a
/// checksum mismatch between the received stream and the summary.
pub fn replay(
    socket: &Path,
    hello: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
) -> Result<ClientReport, ClientError> {
    let stream = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    replay_stream(&mut reader, &mut writer, hello, ops, batch)
}

/// [`replay`] over a TCP connection to `addr` — the same session, frame
/// for frame, over the other transport.
///
/// # Errors
///
/// As [`replay`], plus the connect failure.
pub fn replay_tcp<A: ToSocketAddrs>(
    addr: A,
    hello: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
) -> Result<ClientReport, ClientError> {
    let stream = connect_tcp_with_retry(addr, 0, Duration::ZERO)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    replay_stream(&mut reader, &mut writer, hello, ops, batch)
}

/// The transport-generic session core of [`replay`]: drives one full
/// session over an already-connected `(reader, writer)` pair sharing
/// one stream — Unix socket, TCP, chaos-wrapped, or in-memory. The
/// session is never retried: a mid-session failure is surfaced, not
/// replayed ([`replay_resumable_with`] is the cut-tolerant variant).
///
/// # Errors
///
/// As [`replay`].
pub fn replay_stream<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    hello: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
) -> Result<ClientReport, ClientError> {
    let started = Instant::now();
    let mut run = ResumableRun::new(ops, batch);
    run.attempt(reader, writer, hello)?;
    run.into_report(started, 1)
}

/// How [`replay_resumable_with`] survives cuts.
#[derive(Debug, Clone, Copy)]
pub struct ResumePolicy {
    /// Reconnect-and-resume attempts allowed across the whole session
    /// (0 = a single connection, no recovery).
    pub max_resumes: u32,
    /// Base of the capped exponential backoff between attempts.
    pub backoff_base: Duration,
}

impl Default for ResumePolicy {
    fn default() -> Self {
        ResumePolicy {
            max_resumes: 8,
            backoff_base: Duration::from_millis(10),
        }
    }
}

/// True when the failure is the *connection's* fault — a socket error
/// or any wire-decode failure (a CRC mismatch, but also the desync
/// garbage a corrupted length prefix turns the rest of the stream
/// into) — and a reconnect may recover it. Server-*sent* errors,
/// protocol-order violations, and verification failures are the
/// session's fault and never retried.
fn recoverable(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_) | ClientError::Proto(_))
}

/// The failure for `frame` arriving where the protocol expects
/// `expected`: the server's own `Error` frame is passed on as
/// [`ClientError::Server`], any other frame is a protocol violation.
fn unexpected(expected: &str, frame: Frame) -> ClientError {
    match frame {
        Frame::Error { code, detail } => ClientError::Server { code, detail },
        other => ClientError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}

/// The client half of the resume protocol: everything that must
/// survive a cut lives here, not on the connection.
struct ResumableRun<'a> {
    ops: &'a [CodicOp],
    batch: usize,
    absorbed: Absorbed,
    /// Every received frame body lands here: one allocation for the
    /// whole session, across reconnects.
    frame: Vec<u8>,
    /// Every sent batch is encoded here, reused the same way.
    batch_units: Vec<u8>,
    /// The server-minted session token from the `HelloAck` (`None`
    /// until the handshake completed once).
    token: Option<u64>,
    params: Option<SessionParams>,
    /// Operations the server has accepted (from `Batched` acks and
    /// `ResumeAck::next_seq`); resubmission restarts here.
    next_op: usize,
    summary: Option<Summary>,
}

impl<'a> ResumableRun<'a> {
    /// A run that has not yet connected. A batch above `MAX_BATCH_OPS`
    /// would produce a frame the server is required to reject, so the
    /// batch is clamped rather than dying mid-replay.
    fn new(ops: &'a [CodicOp], batch: usize) -> Self {
        ResumableRun {
            ops,
            batch: batch.clamp(1, proto::MAX_BATCH_OPS),
            absorbed: Absorbed {
                completions: Vec::with_capacity(ops.len()),
                ..Absorbed::default()
            },
            frame: Vec::new(),
            batch_units: Vec::new(),
            token: None,
            params: None,
            next_op: 0,
            summary: None,
        }
    }

    /// Drives one connection as far as it will go: handshake (fresh
    /// `Hello` or `Resume`), remaining batches, `Bye`, `Summary`.
    fn attempt<R: Read, W: Write>(
        &mut self,
        reader: &mut R,
        writer: &mut W,
        hello: &SessionParams,
    ) -> Result<(), ClientError> {
        match self.token {
            None => {
                write_frame_crc(writer, &Frame::Hello(*hello))?;
                writer.flush()?;
                match decode_body(read_body_crc(reader, &mut self.frame)?)? {
                    Frame::HelloAck { params, token } => {
                        self.params = Some(params);
                        self.token = Some(token);
                    }
                    other => return Err(unexpected("HelloAck", other)),
                }
            }
            Some(token) => {
                write_frame_crc(
                    writer,
                    &Frame::Resume(ResumeRequest {
                        version: PROTOCOL_VERSION,
                        token,
                        events_received: self.absorbed.events,
                    }),
                )?;
                writer.flush()?;
                match decode_body(read_body_crc(reader, &mut self.frame)?)? {
                    Frame::ResumeAck(ack) => {
                        self.next_op = usize::try_from(ack.next_seq).map_err(|_| {
                            ClientError::Protocol(format!(
                                "ResumeAck next_seq {} overflows this host",
                                ack.next_seq
                            ))
                        })?;
                        if ack.finished != 0 {
                            // The session already processed our Bye and
                            // only the tail of the stream was lost:
                            // absorb the replay and the Summary.
                            self.read_until_summary(reader)?;
                            return Ok(());
                        }
                    }
                    other => return Err(unexpected("ResumeAck", other)),
                }
            }
        }

        // The journal replay (if any) and fresh completions arrive
        // interleaved with our remaining batches' acks: the absorb loop
        // below makes no distinction — every event is new to us, by the
        // exactly-once contract of `events_received`.
        while self.next_op < self.ops.len() {
            let end = (self.next_op + self.batch).min(self.ops.len());
            let ops = &self.ops[self.next_op..end];
            proto::write_batch_crc(writer, ops, &mut self.batch_units)?;
            writer.flush()?;
            loop {
                match self.next_frame(reader)? {
                    None => {}
                    Some(Frame::Batched(_)) => break,
                    Some(other) => return Err(unexpected("Events/Batched", other)),
                }
            }
            self.next_op = end;
        }

        write_frame_crc(writer, &Frame::Bye)?;
        writer.flush()?;
        self.read_until_summary(reader)
    }

    /// Reads the next frame into the session's buffer. An `Events`
    /// frame is absorbed straight from the received bytes and yields
    /// `None`; any other frame is decoded and returned.
    fn next_frame<R: Read>(&mut self, reader: &mut R) -> Result<Option<Frame>, ClientError> {
        let body = read_body_crc(reader, &mut self.frame)?;
        match proto::events_payload(body) {
            Some(units) => {
                self.absorbed.events(units)?;
                Ok(None)
            }
            None => Ok(Some(decode_body(body)?)),
        }
    }

    fn read_until_summary<R: Read>(&mut self, reader: &mut R) -> Result<(), ClientError> {
        loop {
            match self.next_frame(reader)? {
                None => {}
                Some(Frame::Summary(summary)) => {
                    self.summary = Some(summary);
                    return Ok(());
                }
                Some(other) => return Err(unexpected("Events/Summary", other)),
            }
        }
    }

    /// Checks the finished session's stream against the server's
    /// `Summary` and builds the report.
    fn into_report(self, started: Instant, connections: u32) -> Result<ClientReport, ClientError> {
        let params = self
            .params
            .ok_or_else(|| ClientError::Protocol("session ended without a HelloAck".to_string()))?;
        let summary = self
            .summary
            .ok_or_else(|| ClientError::Protocol("session ended without a Summary".to_string()))?;
        let host_seconds = started.elapsed().as_secs_f64();
        let absorbed = self.absorbed;
        let checksum = absorbed.checksum.value();
        if checksum != summary.checksum {
            return Err(ClientError::Verification(format!(
                "stream checksum {checksum:#018x} != summary checksum {:#018x}",
                summary.checksum
            )));
        }
        if summary.ops != absorbed.completions.len() as u64 {
            return Err(ClientError::Verification(format!(
                "summary counts {} ops, stream carried {}",
                summary.ops,
                absorbed.completions.len()
            )));
        }
        if summary.failed != absorbed.failures.len() as u64 {
            return Err(ClientError::Verification(format!(
                "summary counts {} failures, stream carried {}",
                summary.failed,
                absorbed.failures.len()
            )));
        }
        // Sequence conservation: every op sent comes back exactly once,
        // as a completion or a failure — a short stream whose Summary
        // agrees with it is still short.
        let events = absorbed.completions.len() + absorbed.failures.len();
        if events != self.ops.len() {
            return Err(ClientError::Verification(format!(
                "stream carried {events} events for {} ops sent",
                self.ops.len()
            )));
        }
        Ok(ClientReport {
            params,
            completions: absorbed.completions,
            failures: absorbed.failures,
            summary,
            checksum,
            host_seconds,
            connections,
        })
    }
}

/// [`replay_stream`] with automatic reconnect-and-resume over any
/// transport: `connect` opens connection `attempt` (0 = the first) as a
/// `(reader, writer)` pair sharing one stream — the chaos tests hand in
/// fault-injecting wrappers here. A connection cut (or CRC-detected
/// corruption) mid-session reconnects with capped backoff and continues
/// the *same* session from the last absorbed event, exactly once. The
/// final report's checksum is bit-identical to an uninterrupted run —
/// the chaos-transport suite pins this.
///
/// # Errors
///
/// As [`replay`], once `policy.max_resumes` recovery attempts are
/// exhausted (or immediately on a non-recoverable failure).
pub fn replay_resumable_with<R, W, F>(
    hello: &SessionParams,
    ops: &[CodicOp],
    batch: usize,
    policy: ResumePolicy,
    mut connect: F,
) -> Result<ClientReport, ClientError>
where
    R: Read,
    W: Write,
    F: FnMut(u32) -> io::Result<(R, W)>,
{
    let started = Instant::now();
    let mut run = ResumableRun::new(ops, batch);
    let mut attempt = 0u32;
    loop {
        let outcome = match connect(attempt) {
            Ok((mut reader, mut writer)) => run.attempt(&mut reader, &mut writer, hello),
            Err(e) => Err(ClientError::Io(e)),
        };
        match outcome {
            Ok(()) => break,
            Err(e) if recoverable(&e) && attempt < policy.max_resumes => {
                thread::sleep(backoff_for(attempt, policy.backoff_base));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
    run.into_report(started, attempt + 1)
}

/// Replays the same `(ops, batch)` discipline in process through
/// [`ReplayEngine`] and demands the served stream be bit-identical: at
/// every stream position the reference's whole completion record, energy
/// bits included. Each batch's drained reference events are compared as
/// they come out, so verification holds one batch of the reference on
/// top of the report, never the whole reference stream.
///
/// # Errors
///
/// Returns [`ClientError::Verification`] naming the first divergence,
/// including a stream position where one side ran out before the other.
pub fn verify_against_reference(
    report: &ClientReport,
    ops: &[CodicOp],
    batch: usize,
) -> Result<(), ClientError> {
    let fail = |detail: String| Err(ClientError::Verification(detail));
    if !report.failures.is_empty() {
        return fail(format!(
            "session carried {} typed failures: a fault-armed server cannot \
             verify against the fault-free reference",
            report.failures.len()
        ));
    }
    if report.completions.len() != ops.len() {
        return fail(format!(
            "{} ops submitted, {} completions received",
            ops.len(),
            report.completions.len()
        ));
    }
    let mut engine = ReplayEngine::new(&report.params);
    let mut served = ServedStream {
        served: &report.completions,
        next: 0,
    };
    // The same clamp `replay` applies, so both sides chunk identically.
    for chunk in ops.chunks(batch.clamp(1, proto::MAX_BATCH_OPS)) {
        let drained = engine
            .submit_batch(chunk)
            .map_err(|e| ClientError::Verification(format!("reference rejected: {e}")))?;
        served.compare(&drained)?;
    }
    served.compare(&engine.flush())?;
    served.finish()
}

/// The served completions, walked in step with the reference's drained
/// events: the reference in its emission order must equal the socket
/// stream in its emission order — order preservation and bit-identity
/// in one comparison.
struct ServedStream<'a> {
    served: &'a [WireCompletion],
    /// Stream position of the next served completion to check.
    next: usize,
}

impl ServedStream<'_> {
    /// Checks the next `reference.len()` served completions against
    /// `reference`, failing if the served stream ends first.
    fn compare(&mut self, reference: &[ReplayCompletion]) -> Result<(), ClientError> {
        for want in reference {
            let (i, want) = (self.next, want.to_wire());
            let Some(got) = self.served.get(i) else {
                return Err(ClientError::Verification(format!(
                    "the served stream ended at position {i}; the reference emits seq {} there",
                    want.seq
                )));
            };
            if !bit_identical(got, &want) {
                return Err(ClientError::Verification(format!(
                    "stream position {i}, seq {}: served {got:?}, expected {want:?}",
                    got.seq
                )));
            }
            self.next += 1;
        }
        Ok(())
    }

    /// Fails if the served stream goes on past the reference's end.
    fn finish(self) -> Result<(), ClientError> {
        match self.served.get(self.next) {
            Some(got) => Err(ClientError::Verification(format!(
                "the reference ended at stream position {}; the server served seq {} there",
                self.next, got.seq
            ))),
            None => Ok(()),
        }
    }
}

/// Whole-record equality with the energy compared by its bits, so
/// `-0.0` served for `0.0` is a divergence.
fn bit_identical(got: &WireCompletion, want: &WireCompletion) -> bool {
    got == want && got.energy_nj.to_bits() == want.energy_nj.to_bits()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::chaos::mix64;
    use crate::proto::{encode_body, BatchAck};
    use crate::server::ServerConfig;
    use crate::trace::parse_trace;
    use codic_core::fault::FaultCause;
    use codic_core::ops::VariantId;

    /// `body` as it crosses the wire: length prefix, body, CRC32C
    /// trailer.
    fn crc_framed(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32 + 4).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire.extend_from_slice(&proto::crc32c(body).to_le_bytes());
        wire
    }

    fn events_body(events: &[SessionEvent]) -> Vec<u8> {
        let mut body = Vec::new();
        encode_body(&Frame::Events(events.to_vec()), &mut body);
        body
    }

    /// The server's rule: [`Fnv64`] over each unit's re-encoded payload.
    fn payload_fold(events: &[SessionEvent]) -> u64 {
        let (mut checksum, mut payload) = (Fnv64::new(), Vec::new());
        for event in events {
            payload.clear();
            match event {
                SessionEvent::Completion(c) => proto::completion_payload(c, &mut payload),
                SessionEvent::Failure(x) => proto::failure_payload(x, &mut payload),
            }
            checksum.update(&payload);
        }
        checksum.value()
    }

    #[test]
    fn the_received_slice_fold_equals_the_payload_fold() {
        let mut n = 0u64;
        let mut roll = || {
            n += 1;
            mix64(0xf01d ^ n)
        };
        let (mut events, mut widths) = (Vec::new(), BTreeSet::new());
        let (mut completions, mut failures) = (Vec::new(), Vec::new());
        for seq in 0..2000 {
            let (a, b) = (roll(), roll());
            let op = match roll() % 7 {
                0 => CodicOp::read(a),
                1 => CodicOp::command(VariantId::ALL[b as usize % VariantId::ALL.len()], a),
                2 => CodicOp::RowInit {
                    row_addr: a,
                    ones: b % 2 == 1,
                },
                3 => CodicOp::MajOr { row_addr: a },
                4 => CodicOp::Not {
                    src_addr: a,
                    dst_addr: b,
                },
                5 => CodicOp::RowCopy {
                    src_addr: a,
                    dst_addr: b,
                },
                _ => CodicOp::RowFill {
                    row_addr: a,
                    pattern: b,
                },
            };
            let mut payload = Vec::new();
            let event = if roll() % 4 == 0 {
                let failure = WireFailure {
                    seq,
                    shard: roll() as u16,
                    op,
                    at_cycle: roll(),
                    cause: [
                        FaultCause::Misfire,
                        FaultCause::ClockStuck,
                        FaultCause::Quarantined,
                    ][roll() as usize % 3],
                    attempts: roll() as u8,
                };
                proto::failure_payload(&failure, &mut payload);
                failures.push(failure);
                SessionEvent::Failure(failure)
            } else {
                let completion = WireCompletion {
                    seq,
                    shard: roll() as u16,
                    op,
                    finish_cycle: roll(),
                    busy_cycles: roll() as u32,
                    activations: roll() as u8,
                    energy_nj: (roll() >> 11) as f64 / 1024.0,
                    fingerprint: if op.is_compute() { roll() } else { 0 },
                };
                proto::completion_payload(&completion, &mut payload);
                completions.push(completion);
                SessionEvent::Completion(completion)
            };
            widths.insert((matches!(event, SessionEvent::Failure(_)), payload.len()));
            events.push(event);
        }
        // (failure?, payload bytes): 40 classic, 48 and 56 compute with
        // fingerprint; failures of 9- and 17-byte ops.
        let every_width = [
            (false, 40),
            (false, 48),
            (false, 56),
            (true, 29),
            (true, 37),
        ];
        assert_eq!(widths, BTreeSet::from(every_width));
        // Packed into frames of uneven size, as the server's emission
        // splits them.
        let mut absorbed = Absorbed::default();
        for frame in events.chunks(37) {
            absorbed.events(&events_body(frame)[1..]).unwrap();
        }
        assert_eq!(absorbed.checksum.value(), payload_fold(&events));
        assert_eq!(absorbed.events, events.len() as u64);
        assert_eq!(absorbed.completions, completions);
        assert_eq!(absorbed.failures, failures);
    }

    #[test]
    fn a_malformed_events_frame_absorbs_none_of_its_units() {
        let ops: Vec<CodicOp> = (0..6)
            .map(|i| CodicOp::command(VariantId::DetZero, i * 8192))
            .collect();
        let events: Vec<SessionEvent> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| {
                let seq = i as u64;
                if i % 2 == 1 {
                    SessionEvent::Failure(WireFailure {
                        seq,
                        shard: 0,
                        op,
                        at_cycle: 90 + seq,
                        cause: FaultCause::Misfire,
                        attempts: 2,
                    })
                } else {
                    SessionEvent::Completion(WireCompletion {
                        seq,
                        shard: 0,
                        op,
                        finish_cycle: 100 + seq,
                        busy_cycles: 24,
                        activations: 1,
                        energy_nj: 3.25,
                        fingerprint: 0,
                    })
                }
            })
            .collect();
        let hello = SessionParams::defaults();
        let params = ServerConfig::default().negotiate(&hello);
        // A good frame of two units, then a frame of four that fails
        // after the walk has decoded two of its units.
        let good = events_body(&events[..2]);
        let mut unknown_kind = events_body(&events[2..]);
        unknown_kind[events_body(&events[2..4]).len()] = 7;
        let mut trailing = events_body(&events[2..]);
        trailing.extend_from_slice(&[0; 3]);
        let mut before = Absorbed::default();
        before.events(&good[1..]).unwrap();
        for (case, bad) in [("unknown kind", unknown_kind), ("trailing bytes", trailing)] {
            let mut canned = Vec::new();
            write_frame_crc(&mut canned, &Frame::HelloAck { params, token: 1 }).unwrap();
            canned.extend(crc_framed(&good));
            canned.extend(crc_framed(&bad));
            let mut run = ResumableRun::new(&ops, ops.len());
            let err = run
                .attempt(&mut canned.as_slice(), &mut Vec::new(), &hello)
                .expect_err(case);
            assert!(matches!(err, ClientError::Proto(_)), "{case}: {err}");
            // What a resume would report, and everything it rests on,
            // stands exactly where the good frame left it.
            let after = &run.absorbed;
            assert_eq!(after.events, 2, "{case}");
            assert_eq!(after.checksum, before.checksum, "{case}");
            assert_eq!(after.completions, before.completions, "{case}");
            assert_eq!(after.failures, before.failures, "{case}");
        }
    }

    #[test]
    fn short_but_self_consistent_streams_fail_verification() {
        // Two ops sent, one completion back, and a Summary (checksum
        // included) that agrees with that one completion.
        let ops = [
            CodicOp::command(VariantId::DetZero, 0),
            CodicOp::command(VariantId::DetZero, 8192),
        ];
        let hello = SessionParams::defaults();
        let params = ServerConfig::default().negotiate(&hello);
        let completion = WireCompletion {
            seq: 0,
            shard: 0,
            op: ops[0],
            finish_cycle: 100,
            busy_cycles: 24,
            activations: 1,
            energy_nj: 3.25,
            fingerprint: 0,
        };
        let mut payload = Vec::new();
        proto::completion_payload(&completion, &mut payload);
        let mut checksum = Fnv64::new();
        checksum.update(&payload);
        let mut canned = Vec::new();
        for frame in [
            Frame::HelloAck { params, token: 1 },
            Frame::Events(vec![SessionEvent::Completion(completion)]),
            Frame::Batched(BatchAck {
                seq_base: 0,
                accepted: 2,
                emitted: 1,
                outstanding: 0,
            }),
            Frame::Summary(Summary {
                ops: 1,
                row_ops: 1,
                failed: 0,
                max_finish_cycle: 100,
                total_energy_nj: 3.25,
                checksum: checksum.value(),
            }),
        ] {
            write_frame_crc(&mut canned, &frame).unwrap();
        }
        let err = replay_stream(&mut canned.as_slice(), &mut Vec::new(), &hello, &ops, 2)
            .expect_err("one event for two ops must not verify");
        match err {
            ClientError::Verification(detail) => {
                assert!(detail.contains("1 events for 2 ops"), "detail: {detail}");
            }
            other => panic!("expected a verification failure, got {other}"),
        }
    }

    #[test]
    fn a_reference_shorter_or_longer_than_the_served_stream_fails() {
        let ops: Vec<CodicOp> = (0..8)
            .map(|i| CodicOp::command(VariantId::DetZero, i * 8192))
            .collect();
        let mut engine =
            ReplayEngine::new(&ServerConfig::default().negotiate(&SessionParams::defaults()));
        let mut reference = engine.submit_batch(&ops).unwrap();
        reference.extend(engine.flush());
        assert_eq!(reference.len(), ops.len());
        let served: Vec<WireCompletion> = reference.iter().map(|e| e.to_wire()).collect();
        // The reference arrives in two drained runs, as a session's
        // batch boundaries hand it out.
        let compare = |served: &[WireCompletion], reference: &[ReplayCompletion]| {
            let mut stream = ServedStream { served, next: 0 };
            let (first, rest) = reference.split_at(reference.len() / 2);
            stream.compare(first)?;
            stream.compare(rest)?;
            stream.finish()
        };
        compare(&served, &reference).expect("equal streams verify");
        for (case, result, detail) in [
            (
                "short reference",
                compare(&served, &reference[..7]),
                "reference ended at stream position 7",
            ),
            (
                "long reference",
                compare(&served[..7], &reference),
                "served stream ended at position 7",
            ),
        ] {
            match result {
                Err(ClientError::Verification(got)) => {
                    assert!(got.contains(detail), "{case}: {got}");
                }
                other => panic!("{case}: expected a verification failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_tampered_field_class_fails_verification() {
        let ops = parse_trace(include_str!("../traces/sample_bitwise.trace")).unwrap();
        let batch = 64;
        let params = ServerConfig::default().negotiate(&SessionParams {
            compute_rows: 64,
            ..SessionParams::defaults()
        });
        // The served stream of a faithful server is the reference's own.
        let mut engine = ReplayEngine::new(&params);
        let mut completions = Vec::new();
        for chunk in ops.chunks(batch) {
            completions.extend(
                engine
                    .submit_batch(chunk)
                    .unwrap()
                    .iter()
                    .map(|e| e.to_wire()),
            );
        }
        completions.extend(engine.flush().iter().map(|e| e.to_wire()));
        let report = ClientReport {
            params,
            completions,
            failures: Vec::new(),
            summary: Summary::default(),
            checksum: 0,
            host_seconds: 1.0,
            connections: 1,
        };
        verify_against_reference(&report, &ops, batch).expect("the faithful stream verifies");

        let compute = report
            .completions
            .iter()
            .position(|c| c.op.is_compute() && c.fingerprint != 0)
            .expect("the bitwise trace computes rows");
        let must_fail = |field: &str, tamper: &dyn Fn(&mut [WireCompletion])| {
            let mut completions = report.completions.clone();
            tamper(&mut completions);
            let tampered = ClientReport {
                completions,
                failures: Vec::new(),
                ..report
            };
            match verify_against_reference(&tampered, &ops, batch) {
                Err(ClientError::Verification(_)) => {}
                other => panic!("{field}: expected a verification failure, got {other:?}"),
            }
        };
        must_fail("swapped positions", &|c| c.swap(3, 4));
        must_fail("shard", &|c| c[5].shard ^= 1);
        must_fail("finish cycle", &|c| c[6].finish_cycle += 1);
        must_fail("energy, last bit", &|c| {
            c[7].energy_nj = f64::from_bits(c[7].energy_nj.to_bits() ^ 1);
        });
        must_fail("energy, sign", &|c| c[8].energy_nj = -c[8].energy_nj);
        must_fail("busy cycles", &|c| c[9].busy_cycles += 1);
        must_fail("fingerprint", &|c| c[compute].fingerprint ^= 1 << 40);
        // A fault-free stream carries no zero-energy completion, so the
        // signed-zero case is pinned on the record comparison itself.
        let zero = WireCompletion {
            energy_nj: 0.0,
            ..report.completions[0]
        };
        let negative_zero = WireCompletion {
            energy_nj: -0.0,
            ..zero
        };
        assert_eq!(
            zero, negative_zero,
            "PartialEq alone cannot tell them apart"
        );
        assert!(!bit_identical(&negative_zero, &zero));
        assert!(bit_identical(&zero, &zero));
    }

    /// `frames` as the server writes them.
    fn canned(frames: &[Frame]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            write_frame_crc(&mut wire, frame).unwrap();
        }
        wire
    }

    #[test]
    fn a_wrong_frame_is_a_protocol_error_and_an_error_frame_is_the_servers() {
        let ops = [CodicOp::command(VariantId::DetZero, 0)];
        let hello = SessionParams::defaults();
        let ack = Frame::HelloAck {
            params: ServerConfig::default().negotiate(&hello),
            token: 1,
        };
        let flushed = Frame::Flushed(proto::FlushAck {
            emitted: 0,
            now_max: 0,
        });
        let refused = Frame::Error {
            code: ErrorCode::Version,
            detail: "v0".to_string(),
        };
        // Each error's display names its variant: `Protocol` is a
        // "protocol violation", `Server` a "server error".
        for (case, frames, want) in [
            (
                "Summary for Hello",
                vec![Frame::Summary(Summary::default())],
                "protocol violation: expected HelloAck, got Summary",
            ),
            (
                "Flushed for Batch",
                vec![ack, flushed],
                "protocol violation: expected Events/Batched, got Flushed",
            ),
            ("Error for Hello", vec![refused], "server error Version: v0"),
        ] {
            let wire = canned(&frames);
            let err = replay_stream(&mut wire.as_slice(), &mut io::sink(), &hello, &ops, 1)
                .expect_err(case);
            assert!(err.to_string().starts_with(want), "{case}: {err}");
        }
    }

    #[test]
    fn a_wrong_frame_after_a_reconnect_ends_the_session_without_another() {
        let ops = [CodicOp::command(VariantId::DetZero, 0)];
        let hello = SessionParams::defaults();
        // Both connections answer with a HelloAck: the first is then cut,
        // and the second should have carried a ResumeAck.
        let ack = canned(&[Frame::HelloAck {
            params: ServerConfig::default().negotiate(&hello),
            token: 1,
        }]);
        let mut connects = 0u32;
        let policy = ResumePolicy {
            max_resumes: 8,
            backoff_base: Duration::ZERO,
        };
        let err = replay_resumable_with(&hello, &ops, 1, policy, |_| {
            connects += 1;
            Ok((io::Cursor::new(ack.clone()), io::sink()))
        })
        .expect_err("a HelloAck answers the Resume");
        assert!(
            err.to_string()
                .starts_with("protocol violation: expected ResumeAck, got HelloAck"),
            "{err}"
        );
        assert_eq!(connects, 2, "a protocol error is not retried");
    }
}
