//! The replay wire protocol: length-prefixed, CRC32C-trailed binary
//! frames over a byte stream.
//!
//! This module is the single source of truth for the format specified in
//! [`docs/PROTOCOL.md`](https://github.com/codic/codic/blob/main/docs/PROTOCOL.md)
//! (in this repository: `docs/PROTOCOL.md`); the two are kept in lockstep
//! and every frame type below has a round-trip unit test. All integers
//! are little-endian. A frame is
//!
//! ```text
//! u32 length   — byte count of everything after this field
//! u8  type     — frame-type tag (Hello = 0x01, … see `Frame`)
//! payload      — length - 5 bytes, layout per frame type
//! u32 crc32c   — CRC32C of type byte + payload, verified before decode
//! ```
//!
//! Operations travel as a variable-length unit: a `u8` op code followed
//! by one `u64` address (9 bytes) or, for the two-address and
//! pattern-carrying bulk-bitwise operations, two `u64` operands
//! (17 bytes); completions come back typed with the finish cycle, the
//! accounted occupancy/energy cost, the owning shard and — for
//! bulk-bitwise compute operations — the FNV-1a-64 fingerprint of the
//! written row's simulated contents. The session checksum ([`Fnv64`])
//! hashes the payload of every completion and failure unit of the
//! [`Frame::Events`] stream in emission order, so client and server can
//! agree on the whole stream (values included) with one `u64` compare.
//!
//! One codec path: every payload field is read through one private
//! bounds-checked cursor, whose short or leftover read is the frame's
//! [`ProtoError::BadLength`], and every frame is written by one private
//! framer — the only code that writes a length prefix or a CRC trailer.
//!
//! # Example
//!
//! ```
//! use codic_core::ops::{CodicOp, VariantId};
//! use codic_server::proto::{read_frame_crc, write_frame_crc, Frame};
//!
//! let batch = Frame::Batch(vec![
//!     CodicOp::command(VariantId::DetZero, 0x2000),
//!     CodicOp::read(0x40),
//! ]);
//! let mut wire = Vec::new();
//! write_frame_crc(&mut wire, &batch).unwrap();
//! let decoded = read_frame_crc(&mut wire.as_slice()).unwrap();
//! assert_eq!(decoded, batch);
//! ```

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use codic_core::fault::FaultCause;
use codic_core::ops::{CodicOp, VariantId};

/// The client-visible event records, defined beside the fleet's event
/// record they project ([`codic_core::fleet::FleetEvent::to_wire`]);
/// this module owns only their byte layout.
pub use codic_core::fleet::{WireCompletion, WireFailure};

/// The one protocol version this implementation speaks: a `Hello` or
/// `Resume` carrying any other version is refused with
/// [`ErrorCode::Version`].
pub const PROTOCOL_VERSION: u16 = 5;

/// Upper bound on the `length` field of a frame; larger values are
/// rejected before any allocation, so a corrupt or hostile length prefix
/// cannot balloon memory.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// The most operations one `Batch` frame can carry without tripping
/// [`MAX_FRAME_LEN`] (type byte + `u32` count + up to 17 bytes per op +
/// CRC trailer — sized for the widest unit so a batch of any mix fits).
/// Senders clamp their batch size to this.
pub const MAX_BATCH_OPS: usize = (MAX_FRAME_LEN as usize - 9) / 17;

/// Largest tenant-slot count a `Hello` may claim
/// (`SessionParams::tenants`). A server rejects a larger claim with
/// [`ErrorCode::Policy`] *before* negotiating, building an engine, or
/// acquiring any fleet slot — an oversized claim never costs an
/// allocation.
pub const MAX_TENANT_CLAIM: u16 = 4096;

/// Largest per-tenant outstanding-op quota a `Hello` may claim
/// (`SessionParams::quota_ops`), rejected like [`MAX_TENANT_CLAIM`].
pub const MAX_QUOTA_CLAIM: u32 = 1 << 20;

/// Largest QoS weight a session can negotiate; a `Hello` asking for
/// more is clamped here and the ack carries the clamped value. The
/// weight is carried for wire compatibility and has no scheduling
/// effect, so clamping it changes nothing a session can observe.
pub const MAX_QOS_WEIGHT: u8 = 16;

/// Frame-type tags (the `u8` after the length prefix). `0x82` and
/// `0x87` are reserved: they once carried one completion or failure per
/// frame, and now decode as [`ProtoError::UnknownFrame`].
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const BATCH: u8 = 0x02;
    pub const FLUSH: u8 = 0x03;
    pub const BYE: u8 = 0x04;
    pub const RESUME: u8 = 0x05;
    pub const HELLO_ACK: u8 = 0x81;
    pub const BATCHED: u8 = 0x83;
    pub const FLUSHED: u8 = 0x84;
    pub const SUMMARY: u8 = 0x85;
    pub const ERROR: u8 = 0x86;
    pub const EVENTS: u8 = 0x88;
    pub const RESUME_ACK: u8 = 0x89;
}

/// Kind byte of a completion unit inside [`Frame::Events`]. The
/// server's resume journal stores each unit exactly as it goes on the
/// wire: this kind byte, then the payload.
pub const EVENT_COMPLETION: u8 = 0;

/// Kind byte of a failure unit inside [`Frame::Events`].
pub const EVENT_FAILURE: u8 = 1;

/// Wire size of the smallest [`Frame::Events`] unit: a kind byte plus
/// the 29-byte failure payload of a 9-byte op. The decoder's
/// count-versus-length pre-check divides by this, so a hostile count
/// cannot reserve more memory than the payload itself justifies.
const EVENT_UNIT_MIN: usize = 30;

/// Operation codes of the wire operation unit. Codes `0x00..=0x07` are
/// 9-byte units (code + one `u64` address); `0x08..=0x0A` are 17-byte
/// units (code + two `u64` operands).
mod opcode {
    pub const READ: u8 = 0x00;
    pub const WRITE: u8 = 0x01;
    pub const ROW_CLONE_ZERO: u8 = 0x02;
    pub const LISA_CLONE_ZERO: u8 = 0x03;
    /// Bulk-bitwise row init to zeros (one address).
    pub const ROW_INIT0: u8 = 0x04;
    /// Bulk-bitwise row init to ones (one address).
    pub const ROW_INIT1: u8 = 0x05;
    /// Triple-row-activation majority, AND convention (group base addr).
    pub const MAJ_AND: u8 = 0x06;
    /// Triple-row-activation majority, OR convention (group base addr).
    pub const MAJ_OR: u8 = 0x07;
    /// Dual-contact NOT: src address, then dst address (17 bytes).
    pub const NOT: u8 = 0x08;
    /// Row copy: src address, then dst address (17 bytes).
    pub const ROW_COPY: u8 = 0x09;
    /// Row fill: row address, then the 64-bit fill pattern (17 bytes).
    pub const ROW_FILL: u8 = 0x0A;
    /// `COMMAND_BASE + i` is a CODIC command of `VariantId::ALL[i]`.
    pub const COMMAND_BASE: u8 = 0x10;
}

/// Session parameters proposed in a [`Frame::Hello`] and echoed, with
/// effective values, in the [`Frame::HelloAck`].
///
/// In a `Hello`, a zero field (and `refresh = 2`) means "use the server's
/// configured default"; the `HelloAck` always carries the concrete
/// effective values the session runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// Number of device-pool shards serving the session.
    pub shards: u16,
    /// Module capacity per session, in MiB.
    pub module_mib: u32,
    /// Bound on operations submitted but not yet completed (the
    /// per-connection backpressure window).
    pub max_outstanding: u32,
    /// Replay-rate governor target in rows per second of host time;
    /// 0 = uncapped (the server's own cap, if any, still applies).
    pub target_rows_per_s: u64,
    /// Refresh engine: 0 = disabled, 1 = enabled, 2 (Hello only) =
    /// server default.
    pub refresh: u8,
    /// Rows reserved at the top of the module as the bulk-bitwise
    /// compute region; 0 in a `Hello` = use the server's configured
    /// default (which is itself 0 — compute disabled — unless the server
    /// was started with a region).
    pub compute_rows: u32,
    /// QoS weight, carried for wire compatibility: it is negotiated and
    /// echoed but has no scheduling effect — every tenant's batches run
    /// on its own pool as they arrive. 0 in a `Hello` = server default
    /// (1); values past [`MAX_QOS_WEIGHT`] are clamped.
    pub qos_weight: u8,
    /// Tenant-slot count. In a `Hello`: the most co-tenants the client
    /// will accept sharing a fleet with (0 = any); claims past
    /// [`MAX_TENANT_CLAIM`] are rejected before allocation. In the ack:
    /// the serving fleet's slot count, or 0 when the session runs on a
    /// private pool.
    pub tenants: u16,
    /// Per-tenant outstanding-op quota. In a `Hello`: a requested
    /// additional bound on `max_outstanding` (0 = none); claims past
    /// [`MAX_QUOTA_CLAIM`] are rejected before allocation. In the ack:
    /// the effective quota (equal to the effective `max_outstanding`).
    pub quota_ops: u32,
}

impl SessionParams {
    /// A `Hello` that defers every choice to the server's defaults.
    #[must_use]
    pub fn defaults() -> Self {
        SessionParams {
            version: PROTOCOL_VERSION,
            shards: 0,
            module_mib: 0,
            max_outstanding: 0,
            target_rows_per_s: 0,
            refresh: 2,
            compute_rows: 0,
            qos_weight: 0,
            tenants: 0,
            quota_ops: 0,
        }
    }
}

/// One unit of a [`Frame::Events`] stream: either a finished or a
/// failed operation, in the server's deterministic emission order.
///
/// On the wire each unit is a `u8` kind (0 = completion, 1 = failure)
/// followed by its payload ([`completion_payload`] /
/// [`failure_payload`]). The kind byte and the frame envelope are
/// **not** hashed into the session checksum — only the payloads are, in
/// order — so the checksum does not depend on how units are packed into
/// frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionEvent {
    /// A finished operation.
    Completion(WireCompletion),
    /// A failed operation.
    Failure(WireFailure),
}

/// The wire code of a [`FaultCause`].
fn cause_code(cause: FaultCause) -> u8 {
    match cause {
        FaultCause::Misfire => 1,
        FaultCause::ClockStuck => 2,
        FaultCause::Quarantined => 3,
    }
}

fn cause_from_u8(raw: u8) -> Result<FaultCause, ProtoError> {
    match raw {
        1 => Ok(FaultCause::Misfire),
        2 => Ok(FaultCause::ClockStuck),
        3 => Ok(FaultCause::Quarantined),
        other => Err(ProtoError::UnknownFaultCause(other)),
    }
}

/// End-of-batch acknowledgement: the server sends this after the
/// completions a [`Frame::Batch`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// Sequence number assigned to the batch's first operation.
    pub seq_base: u64,
    /// Operations accepted from the batch.
    pub accepted: u32,
    /// Event units emitted for this batch boundary.
    pub emitted: u32,
    /// Operations still in flight after the batch (always at or below
    /// the session's `max_outstanding`).
    pub outstanding: u64,
}

/// End-of-flush acknowledgement: everything submitted has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushAck {
    /// Event units emitted by this flush.
    pub emitted: u64,
    /// The slowest shard's current cycle after the flush.
    pub now_max: u64,
}

/// Session totals, sent in response to [`Frame::Bye`] before the server
/// closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Operations completed *successfully* over the session.
    pub ops: u64,
    /// How many of them were row operations (CODIC commands and clone
    /// baselines), as opposed to ordinary reads/writes.
    pub row_ops: u64,
    /// Operations delivered as typed failure units; always 0 with fault
    /// injection disabled.
    pub failed: u64,
    /// The largest finish cycle observed on any shard.
    pub max_finish_cycle: u64,
    /// Total accounted energy in nanojoules (successful ops only).
    pub total_energy_nj: f64,
    /// [`Fnv64`] over every completion *and* failure unit payload, in
    /// emission order.
    pub checksum: u64,
}

/// Client → server request to continue a parked session on a fresh
/// connection. Must be the *first* frame of the new connection, in
/// place of a [`Frame::Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeRequest {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// The session token the [`Frame::HelloAck`] minted.
    pub token: u64,
    /// Events (completions + failures) the client has fully absorbed.
    /// The server re-emits its journal from this index, so nothing is
    /// lost and nothing is delivered twice.
    pub events_received: u64,
}

/// Server → client acceptance of a [`Frame::Resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeAck {
    /// The effective session parameters, unchanged from the original
    /// [`Frame::HelloAck`].
    pub params: SessionParams,
    /// The session token, echoed.
    pub token: u64,
    /// Operations the session has *accepted* so far — the sequence
    /// number the next submitted operation will receive. The client
    /// resumes submission here; because the server only ever accepts
    /// whole batches, this always lands on the client's batch grid and
    /// the replayed timeline is bit-identical to an uninterrupted run.
    pub next_seq: u64,
    /// Journal events the server re-emits immediately after this ack
    /// (those past the request's `events_received`).
    pub replay_events: u64,
    /// 1 when the session had already ended (the [`Frame::Bye`] was
    /// processed but the [`Frame::Summary`] was lost in the cut): the
    /// server re-emits the journal tail and the `Summary`, then closes.
    pub finished: u8,
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be decoded, or arrived out of protocol order.
    Malformed = 1,
    /// The batch was rejected by the device policy (all-or-nothing: no
    /// operation of the batch was enqueued). The session continues.
    Policy = 2,
    /// The client's protocol version is not supported.
    Version = 3,
    /// An internal server failure.
    Internal = 4,
    /// The session can no longer serve traffic (e.g. every pool shard
    /// is quarantined, or the server is shutting down).
    Unavailable = 5,
}

impl ErrorCode {
    fn from_u8(raw: u8) -> Result<Self, ProtoError> {
        match raw {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Policy),
            3 => Ok(ErrorCode::Version),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::Unavailable),
            other => Err(ProtoError::UnknownErrorCode(other)),
        }
    }
}

/// Every frame of the replay protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: opens a session, proposing [`SessionParams`].
    Hello(SessionParams),
    /// Server → client: accepts the session with the effective params
    /// and a server-minted session token the client presents in a
    /// [`Frame::Resume`] to reconnect.
    HelloAck {
        /// The effective session parameters.
        params: SessionParams,
        /// The resume token.
        token: u64,
    },
    /// Client → server: first frame of a reconnection, continuing a
    /// parked session instead of opening a new one.
    Resume(ResumeRequest),
    /// Server → client: accepts a [`Frame::Resume`]; the journal replay
    /// follows immediately.
    ResumeAck(ResumeAck),
    /// Client → server: a batch of operations to submit, in order.
    Batch(Vec<CodicOp>),
    /// Client → server: drive every shard to idle and emit everything.
    Flush,
    /// Client → server: end of session (server flushes, then summarizes).
    Bye,
    /// Server → client: a run of completions and failures packed into
    /// one frame, in emission order. Each unit is a kind byte plus its
    /// payload.
    Events(Vec<SessionEvent>),
    /// Server → client: end of a batch's completion burst.
    Batched(BatchAck),
    /// Server → client: end of a flush's completion burst.
    Flushed(FlushAck),
    /// Server → client: session totals, then the connection closes.
    Summary(Summary),
    /// Server → client: a protocol or policy error.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// Decode-side failures.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A frame with a length of zero has no type byte.
    Empty,
    /// The frame-type tag is not part of this protocol version.
    UnknownFrame(u8),
    /// An operation code is not part of this protocol version.
    UnknownOp(u8),
    /// An error frame carried an unknown error code.
    UnknownErrorCode(u8),
    /// A failed-operation frame carried an unknown fault cause.
    UnknownFaultCause(u8),
    /// An events frame carried an unknown unit kind byte.
    UnknownEventKind(u8),
    /// The payload is shorter or longer than its frame type requires.
    BadLength {
        /// The offending frame-type tag.
        tag: u8,
        /// Payload bytes received.
        got: usize,
    },
    /// An error frame's detail is not valid UTF-8.
    BadUtf8,
    /// A frame failed its CRC32C trailer check: the bytes were
    /// corrupted in transit (or were never CRC-framed at all). The frame was
    /// dropped before any decode; the stream itself is suspect, so the
    /// peer reconnects and resumes rather than guessing at alignment.
    Crc {
        /// The CRC32C of the received body bytes.
        expected: u32,
        /// The trailer the frame actually carried.
        got: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "stream error: {e}"),
            ProtoError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            ProtoError::Empty => write!(f, "zero-length frame has no type byte"),
            ProtoError::UnknownFrame(tag) => write!(f, "unknown frame type {tag:#04x}"),
            ProtoError::UnknownOp(code) => write!(f, "unknown operation code {code:#04x}"),
            ProtoError::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            ProtoError::UnknownFaultCause(code) => write!(f, "unknown fault cause {code}"),
            ProtoError::UnknownEventKind(kind) => write!(f, "unknown event kind {kind}"),
            ProtoError::BadLength { tag, got } => {
                write!(f, "frame {tag:#04x} has a malformed payload of {got} bytes")
            }
            ProtoError::BadUtf8 => write!(f, "error detail is not valid UTF-8"),
            ProtoError::Crc { expected, got } => write!(
                f,
                "frame CRC32C mismatch: computed {expected:#010x}, trailer carried {got:#010x}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// The wire op code of a [`CodicOp`].
fn op_code(op: CodicOp) -> u8 {
    match op {
        CodicOp::Read { .. } => opcode::READ,
        CodicOp::Write { .. } => opcode::WRITE,
        CodicOp::RowCloneZero { .. } => opcode::ROW_CLONE_ZERO,
        CodicOp::LisaCloneZero { .. } => opcode::LISA_CLONE_ZERO,
        CodicOp::RowInit { ones: false, .. } => opcode::ROW_INIT0,
        CodicOp::RowInit { ones: true, .. } => opcode::ROW_INIT1,
        CodicOp::MajAnd { .. } => opcode::MAJ_AND,
        CodicOp::MajOr { .. } => opcode::MAJ_OR,
        CodicOp::Not { .. } => opcode::NOT,
        CodicOp::RowCopy { .. } => opcode::ROW_COPY,
        CodicOp::RowFill { .. } => opcode::ROW_FILL,
        CodicOp::Command { variant, .. } => {
            let index = VariantId::ALL
                .iter()
                .position(|&v| v == variant)
                .expect("every variant is in ALL");
            opcode::COMMAND_BASE + index as u8
        }
    }
}

/// Appends one operation's wire unit to `buf`: the op code, then one
/// `u64` operand (9 bytes) or, for the two-operand codes, two (17).
fn put_op(buf: &mut Vec<u8>, op: CodicOp) {
    let mut unit = [0u8; 17];
    unit[0] = op_code(op);
    let (first, second) = match op {
        CodicOp::Not { src_addr, dst_addr } | CodicOp::RowCopy { src_addr, dst_addr } => {
            (src_addr, Some(dst_addr))
        }
        CodicOp::RowFill { row_addr, pattern } => (row_addr, Some(pattern)),
        op => (op.row_addr(), None),
    };
    unit[1..9].copy_from_slice(&first.to_le_bytes());
    let len = match second {
        Some(second) => {
            unit[9..17].copy_from_slice(&second.to_le_bytes());
            17
        }
        None => 9,
    };
    buf.extend_from_slice(&unit[..len]);
}

/// The one bounds-checked cursor every frame payload is read through.
/// Each read takes its bytes off the front; a read past the end, or a
/// byte left over at [`Reader::done`], is the frame's
/// [`ProtoError::BadLength`], which reports the frame's tag and its
/// whole payload length however far the walk got.
#[derive(Debug)]
struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// The frame-type tag every length error reports.
    tag: u8,
    /// Length of the whole payload, which every length error reports.
    whole: usize,
}

impl<'a> Reader<'a> {
    fn new(tag: u8, payload: &'a [u8]) -> Self {
        Reader {
            rest: payload,
            tag,
            whole: payload.len(),
        }
    }

    /// The frame's length error.
    fn bad(&self) -> ProtoError {
        ProtoError::BadLength {
            tag: self.tag,
            got: self.whole,
        }
    }

    /// The length error unless at least `n` bytes remain: sizes a
    /// variable-length unit before any of its fields is interpreted.
    fn need(&self, n: usize) -> Result<(), ProtoError> {
        if self.rest.len() < n {
            return Err(self.bad());
        }
        Ok(())
    }

    /// The length error unless every byte has been read.
    fn done(&self) -> Result<(), ProtoError> {
        if !self.rest.is_empty() {
            return Err(self.bad());
        }
        Ok(())
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.bad())?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], ProtoError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or_else(|| self.bad())?;
        self.rest = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.array().map(|&[b]| b)
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        self.array().map(|&b| u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        self.array().map(|&b| u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.array().map(|&b| u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` unit count, refused before anything is reserved when even
    /// `unit_min`-byte units could not fit in the bytes that remain.
    fn count(&mut self, unit_min: usize) -> Result<usize, ProtoError> {
        let count = self.u32()? as usize;
        if count > self.rest.len() / unit_min {
            return Err(self.bad());
        }
        Ok(count)
    }

    /// One operation unit: one length check covers the op code and the
    /// first operand at fixed offsets; only the three two-operand codes
    /// read a second `u64`. Inlined into each walk: out of line, its
    /// `Result` round-trips through memory and the `Batch` decode ran
    /// ~4x slower per op.
    #[inline(always)]
    fn op(&mut self) -> Result<CodicOp, ProtoError> {
        let &[code, ref a @ ..] = self.array::<9>()?;
        let a = u64::from_le_bytes(*a);
        Ok(match code {
            opcode::READ => CodicOp::read(a),
            opcode::WRITE => CodicOp::write(a),
            opcode::ROW_CLONE_ZERO => CodicOp::RowCloneZero { row_addr: a },
            opcode::LISA_CLONE_ZERO => CodicOp::LisaCloneZero { row_addr: a },
            opcode::ROW_INIT0 => CodicOp::RowInit {
                row_addr: a,
                ones: false,
            },
            opcode::ROW_INIT1 => CodicOp::RowInit {
                row_addr: a,
                ones: true,
            },
            opcode::MAJ_AND => CodicOp::MajAnd { row_addr: a },
            opcode::MAJ_OR => CodicOp::MajOr { row_addr: a },
            opcode::NOT => CodicOp::Not {
                src_addr: a,
                dst_addr: self.u64()?,
            },
            opcode::ROW_COPY => CodicOp::RowCopy {
                src_addr: a,
                dst_addr: self.u64()?,
            },
            opcode::ROW_FILL => CodicOp::RowFill {
                row_addr: a,
                pattern: self.u64()?,
            },
            code => match code
                .checked_sub(opcode::COMMAND_BASE)
                .and_then(|index| VariantId::ALL.get(usize::from(index)))
            {
                Some(&variant) => CodicOp::command(variant, a),
                None => return Err(ProtoError::UnknownOp(code)),
            },
        })
    }

    /// The 32-byte session params block. The version field is data
    /// here, checked by the server at the handshake.
    fn params(&mut self) -> Result<SessionParams, ProtoError> {
        Ok(SessionParams {
            version: self.u16()?,
            shards: self.u16()?,
            module_mib: self.u32()?,
            max_outstanding: self.u32()?,
            target_rows_per_s: self.u64()?,
            refresh: self.u8()?,
            compute_rows: self.u32()?,
            qos_weight: self.u8()?,
            tenants: self.u16()?,
            quota_ops: self.u32()?,
        })
    }

    /// A [`completion_payload`]. The unit is sized up front (40 bytes:
    /// `u64` seq, `u16` shard, a 9-byte op, 21 cost bytes), so a short
    /// unit is a length error whatever op code it carries.
    fn completion(&mut self) -> Result<WireCompletion, ProtoError> {
        self.need(40)?;
        let (seq, shard, op) = (self.u64()?, self.u16()?, self.op()?);
        Ok(WireCompletion {
            seq,
            shard,
            op,
            finish_cycle: self.u64()?,
            busy_cycles: self.u32()?,
            activations: self.u8()?,
            energy_nj: self.f64()?,
            fingerprint: if op.is_compute() { self.u64()? } else { 0 },
        })
    }

    /// A [`failure_payload`], sized up front like a completion (29
    /// bytes). The cause byte is checked only once the whole unit is
    /// read, so a short unit is a length error whatever its cause.
    fn failure(&mut self) -> Result<WireFailure, ProtoError> {
        self.need(29)?;
        let (seq, shard, op) = (self.u64()?, self.u16()?, self.op()?);
        let (at_cycle, cause, attempts) = (self.u64()?, self.u8()?, self.u8()?);
        Ok(WireFailure {
            seq,
            shard,
            op,
            at_cycle,
            cause: cause_from_u8(cause)?,
            attempts,
        })
    }
}

/// The body of a frame of fixed size — every frame but `Batch`, `Events`
/// and `Error` — encoded into a stack array, so a reply or handshake
/// frame is written without touching the heap. 64 bytes hold the largest,
/// a 58-byte `ResumeAck`.
struct FixedBody {
    bytes: [u8; 64],
    len: usize,
}

impl FixedBody {
    fn new(tag: u8) -> Self {
        FixedBody {
            bytes: [0; 64],
            len: 0,
        }
        .put(&[tag])
    }

    fn put(mut self, bytes: &[u8]) -> Self {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    fn params(self, p: &SessionParams) -> Self {
        self.put(&p.version.to_le_bytes())
            .put(&p.shards.to_le_bytes())
            .put(&p.module_mib.to_le_bytes())
            .put(&p.max_outstanding.to_le_bytes())
            .put(&p.target_rows_per_s.to_le_bytes())
            .put(&[p.refresh])
            .put(&p.compute_rows.to_le_bytes())
            .put(&[p.qos_weight])
            .put(&p.tenants.to_le_bytes())
            .put(&p.quota_ops.to_le_bytes())
    }

    /// The body of `frame` when its size is fixed; `None` for `Batch`,
    /// `Events` and `Error`.
    fn of(frame: &Frame) -> Option<Self> {
        Some(match frame {
            Frame::Hello(p) => FixedBody::new(tag::HELLO).params(p),
            Frame::HelloAck { params, token } => FixedBody::new(tag::HELLO_ACK)
                .params(params)
                .put(&token.to_le_bytes()),
            Frame::Resume(r) => FixedBody::new(tag::RESUME)
                .put(&r.version.to_le_bytes())
                .put(&r.token.to_le_bytes())
                .put(&r.events_received.to_le_bytes()),
            Frame::ResumeAck(a) => FixedBody::new(tag::RESUME_ACK)
                .params(&a.params)
                .put(&a.token.to_le_bytes())
                .put(&a.next_seq.to_le_bytes())
                .put(&a.replay_events.to_le_bytes())
                .put(&[a.finished]),
            Frame::Flush => FixedBody::new(tag::FLUSH),
            Frame::Bye => FixedBody::new(tag::BYE),
            Frame::Batched(a) => FixedBody::new(tag::BATCHED)
                .put(&a.seq_base.to_le_bytes())
                .put(&a.accepted.to_le_bytes())
                .put(&a.emitted.to_le_bytes())
                .put(&a.outstanding.to_le_bytes()),
            Frame::Flushed(a) => FixedBody::new(tag::FLUSHED)
                .put(&a.emitted.to_le_bytes())
                .put(&a.now_max.to_le_bytes()),
            Frame::Summary(s) => FixedBody::new(tag::SUMMARY)
                .put(&s.ops.to_le_bytes())
                .put(&s.row_ops.to_le_bytes())
                .put(&s.failed.to_le_bytes())
                .put(&s.max_finish_cycle.to_le_bytes())
                .put(&s.total_energy_nj.to_bits().to_le_bytes())
                .put(&s.checksum.to_le_bytes()),
            Frame::Batch(_) | Frame::Events(_) | Frame::Error { .. } => return None,
        })
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Serializes `frame` as `type byte + payload` (the frame body: what
/// the CRC32C trailer covers), appending to `buf`.
pub fn encode_body(frame: &Frame, buf: &mut Vec<u8>) {
    match frame {
        Frame::Batch(ops) => {
            buf.push(tag::BATCH);
            buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for &op in ops {
                put_op(buf, op);
            }
        }
        Frame::Events(events) => {
            buf.push(tag::EVENTS);
            buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for event in events {
                match event {
                    SessionEvent::Completion(c) => {
                        buf.push(EVENT_COMPLETION);
                        completion_payload(c, buf);
                    }
                    SessionEvent::Failure(x) => {
                        buf.push(EVENT_FAILURE);
                        failure_payload(x, buf);
                    }
                }
            }
        }
        Frame::Error { code, detail } => {
            buf.push(tag::ERROR);
            buf.push(*code as u8);
            let detail = detail.as_bytes();
            let len = detail.len().min(u16::MAX as usize);
            buf.extend_from_slice(&(len as u16).to_le_bytes());
            buf.extend_from_slice(&detail[..len]);
        }
        fixed => {
            let body = FixedBody::of(fixed).expect("every other frame has a fixed size");
            buf.extend_from_slice(body.as_bytes());
        }
    }
}

/// Calls `f` with the body of `frame`: from the stack for a frame of
/// fixed size, from a fresh `Vec` otherwise.
fn with_body<T>(frame: &Frame, f: impl FnOnce(&[u8]) -> T) -> T {
    match FixedBody::of(frame) {
        Some(body) => f(body.as_bytes()),
        None => {
            let mut body = Vec::new();
            encode_body(frame, &mut body);
            f(&body)
        }
    }
}

/// The completion payload — a unit the session checksum ([`Fnv64`])
/// hashes, in emission order. 40 bytes for the classic operations
/// (unchanged since protocol v1, so their pinned session checksums
/// hold); bulk-bitwise compute operations carry their wider op
/// unit and a trailing row fingerprint (48 or 56 bytes), which makes a
/// pinned replay checksum value-verifying.
pub fn completion_payload(c: &WireCompletion, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&c.seq.to_le_bytes());
    buf.extend_from_slice(&c.shard.to_le_bytes());
    put_op(buf, c.op);
    buf.extend_from_slice(&c.finish_cycle.to_le_bytes());
    buf.extend_from_slice(&c.busy_cycles.to_le_bytes());
    buf.push(c.activations);
    buf.extend_from_slice(&c.energy_nj.to_bits().to_le_bytes());
    if c.op.is_compute() {
        buf.extend_from_slice(&c.fingerprint.to_le_bytes());
    }
}

/// The failed-operation payload (29 bytes, or 37 with a 17-byte op
/// unit; failures carry no fingerprint) — hashed into the session
/// checksum exactly like a completion payload, in emission order.
pub fn failure_payload(x: &WireFailure, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&x.seq.to_le_bytes());
    buf.extend_from_slice(&x.shard.to_le_bytes());
    put_op(buf, x.op);
    buf.extend_from_slice(&x.at_cycle.to_le_bytes());
    buf.push(cause_code(x.cause));
    buf.push(x.attempts);
}

/// The walk over the units of a [`Frame::Events`] payload (the bytes
/// after the type byte). Each step decodes one unit and yields it with
/// the payload slice it was decoded from: the kind byte excluded, so
/// exactly the bytes the session checksum hashes. [`decode_body`] and
/// the client's absorb loop both walk `Events` frames through this type.
#[derive(Debug)]
pub(crate) struct EventUnits<'a> {
    /// The units not yet walked.
    r: Reader<'a>,
    /// Units the frame's count still promises.
    left: usize,
}

impl<'a> EventUnits<'a> {
    /// Starts a walk over `payload`. A hostile count is rejected before
    /// anything is reserved: even if every unit were the smallest
    /// possible, `count` of them could not exceed the bytes present.
    pub(crate) fn new(payload: &'a [u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(tag::EVENTS, payload);
        let left = r.count(EVENT_UNIT_MIN)?;
        Ok(EventUnits { r, left })
    }

    /// The next unit and its payload slice, or `None` once the frame's
    /// count is walked. Units are variable-length, so the walk must land
    /// exactly on the payload's end: trailing bytes are an error.
    pub(crate) fn next_unit(&mut self) -> Result<Option<(SessionEvent, &'a [u8])>, ProtoError> {
        if self.left == 0 {
            return self.r.done().map(|()| None);
        }
        let kind = self.r.u8()?;
        let unit = self.r.rest;
        let event = match kind {
            EVENT_COMPLETION => SessionEvent::Completion(self.r.completion()?),
            EVENT_FAILURE => SessionEvent::Failure(self.r.failure()?),
            other => return Err(ProtoError::UnknownEventKind(other)),
        };
        self.left -= 1;
        Ok(Some((event, &unit[..unit.len() - self.r.rest.len()])))
    }
}

/// The payload of `body` when it is a [`Frame::Events`] body, for
/// [`EventUnits::new`]; `None` for every other frame type.
pub(crate) fn events_payload(body: &[u8]) -> Option<&[u8]> {
    match body.split_first() {
        Some((&tag::EVENTS, payload)) => Some(payload),
        _ => None,
    }
}

/// Decodes a `type byte + payload` body (everything after the length
/// prefix) back into a [`Frame`].
///
/// # Errors
///
/// Returns the [`ProtoError`] describing the malformation.
pub fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
    let (&tag, payload) = body.split_first().ok_or(ProtoError::Empty)?;
    let mut r = Reader::new(tag, payload);
    let frame = match tag {
        tag::HELLO => Frame::Hello(r.params()?),
        tag::HELLO_ACK => Frame::HelloAck {
            params: r.params()?,
            token: r.u64()?,
        },
        tag::RESUME => Frame::Resume(ResumeRequest {
            version: r.u16()?,
            token: r.u64()?,
            events_received: r.u64()?,
        }),
        tag::RESUME_ACK => Frame::ResumeAck(ResumeAck {
            params: r.params()?,
            token: r.u64()?,
            next_seq: r.u64()?,
            replay_events: r.u64()?,
            finished: r.u8()?,
        }),
        tag::BATCH => {
            // Units are variable-length, so decoding is a walk: each op
            // code determines how far the next one starts, and the walk
            // must land exactly on the payload's end. The count is
            // pre-checked against 1-byte units.
            let count = r.count(1)?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(r.op()?);
            }
            Frame::Batch(ops)
        }
        tag::FLUSH => Frame::Flush,
        tag::BYE => Frame::Bye,
        tag::EVENTS => {
            // The walk checks the payload's end itself.
            let mut units = EventUnits::new(payload)?;
            let mut events = Vec::with_capacity(units.left);
            while let Some((event, _)) = units.next_unit()? {
                events.push(event);
            }
            return Ok(Frame::Events(events));
        }
        tag::BATCHED => Frame::Batched(BatchAck {
            seq_base: r.u64()?,
            accepted: r.u32()?,
            emitted: r.u32()?,
            outstanding: r.u64()?,
        }),
        tag::FLUSHED => Frame::Flushed(FlushAck {
            emitted: r.u64()?,
            now_max: r.u64()?,
        }),
        tag::SUMMARY => Frame::Summary(Summary {
            ops: r.u64()?,
            row_ops: r.u64()?,
            failed: r.u64()?,
            max_finish_cycle: r.u64()?,
            total_energy_nj: r.f64()?,
            checksum: r.u64()?,
        }),
        tag::ERROR => {
            let (code, len) = (r.u8()?, r.u16()?);
            let code = ErrorCode::from_u8(code)?;
            let detail = r.bytes(usize::from(len))?;
            // A detail of the wrong length is a length error even when
            // its bytes are not UTF-8.
            r.done()?;
            let detail = std::str::from_utf8(detail).map_err(|_| ProtoError::BadUtf8)?;
            Frame::Error {
                code,
                detail: detail.to_string(),
            }
        }
        other => return Err(ProtoError::UnknownFrame(other)),
    };
    r.done()?;
    Ok(frame)
}

/// The CRC32C (Castagnoli) lookup table, built at compile time from the
/// reflected polynomial `0x82F63B78`.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Continues a CRC32C computation over `bytes` from `state` (the raw
/// shift-register value, i.e. the complement of the digest so far):
/// through the SSE4.2 `crc32` instruction when the running CPU has it,
/// the byte-at-a-time table loop everywhere else. Both compute the same
/// function (a differential unit test pins it).
fn crc32c_append(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: the `target_feature` contract of `crc32c_append_sse42`
        // is that the CPU supports SSE4.2, which the runtime check on
        // the line above just established.
        return unsafe { crc32c_append_sse42(state, bytes) };
    }
    crc32c_append_table(state, bytes)
}

/// The portable CRC32C kernel: one table lookup per byte.
fn crc32c_append_table(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC32C_TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The SSE4.2 CRC32C kernel: the `crc32` instruction over 8-byte
/// little-endian words, then byte by byte over the tail. The instruction
/// computes the reflected Castagnoli polynomial on the raw register, with
/// no initial or final complement, exactly like [`crc32c_append_table`].
///
/// # Safety
///
/// The running CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_append_sse42(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = bytes.as_chunks::<8>();
    let mut wide = u64::from(state);
    for &word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(word));
    }
    // The instruction leaves the 32-bit register zero-extended.
    let mut state = wide as u32;
    for &b in tail {
        state = _mm_crc32_u8(state, b);
    }
    state
}

/// CRC32C (Castagnoli) of `bytes` — the per-frame integrity trailer. Standard parameters (reflected polynomial
/// `0x82F63B78`, init and final XOR `0xFFFF_FFFF`), so
/// `crc32c(b"123456789") == 0xE306_9283`.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    !crc32c_append(!0, bytes)
}

/// Splits a CRC-framed body into its payload and verifies the 4-byte
/// CRC32C trailer, returning the payload (tag byte included).
fn check_crc(body: &[u8]) -> Result<&[u8], ProtoError> {
    let (payload, trailer) = body
        .split_last_chunk::<4>()
        .filter(|(payload, _)| !payload.is_empty())
        .ok_or(ProtoError::BadLength {
            tag: body.first().copied().unwrap_or(0),
            got: body.len(),
        })?;
    let (expected, got) = (crc32c(payload), u32::from_le_bytes(*trailer));
    if expected != got {
        return Err(ProtoError::Crc { expected, got });
    }
    Ok(payload)
}

/// A frame's length prefix and CRC32C trailer, for the body `head`
/// followed by `units`. The prefix covers the body *and* the 4-byte
/// trailer; the trailer hashes the body incrementally, so `units` is
/// never copied.
fn envelope(head: &[u8], units: &[u8]) -> ([u8; 4], [u8; 4]) {
    let prefix = ((head.len() + units.len() + 4) as u32).to_le_bytes();
    let trailer = (!crc32c_append(crc32c_append(!0, head), units)).to_le_bytes();
    (prefix, trailer)
}

/// Writes one frame whose body is `head` followed by `units` and, when
/// `next` is not empty, a second frame whose body is `next`: the one
/// place a length prefix and a CRC32C trailer are written. Both frames
/// go out in one vectored write-all loop that resumes from the exact
/// byte offset each `write_vectored` reached, so a stream that takes
/// the whole run at once sees a single write.
fn write_framed<W: Write>(w: &mut W, head: &[u8], units: &[u8], next: &[u8]) -> io::Result<()> {
    let (prefix, trailer) = envelope(head, units);
    let (next_prefix, next_trailer) = envelope(next, &[]);
    let mut slices = [
        IoSlice::new(&prefix),
        IoSlice::new(head),
        IoSlice::new(units),
        IoSlice::new(&trailer),
        IoSlice::new(&next_prefix),
        IoSlice::new(next),
        IoSlice::new(&next_trailer),
    ];
    let frames = if next.is_empty() { 4 } else { slices.len() };
    let mut slices = &mut slices[..frames];
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The head of a counted frame: its type tag, then the `u32` unit count.
fn counted_head(tag: u8, count: usize) -> [u8; 5] {
    let [a, b, c, d] = (count as u32).to_le_bytes();
    [tag, a, b, c, d]
}

/// Writes one frame (no flush — callers batch frames and flush at
/// protocol boundaries): the length prefix covers the body *and* the
/// 4-byte CRC32C trailer computed over the body. Frames of fixed size
/// are encoded on the stack.
///
/// # Errors
///
/// Propagates the stream's I/O error; a short write that makes no
/// progress surfaces as [`io::ErrorKind::WriteZero`].
pub fn write_frame_crc<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    with_body(frame, |body| write_framed(w, body, &[], &[]))
}

/// Writes `ops` as one [`Frame::Batch`] frame straight from the borrowed
/// slice: the bytes [`write_frame_crc`] writes for
/// `Frame::Batch(ops.to_vec())` (a unit test pins the identity), with
/// no copy of the ops. The units are encoded into `buf`, which the
/// caller keeps across batches (cleared here, never shrunk), so a
/// session's batches stop allocating once `buf` has reached the widest.
///
/// # Errors
///
/// Propagates the stream's I/O error, as [`write_frame_crc`].
pub fn write_batch_crc<W: Write>(w: &mut W, ops: &[CodicOp], buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    for &op in ops {
        put_op(buf, op);
    }
    write_framed(w, &counted_head(tag::BATCH, ops.len()), buf, &[])
}

/// Writes encoded event units as [`Frame::Events`] frames carrying at
/// most `frame_bytes` unit bytes each (whole units, at least one per
/// frame, never past [`MAX_FRAME_LEN`]). `units` holds each unit's kind
/// byte and payload back to back and `lens[i]` is unit `i`'s length.
/// Every frame is exactly what [`write_frame_crc`] would produce for the
/// same events (a unit test pins the byte identity). No units write
/// nothing.
///
/// # Errors
///
/// Propagates the stream's I/O error, as [`write_frame_crc`].
pub fn write_events_crc<W: Write>(
    w: &mut W,
    units: &[u8],
    lens: &[u8],
    frame_bytes: usize,
) -> io::Result<()> {
    write_events_then(w, units, lens, frame_bytes, &[])
}

/// Writes encoded event units as [`write_events_crc`] does with no cap
/// but [`MAX_FRAME_LEN`], then `reply`: the bytes of those two calls
/// and a [`write_frame_crc`] of `reply`, with the last `Events` frame
/// and `reply` handed to the stream in one vectored write. An emission
/// that fits one frame (under [`MAX_FRAME_LEN`]) reaches the stream in
/// a single write together with its reply.
///
/// # Errors
///
/// Propagates the stream's I/O error, as [`write_frame_crc`].
pub fn write_reply_crc<W: Write>(
    w: &mut W,
    units: &[u8],
    lens: &[u8],
    reply: &Frame,
) -> io::Result<()> {
    with_body(reply, |body| {
        write_events_then(w, units, lens, usize::MAX, body)
    })
}

/// [`write_events_crc`], with the frame body `next` (when not empty)
/// written in the same vectored write as the last `Events` frame, or
/// alone when there are no units.
fn write_events_then<W: Write>(
    w: &mut W,
    mut units: &[u8],
    mut lens: &[u8],
    frame_bytes: usize,
    next: &[u8],
) -> io::Result<()> {
    if lens.is_empty() && !next.is_empty() {
        return write_framed(w, next, &[], &[]);
    }
    // The length prefix covers the tag, the u32 count, the units and
    // the 4-byte CRC trailer.
    let frame_bytes = frame_bytes.min(MAX_FRAME_LEN as usize - 9);
    while !lens.is_empty() {
        let (mut count, mut size) = (0, 0);
        for &len in lens {
            if count > 0 && size + usize::from(len) > frame_bytes {
                break;
            }
            count += 1;
            size += usize::from(len);
        }
        let (frame, rest) = units.split_at(size);
        (units, lens) = (rest, &lens[count..]);
        let tail = if lens.is_empty() { next } else { &[] };
        write_framed(w, &counted_head(tag::EVENTS, count), frame, tail)?;
    }
    debug_assert!(units.is_empty(), "`lens` must cover every unit byte");
    Ok(())
}

/// Reads one frame from `r`, enforcing [`MAX_FRAME_LEN`] and verifying
/// the CRC32C trailer before decoding.
///
/// Blocks until the whole frame arrives: a stream with a read timeout
/// must retry timed-out reads inside its own `Read`, as the server does.
///
/// # Errors
///
/// Returns [`ProtoError::Io`] on stream failure (including a clean EOF
/// before the length prefix, surfaced as
/// [`io::ErrorKind::UnexpectedEof`]), [`ProtoError::Crc`] on a trailer
/// mismatch, and the matching decode error on a malformed frame.
pub fn read_frame_crc<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    read_body_crc(r, &mut Vec::new()).and_then(decode_body)
}

/// Reads one frame's body into `buf` (reusing its allocation across
/// calls), enforces [`MAX_FRAME_LEN`], verifies the CRC32C trailer and
/// returns the verified body — the type byte plus payload that
/// [`decode_body`] takes — without decoding it. Client and server both
/// read every frame here; an oversized prefix is refused before `buf` grows.
///
/// # Errors
///
/// As [`read_frame_crc`], minus the decode errors.
pub fn read_body_crc<'b, R: Read>(r: &mut R, buf: &'b mut Vec<u8>) -> Result<&'b [u8], ProtoError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = body_len(prefix)?;
    // Every byte up to `len` is overwritten by the read, so only growth
    // needs zero-filling.
    buf.resize(len, 0);
    r.read_exact(buf)?;
    check_crc(buf)
}

/// Validates a frame's length prefix, returning the body length (which
/// includes the CRC trailer).
fn body_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    match u32::from_le_bytes(prefix) {
        0 => Err(ProtoError::Empty),
        len if len > MAX_FRAME_LEN => Err(ProtoError::Oversized(len)),
        len => Ok(len as usize),
    }
}

/// FNV-1a 64-bit — the session checksum over completion payloads.
///
/// Offset basis `0xcbf2_9ce4_8422_2325`, prime `0x0000_0100_0000_01b3`;
/// fed with the [`completion_payload`] or [`failure_payload`] of every
/// event unit in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current digest.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame_crc(&mut wire, &frame).unwrap();
        // The length prefix covers exactly the body and its trailer.
        let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, wire.len() - 4);
        let mut reader = wire.as_slice();
        let decoded = read_frame_crc(&mut reader).unwrap();
        assert!(reader.is_empty(), "frame consumed exactly");
        assert_eq!(decoded, frame);
    }

    /// Wire size of the session params block.
    const PARAMS_LEN: usize = 32;

    #[test]
    fn hello_round_trips() {
        round_trip(Frame::Hello(SessionParams::defaults()));
        round_trip(Frame::Hello(SessionParams {
            version: PROTOCOL_VERSION,
            shards: 4,
            module_mib: 64,
            max_outstanding: 1024,
            target_rows_per_s: 2_000_000,
            refresh: 0,
            compute_rows: 64,
            qos_weight: 7,
            tenants: 16,
            quota_ops: 4096,
        }));
    }

    #[test]
    fn hello_ack_round_trips() {
        // The ack carries the QoS/tenancy tail and the session token.
        round_trip(Frame::HelloAck {
            params: SessionParams {
                version: PROTOCOL_VERSION,
                shards: 2,
                module_mib: 128,
                max_outstanding: 512,
                target_rows_per_s: 0,
                refresh: 1,
                compute_rows: 16,
                qos_weight: 3,
                tenants: 8,
                quota_ops: 512,
            },
            token: 0xfeed_face_0123_4567,
        });
        // An ack without its token, or with a byte too many, is a typed
        // length error, not a misread.
        let mut body = Vec::new();
        encode_body(
            &Frame::HelloAck {
                params: SessionParams::defaults(),
                token: 7,
            },
            &mut body,
        );
        assert_eq!(body.len(), 1 + PARAMS_LEN + 8);
        assert!(matches!(
            body_err(&body[..1 + PARAMS_LEN]),
            ProtoError::BadLength { .. }
        ));
        body.push(0);
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
    }

    #[test]
    fn resume_round_trips() {
        round_trip(Frame::Resume(ResumeRequest {
            version: PROTOCOL_VERSION,
            token: 0xdead_beef_cafe_f00d,
            events_received: 123_456,
        }));
        round_trip(Frame::ResumeAck(ResumeAck {
            params: SessionParams::defaults(),
            token: 0xdead_beef_cafe_f00d,
            next_seq: 4096,
            replay_events: 37,
            finished: 1,
        }));
    }

    #[test]
    fn crc32c_matches_the_castagnoli_reference_vectors() {
        // The canonical check value, plus RFC 3720-style edge vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// `len` bytes of a splitmix64 stream keyed on `seed`.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| crate::chaos::mix64(seed ^ i) as u8)
            .collect()
    }

    #[test]
    fn crc32c_equals_the_table_loop_at_every_length_and_offset() {
        // Every alignment of the 8-byte word loop and every tail length.
        let buf = seeded_bytes(0x00c0_ffee, 256 + 8);
        for start in 0..8 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32c_append(!0, bytes),
                    crc32c_append_table(!0, bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32c_equals_the_table_loop_on_one_mebibyte() {
        let buf = seeded_bytes(0x0001_0000_0000, 1 << 20);
        assert_eq!(crc32c_append(!0, &buf), crc32c_append_table(!0, &buf));
    }

    #[test]
    fn crc32c_append_composes_over_every_split() {
        // `write_framed` hashes the frame head and the units in two
        // appends; every split must give the one-pass digest.
        let buf = seeded_bytes(0x5eed, 200);
        let whole = crc32c_append_table(!0, &buf);
        assert_eq!(crc32c_append(!0, &buf), whole);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                crc32c_append(crc32c_append(!0, a), b),
                whole,
                "split {split}"
            );
            assert_eq!(
                crc32c_append_table(crc32c_append_table(!0, a), b),
                whole,
                "table split {split}"
            );
        }
    }

    #[test]
    fn read_body_crc_reuses_one_buffer_across_frames() {
        let frames = [
            Frame::Events(sample_events()),
            Frame::Bye,
            Frame::Batch(vec![CodicOp::read(0x40); 3]),
            Frame::Events(sample_events()),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame_crc(&mut wire, frame).unwrap();
        }
        let mut reader = wire.as_slice();
        let mut buf = Vec::new();
        let mut capacity = None;
        for frame in &frames {
            // A shorter frame after a longer one must not see its bytes.
            let body = read_body_crc(&mut reader, &mut buf).unwrap();
            assert_eq!(&decode_body(body).unwrap(), frame);
            assert_eq!(*capacity.get_or_insert(buf.capacity()), buf.capacity());
        }
        assert!(reader.is_empty());
        // Corruption is caught exactly as `read_frame_crc` catches it.
        let last = wire.len() - 1;
        wire[last] ^= 1;
        let mut reader = wire.as_slice();
        for _ in 1..frames.len() {
            read_body_crc(&mut reader, &mut buf).unwrap();
        }
        assert!(matches!(
            read_body_crc(&mut reader, &mut buf),
            Err(ProtoError::Crc { .. })
        ));
    }

    #[test]
    fn crc_framed_frames_round_trip_and_detect_corruption() {
        let frame = Frame::Batch(vec![CodicOp::read(0x40), CodicOp::write(0x80)]);
        let mut wire = Vec::new();
        write_frame_crc(&mut wire, &frame).unwrap();
        // The length prefix covers the body plus the 4-byte trailer.
        let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, wire.len() - 4);
        assert_eq!(read_frame_crc(&mut wire.as_slice()).unwrap(), frame);
        // Any corrupted body byte is a typed Crc error, before decode.
        for pos in 4..wire.len() {
            let mut mutant = wire.clone();
            mutant[pos] ^= 0x10;
            assert!(matches!(
                read_frame_crc(&mut mutant.as_slice()),
                Err(ProtoError::Crc { .. })
            ));
        }
    }

    /// `events` encoded as the server's journal holds them: each unit's
    /// kind byte and payload back to back, plus each unit's length.
    fn encode_units(events: &[SessionEvent]) -> (Vec<u8>, Vec<u8>) {
        let (mut units, mut lens) = (Vec::new(), Vec::new());
        for event in events {
            let start = units.len();
            match event {
                SessionEvent::Completion(c) => {
                    units.push(EVENT_COMPLETION);
                    completion_payload(c, &mut units);
                }
                SessionEvent::Failure(x) => {
                    units.push(EVENT_FAILURE);
                    failure_payload(x, &mut units);
                }
            }
            lens.push((units.len() - start) as u8);
        }
        (units, lens)
    }

    #[test]
    fn events_crc_write_matches_write_frame_crc_byte_for_byte() {
        let events = sample_events();
        let mut via_frame = Vec::new();
        write_frame_crc(&mut via_frame, &Frame::Events(events.clone())).unwrap();
        let (units, lens) = encode_units(&events);
        let mut via_units = Vec::new();
        write_events_crc(&mut via_units, &units, &lens, usize::MAX).unwrap();
        assert_eq!(via_units, via_frame);
    }

    #[test]
    fn replies_are_the_events_then_the_reply_in_one_write() {
        /// Keeps each write call's bytes apart.
        #[derive(Default)]
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.0
                    .push(bufs.iter().flat_map(|b| b.iter().copied()).collect());
                Ok(self.0.last().map_or(0, Vec::len))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let reply = Frame::Batched(BatchAck {
            seq_base: 7,
            accepted: 3,
            emitted: 4,
            outstanding: 1,
        });
        let error = Frame::Error {
            code: ErrorCode::Unavailable,
            detail: "idle".into(),
        };
        for events in [sample_events(), Vec::new()] {
            for reply in [&reply, &error] {
                let (units, lens) = encode_units(&events);
                let mut expected = Vec::new();
                write_events_crc(&mut expected, &units, &lens, usize::MAX).unwrap();
                write_frame_crc(&mut expected, reply).unwrap();
                let mut calls = Calls::default();
                write_reply_crc(&mut calls, &units, &lens, reply).unwrap();
                assert_eq!(calls.0.len(), 1, "one write call");
                assert_eq!(calls.0[0], expected);
            }
        }
    }

    /// One op of every kind, each command variant included.
    fn every_op_kind() -> Vec<CodicOp> {
        let mut ops = vec![
            CodicOp::read(0x40),
            CodicOp::write(u64::MAX),
            CodicOp::RowCloneZero { row_addr: 0x2000 },
            CodicOp::LisaCloneZero { row_addr: 0x4000 },
            CodicOp::RowInit {
                row_addr: 0x6000,
                ones: false,
            },
            CodicOp::RowInit {
                row_addr: 0x8000,
                ones: true,
            },
            CodicOp::MajAnd { row_addr: 0xA000 },
            CodicOp::MajOr { row_addr: 0xC000 },
            CodicOp::Not {
                src_addr: 0xE000,
                dst_addr: 0x1_0000,
            },
            CodicOp::RowCopy {
                src_addr: 0x1_2000,
                dst_addr: 0x1_4000,
            },
            CodicOp::RowFill {
                row_addr: 0x1_6000,
                pattern: 0xA5A5_A5A5_A5A5_A5A5,
            },
        ];
        for variant in VariantId::ALL {
            ops.push(CodicOp::command(variant, 0x8000));
        }
        ops
    }

    #[test]
    fn batch_round_trips_every_op_kind() {
        round_trip(Frame::Batch(every_op_kind()));
        round_trip(Frame::Batch(Vec::new()));
    }

    #[test]
    fn borrowed_batches_write_the_frame_bytes() {
        let kinds = every_op_kind();
        // 300 ops of mixed 9- and 17-byte units, then shorter batches:
        // the one reused buffer must carry no bytes of a longer batch.
        let long: Vec<CodicOp> = kinds.iter().copied().cycle().take(300).collect();
        let mut buf = Vec::new();
        for ops in [&[][..], &long[..], &kinds[..1], &kinds[..], &[][..]] {
            let mut borrowed = Vec::new();
            write_batch_crc(&mut borrowed, ops, &mut buf).unwrap();
            let mut framed = Vec::new();
            write_frame_crc(&mut framed, &Frame::Batch(ops.to_vec())).unwrap();
            assert_eq!(borrowed, framed, "{} ops", ops.len());
        }
    }

    #[test]
    fn variable_length_batches_must_walk_to_the_exact_end() {
        // A batch whose count claims one more op than the units supply.
        let ops = vec![
            CodicOp::Not {
                src_addr: 0x2000,
                dst_addr: 0x4000,
            },
            CodicOp::read(0x40),
        ];
        let mut body = Vec::new();
        encode_body(&Frame::Batch(ops), &mut body);
        body[1] = 3; // count lies upward: the walk runs out of bytes
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
        body[1] = 1; // count lies downward: trailing bytes remain
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
    }

    #[test]
    fn flush_and_bye_round_trip() {
        round_trip(Frame::Flush);
        round_trip(Frame::Bye);
    }

    /// A classic completion at the edge of the sequence space, with
    /// energy bits that only survive an exact round trip.
    fn edge_completion() -> WireCompletion {
        WireCompletion {
            seq: u64::MAX - 1,
            shard: 3,
            op: CodicOp::command(VariantId::Sig, 0x1_0000),
            finish_cycle: 123_456_789,
            busy_cycles: 39,
            activations: 2,
            energy_nj: 17.296_452_19,
            fingerprint: 0,
        }
    }

    #[test]
    fn completion_round_trips_with_exact_energy_bits() {
        round_trip(Frame::Events(vec![SessionEvent::Completion(
            edge_completion(),
        )]));
    }

    #[test]
    fn compute_completions_carry_their_fingerprint() {
        // 9-byte compute op: 48-byte payload with a trailing fingerprint.
        let maj = WireCompletion {
            seq: 9,
            shard: 2,
            op: CodicOp::MajAnd { row_addr: 0x2_0000 },
            finish_cycle: 4242,
            busy_cycles: 55,
            activations: 3,
            energy_nj: 21.5,
            fingerprint: 0xfeed_face_dead_beef,
        };
        let mut payload = Vec::new();
        completion_payload(&maj, &mut payload);
        assert_eq!(payload.len(), 48);
        round_trip(Frame::Events(vec![SessionEvent::Completion(maj)]));
        // 17-byte compute op: 56-byte payload.
        let not = WireCompletion {
            op: CodicOp::Not {
                src_addr: 0x2_0000,
                dst_addr: 0x2_2000,
            },
            ..maj
        };
        let mut payload = Vec::new();
        completion_payload(&not, &mut payload);
        assert_eq!(payload.len(), 56);
        round_trip(Frame::Events(vec![SessionEvent::Completion(not)]));
        // Classic ops stay byte-identical 40-byte v1 payloads: the
        // pinned session checksums of fault-free replays are unchanged.
        let mut payload = Vec::new();
        completion_payload(
            &WireCompletion {
                op: CodicOp::read(0x40),
                fingerprint: 0,
                ..maj
            },
            &mut payload,
        );
        assert_eq!(payload.len(), 40);
    }

    #[test]
    fn failures_of_two_address_ops_round_trip() {
        let failure = WireFailure {
            seq: 11,
            shard: 1,
            op: CodicOp::RowCopy {
                src_addr: 0x2_0000,
                dst_addr: 0x2_4000,
            },
            at_cycle: 88_888,
            cause: FaultCause::Misfire,
            attempts: 2,
        };
        let mut payload = Vec::new();
        failure_payload(&failure, &mut payload);
        assert_eq!(payload.len(), 37, "17-byte unit widens the payload by 8");
        round_trip(Frame::Events(vec![SessionEvent::Failure(failure)]));
    }

    #[test]
    fn batched_round_trips() {
        round_trip(Frame::Batched(BatchAck {
            seq_base: 4096,
            accepted: 1024,
            emitted: 1000,
            outstanding: 24,
        }));
    }

    #[test]
    fn flushed_round_trips() {
        round_trip(Frame::Flushed(FlushAck {
            emitted: 99,
            now_max: 1_000_000,
        }));
    }

    #[test]
    fn summary_round_trips() {
        round_trip(Frame::Summary(Summary {
            ops: 100_000,
            row_ops: 60_000,
            failed: 137,
            max_finish_cycle: 9_999_999,
            total_energy_nj: 1.730_442e6,
            checksum: 0xdead_beef_cafe_f00d,
        }));
    }

    /// One failure per fault cause.
    fn failures_of_every_cause() -> Vec<WireFailure> {
        [
            (FaultCause::Misfire, 3),
            (FaultCause::ClockStuck, 1),
            (FaultCause::Quarantined, 1),
        ]
        .into_iter()
        .map(|(cause, attempts)| WireFailure {
            seq: 42_000,
            shard: 2,
            op: CodicOp::command(VariantId::DetZero, 0x8000),
            at_cycle: 77_777,
            cause,
            attempts,
        })
        .collect()
    }

    #[test]
    fn failed_round_trips_every_cause() {
        for failure in failures_of_every_cause() {
            round_trip(Frame::Events(vec![SessionEvent::Failure(failure)]));
        }
        // An unknown cause byte is a typed decode error.
        let failure = WireFailure {
            seq: 1,
            shard: 0,
            op: CodicOp::read(0),
            at_cycle: 9,
            cause: FaultCause::Misfire,
            attempts: 1,
        };
        let mut body = Vec::new();
        encode_body(
            &Frame::Events(vec![SessionEvent::Failure(failure)]),
            &mut body,
        );
        // The cause byte: tag + count + kind, then 27 payload bytes.
        body[1 + 4 + 1 + 27] = 0xee;
        assert!(matches!(
            decode_body(&body),
            Err(ProtoError::UnknownFaultCause(0xee))
        ));
    }

    /// A representative mixed run: classic and compute completions (9-
    /// and 17-byte ops, with fingerprints) interleaved with failures of
    /// every cause.
    fn sample_events() -> Vec<SessionEvent> {
        let mut events = vec![
            SessionEvent::Completion(WireCompletion {
                seq: 0,
                shard: 1,
                op: CodicOp::read(0x40),
                finish_cycle: 100,
                busy_cycles: 24,
                activations: 1,
                energy_nj: 3.25,
                fingerprint: 0,
            }),
            SessionEvent::Completion(WireCompletion {
                seq: 1,
                shard: 0,
                op: CodicOp::MajAnd { row_addr: 0x2_0000 },
                finish_cycle: 140,
                busy_cycles: 55,
                activations: 3,
                energy_nj: 21.5,
                fingerprint: 0xfeed_face_dead_beef,
            }),
            SessionEvent::Failure(WireFailure {
                seq: 2,
                shard: 1,
                op: CodicOp::RowCopy {
                    src_addr: 0x2_0000,
                    dst_addr: 0x2_4000,
                },
                at_cycle: 150,
                cause: FaultCause::Misfire,
                attempts: 2,
            }),
            SessionEvent::Completion(WireCompletion {
                seq: 3,
                shard: 0,
                op: CodicOp::RowFill {
                    row_addr: 0x2_2000,
                    pattern: 0xA5A5_A5A5_A5A5_A5A5,
                },
                finish_cycle: 190,
                busy_cycles: 61,
                activations: 4,
                energy_nj: 27.75,
                fingerprint: 0x0123_4567_89ab_cdef,
            }),
            SessionEvent::Failure(WireFailure {
                seq: 4,
                shard: 0,
                op: CodicOp::command(VariantId::DetZero, 0x8000),
                at_cycle: 200,
                cause: FaultCause::Quarantined,
                attempts: 1,
            }),
            SessionEvent::Completion(edge_completion()),
        ];
        events.extend(
            failures_of_every_cause()
                .into_iter()
                .map(SessionEvent::Failure),
        );
        events
    }

    #[test]
    fn events_round_trip_mixed_runs() {
        round_trip(Frame::Events(sample_events()));
        round_trip(Frame::Events(Vec::new()));
    }

    #[test]
    fn events_crc_write_decodes_back_and_no_units_write_nothing() {
        let events = sample_events();
        let (units, lens) = encode_units(&events);
        let mut wire = Vec::new();
        write_events_crc(&mut wire, &units, &lens, usize::MAX).unwrap();
        assert_eq!(
            read_frame_crc(&mut wire.as_slice()).unwrap(),
            Frame::Events(events)
        );
        let mut empty = Vec::new();
        write_events_crc(&mut empty, &[], &[], usize::MAX).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn events_crc_write_survives_one_byte_writes() {
        // A stream that accepts one byte per call (with interruptions)
        // exercises the vectored write-all resume path; a stuck one
        // accepts nothing and must fail rather than spin.
        #[derive(Default)]
        struct OneByte {
            bytes: Vec<u8>,
            interrupted: bool,
            stuck: bool,
        }
        impl io::Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "again"));
                }
                self.interrupted = false;
                if self.stuck {
                    return Ok(0);
                }
                self.bytes.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let events = sample_events();
        let (units, lens) = encode_units(&events);
        let ops = every_op_kind();
        let hello = Frame::Hello(SessionParams::defaults());
        // Every frame writer, beside the frame it must write.
        type WriteTo<'a> = &'a dyn Fn(&mut OneByte) -> io::Result<()>;
        let cases: [(Frame, WriteTo); 3] = [
            (Frame::Events(events.clone()), &|w| {
                write_events_crc(w, &units, &lens, usize::MAX)
            }),
            (Frame::Batch(ops.clone()), &|w| {
                write_batch_crc(w, &ops, &mut Vec::new())
            }),
            (hello.clone(), &|w| write_frame_crc(w, &hello)),
        ];
        for (frame, write_to) in cases {
            let mut via_frame = Vec::new();
            write_frame_crc(&mut via_frame, &frame).unwrap();
            let mut stream = OneByte::default();
            write_to(&mut stream).unwrap();
            assert_eq!(stream.bytes, via_frame, "{frame:?}");
            let mut stuck = OneByte {
                stuck: true,
                ..OneByte::default()
            };
            let error = write_to(&mut stuck).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::WriteZero, "{frame:?}");
        }
    }

    #[test]
    fn events_crc_write_splits_large_runs_under_the_cap() {
        let widest = WireCompletion {
            seq: 0,
            shard: 0,
            op: CodicOp::Not {
                src_addr: 0x2_0000,
                dst_addr: 0x2_2000,
            },
            finish_cycle: 1,
            busy_cycles: 1,
            activations: 1,
            energy_nj: 1.0,
            fingerprint: 1,
        };
        // 80,000 widest units (57 bytes each) overflow one 4 MiB frame.
        let run = vec![SessionEvent::Completion(widest); 80_000];
        let (units, lens) = encode_units(&run);
        let mut wire = Vec::new();
        write_events_crc(&mut wire, &units, &lens, usize::MAX).unwrap();
        let mut reader = wire.as_slice();
        let mut frames = Vec::new();
        while !reader.is_empty() {
            let len = u32::from_le_bytes(reader[0..4].try_into().unwrap());
            assert!(len <= MAX_FRAME_LEN, "every frame fits under the cap");
            // And each giant frame decodes back to its part of the run.
            match read_frame_crc(&mut reader).unwrap() {
                Frame::Events(events) => frames.push(events),
                other => panic!("expected an events frame, got {other:?}"),
            }
        }
        assert_eq!(frames.len(), 2, "the run splits into two frames");
        assert!(frames[0].len() > 70_000, "the cap admits a large run");
        assert_eq!(frames.concat(), run);
    }

    #[test]
    fn hostile_event_counts_are_rejected_before_allocation() {
        // count = u32::MAX over a 34-byte payload: the pre-check fails
        // long before `Vec::with_capacity` could see the count.
        let mut body = vec![tag::EVENTS];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0u8; 30]);
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
        // An unknown unit kind is a typed error.
        let mut body = Vec::new();
        encode_body(&Frame::Events(sample_events()), &mut body);
        body[5] = 7; // first unit's kind byte
        assert!(matches!(body_err(&body), ProtoError::UnknownEventKind(7)));
        // The walk must land exactly on the payload's end.
        let mut body = Vec::new();
        encode_body(&Frame::Events(sample_events()), &mut body);
        body.push(0); // trailing garbage after the last unit
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
        // A count lying downward leaves units unconsumed.
        let mut body = Vec::new();
        encode_body(&Frame::Events(sample_events()), &mut body);
        body[1] -= 1;
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
    }

    #[test]
    fn error_round_trips_every_code() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Policy,
            ErrorCode::Version,
            ErrorCode::Internal,
            ErrorCode::Unavailable,
        ] {
            round_trip(Frame::Error {
                code,
                detail: format!("{code:?}: address 0x1234 outside 0x0..0x1000"),
            });
        }
        round_trip(Frame::Error {
            code: ErrorCode::Internal,
            detail: String::new(),
        });
    }

    #[test]
    fn malformed_frames_are_rejected_not_misread() {
        // Unknown frame tag, and the two reserved tags of the retired
        // per-op completion frames.
        for reserved in [0x7f, 0x82, 0x87] {
            let mut body = vec![reserved];
            body.extend_from_slice(&[0u8; 40]);
            assert!(matches!(
                decode_body(&body),
                Err(ProtoError::UnknownFrame(t)) if t == reserved
            ));
        }
        // Unknown op code inside a batch.
        let mut body = vec![0x02, 1, 0, 0, 0, 0xee];
        body.extend_from_slice(&[0u8; 8]);
        assert!(matches!(body_err(&body), ProtoError::UnknownOp(0xee)));
        // Truncated batch (count says 2, one unit present).
        let mut body = vec![0x02, 2, 0, 0, 0];
        body.extend_from_slice(&[0u8; 9]);
        assert!(matches!(body_err(&body), ProtoError::BadLength { .. }));
        // Payload on a payload-less frame.
        assert!(matches!(body_err(&[0x03, 1]), ProtoError::BadLength { .. }));
        // Oversized length prefix is rejected before allocation.
        let mut wire = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        wire.push(0x03);
        assert!(matches!(
            read_frame_crc(&mut wire.as_slice()),
            Err(ProtoError::Oversized(_))
        ));
        // EOF mid-frame surfaces as an I/O error.
        let mut wire = Vec::new();
        write_frame_crc(&mut wire, &Frame::Flush).unwrap();
        wire.pop();
        assert!(matches!(
            read_frame_crc(&mut wire.as_slice()),
            Err(ProtoError::Io(_))
        ));
        // A frame without its trailer never decodes.
        let mut body = Vec::new();
        encode_body(&Frame::Hello(SessionParams::defaults()), &mut body);
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(matches!(
            read_frame_crc(&mut wire.as_slice()),
            Err(ProtoError::Crc { .. })
        ));
    }

    fn body_err(body: &[u8]) -> ProtoError {
        decode_body(body).expect_err("malformed body must not decode")
    }

    #[test]
    fn checksum_is_the_documented_fnv1a() {
        // Pinned reference values of FNV-1a 64.
        let mut h = Fnv64::new();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325, "offset basis");
        h.update(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.value(), 0x8594_4171_f739_67e8);
        // Incremental and one-shot hashing agree.
        let mut parts = Fnv64::new();
        parts.update(b"foo");
        parts.update(b"bar");
        assert_eq!(parts.value(), h.value());
    }
}
