//! Adversarial wire-protocol fuzzing: every frame type survives
//! arbitrary corruption with a typed [`ProtoError`], never a panic and
//! never an attacker-sized allocation.
//!
//! Every frame carries a CRC32C trailer, which gives two layers to
//! attack, each with three deterministic campaigns over a corpus holding
//! every frame variant — exhaustive single-bit flips, seeded multi-byte
//! storms (a splitmix64-driven 1–8 bytes per trial), and every proper
//! prefix:
//!
//! 1. **The wire as sent.** Corruption in transit must be *detected*:
//!    no damaged frame ever decodes.
//! 2. **The body codec behind a valid trailer.** CRC32C is not a MAC —
//!    a hostile peer can seal any bytes it likes — so corrupted bodies
//!    are re-sealed with a correct trailer and must still decode to a
//!    frame or a typed error, never a panic.
//!
//! Every buffer is decoded two ways — [`read_frame_crc`] over the whole
//! slice at once, and [`read_body_crc`] fed one byte per read — and
//! both must agree. Oversized length prefixes and event counts must be
//! rejected *before* any allocation.

use std::io::Read;

use codic_core::fault::FaultCause;
use codic_core::ops::{CodicOp, VariantId};
use codic_server::proto::{
    crc32c, decode_body, encode_body, read_body_crc, read_frame_crc, write_frame_crc, BatchAck,
    ErrorCode, FlushAck, Frame, ProtoError, ResumeAck, ResumeRequest, SessionEvent, SessionParams,
    Summary, WireCompletion, WireFailure, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// splitmix64: the same deterministic generator the fault layer uses.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One of every frame variant, with non-trivial payloads.
fn corpus() -> Vec<Frame> {
    let completion = WireCompletion {
        seq: 41,
        shard: 3,
        op: CodicOp::command(VariantId::DetZero, 4096),
        finish_cycle: 9_000,
        busy_cycles: 120,
        activations: 2,
        energy_nj: 17.25,
        fingerprint: 0,
    };
    // A compute completion carries the trailing row fingerprint, and a
    // two-address compute op stretches both payloads to their longest
    // layout — the fuzz campaigns must cover those variable tails too.
    let compute_completion = WireCompletion {
        seq: 43,
        shard: 0,
        op: CodicOp::Not {
            src_addr: 0x10_0000,
            dst_addr: 0x10_2000,
        },
        finish_cycle: 11_000,
        busy_cycles: 90,
        activations: 2,
        energy_nj: 5.5,
        fingerprint: 0xfeed_face_dead_beef,
    };
    let failure = WireFailure {
        seq: 42,
        shard: 1,
        op: CodicOp::RowCloneZero { row_addr: 8192 },
        at_cycle: 10_000,
        cause: FaultCause::Misfire,
        attempts: 3,
    };
    let compute_failure = WireFailure {
        seq: 44,
        shard: 2,
        op: CodicOp::RowCopy {
            src_addr: 0x10_0000,
            dst_addr: 0x10_4000,
        },
        at_cycle: 12_000,
        cause: FaultCause::Misfire,
        attempts: 1,
    };
    // A mixed run stressing every unit layout (kind byte + 40/48/56-byte
    // completions, 29/37-byte failures), plus the legal empty frame. The
    // corruption campaigns strike the count word and the kind bytes
    // mid-walk.
    let events = Frame::Events(vec![
        SessionEvent::Completion(completion),
        SessionEvent::Failure(failure),
        SessionEvent::Completion(compute_completion),
        SessionEvent::Failure(compute_failure),
    ]);
    // A params block with its whole QoS/tenancy tail lit up, so the
    // corruption campaigns strike meaningful bytes of it.
    let qos_params = SessionParams {
        qos_weight: 7,
        tenants: 2048,
        quota_ops: 1 << 19,
        target_rows_per_s: 1_000_000,
        ..SessionParams::defaults()
    };
    vec![
        Frame::Hello(SessionParams::defaults()),
        Frame::Hello(qos_params),
        // The ack carries the server-minted resume token.
        Frame::HelloAck {
            params: SessionParams::defaults(),
            token: 0x1122_3344_5566_7788,
        },
        // A fleet ack reports the honest QoS/tenancy grant.
        Frame::HelloAck {
            params: qos_params,
            token: 0x0be1_1e5e_d0c5_0b5e,
        },
        Frame::ResumeAck(ResumeAck {
            params: qos_params,
            token: 0x0451,
            next_seq: 8192,
            replay_events: 11,
            finished: 0,
        }),
        Frame::Resume(ResumeRequest {
            version: PROTOCOL_VERSION,
            token: 0xfeed_beef_0451_0b5e,
            events_received: 123_456,
        }),
        Frame::ResumeAck(ResumeAck {
            params: SessionParams::defaults(),
            token: 0xfeed_beef_0451_0b5e,
            next_seq: 4096,
            replay_events: 37,
            finished: 1,
        }),
        Frame::Batch(vec![
            CodicOp::read(64),
            CodicOp::write(128),
            CodicOp::command(VariantId::Sig, 8192),
            CodicOp::LisaCloneZero { row_addr: 0 },
        ]),
        // A compute-only batch mixes 9- and 17-byte op units, so the
        // corruption campaigns strike the walking decode mid-unit.
        Frame::Batch(vec![
            CodicOp::RowInit {
                row_addr: 0x10_0000,
                ones: false,
            },
            CodicOp::RowInit {
                row_addr: 0x10_2000,
                ones: true,
            },
            CodicOp::MajAnd {
                row_addr: 0x10_0000,
            },
            CodicOp::MajOr {
                row_addr: 0x10_2000,
            },
            CodicOp::Not {
                src_addr: 0x10_0000,
                dst_addr: 0x10_4000,
            },
            CodicOp::RowCopy {
                src_addr: 0x10_4000,
                dst_addr: 0x10_6000,
            },
            CodicOp::RowFill {
                row_addr: 0x10_8000,
                pattern: 0xa5a5_a5a5_a5a5_a5a5,
            },
        ]),
        Frame::Flush,
        Frame::Bye,
        events,
        // Single-unit runs, one per unit layout.
        Frame::Events(vec![SessionEvent::Completion(completion)]),
        Frame::Events(vec![SessionEvent::Completion(compute_completion)]),
        Frame::Events(vec![SessionEvent::Failure(failure)]),
        Frame::Events(vec![SessionEvent::Failure(compute_failure)]),
        Frame::Events(Vec::new()),
        Frame::Batched(BatchAck {
            accepted: 4,
            seq_base: 12,
            emitted: 3,
            outstanding: 2,
        }),
        Frame::Flushed(FlushAck {
            emitted: 7,
            now_max: 42_000,
        }),
        Frame::Summary(Summary {
            ops: 100,
            row_ops: 60,
            failed: 3,
            max_finish_cycle: 123_456,
            total_energy_nj: 9.5,
            checksum: 0xdead_beef_cafe_f00d,
        }),
        Frame::Error {
            code: ErrorCode::Unavailable,
            detail: "shard 1 quarantined".to_string(),
        },
    ]
}

/// Encodes `frame` as it travels: the length prefix covers type byte +
/// payload + the 4-byte little-endian CRC32C trailer.
fn encode_wire(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame_crc(&mut wire, frame).expect("encode to Vec");
    wire
}

/// The frame body (type byte + payload): what the trailer covers.
fn encode_frame_body(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::new();
    encode_body(frame, &mut body);
    body
}

/// Frames arbitrary `body` bytes with a *valid* trailer — what a hostile
/// peer that computes CRC32C itself can put on the wire.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut wire = (body.len() as u32 + 4).to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire.extend_from_slice(&crc32c(body).to_le_bytes());
    wire
}

/// Decodes `bytes` with the blocking reader; a panic fails the test.
fn decode_blocking(bytes: &[u8]) -> Result<Frame, ProtoError> {
    read_frame_crc(&mut &bytes[..])
}

/// One byte per read: the frame reader's worst case.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Decodes the next frame from `reader`, one byte per read, into the
/// reused `body` buffer. A byte slice never blocks, so a frame comes
/// back as `Some` and an exhausted slice as an `Io` EOF error.
fn poll_trickled(
    body: &mut Vec<u8>,
    reader: &mut OneByte<'_>,
) -> Result<Option<Frame>, ProtoError> {
    read_body_crc(reader, body).and_then(decode_body).map(Some)
}

/// Decodes `bytes` with a fresh body buffer, one byte per read.
fn decode_trickled(bytes: &[u8]) -> Result<Option<Frame>, ProtoError> {
    poll_trickled(&mut Vec::new(), &mut OneByte(bytes))
}

/// Both decoders on the same bytes; they must agree on accept/reject.
fn decode_both_ways(bytes: &[u8]) {
    let blocking = decode_blocking(bytes);
    let trickled = decode_trickled(bytes);
    match (&blocking, &trickled) {
        (Ok(a), Ok(Some(b))) => assert_eq!(a, b, "decoders disagree on an accepted frame"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("decoders disagree: blocking {a:?} vs trickled {b:?}"),
    }
}

#[test]
fn every_frame_round_trips_both_decoders() {
    // The whole corpus as one stream, back to back: each decoder must
    // find every frame boundary, the trickled one reusing its body
    // buffer across frames of every size.
    let frames = corpus();
    let stream: Vec<u8> = frames.iter().flat_map(encode_wire).collect();
    let mut blocking = stream.as_slice();
    let mut body = Vec::new();
    let mut trickle = OneByte(&stream);
    for frame in &frames {
        assert_eq!(&read_frame_crc(&mut blocking).unwrap(), frame);
        assert_eq!(
            poll_trickled(&mut body, &mut trickle).unwrap().as_ref(),
            Some(frame)
        );
    }
    assert!(blocking.is_empty());
    // The stream ends on a frame boundary: a clean EOF.
    assert!(matches!(
        poll_trickled(&mut body, &mut trickle),
        Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
    ));
}

#[test]
fn exhaustive_single_bit_flips_never_panic() {
    // Flip every bit of every body and re-seal it: the codec itself
    // must turn each mutant into a frame or a typed error.
    for frame in corpus() {
        let body = encode_frame_body(&frame);
        for bit in 0..body.len() * 8 {
            let mut mutant = body.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            decode_both_ways(&seal(&mutant));
        }
    }
}

#[test]
fn seeded_byte_storms_never_panic() {
    let mut seed = 0x0f0f_0f0f_1234_5678u64;
    for frame in corpus() {
        let body = encode_frame_body(&frame);
        for trial in 0..512u64 {
            let mut mutant = body.clone();
            seed = mix64(seed ^ trial);
            let strikes = 1 + (seed % 8) as usize;
            for strike in 0..strikes {
                let roll = mix64(seed ^ strike as u64);
                let pos = (roll % body.len() as u64) as usize;
                mutant[pos] = (roll >> 32) as u8;
            }
            decode_both_ways(&seal(&mutant));
        }
    }
}

#[test]
fn exhaustive_truncations_never_panic() {
    // Every proper prefix of every body, re-sealed: a short body is a
    // typed error, never a frame and never a panic.
    for frame in corpus() {
        let body = encode_frame_body(&frame);
        for cut in 0..body.len() {
            let wire = seal(&body[..cut]);
            assert!(
                decode_blocking(&wire).is_err(),
                "a {cut}-byte prefix of a {}-byte body decoded",
                body.len()
            );
            if let Ok(Some(f)) = decode_trickled(&wire) {
                panic!("truncated body yielded {f:?}");
            }
        }
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    // A length prefix far past the cap, backed by only 8 real bytes: if
    // either decoder tried to allocate or read the claimed body first,
    // this would OOM or hang — instead both reject on the prefix alone.
    for claimed in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        match decode_blocking(&wire) {
            Err(ProtoError::Oversized(len)) => assert_eq!(len, claimed),
            other => panic!("expected Oversized, got {other:?}"),
        }
        match decode_trickled(&wire) {
            Err(ProtoError::Oversized(len)) => assert_eq!(len, claimed),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

#[test]
fn oversized_event_counts_are_rejected_before_allocation() {
    // An Events frame whose count word claims billions of units over a
    // tiny payload, behind a valid trailer: the decoder's
    // count-versus-length pre-check must reject it before reserving a
    // single unit of `Vec` capacity.
    const EVENTS_TAG: u8 = 0x88;
    for claimed in [u32::MAX, u32::MAX / 2, 1_000_000] {
        let mut body = vec![EVENTS_TAG];
        body.extend_from_slice(&claimed.to_le_bytes());
        body.extend_from_slice(&[0u8; 16]); // far fewer bytes than one unit per claim
        let wire = seal(&body);
        match decode_blocking(&wire) {
            Err(ProtoError::BadLength { tag, .. }) => assert_eq!(tag, EVENTS_TAG),
            other => panic!("expected BadLength, got {other:?}"),
        }
        match decode_trickled(&wire) {
            Err(ProtoError::BadLength { tag, .. }) => assert_eq!(tag, EVENTS_TAG),
            other => panic!("expected BadLength, got {other:?}"),
        }
    }
}

#[test]
fn zero_length_frames_are_typed_errors() {
    let wire = 0u32.to_le_bytes().to_vec();
    assert!(matches!(decode_blocking(&wire), Err(ProtoError::Empty)));
    assert!(matches!(decode_trickled(&wire), Err(ProtoError::Empty)));
}

#[test]
fn crc_wire_has_the_documented_trailer_layout() {
    // The trailer is crc32c over the body (type byte + payload), stored
    // little-endian, and *included* in the length prefix — exactly what
    // docs/PROTOCOL.md promises. Spot-check the whole corpus.
    for frame in corpus() {
        let wire = encode_wire(&frame);
        let body_len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, wire.len() - 4, "length covers body + trailer");
        let body = &wire[4..wire.len() - 4];
        assert_eq!(body, encode_frame_body(&frame), "body bytes as encoded");
        let trailer = u32::from_le_bytes(wire[wire.len() - 4..].try_into().unwrap());
        assert_eq!(trailer, crc32c(body), "trailer is crc32c(body), LE");
    }
}

#[test]
fn every_frame_round_trips_both_crc_decoders() {
    for frame in corpus() {
        let wire = encode_wire(&frame);
        assert_eq!(decode_blocking(&wire).unwrap(), frame);
        assert_eq!(decode_trickled(&wire).unwrap(), Some(frame));
    }
}

#[test]
fn exhaustive_single_bit_flips_are_always_detected_under_crc() {
    // A flipped bit in transit never *decodes*. Flips in the body or
    // trailer must surface as the typed Crc error (CRC32C detects every
    // single-bit error by construction); flips in the length prefix may
    // hit any typed error — but no flip, anywhere, may ever yield a
    // frame.
    for frame in corpus() {
        let wire = encode_wire(&frame);
        for bit in 0..wire.len() * 8 {
            let mut mutant = wire.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            let blocking = decode_blocking(&mutant);
            let trickled = decode_trickled(&mutant);
            assert!(
                blocking.is_err(),
                "bit {bit} flip decoded to {blocking:?} under CRC framing"
            );
            if let Ok(Some(f)) = trickled {
                panic!("bit {bit} flip trickle-decoded to {f:?} under CRC framing");
            }
            if bit >= 32 {
                // Past the length prefix the damage is inside the
                // checksummed region: the error must name the CRC.
                assert!(
                    matches!(blocking, Err(ProtoError::Crc { .. })),
                    "bit {bit} body flip gave {blocking:?}, expected Crc"
                );
            }
        }
    }
}

#[test]
fn seeded_byte_storms_never_decode_under_crc() {
    // Multi-byte storms in transit: corruption may surface as any typed
    // error, but a damaged buffer never yields a frame and never panics.
    let mut seed = 0x5eed_c4c4_9876_4321u64;
    for frame in corpus() {
        let wire = encode_wire(&frame);
        for trial in 0..512u64 {
            let mut mutant = wire.clone();
            seed = mix64(seed ^ trial);
            let strikes = 1 + (seed % 8) as usize;
            let mut touched = false;
            for strike in 0..strikes {
                let roll = mix64(seed ^ strike as u64);
                let pos = (roll % wire.len() as u64) as usize;
                let byte = (roll >> 32) as u8;
                touched |= mutant[pos] != byte;
                mutant[pos] = byte;
            }
            if !touched {
                continue; // the storm happened to rewrite identical bytes
            }
            assert!(decode_blocking(&mutant).is_err());
            if let Ok(Some(f)) = decode_trickled(&mutant) {
                panic!("storm trial {trial} trickle-decoded to {f:?}");
            }
        }
    }
}

#[test]
fn exhaustive_crc_truncations_never_yield_a_frame() {
    // Every proper prefix of every frame as sent — the mid-frame cut a
    // chaos transport or a killed client leaves on the wire. The
    // blocking reader must error, and neither reader may produce a
    // frame.
    for frame in corpus() {
        let wire = encode_wire(&frame);
        for cut in 0..wire.len() {
            let prefix = &wire[..cut];
            assert!(
                decode_blocking(prefix).is_err(),
                "a {cut}-byte prefix of a {}-byte CRC frame decoded",
                wire.len()
            );
            if let Ok(Some(f)) = decode_trickled(prefix) {
                panic!("truncated CRC stream yielded {f:?}");
            }
        }
    }
}

#[test]
fn resume_frames_survive_focused_truncation_and_storm_corpora() {
    // The resume handshake is what a recovering client leans on, so it
    // gets its own dense pass on top of the full-corpus campaigns:
    // every truncation and a 4096-trial storm per frame.
    let frames = [
        Frame::Resume(ResumeRequest {
            version: PROTOCOL_VERSION,
            token: u64::MAX,
            events_received: u64::MAX,
        }),
        Frame::Resume(ResumeRequest {
            version: 0,
            token: 0,
            events_received: 0,
        }),
        Frame::ResumeAck(ResumeAck {
            params: SessionParams::defaults(),
            token: 1,
            next_seq: u64::MAX,
            replay_events: u64::MAX,
            finished: u8::MAX,
        }),
    ];
    let mut seed = 0x4e5c_0de5_0da2_71ffu64;
    for frame in &frames {
        let wire = encode_wire(frame);
        assert_eq!(decode_blocking(&wire).unwrap(), *frame);
        for cut in 0..wire.len() {
            assert!(decode_blocking(&wire[..cut]).is_err());
        }
        for trial in 0..4096u64 {
            let mut mutant = wire.clone();
            seed = mix64(seed ^ trial);
            let pos = (seed % wire.len() as u64) as usize;
            let byte = (seed >> 32) as u8;
            if mutant[pos] == byte {
                continue;
            }
            mutant[pos] = byte;
            assert!(
                decode_blocking(&mutant).is_err(),
                "storm trial {trial} decoded a corrupted resume frame"
            );
        }
    }
}

#[test]
fn oversized_journal_window_claims_decode_without_allocation() {
    // `events_received` is an absolute count the *server* checks
    // against the journal window with pure arithmetic; the decoder must
    // treat it as opaque data — a u64::MAX claim is an 18-byte frame,
    // not an allocation request. (The server-side honest rejection is
    // pinned in the server suite.)
    let greedy = Frame::Resume(ResumeRequest {
        version: PROTOCOL_VERSION,
        token: 0x0451,
        events_received: u64::MAX,
    });
    let wire = encode_wire(&greedy);
    assert!(wire.len() < 32, "Resume stays fixed-size: {}", wire.len());
    assert_eq!(decode_blocking(&wire).unwrap(), greedy);
    assert_eq!(decode_trickled(&wire).unwrap(), Some(greedy));
}

// ---------------------------------------------------------------------
// The params block: exact layouts, the length check, and the "claims
// are data, not allocations" property the shared-fleet server leans on.
// ---------------------------------------------------------------------

#[test]
fn v5_frames_have_the_documented_widened_layouts() {
    // Body sizes (type byte + payload) pinned straight from
    // docs/PROTOCOL.md: params 32 bytes, HelloAck 40, ResumeAck 57,
    // Resume 18.
    let v5 = SessionParams {
        qos_weight: 9,
        tenants: 33,
        quota_ops: 70_000,
        ..SessionParams::defaults()
    };
    let body_len = |frame: &Frame| encode_frame_body(frame).len();
    assert_eq!(body_len(&Frame::Hello(v5)), 1 + 32);
    assert_eq!(
        body_len(&Frame::HelloAck {
            params: v5,
            token: 7
        }),
        1 + 40
    );
    assert_eq!(
        body_len(&Frame::ResumeAck(ResumeAck {
            params: v5,
            token: 1,
            next_seq: 2,
            replay_events: 3,
            finished: 0,
        })),
        1 + 57
    );
    assert_eq!(
        body_len(&Frame::Resume(ResumeRequest {
            version: PROTOCOL_VERSION,
            token: 1,
            events_received: 2,
        })),
        1 + 18
    );

    // The QoS/tenancy tail sits at pinned offsets 25/26/28 of the
    // params block and round-trips exactly, through both decoders.
    let hello = Frame::Hello(v5);
    let body = encode_frame_body(&hello);
    let params = &body[1..]; // after the HELLO tag
    assert_eq!(u16::from_le_bytes(params[0..2].try_into().unwrap()), 5);
    assert_eq!(params[25], 9);
    assert_eq!(u16::from_le_bytes(params[26..28].try_into().unwrap()), 33);
    assert_eq!(
        u32::from_le_bytes(params[28..32].try_into().unwrap()),
        70_000
    );
    let wire = encode_wire(&hello);
    assert_eq!(decode_blocking(&wire).unwrap(), hello);
    assert_eq!(decode_trickled(&wire).unwrap(), Some(hello));
}

#[test]
fn params_version_and_length_mismatches_are_typed_errors() {
    // Any params block that is not exactly 32 bytes dies as a typed
    // BadLength in every carrier frame, whatever version it claims —
    // a short block cannot be smuggled past the tail reads, nor an
    // oversized one past the end.
    const HELLO_TAG: u8 = 0x01;
    const HELLO_ACK_TAG: u8 = 0x81;
    const RESUME_ACK_TAG: u8 = 0x89;
    let params_claiming = |version: u16, len: usize| {
        let mut block = vec![0u8; len];
        let head = len.min(2);
        block[..head].copy_from_slice(&version.to_le_bytes()[..head]);
        if len > 20 {
            block[20] = 2; // refresh: a legal default
        }
        block
    };
    for version in [PROTOCOL_VERSION, 4, 2] {
        for len in [0usize, 1, 24, 25, 31, 33, 40] {
            let block = params_claiming(version, len);
            let mut hello = vec![HELLO_TAG];
            hello.extend_from_slice(&block);
            match decode_blocking(&seal(&hello)) {
                Err(ProtoError::BadLength { tag, got }) => {
                    assert_eq!(tag, HELLO_TAG);
                    assert_eq!(got, len, "v{version} Hello with a {len}-byte block");
                }
                other => panic!("v{version}/{len}B Hello decoded: {other:?}"),
            }
            // The same block inside a HelloAck (token appended) and a
            // ResumeAck (token, cursors, flag appended).
            let mut ack = vec![HELLO_ACK_TAG];
            ack.extend_from_slice(&block);
            ack.extend_from_slice(&7u64.to_le_bytes());
            let mut resume_ack = vec![RESUME_ACK_TAG];
            resume_ack.extend_from_slice(&block);
            resume_ack.extend_from_slice(&[0u8; 25]);
            for (tag, body) in [(HELLO_ACK_TAG, ack), (RESUME_ACK_TAG, resume_ack)] {
                match decode_blocking(&seal(&body)) {
                    Err(ProtoError::BadLength { tag: got, .. }) => assert_eq!(got, tag),
                    other => panic!("v{version}/{len}B block in {tag:#04x} decoded: {other:?}"),
                }
            }
        }
        // A 32-byte block decodes whatever version it claims: the
        // version is data here, checked by the server at the handshake.
        let mut hello = vec![HELLO_TAG];
        hello.extend_from_slice(&params_claiming(version, 32));
        match decode_blocking(&seal(&hello)) {
            Ok(Frame::Hello(p)) => assert_eq!(p.version, version),
            other => panic!("v{version} 32-byte block: {other:?}"),
        }
    }
}

#[test]
fn oversized_tenant_and_quota_claims_decode_as_data_not_allocation() {
    // `tenants` and `quota_ops` are *claims* the server polices against
    // MAX_TENANT_CLAIM / MAX_QUOTA_CLAIM before allocating anything
    // (pinned end to end in the fleet suite); the decoder's only job is
    // to carry them. A maxed-out claim is a fixed 41-byte wire frame,
    // not an allocation request.
    let greedy = Frame::Hello(SessionParams {
        qos_weight: u8::MAX,
        tenants: u16::MAX,
        quota_ops: u32::MAX,
        ..SessionParams::defaults()
    });
    let wire = encode_wire(&greedy);
    assert_eq!(wire.len(), 4 + 1 + 32 + 4, "claims never change the layout");
    assert_eq!(decode_blocking(&wire).unwrap(), greedy);
    assert_eq!(decode_trickled(&wire).unwrap(), Some(greedy));
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation_under_crc() {
    // The same hostile prefixes arriving *after* a valid frame: the
    // trickled reader, its body buffer already sized once, yields the
    // good frame and then rejects the prefix before growing the buffer.
    for claimed in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let mut wire = encode_wire(&Frame::Flush);
        wire.extend_from_slice(&claimed.to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        let mut blocking = wire.as_slice();
        assert_eq!(read_frame_crc(&mut blocking).unwrap(), Frame::Flush);
        match read_frame_crc(&mut blocking) {
            Err(ProtoError::Oversized(len)) => assert_eq!(len, claimed),
            other => panic!("expected Oversized, got {other:?}"),
        }
        let mut body = Vec::new();
        let mut trickle = OneByte(&wire);
        assert_eq!(
            poll_trickled(&mut body, &mut trickle).unwrap(),
            Some(Frame::Flush)
        );
        let sized = body.capacity();
        match poll_trickled(&mut body, &mut trickle) {
            Err(ProtoError::Oversized(len)) => assert_eq!(len, claimed),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(body.capacity(), sized, "the body buffer never grew");
    }
}
