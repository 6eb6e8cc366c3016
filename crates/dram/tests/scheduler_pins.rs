//! Pinned digests of the FR-FCFS scheduler's output on seeded request
//! streams.
//!
//! Each case drives one [`MemoryController`] event to event with
//! capacity polling and folds what it produced into one FNV-1a-64
//! digest: every completion `(id, finish_cycle)` in retirement order,
//! then every [`MemStats`] field, then the final clock. The tables were
//! produced by the pre-index O(n)-scan scheduler the controller's
//! indexed queues replaced, and the indexed controller matched them
//! case for case, so a mismatch is a change of scheduling policy or of
//! the `Bank`/`Rank` timing model beneath it.
//!
//! The streams come from a seeded splitmix64 loop, so no test name or
//! framework seed feeds into them: a case changes only if its seed or
//! the request mix below changes, and then its pin must be regenerated
//! from a scheduler known to be right.

use codic_dram::geometry::DramGeometry;
use codic_dram::request::{MemRequest, ReqKind, RowOpKind};
use codic_dram::timing::TimingParams;
use codic_dram::{MemStats, MemoryController};

/// DDR3-1600-11 bank occupancy of a CODIC row op: one tRC.
const CODIC_BUSY: u32 = 39;

/// DDR3-1600-11 bank occupancy of a RowClone: two tRAS and a tRP.
const ROWCLONE_BUSY: u32 = 2 * 28 + 11;

/// Short streams (1–95 requests): case `i` runs on `1 + i % 2` ranks
/// with refresh on for even `i / 2`, so each of the four
/// {1, 2 ranks} × {refresh on, off} pairs gets eight cases. Every
/// short stream drains before the first refresh falls due (tREFI), so
/// refresh is exercised by the deep streams.
const SHORT_PINS: [u64; 32] = [
    0x3e84a4cde79b7cb5,
    0x702559086b83a84b,
    0xdf4378cc2e09b1f0,
    0x8d4be8efc2c40593,
    0x76db18f3f3db2f3f,
    0xaf28c6bf1c31fbf7,
    0x06286277a4abd5f6,
    0x70d907089c1336fc,
    0xea70b86611567c62,
    0xc21d58b4882e784e,
    0xb8eae30e958f1e02,
    0xfb55221c040758dc,
    0x9ee4aeb24bb5d5f3,
    0x9d2b519054d6b77b,
    0xb25588cc7d83b1df,
    0xc5c46bb426488ba9,
    0x6136e37a156dbd14,
    0x2587b46a4607cede,
    0x01b5c4896cab63c8,
    0x8e1cc0738c9da0b5,
    0xc9243461461888b2,
    0x62a82450897eab8f,
    0x9f726af94b4a08db,
    0x7767949fce85c421,
    0x1fbdba70a3c1068d,
    0xcff29c65b594e0e5,
    0x23bc2d04974edc29,
    0xca6d515b369197f1,
    0xa9e428a5f14f3cbe,
    0xd039bf5f5ec79b7c,
    0x761e0067a50dd66b,
    0x507cdf32bc049579,
];

/// Deep streams (1032–1047 requests, one rank): a short pattern
/// repeated with the rows strided, so the 64-entry queues stay full and
/// the write queue crosses the drain watermarks; refresh on for even
/// cases.
const DEEP_PINS: [u64; 12] = [
    0x64911f587066be3d,
    0x2ab3a6f81ab34dd8,
    0xcba37a47c82ab41b,
    0x84898a3045039626,
    0xca3059f0edf93249,
    0x4ad98f34b9bb85e3,
    0x086dd2c0a14b1bb0,
    0x8c6932b2c41d9a3c,
    0xfb45d3f962e41147,
    0x24761add15746138,
    0x6137b9de3ab7d6bf,
    0x933afd9cdfae03bc,
];

/// The 2048-request deep-queue stream, one rank, refresh off.
const ENERGY_PIN: u64 = 0xa489b9ed19481755;

/// Its command counts, the inputs of the energy model.
const ENERGY_STATS: MemStats = MemStats {
    activates: 1366,
    precharges: 1363,
    reads: 684,
    writes: 682,
    refreshes: 0,
    row_ops: 682,
    row_op_activations: 1023,
    row_hits: 1366,
    row_misses: 468,
    queue_rejections: 0,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One request over a 64 MB module: a third reads, a third writes, a
/// sixth CODIC and a sixth RowClone row ops, on 2048 rows × 128 lines.
fn request(selector: u8, row_seed: u64, line: u8) -> MemRequest {
    let addr = (row_seed % 2048) * DramGeometry::ROW_BYTES + u64::from(line % 128) * 64;
    let kind = match selector % 6 {
        0 | 1 => ReqKind::Read,
        2 | 3 => ReqKind::Write,
        4 => ReqKind::RowOp {
            op: RowOpKind::Codic,
            busy_cycles: CODIC_BUSY,
        },
        _ => ReqKind::RowOp {
            op: RowOpKind::RowClone,
            busy_cycles: ROWCLONE_BUSY,
        },
    };
    MemRequest::new(addr, kind)
}

/// A request drawn whole from the generator.
fn random_request(state: &mut u64) -> (u8, u64, u8) {
    let selector = splitmix64(state) as u8;
    let row_seed = splitmix64(state);
    (selector, row_seed, splitmix64(state) as u8)
}

fn geometry(ranks: u32) -> DramGeometry {
    DramGeometry {
        ranks,
        ..DramGeometry::module_mib(64)
    }
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Streams `requests` event-driven, stepping while the target queue is
/// full, drains to idle, and returns the case digest and the
/// statistics.
fn run(geometry: DramGeometry, refresh: bool, requests: &[MemRequest]) -> (u64, MemStats) {
    let mut mc = MemoryController::new(geometry, TimingParams::ddr3_1600_11());
    mc.set_refresh_enabled(refresh);
    for &request in requests {
        while !mc.can_accept(request.kind) {
            mc.step_event();
        }
        mc.push(request).expect("capacity was just checked");
    }
    mc.run_to_idle();
    let stats = *mc.stats();
    let completions = mc.take_completions();
    let mut h = completions.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
        fnv1a(fnv1a(h, c.id.0), c.finish_cycle)
    });
    for field in [
        stats.activates,
        stats.precharges,
        stats.reads,
        stats.writes,
        stats.refreshes,
        stats.row_ops,
        stats.row_op_activations,
        stats.row_hits,
        stats.row_misses,
        stats.queue_rejections,
    ] {
        h = fnv1a(h, field);
    }
    (fnv1a(h, mc.now()), stats)
}

/// Asserts every case against its pin, naming each case that moved.
fn check(kind: &str, pins: &[u64], case: impl Fn(usize) -> (String, u64)) {
    let moved: Vec<String> = pins
        .iter()
        .enumerate()
        .filter_map(|(i, &pin)| {
            let (label, digest) = case(i);
            (digest != pin)
                .then(|| format!("{kind} case {i} ({label}): {digest:#018x}, pinned {pin:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "scheduler output moved:\n{}",
        moved.join("\n")
    );
}

/// Short mixed streams on one- and two-rank modules, refresh on and off.
#[test]
fn short_streams_match_their_pins() {
    check("short", &SHORT_PINS, |i| {
        let ranks = 1 + (i as u32 % 2);
        let refresh = (i / 2) % 2 == 0;
        let mut state = 0x5107_0000 + i as u64;
        let len = 1 + splitmix64(&mut state) % 95;
        let requests: Vec<MemRequest> = (0..len)
            .map(|_| {
                let (s, r, l) = random_request(&mut state);
                request(s, r, l)
            })
            .collect();
        let (digest, _) = run(geometry(ranks), refresh, &requests);
        (
            format!("{ranks} rank(s), refresh {refresh}, {len} requests"),
            digest,
        )
    });
}

/// Streams over 1024 deep: sustained refills and write-drain pressure.
#[test]
fn deep_streams_match_their_pins() {
    check("deep", &DEEP_PINS, |i| {
        let refresh = i % 2 == 0;
        let mut state = 0xdee9_0000 + i as u64;
        let pattern: Vec<(u8, u64, u8)> = (0..8 + splitmix64(&mut state) % 16)
            .map(|_| random_request(&mut state))
            .collect();
        let requests: Vec<MemRequest> = (0..1024 + pattern.len())
            .map(|j| {
                let (s, r, l) = pattern[j % pattern.len()];
                // Stride the rows so the stream walks banks and rows.
                request(s, r.wrapping_add(j as u64 * 7), l)
            })
            .collect();
        let (digest, _) = run(geometry(1), refresh, &requests);
        let len = requests.len();
        (format!("refresh {refresh}, {len} requests"), digest)
    });
}

/// The energy model charges from `MemStats` alone, so pinning the
/// 2048-request stream's counts field by field pins its energy.
#[test]
fn deep_queue_energy_inputs_match_their_pin() {
    let requests: Vec<MemRequest> = (0..2048u64)
        .map(|i| request((i % 6) as u8, i * 3, (i % 61) as u8))
        .collect();
    let (digest, stats) = run(geometry(1), false, &requests);
    assert_eq!(stats, ENERGY_STATS);
    assert_eq!(digest, ENERGY_PIN, "digest {digest:#018x}");
}
