//! Property-based tests of the DRAM simulator's invariants.

use codic_dram::address::AddressMapper;
use codic_dram::controller::Completion;
use codic_dram::geometry::{DramGeometry, LINE_BYTES};
use codic_dram::request::RowOpKind;
use codic_dram::{DramAddress, MemRequest, MemStats, MemoryController, ReqKind, TimingParams};
use proptest::prelude::*;

/// How a controller's clock is moved between request chunks.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// `tick_reference` every cycle: never reads the horizon or the
    /// candidate cache.
    Reference,
    /// `step_event` while the next event lies before the target.
    StepEvent,
    /// `advance_to` through the given intermediate targets.
    AdvanceTo,
}

/// The request stream of [`drivers_agree_under_interleaved_pushes`]:
/// `(row, line, kind, busy)` tuples over a two-rank module, where kind 0
/// is a read, 1 a write and 2..=6 the five row-op kinds.
type Stream = Vec<(u64, u64, u8, u32)>;

fn request(geometry: DramGeometry, (row, line, kind, busy): (u64, u64, u8, u32)) -> MemRequest {
    let rows = u64::from(geometry.ranks * geometry.banks_per_rank) * 4;
    let addr = (row % rows) * DramGeometry::ROW_BYTES + line * LINE_BYTES;
    let op = match kind {
        0 => return MemRequest::new(addr, ReqKind::Read),
        1 => return MemRequest::new(addr, ReqKind::Write),
        2 => RowOpKind::Codic,
        3 => RowOpKind::RowClone,
        4 => RowOpKind::LisaClone,
        5 => RowOpKind::TripleAct,
        _ => RowOpKind::DualContact,
    };
    MemRequest::new(
        addr,
        ReqKind::RowOp {
            op,
            busy_cycles: busy,
        },
    )
}

/// Replays `stream` through one driver: push up to `chunks[i]` requests
/// (keeping the rest when a queue is full), move the clock by
/// `gaps[i]` cycles, repeat until the stream is spent, then drain to
/// idle. Returns every completion in retirement order, the statistics
/// and the final clock.
fn replay(
    driver: Driver,
    refresh: bool,
    stream: &Stream,
    chunks: &[usize],
    gaps: &[u64],
    hops: &[u64],
) -> (Vec<Completion>, MemStats, u64) {
    let geometry = DramGeometry {
        ranks: 2,
        ..DramGeometry::module_mib(64)
    };
    // A short refresh interval, so refresh lands inside most streams.
    let timing = TimingParams {
        t_refi: 700,
        ..TimingParams::ddr3_1600_11()
    };
    let mut mc = MemoryController::new(geometry, timing);
    mc.set_refresh_enabled(refresh);
    let mut completions = Vec::new();
    let mut next = 0;
    let mut hop = 0;
    for round in 0.. {
        let chunk = chunks[round % chunks.len()];
        for _ in 0..chunk {
            let Some(&req) = stream.get(next) else { break };
            if mc.push(request(geometry, req)).is_err() {
                break;
            }
            next += 1;
        }
        let target = mc.now() + gaps[round % gaps.len()];
        match driver {
            Driver::Reference => {
                while mc.now() < target {
                    mc.tick_reference();
                }
            }
            Driver::StepEvent => {
                while mc.next_event_cycle() < target {
                    assert!(mc.step_event());
                }
                // Nothing is actionable before `target`: a pure jump.
                mc.advance_to(target);
            }
            Driver::AdvanceTo => {
                while mc.now() < target {
                    mc.advance_to((mc.now() + hops[hop % hops.len()]).min(target));
                    hop += 1;
                }
            }
        }
        completions.extend(mc.take_completions());
        if next == stream.len() {
            break;
        }
    }
    let mut guard = 0u64;
    while !mc.is_idle() {
        match driver {
            Driver::Reference => mc.tick_reference(),
            Driver::StepEvent => assert!(mc.step_event()),
            Driver::AdvanceTo => mc.advance_to(mc.now() + 1),
        }
        guard += 1;
        assert!(guard < 2_000_000, "{driver:?} livelock");
    }
    completions.extend(mc.take_completions());
    (completions, *mc.stats(), mc.now())
}

/// Modules of 64, 96 and 256 MiB with 1 to 3 ranks: power-of-two and
/// other row, line and rank counts.
fn geometries() -> impl Strategy<Value = DramGeometry> {
    (0usize..3, 1u32..=3).prop_map(|(module, ranks)| {
        let mut g = DramGeometry::module_mib([64, 96, 256][module]);
        g.ranks = ranks;
        g
    })
}

/// The row:rank:bank:column decode written with plain division, the
/// reference the mapper's precomputed divisors must match.
fn divided_decode(g: &DramGeometry, phys_addr: u64) -> DramAddress {
    let line_in_module = (phys_addr / LINE_BYTES) % g.total_lines();
    let row_global = line_in_module / u64::from(g.lines_per_row);
    let rank_row = row_global / u64::from(g.banks_per_rank);
    DramAddress {
        rank: (rank_row % u64::from(g.ranks)) as u32,
        bank: (row_global % u64::from(g.banks_per_rank)) as u32,
        row: (rank_row / u64::from(g.ranks)) as u32,
        line: (line_in_module % u64::from(g.lines_per_row)) as u32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn address_mapping_round_trips(g in geometries(), addr in any::<u64>()) {
        let m = AddressMapper::new(g);
        let line_addr = (addr % g.total_bytes()) / LINE_BYTES * LINE_BYTES;
        prop_assert_eq!(m.decode(line_addr), divided_decode(&g, line_addr));
        prop_assert_eq!(m.encode(m.decode(line_addr)), line_addr);
    }

    #[test]
    fn decoded_coordinates_are_in_range(g in geometries(), addr in any::<u64>()) {
        let d = AddressMapper::new(g).decode(addr);
        prop_assert_eq!(d, divided_decode(&g, addr));
        prop_assert!(d.rank < g.ranks);
        prop_assert!(d.bank < g.banks_per_rank);
        prop_assert!(d.row < g.rows_per_bank);
        prop_assert!(d.line < g.lines_per_row);
    }

    #[test]
    fn every_accepted_request_eventually_completes(
        addrs in proptest::collection::vec(0u64..(16 << 20), 1..40),
        writes in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let mut mc = MemoryController::new(
            DramGeometry::module_mib(64),
            TimingParams::ddr3_1600_11(),
        );
        mc.set_refresh_enabled(false);
        let mut accepted = 0usize;
        let mut completed = 0usize;
        for (i, addr) in addrs.iter().enumerate() {
            let kind = if writes[i % writes.len()] { ReqKind::Write } else { ReqKind::Read };
            if mc.push(MemRequest::new(*addr, kind)).is_ok() {
                accepted += 1;
            }
            mc.tick();
            completed += mc.take_completions().len();
        }
        let mut guard = 0u64;
        while !mc.is_idle() {
            mc.tick();
            completed += mc.take_completions().len();
            guard += 1;
            prop_assert!(guard < 2_000_000, "controller livelock");
        }
        completed += mc.take_completions().len();
        prop_assert_eq!(completed, accepted, "conservation of requests");
    }

    #[test]
    fn event_engine_matches_tick_engine(
        addrs in proptest::collection::vec(0u64..(16 << 20), 1..48),
        kinds in proptest::collection::vec(0u8..3, 48),
        refresh in any::<bool>(),
    ) {
        let build = || {
            let mut mc = MemoryController::new(
                DramGeometry::module_mib(64),
                TimingParams::ddr3_1600_11(),
            );
            mc.set_refresh_enabled(refresh);
            for (i, addr) in addrs.iter().enumerate() {
                let kind = match kinds[i % kinds.len()] {
                    0 => ReqKind::Read,
                    1 => ReqKind::Write,
                    _ => ReqKind::RowOp { op: RowOpKind::Codic, busy_cycles: 39 },
                };
                let _ = mc.push(MemRequest::new(*addr, kind));
            }
            mc
        };
        // The reference driver acts unconditionally every cycle (never
        // consulting the event horizon), so a horizon bug cannot cancel
        // out of the comparison.
        let mut ticked = build();
        let mut guard = 0u64;
        while !ticked.is_idle() {
            ticked.tick_reference();
            guard += 1;
            prop_assert!(guard < 2_000_000, "tick engine livelock");
        }
        let mut jumped = build();
        let finish = jumped.run_to_idle();
        prop_assert_eq!(ticked.take_completions(), jumped.take_completions());
        prop_assert_eq!(ticked.stats(), jumped.stats());
        prop_assert_eq!(ticked.now(), jumped.now());
        prop_assert!(finish < jumped.now() || finish == 0);
    }

    #[test]
    fn command_counts_are_consistent(
        lines in proptest::collection::vec(0u64..4096, 1..50),
    ) {
        let mut mc = MemoryController::new(
            DramGeometry::module_mib(64),
            TimingParams::ddr3_1600_11(),
        );
        mc.set_refresh_enabled(false);
        let mut pushed = 0u64;
        for l in &lines {
            if mc.push(MemRequest::new(l * LINE_BYTES, ReqKind::Read)).is_ok() {
                pushed += 1;
            }
            mc.tick();
        }
        mc.run_to_idle();
        let s = *mc.stats();
        prop_assert_eq!(s.reads, pushed);
        // Every activate eventually matches at most one precharge, and
        // column accesses equal hits (opened rows are charged to misses).
        prop_assert!(s.precharges <= s.activates);
        prop_assert_eq!(s.row_hits + s.row_misses, s.reads + s.row_misses);
    }

    /// The incremental horizon and the scheduler's candidate filter
    /// against the unfiltered reference: two ranks (so per-rank gate
    /// invalidation matters), all five row-op kinds (activation weights
    /// 1, 2 and 3), refresh on and off, and pushes interleaved with
    /// clock moves in random chunks — big chunks hold queues at
    /// `QUEUE_DEPTH`. Every driver must produce the same completions,
    /// statistics and final clock.
    #[test]
    fn drivers_agree_under_interleaved_pushes(
        stream in proptest::collection::vec((0u64..64, 0u64..4, 0u8..7, 1u32..80), 1..300),
        chunks in proptest::collection::vec(1usize..140, 1..12),
        gaps in proptest::collection::vec(1u64..300, 1..12),
        hops in proptest::collection::vec(1u64..90, 1..8),
        refresh in any::<bool>(),
    ) {
        let reference = replay(Driver::Reference, refresh, &stream, &chunks, &gaps, &hops);
        for driver in [Driver::StepEvent, Driver::AdvanceTo] {
            let other = replay(driver, refresh, &stream, &chunks, &gaps, &hops);
            prop_assert_eq!(&reference.0, &other.0, "{:?} completions", driver);
            prop_assert_eq!(reference.1, other.1, "{:?} stats", driver);
            prop_assert_eq!(reference.2, other.2, "{:?} clock", driver);
        }
    }
}
