//! Measures batched `DevicePool` throughput on the two row-granular
//! serving workloads — secure-deallocation zeroing and cold-boot
//! full-module destruction — and prints a JSON summary, the source of the
//! repository's `BENCH_device.json`.
//!
//! Two rates are reported per workload:
//!
//! - `host_rows_per_s`: rows processed per second of wall-clock host time
//!   (simulator throughput; scales with cores via the sharded pool);
//! - `dram_rows_per_s`: rows per second of *simulated DRAM time* (device
//!   throughput; scales with shards because each shard is an independent
//!   channel with its own tFAW window).
//!
//! Capacity models differ per workload (see `DevicePool` docs): the
//! secdealloc batch serves one 64 MB module through N channel shards
//! (`--rows` is clamped to the module's row count), while the cold-boot
//! sweep destroys one full module *per* shard (N modules total).
//!
//! A third comparison pits the **event engine against the tick engine**
//! on the idle-heavy full-module destruction sweeps: the identical
//! row-op stream is driven once cycle-by-cycle
//! (`MemoryController::tick_reference`) and once event-to-event
//! (`MemoryController::step_event`), asserting bit-identical DRAM time
//! and reporting the wall-clock speedup (`events_vs_cycles`).
//!
//! A fourth — the **queue-depth scaling workload** — streams a mixed
//! Read/Write/RowOp batch at outstanding depths 64 → 8192 through two
//! paths serving the identical request stream: the raw controller and
//! the full `CodicDevice` async path (`submit_async` + one-shot
//! completion slots), asserting they finish on the same cycle. The scheduler's
//! output itself is pinned per case by `codic_dram`'s `scheduler_pins`
//! test.
//!
//! A fifth — **`data_fingerprint`** — times the bulk-bitwise data plane's
//! row hash: over 4,096 seeded words plus 0, !0 and every byte in every
//! lane, 16 passes per rep, the median ns per word of
//! `uniform_fingerprint` (a per-word low-byte successor table, one orbit
//! walk, then squaring) against the byte-serial `row_fingerprint` over
//! the whole 8 KB row, asserting the two agree on every word.
//!
//! A sixth — **`data_apply`** — times `DataPlane::apply` itself: the
//! median ns per op over a seeded two-round `SimdLayout` seed-and-plan
//! stream (every vector operation, 8-bit lanes, a 64-row region),
//! replayed on a fresh plane per pass, asserting on every pass that the
//! fingerprint sum equals a byte-serial reference.
//!
//! Every timed row reports the median host time over `--reps` runs
//! (after one warm-up), with the fastest and slowest run beside it as
//! `*_min`/`*_max`; rates are computed from the median. End-to-end
//! serving throughput (trace replay over the socket — mixed and
//! bulk-bitwise — and the shared fleet) is measured by `perfbench/`,
//! not here.
//!
//! Usage: `cargo run --release --bin bench_device [-- --rows N --shards S --reps R]`
//!
//! `--quick` runs only the cross-checks — the sweep tick-vs-event
//! comparison, the queue-depth workload's tick-vs-event identity check,
//! and the uniform-vs-byte-serial fingerprint identity on 256 of the
//! `data_fingerprint` words — and exits non-zero on any divergence; the
//! CI smoke step.

use std::hint::black_box;
use std::time::Instant;

use codic_coldboot::DestructionMechanism;
use codic_core::data::{row_fingerprint, uniform_fingerprint, DataPlane, WORDS_PER_ROW};
use codic_core::device::{CodicDevice, DeviceConfig};
use codic_core::ops::{CodicOp, InDramMechanism, RowRegion, VariantId};
use codic_core::pool::DevicePool;
use codic_core::simd::{SimdLayout, VecOp};
use codic_dram::request::RowOpKind;
use codic_dram::{DramGeometry, MemRequest, MemoryController, ReqKind, TimingParams};
use codic_power::accounting;
use codic_secdealloc::ZeroingMechanism;
use codic_server::cli::{arg_num, has_flag};

/// Host seconds of one timed row: the median over reps, with the
/// fastest and slowest rep beside it.
#[derive(Clone, Copy)]
struct Timed {
    median: f64,
    min: f64,
    max: f64,
}

struct Measured {
    host_s: Timed,
    dram_ns: f64,
    rows: u64,
    energy_nj: f64,
}

/// Runs `f` once to warm up, then `reps` (at least one) timed times;
/// returns the timing and the last run's result.
fn time<R>(reps: u64, mut f: impl FnMut() -> R) -> (Timed, R) {
    let mut out = f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            out = f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    let timed = Timed {
        median,
        min: samples[0],
        max: samples[n - 1],
    };
    (timed, out)
}

impl Timed {
    fn scaled(self, k: f64) -> Timed {
        Timed {
            median: self.median * k,
            min: self.min * k,
            max: self.max * k,
        }
    }
}

/// Prints `"key"` (the median), `"key_min"` and `"key_max"` at one
/// entry's indentation.
fn print_timed(key: &str, t: Timed) {
    println!("      \"{key}\": {:.4},", t.median);
    println!("      \"{key}_min\": {:.4},", t.min);
    println!("      \"{key}_max\": {:.4},", t.max);
}

/// Secure-deallocation serving: a batch of typed zeroing ops (one per
/// freed row) distributed over the pool.
fn secdealloc_batch(config: &DeviceConfig, shards: usize, rows: u64, reps: u64) -> Measured {
    let plan = InDramMechanism::plan(&ZeroingMechanism::Codic, RowRegion::new(0, rows));
    let (host_s, outcome) = time(reps, || {
        let mut pool = DevicePool::new(shards, config);
        pool.execute_all(&plan).expect("zeroing is in range")
    });
    Measured {
        host_s,
        dram_ns: outcome.finish_ns(),
        rows: outcome.ops() as u64,
        energy_nj: outcome.energy_nj(),
    }
}

/// Cold-boot destruction: every shard sweeps its own module slice with
/// the event-driven fast path.
fn coldboot_sweep(config: &DeviceConfig, shards: usize, reps: u64) -> Measured {
    let proto: CodicOp = DestructionMechanism::Codic
        .op_for_row(0)
        .expect("CODIC destruction is in-DRAM");
    let timing = config.timing;
    let (host_s, reports) = time(reps, || {
        let mut pool = DevicePool::new(shards, config);
        pool.sweep_all_rows(proto).expect("sweep is authorized")
    });
    let rows: u64 = reports.iter().map(|r| r.rows).sum();
    let dram_ns = reports
        .iter()
        .map(|r| timing.ns(r.finish_cycle))
        .fold(0.0, f64::max);
    Measured {
        host_s,
        dram_ns,
        rows,
        energy_nj: reports.iter().map(|r| r.energy_nj).sum(),
    }
}

/// The mixed queue-depth service stream: one DetZero CODIC command, one
/// read, one write, and one two-activation RowClone per group of four,
/// rows rotating over the module so every bank and both row-op
/// activation weights stay exercised. A single CODIC variant keeps MRS
/// barriers out of the steady state.
fn mixed_ops(outstanding: u64, geometry: &DramGeometry) -> Vec<CodicOp> {
    let rows = geometry.total_rows();
    (0..outstanding)
        .map(|i| {
            let row_addr = (i % rows) * DramGeometry::ROW_BYTES;
            match i % 4 {
                0 => CodicOp::command(VariantId::DetZero, row_addr),
                1 => CodicOp::read(row_addr + 64),
                2 => CodicOp::write(row_addr + 128),
                _ => CodicOp::RowCloneZero { row_addr },
            }
        })
        .collect()
}

/// Lowers the typed stream to raw controller requests (identical
/// addresses and busy cycles on every path).
fn mixed_requests(ops: &[CodicOp], timing: &TimingParams) -> Vec<MemRequest> {
    ops.iter()
        .map(|op| {
            let kind = match op.row_op_kind() {
                Some(kind) => ReqKind::RowOp {
                    op: kind,
                    busy_cycles: accounting::row_op_busy_cycles(kind, timing),
                },
                None => {
                    if matches!(op, CodicOp::Read { .. }) {
                        ReqKind::Read
                    } else {
                        ReqKind::Write
                    }
                }
            };
            MemRequest::new(op.row_addr(), kind)
        })
        .collect()
}

/// Streams `requests` through `mc` with the 64-deep queues refilled as
/// slots free, event-driven or via the reference tick loop (which
/// schedules unconditionally every cycle, exactly the pre-event-engine
/// tick); returns the cycle the last request finished.
fn drive_stream(mc: &mut MemoryController, requests: &[MemRequest], event_driven: bool) -> u64 {
    mc.set_refresh_enabled(false);
    for &request in requests {
        // Poll capacity rather than counting bounced pushes: the retry
        // frequency differs between the tick and event drivers, and a
        // bounced push shows up in the (driver-dependent)
        // `queue_rejections` statistic the identity checks compare.
        while !mc.can_accept(request.kind) {
            if event_driven {
                mc.step_event();
            } else {
                mc.tick_reference();
            }
        }
        mc.push(request).expect("capacity was just checked");
    }
    if event_driven {
        mc.run_to_idle();
    } else {
        while !mc.is_idle() {
            mc.tick_reference();
        }
    }
    // Derive the finish cycle from the completions themselves, so both
    // driving modes report the identical quantity.
    mc.take_completions()
        .iter()
        .map(|c| c.finish_cycle)
        .max()
        .unwrap_or(0)
}

struct DepthMeasured {
    outstanding: u64,
    finish_cycle: u64,
    commands: u64,
    live_mc_s: Timed,
    device_s: Timed,
    energy_nj: f64,
}

/// Runs the queue-depth workload at one outstanding depth on both paths,
/// asserting they finish on the same cycle.
fn queue_depth_at(
    outstanding: u64,
    reps: u64,
    geometry: DramGeometry,
    timing: &TimingParams,
) -> DepthMeasured {
    let ops = mixed_ops(outstanding, &geometry);
    let requests = mixed_requests(&ops, timing);

    let (live_mc_s, (live_finish, commands)) = time(reps, || {
        let mut mc = MemoryController::new(geometry, *timing);
        let finish = drive_stream(&mut mc, &requests, true);
        (finish, mc.stats().total_commands())
    });

    let config = DeviceConfig::new(geometry, *timing).with_refresh(false);
    let (device_s, (device_finish, energy_nj)) = time(reps, || {
        let mut device = CodicDevice::new(config.clone());
        let futures: Vec<_> = ops
            .iter()
            .map(|&op| device.submit_async(op).expect("stream is authorized"))
            .collect();
        device.run_to_idle();
        let mut finish = 0u64;
        let mut energy = 0.0f64;
        for mut future in futures {
            let completion = future.try_take().expect("driven to idle");
            finish = finish.max(completion.finish_cycle);
            energy += completion.cost.energy_nj;
        }
        (finish, energy)
    });
    assert_eq!(
        device_finish, live_finish,
        "device async path diverged from the raw scheduler at depth {outstanding}"
    );

    DepthMeasured {
        outstanding,
        finish_cycle: live_finish,
        commands,
        live_mc_s,
        device_s,
        energy_nj,
    }
}

/// The `--quick` identity check on the queue-depth workload: the tick
/// and event drivers must agree bit-for-bit.
fn queue_depth_smoke(outstanding: u64, geometry: DramGeometry, timing: &TimingParams) -> u64 {
    let ops = mixed_ops(outstanding, &geometry);
    let requests = mixed_requests(&ops, timing);
    let run = |event_driven: bool| {
        let mut mc = MemoryController::new(geometry, *timing);
        let finish = drive_stream(&mut mc, &requests, event_driven);
        (finish, *mc.stats())
    };
    let (tick_finish, tick_stats) = run(false);
    let (event_finish, event_stats) = run(true);
    assert_eq!(
        (tick_finish, tick_stats),
        (event_finish, event_stats),
        "tick and event engines diverged on the depth-{outstanding} mixed workload"
    );
    event_finish
}

fn print_depth_entry(m: &DepthMeasured, timing: &TimingParams) {
    println!("    {{");
    println!("      \"workload\": \"queue_depth_mixed\",");
    println!("      \"outstanding\": {},", m.outstanding);
    println!("      \"commands\": {},", m.commands);
    println!(
        "      \"dram_ms\": {:.4},",
        timing.ns(m.finish_cycle) * 1e-6
    );
    print_timed("indexed_sched_host_s", m.live_mc_s);
    print_timed("device_async_host_s", m.device_s);
    println!(
        "      \"indexed_host_rows_per_s\": {:.0},",
        m.outstanding as f64 / m.live_mc_s.median
    );
    println!(
        "      \"device_async_host_rows_per_s\": {:.0},",
        m.outstanding as f64 / m.device_s.median
    );
    println!("      \"energy_mj\": {:.4}", m.energy_nj * 1e-6);
    println!("    }},");
}

struct EngineComparison {
    kind: RowOpKind,
    rows: u64,
    finish_cycle: u64,
    tick_s: Timed,
    event_s: Timed,
}

/// Streams `rows` row operations of `kind` over consecutive rows (so they
/// rotate over the banks) through both engines, asserting bit-identical
/// DRAM time.
fn compare_engines(
    kind: RowOpKind,
    rows: u64,
    reps: u64,
    timing: &TimingParams,
) -> EngineComparison {
    let op = ReqKind::RowOp {
        op: kind,
        busy_cycles: accounting::row_op_busy_cycles(kind, timing),
    };
    let requests: Vec<MemRequest> = (0..rows)
        .map(|row| MemRequest::new(row * DramGeometry::ROW_BYTES, op))
        .collect();
    let sweep = |event_driven: bool| {
        let mut mc = MemoryController::new(DramGeometry::module_mib(64), *timing);
        drive_stream(&mut mc, &requests, event_driven)
    };
    let (tick_s, tick_finish) = time(reps, || sweep(false));
    let (event_s, event_finish) = time(reps, || sweep(true));
    assert_eq!(
        tick_finish, event_finish,
        "event engine diverged from tick engine on the {kind:?} sweep"
    );
    EngineComparison {
        kind,
        rows,
        finish_cycle: event_finish,
        tick_s,
        event_s,
    }
}

fn print_engine_entry(c: &EngineComparison, timing: &TimingParams, last: bool) {
    println!("    {{");
    println!("      \"workload\": \"engine_sweep_{:?}\",", c.kind);
    println!("      \"rows\": {},", c.rows);
    println!(
        "      \"dram_ms\": {:.4},",
        timing.ns(c.finish_cycle) * 1e-6
    );
    print_timed("tick_engine_host_s", c.tick_s);
    print_timed("event_engine_host_s", c.event_s);
    println!(
        "      \"events_vs_cycles_speedup\": {:.2}",
        c.tick_s.median / c.event_s.median
    );
    println!("    }}{}", if last { "" } else { "," });
}

/// The `data_fingerprint` words: 0, !0, every byte in every lane, then
/// 4,096 words from a fixed splitmix64 stream.
fn fingerprint_words() -> Vec<u64> {
    let mut state = 23;
    let mut words = vec![0, !0];
    words.extend((0..8).flat_map(|lane| (0..=255u64).map(move |byte| byte << (8 * lane))));
    words.extend((0..4096).map(|_| rand::splitmix64(&mut state)));
    words
}

/// Hashes every word's uniform row with `hash`.
fn fingerprints(words: &[u64], hash: impl Fn(u64) -> u64) -> Vec<u64> {
    words.iter().map(|&word| hash(black_box(word))).collect()
}

/// Asserts `uniform_fingerprint` equals the byte-serial reference on
/// every word.
fn assert_fingerprints_agree(words: &[u64], uniform: &[u64], serial: &[u64]) {
    for ((word, uniform), serial) in words.iter().zip(uniform).zip(serial) {
        assert_eq!(
            uniform, serial,
            "uniform_fingerprint diverged from row_fingerprint on {word:#018x}"
        );
    }
}

fn byte_serial(word: u64) -> u64 {
    row_fingerprint(&[word; WORDS_PER_ROW])
}

struct FingerprintMeasured {
    words: usize,
    uniform_ns: Timed,
    serial_ns: Timed,
}

/// Passes over the `data_fingerprint` words per timed rep: one uniform
/// pass takes only ~2 ms, short enough for one slow phase of a shared
/// host to decide a rep.
const FINGERPRINT_PASSES: usize = 16;

/// Times both fingerprints over the `data_fingerprint` words, per word.
fn data_fingerprint(reps: u64) -> FingerprintMeasured {
    let words = fingerprint_words();
    let timed = |hash: fn(u64) -> u64| {
        time(reps, || {
            for _ in 1..FINGERPRINT_PASSES {
                black_box(fingerprints(&words, hash));
            }
            fingerprints(&words, hash)
        })
    };
    let (uniform_s, uniform) = timed(uniform_fingerprint);
    let (serial_s, serial) = timed(byte_serial);
    assert_fingerprints_agree(&words, &uniform, &serial);
    let per_word_ns = 1e9 / (FINGERPRINT_PASSES * words.len()) as f64;
    FingerprintMeasured {
        words: words.len(),
        uniform_ns: uniform_s.scaled(per_word_ns),
        serial_ns: serial_s.scaled(per_word_ns),
    }
}

fn print_fingerprint_entry(m: &FingerprintMeasured) {
    println!("    {{");
    println!("      \"workload\": \"data_fingerprint\",");
    println!("      \"words\": {},", m.words);
    print_timed("uniform_ns_per_word", m.uniform_ns);
    print_timed("byte_serial_ns_per_word", m.serial_ns);
    println!(
        "      \"speedup\": {:.2}",
        m.serial_ns.median / m.uniform_ns.median
    );
    println!("    }},");
}

/// Rows of the `data_apply` compute region; the 8-bit layout needs 31.
const APPLY_REGION_ROWS: u64 = 64;
/// Fresh-plane passes over the stream per timed rep.
const APPLY_PASSES: usize = 16;

/// The `data_apply` stream: two rounds of every vector operation over
/// 8-bit lanes, each seeding fresh splitmix64 operands, then its plan.
fn apply_stream() -> Vec<CodicOp> {
    let layout = SimdLayout::new(0, 8);
    let mut state = 29;
    let mut operand = || -> Vec<u64> { (0..8).map(|_| rand::splitmix64(&mut state)).collect() };
    let mut ops = Vec::new();
    for _ in 0..2 {
        for op in VecOp::ALL {
            let (a, b) = (operand(), operand());
            ops.extend(layout.seed(&a, &b));
            ops.extend(layout.plan(op));
        }
    }
    ops
}

/// Applies `ops` to a fresh plane over the region; returns the wrapping
/// sum of the fingerprints `apply` returned.
fn apply_all(ops: &[CodicOp]) -> u64 {
    let mut plane = DataPlane::new(0..APPLY_REGION_ROWS * DramGeometry::ROW_BYTES);
    ops.iter()
        .fold(0, |sum, &op| sum.wrapping_add(plane.apply(black_box(op))))
}

struct ApplyMeasured {
    ops: usize,
    ns_per_op: Timed,
    fingerprint_sum: u64,
}

/// Times `DataPlane::apply` over the `data_apply` stream, per op,
/// asserting on every pass that the fingerprint sum equals the
/// byte-serial reference's.
fn data_apply(reps: u64) -> ApplyMeasured {
    let ops = apply_stream();
    let mut reference = DataPlane::new(0..APPLY_REGION_ROWS * DramGeometry::ROW_BYTES);
    // Every op of a SIMD plan is a compute op, so each returns the
    // fingerprint of the row at its `row_addr`.
    let expected = ops.iter().fold(0u64, |sum, &op| {
        reference.apply(op);
        sum.wrapping_add(byte_serial(reference.word(op.row_addr())))
    });
    let (apply_s, ()) = time(reps, || {
        for _ in 0..APPLY_PASSES {
            assert_eq!(
                apply_all(&ops),
                expected,
                "data_apply fingerprint sum diverged"
            );
        }
    });
    ApplyMeasured {
        ops: ops.len(),
        ns_per_op: apply_s.scaled(1e9 / (APPLY_PASSES * ops.len()) as f64),
        fingerprint_sum: expected,
    }
}

fn print_apply_entry(m: &ApplyMeasured) {
    println!("    {{");
    println!("      \"workload\": \"data_apply\",");
    println!("      \"ops\": {},", m.ops);
    println!("      \"region_rows\": {APPLY_REGION_ROWS},");
    print_timed("ns_per_op", m.ns_per_op);
    println!("      \"fingerprint_sum\": \"{:#018x}\"", m.fingerprint_sum);
    println!("    }}");
}

fn print_entry(name: &str, shards: usize, m: &Measured, last: bool) {
    println!("    {{");
    println!("      \"workload\": \"{name}\",");
    println!("      \"shards\": {shards},");
    println!("      \"rows\": {},", m.rows);
    print_timed("host_s", m.host_s);
    println!("      \"dram_ms\": {:.4},", m.dram_ns * 1e-6);
    println!(
        "      \"host_rows_per_s\": {:.0},",
        m.rows as f64 / m.host_s.median
    );
    println!(
        "      \"dram_rows_per_s\": {:.0},",
        m.rows as f64 / (m.dram_ns * 1e-9)
    );
    println!("      \"energy_mj\": {:.4}", m.energy_nj * 1e-6);
    println!("    }}{}", if last { "" } else { "," });
}

fn main() {
    let geometry = DramGeometry::module_mib(64);
    let timing = TimingParams::ddr3_1600_11();
    if has_flag("--quick") {
        // CI smoke: the event engine must report the same DRAM time as
        // the tick engine on the sweep workload (compare_engines asserts,
        // so a divergence exits non-zero), and the queue-depth mixed
        // workload must be bit-identical across tick vs event drivers
        // (queue_depth_smoke asserts).
        let rows = arg_num("--rows").unwrap_or(1024).min(geometry.total_rows());
        let codic = compare_engines(RowOpKind::Codic, rows, 1, &timing);
        let lisa = compare_engines(RowOpKind::LisaClone, rows, 1, &timing);
        let depth = arg_num::<u64>("--outstanding").unwrap_or(512);
        let depth_finish = queue_depth_smoke(depth, geometry, &timing);
        let all = fingerprint_words();
        let words: Vec<u64> = all
            .iter()
            .step_by(all.len() / 256)
            .take(256)
            .copied()
            .collect();
        let uniform = fingerprints(&words, uniform_fingerprint);
        assert_fingerprints_agree(&words, &uniform, &fingerprints(&words, byte_serial));
        println!("{{");
        println!("  \"bench\": \"device_engine_smoke\",");
        println!("  \"results\": [");
        print_engine_entry(&codic, &timing, false);
        print_engine_entry(&lisa, &timing, true);
        println!("  ],");
        println!("  \"queue_depth_smoke\": {{");
        println!("    \"outstanding\": {depth},");
        println!("    \"finish_cycle\": {depth_finish},");
        println!("    \"identical\": [\"tick_vs_event\"]");
        println!("  }},");
        println!("  \"data_fingerprint_smoke\": {{");
        println!("    \"words\": {},", words.len());
        println!("    \"identical\": [\"uniform_vs_byte_serial\"]");
        println!("  }}");
        println!("}}");
        return;
    }
    // The batch serves one module-sized address space; rows beyond it
    // would (correctly) be rejected by the safe-range policy.
    let rows = arg_num("--rows").unwrap_or(8192).min(geometry.total_rows());
    let max_shards = arg_num::<u64>("--shards").unwrap_or(4).max(1) as usize;
    let reps = arg_num::<u64>("--reps").unwrap_or(3).max(1);
    let config = DeviceConfig::new(geometry, timing).with_refresh(false);

    println!("{{");
    println!("  \"bench\": \"device_pool_throughput\",");
    println!("  \"module_mib\": 64,");
    println!("  \"rows_per_batch\": {rows},");
    println!("  \"reps\": {reps},");
    println!("  \"threads_available\": {},", rayon::current_num_threads());
    println!("  \"results\": [");
    let sec1 = secdealloc_batch(&config, 1, rows, reps);
    print_entry("secdealloc_zeroing", 1, &sec1, false);
    let secn = secdealloc_batch(&config, max_shards, rows, reps);
    print_entry("secdealloc_zeroing", max_shards, &secn, false);
    let cb1 = coldboot_sweep(&config, 1, reps);
    print_entry("coldboot_destruction", 1, &cb1, false);
    let cbn = coldboot_sweep(&config, max_shards, reps);
    print_entry("coldboot_destruction", max_shards, &cbn, false);
    // Event-vs-tick engine comparison on the idle-heavy destruction
    // sweeps (LISA-clone is the idle-heaviest: the longest per-row bank
    // occupancy and a double-activation rank window).
    let codic = compare_engines(RowOpKind::Codic, rows, reps, &timing);
    print_engine_entry(&codic, &timing, false);
    let lisa = compare_engines(RowOpKind::LisaClone, rows, reps, &timing);
    print_engine_entry(&lisa, &timing, false);
    // Queue-depth scaling: the same mixed stream through the raw
    // controller and the device async path.
    for depth in [64u64, 512, 2048, 8192] {
        print_depth_entry(&queue_depth_at(depth, reps, geometry, &timing), &timing);
    }
    let fingerprint = data_fingerprint(reps);
    print_fingerprint_entry(&fingerprint);
    print_apply_entry(&data_apply(reps));
    println!("  ],");
    println!(
        "  \"dram_speedup_secdealloc\": {:.2},",
        (sec1.dram_ns / sec1.rows as f64) / (secn.dram_ns / secn.rows as f64)
    );
    println!(
        "  \"host_speedup_coldboot\": {:.2},",
        (cb1.host_s.median / cb1.rows as f64) / (cbn.host_s.median / cbn.rows as f64)
    );
    println!(
        "  \"events_vs_cycles_speedup\": {:.2},",
        lisa.tick_s.median / lisa.event_s.median
    );
    println!(
        "  \"fingerprint_speedup\": {:.2}",
        fingerprint.serial_ns.median / fingerprint.uniform_ns.median
    );
    println!("}}");
}
