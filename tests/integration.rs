//! Cross-crate integration tests: each exercises a full pipeline spanning
//! several crates, mirroring how the paper's experiments compose the
//! substrate, the simulators, and the applications.

use codic::circuit::{CircuitParams, CircuitSim, SenseOutcome};
use codic::core::classify::{classify, OperationClass};
use codic::core::library;

#[test]
fn mode_registers_drive_the_circuit_to_the_documented_outcome() {
    // MRS programming (core) -> schedule -> analog simulation (circuit).
    let mut registers = codic::core::mode_register::ModeRegisterFile::new();
    registers.program(&library::codic_det_zero());
    let schedule = registers.schedule().expect("valid registers");
    let mut sim = CircuitSim::new(CircuitParams::default());
    sim.set_cell_bit(true);
    assert_eq!(sim.run(&schedule).outcome(), SenseOutcome::RestoredZero);
}

#[test]
fn every_table1_variant_classifies_and_costs_consistently() {
    // circuit + core + dram + power together.
    let timing = codic::dram::TimingParams::ddr3_1600_11();
    let energy = codic::power::EnergyModel::paper_default();
    for variant in library::table2_variants() {
        let class = classify(&variant, &CircuitParams::default());
        let cost = codic::core::latency::command_cost(&variant, class, &timing, &energy);
        assert!(cost.latency_ns == 35.0 || cost.latency_ns == 13.0);
        assert!(cost.energy_nj > 17.0 && cost.energy_nj < 17.5);
    }
}

#[test]
fn codic_controller_guards_the_puf_range_end_to_end() {
    use codic::{CodicOp, VariantId};
    let mut controller = codic::core::interface::CodicController::new(0..8192);
    let class = classify(&VariantId::Sig.variant(), &CircuitParams::default());
    assert_eq!(class, OperationClass::SignaturePreparation);
    assert_eq!(class, VariantId::Sig.class(), "typed class matches circuit");
    controller.install(VariantId::Sig);
    assert!(controller
        .authorize(CodicOp::command(VariantId::Sig, 0))
        .is_ok());
    assert!(
        controller
            .authorize(CodicOp::command(VariantId::Sig, 1 << 30))
            .is_err(),
        "destructive op outside range"
    );
}

#[test]
fn all_three_use_cases_issue_through_one_device_handle() {
    // The §4.4 service path end-to-end: the PUF, secure-deallocation, and
    // cold-boot mechanisms all plan typed ops and run on the same device.
    use codic::dram::{DramGeometry, TimingParams};
    use codic::{CodicDevice, DeviceConfig, InDramMechanism, RowRegion};

    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false);
    let mut device = CodicDevice::new(config);

    let mechanisms: [&dyn InDramMechanism; 3] = [
        &codic::puf::CodicSigPuf,
        &codic::secdealloc::ZeroingMechanism::Codic,
        &codic::coldboot::DestructionMechanism::LisaClone,
    ];
    let mut total = 0;
    for (i, m) in mechanisms.iter().enumerate() {
        let region = RowRegion::new(i as u64 * 64 * 8192, 8);
        let outcome = device.run_mechanism(*m, region).unwrap();
        assert_eq!(outcome.ops(), 8, "{}", m.name());
        assert!(outcome.energy_nj > 0.0);
        total += outcome.ops() as u64;
    }
    assert_eq!(device.stats().row_ops, total);
    // The LISA plan was charged its extra movement energy.
    let lisa_cost = codic::power::accounting::row_op_cost(
        codic::dram::RowOpKind::LisaClone,
        device.timing(),
        device.energy_model(),
    );
    assert!(lisa_cost.energy_nj > 2.0 * device.energy_model().act_pre_nj());
}

#[test]
fn pooled_serving_path_matches_single_device_results() {
    use codic::dram::{DramGeometry, TimingParams};
    use codic::{CodicOp, DeviceConfig, DevicePool, VariantId};

    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false);
    let ops: Vec<CodicOp> = (0..64)
        .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
        .collect();
    let one = DevicePool::new(1, &config).execute_all(&ops).unwrap();
    let four = DevicePool::new(4, &config).execute_all(&ops).unwrap();
    assert_eq!(one.ops(), four.ops());
    assert!((one.energy_nj() - four.energy_nj()).abs() < 1e-6);
    assert!(
        four.finish_cycle() < one.finish_cycle(),
        "sharding must cut DRAM time: {} vs {}",
        four.finish_cycle(),
        one.finish_cycle()
    );
}

#[test]
fn async_serving_path_awaits_completions_end_to_end() {
    // submit_all_async_routed -> drive (event engine, parallel shards)
    // -> try_take: no tick loop, no completion polling anywhere.
    use codic::dram::{DramGeometry, TimingParams};
    use codic::{CodicOp, DeviceConfig, DevicePool, VariantId};

    let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_refresh(false);
    let mut pool = DevicePool::new(2, &config);
    // Row ops and plain read/write traffic through the one FR-FCFS path.
    let mut ops = Vec::new();
    for row in 0..16u64 {
        let addr = row * DramGeometry::ROW_BYTES;
        ops.push(CodicOp::command(VariantId::DetZero, addr));
        ops.push(CodicOp::read(addr + 64));
    }
    let mut routed = pool.submit_all_async_routed(&ops).unwrap();
    let finish = pool.drive();
    assert!(finish > 0);
    let completions: Vec<_> = routed
        .iter_mut()
        .map(|(_, f)| f.try_take().expect("driven to idle"))
        .collect();
    assert_eq!(completions.len(), 32);
    for (completion, op) in completions.iter().zip(&ops) {
        assert_eq!(completion.op, *op, "futures preserve submission order");
        assert!(completion.cost.energy_nj > 0.0);
    }
    let reads: u64 = (0..pool.shards())
        .map(|s| pool.device(s).stats().reads)
        .sum();
    let row_ops: u64 = (0..pool.shards())
        .map(|s| pool.device(s).stats().row_ops)
        .sum();
    assert_eq!((reads, row_ops), (16, 16), "one scheduler served both");
}

#[test]
fn destruction_beats_firmware_by_orders_of_magnitude() {
    use codic::coldboot::latency::destruction_time_ms;
    use codic::coldboot::DestructionMechanism;
    let tcg = destruction_time_ms(DestructionMechanism::Tcg, 64);
    let codic = destruction_time_ms(DestructionMechanism::Codic, 64);
    assert!(tcg / codic > 100.0, "TCG {tcg} ms vs CODIC {codic} ms");
}

#[test]
fn puf_stream_passes_core_nist_tests_after_whitening() {
    // puf + nist.
    let population = codic::puf::population::paper_population(0x7E57);
    let bits = codic::puf::bitstream::whitened_stream(
        &population,
        &codic::puf::mechanisms::CodicSigPuf,
        &codic::puf::mechanisms::Environment::nominal(),
        60_000,
    );
    let monobit = codic::nist::monobit::test(&bits);
    let runs = codic::nist::runs::test(&bits);
    let serial = codic::nist::serial::test(&bits);
    assert!(monobit.passed(), "monobit p = {}", monobit.p_value);
    assert!(runs.passed(), "runs p = {}", runs.p_value);
    assert!(serial.passed(), "serial p = {}", serial.p_value);
}

#[test]
fn secure_deallocation_orders_mechanisms_like_the_paper() {
    use codic::secdealloc::mechanism::ZeroingMechanism;
    use codic::secdealloc::sim::single_core_comparison;
    let c = single_core_comparison(codic::secdealloc::Benchmark::Shell, 25, 3);
    let codic_s = c.speedup(ZeroingMechanism::Codic);
    let lisa_s = c.speedup(ZeroingMechanism::LisaClone);
    assert!(codic_s >= lisa_s, "CODIC {codic_s} vs LISA {lisa_s}");
    assert!(codic_s > 1.0);
}

#[test]
fn self_destruct_module_survives_a_simulated_cold_boot() {
    use codic::coldboot::attack::{attack_protected, AttackScenario};
    let result = attack_protected(&AttackScenario {
        off_seconds: 0.1,
        temperature_c: -40.0, // chilled module: worst case for the victim
        total_rows: 8192,
    });
    assert_eq!(result.recovered_fraction, 0.0);
}

#[test]
fn sigsa_montecarlo_consistent_with_puf_minority_rates() {
    // The circuit-level flip rate and the chip model's minority fractions
    // live in the same 0.01%-0.22% decade (paper 6.1, footnote 7).
    let stats = codic::circuit::montecarlo::SigsaExperiment {
        trials: 30_000,
        ..Default::default()
    }
    .run();
    let pct = stats.flip_pct();
    assert!(pct < 0.25, "flip rate {pct}% out of the paper's range");
}
