//! Property-based tests of the CODIC substrate invariants.

use codic_circuit::SignalPulse;
use codic_core::device::{CodicDevice, DeviceConfig};
use codic_core::interface::CodicController;
use codic_core::mode_register::{ModeRegister, ModeRegisterFile, IDLE_ENCODING};
use codic_core::ops::{CodicOp, VariantId};
use codic_core::variant_space;
use codic_core::CodicError;
use codic_dram::{DramGeometry, TimingParams};
use proptest::prelude::*;

/// Deterministically picks one of the typed ops from two raw draws.
fn arbitrary_op(selector: u8, variant_idx: u8, row_addr: u64) -> CodicOp {
    match selector % 3 {
        0 => CodicOp::command(
            VariantId::ALL[usize::from(variant_idx) % VariantId::ALL.len()],
            row_addr,
        ),
        1 => CodicOp::RowCloneZero { row_addr },
        _ => CodicOp::LisaCloneZero { row_addr },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mode_register_round_trips_every_valid_pulse(idx in 0u64..300) {
        let pulse = variant_space::nth_pulse(idx).unwrap();
        let mr = ModeRegister::encode(pulse);
        prop_assert!(mr.raw() < (1 << 10), "10-bit field");
        prop_assert_eq!(mr.decode().unwrap(), Some(pulse));
        prop_assert_eq!(ModeRegister::from_raw(mr.raw()).unwrap(), mr);
    }

    #[test]
    fn raw_values_never_panic(raw in any::<u16>()) {
        match ModeRegister::from_raw(raw) {
            Ok(mr) => {
                // Valid encodings decode to idle or a valid pulse.
                match mr.decode().unwrap() {
                    None => prop_assert_eq!(raw, IDLE_ENCODING),
                    Some(p) => prop_assert!(p.assert_ns() < p.deassert_ns()),
                }
            }
            Err(_) => {
                // Rejected values are wide or encode invalid pulses.
                let wide = raw > IDLE_ENCODING;
                let a = (raw & 0x1F) as u8;
                let d = (raw >> 5) as u8;
                prop_assert!(wide || SignalPulse::new(a, d).is_err());
            }
        }
    }

    #[test]
    fn programming_random_variants_round_trips(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let v = variant_space::random_variant(&mut rng, 0.3);
        let mut mrf = ModeRegisterFile::new();
        mrf.program(&v);
        prop_assert_eq!(&mrf.schedule().unwrap(), v.schedule());
        // Re-programming the same variant writes nothing.
        prop_assert_eq!(mrf.program(&v), 0);
    }

    #[test]
    fn destructive_ops_outside_the_safe_range_never_reach_the_bus(
        selector in any::<u8>(),
        variant_idx in any::<u8>(),
        row_addr in any::<u64>(),
        range_start in 0u64..(1 << 20),
        range_len in 1u64..(1 << 20),
    ) {
        let safe_range = range_start..range_start.saturating_add(range_len);
        let op = arbitrary_op(selector, variant_idx, row_addr);
        let config = DeviceConfig::new(
            DramGeometry::module_mib(64),
            TimingParams::ddr3_1600_11(),
        )
        .with_safe_range(safe_range.clone())
        .with_refresh(false);
        let mut device = CodicDevice::new(config);
        let result = device.submit(op);
        let allowed = !op.is_destructive() || safe_range.contains(&op.row_addr());
        if allowed {
            prop_assert!(result.is_ok());
            prop_assert_eq!(device.stats().row_ops + device.stats().queue_rejections, 0,
                "accepted ops sit queued until ticked");
            device.run_to_idle();
            prop_assert_eq!(device.stats().row_ops, 1);
            prop_assert_eq!(device.take_completions().len(), 1);
        } else {
            // The policy rejects BEFORE enqueue: nothing is queued and
            // nothing executes.
            prop_assert!(matches!(result, Err(CodicError::AddressOutOfRange { .. })));
            prop_assert!(device.is_idle());
            prop_assert_eq!(device.stats().row_ops, 0);
            prop_assert!(device.take_completions().is_empty());
        }
    }

    #[test]
    fn mode_register_install_uninstall_round_trips(
        variant_idx in 0usize..VariantId::ALL.len(),
        other_idx in 0usize..VariantId::ALL.len(),
    ) {
        let variant = VariantId::ALL[variant_idx];
        let other = VariantId::ALL[other_idx];
        let mut c = CodicController::new(0..1 << 20);
        let fresh_writes = c.install(variant);
        prop_assert_eq!(c.installed(), Some(variant));
        prop_assert_eq!(c.registers().schedule().unwrap(), variant.variant().schedule().clone());
        // Uninstall resets exactly the registers the install programmed …
        let cleared = c.uninstall();
        prop_assert_eq!(cleared, fresh_writes);
        prop_assert_eq!(c.installed(), None);
        prop_assert_eq!(c.registers().schedule().unwrap().programmed_signals(), 0);
        // … and a fresh install after uninstall costs the same MRS count
        // as installing into a fresh register file.
        let mut fresh = CodicController::new(0..1 << 20);
        prop_assert_eq!(c.install(other), fresh.install(other));
        prop_assert_eq!(c.registers().schedule().unwrap(), other.variant().schedule().clone());
    }
}
