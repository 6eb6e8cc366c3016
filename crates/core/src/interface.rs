//! The controlled CODIC interface of §4.4.
//!
//! Exposing raw internal signals to software is a security risk, so the
//! paper proposes that the memory controller offer *applications* (e.g. a
//! PUF evaluation) rather than raw timing control, internally tracking "a
//! system-defined memory address range that is safe to use". This module
//! implements that controller-side policy layer over the typed
//! [`CodicOp`] command set; the cycle-level scheduling behind it lives in
//! [`CodicDevice`](crate::device::CodicDevice).

use std::ops::Range;

use crate::error::CodicError;
use crate::mode_register::{ModeRegister, ModeRegisterFile};
use crate::ops::{CodicOp, VariantId};

/// The controller-side CODIC policy layer: a variant is programmed through
/// the mode registers, and destructive commands are confined to a
/// system-defined safe address range.
#[derive(Debug, Clone)]
pub struct CodicController {
    registers: ModeRegisterFile,
    installed: Option<VariantId>,
    safe_range: Range<u64>,
    compute_range: Range<u64>,
}

impl CodicController {
    /// Creates a controller whose destructive commands are confined to
    /// `safe_range` (byte addresses) and that rejects every bulk-bitwise
    /// compute command (no compute region is configured).
    #[must_use]
    pub fn new(safe_range: Range<u64>) -> Self {
        CodicController {
            registers: ModeRegisterFile::new(),
            installed: None,
            safe_range,
            compute_range: 0..0,
        }
    }

    /// The same controller with bulk-bitwise compute commands authorized
    /// inside `compute_range` (byte addresses).
    #[must_use]
    pub fn with_compute_range(mut self, compute_range: Range<u64>) -> Self {
        self.compute_range = compute_range;
        self
    }

    /// The authorized compute region (empty when compute is disabled).
    #[must_use]
    pub fn compute_range(&self) -> &Range<u64> {
        &self.compute_range
    }

    /// The mode-register file (for inspection).
    #[must_use]
    pub fn registers(&self) -> &ModeRegisterFile {
        &self.registers
    }

    /// The system-defined safe address range.
    #[must_use]
    pub fn safe_range(&self) -> &Range<u64> {
        &self.safe_range
    }

    /// The currently installed variant, if any.
    #[must_use]
    pub fn installed(&self) -> Option<VariantId> {
        self.installed
    }

    /// Programs `variant` into the mode registers; returns the number of
    /// MRS commands used.
    pub fn install(&mut self, variant: VariantId) -> u32 {
        let writes = self.registers.program(&variant.variant());
        self.installed = Some(variant);
        writes
    }

    /// Returns every mode register to the idle encoding, uninstalling the
    /// current variant; returns the number of MRS commands used.
    pub fn uninstall(&mut self) -> u32 {
        let mut writes = 0;
        for sig in codic_circuit::Signal::ALL {
            if self.registers.register(sig) != ModeRegister::idle() {
                self.registers.write(sig, ModeRegister::idle());
                writes += 1;
            }
        }
        self.installed = None;
        writes
    }

    /// Checks `op` against the §4.4 policy.
    ///
    /// # Errors
    ///
    /// - [`CodicError::NoVariantInstalled`] when a CODIC command is issued
    ///   with nothing programmed;
    /// - [`CodicError::WrongVariantInstalled`] when a CODIC command does
    ///   not match the programmed variant;
    /// - [`CodicError::AddressOutOfRange`] when a destructive command
    ///   targets memory outside the safe range (§4.4's policy).
    pub fn authorize(&self, op: CodicOp) -> Result<(), CodicError> {
        if let Some(requested) = op.variant() {
            match self.installed {
                None => return Err(CodicError::NoVariantInstalled),
                Some(installed) if installed != requested => {
                    return Err(CodicError::WrongVariantInstalled {
                        installed,
                        requested,
                    });
                }
                Some(_) => {}
            }
        }
        self.check_safe_range(op)
    }

    /// The address part of the policy alone. Used to pre-flight whole
    /// batches before any variant is installed:
    ///
    /// - destructive commands must stay inside the safe range;
    /// - bulk-bitwise compute commands must write only rows inside the
    ///   authorized compute region (every row of a triple-row-activation
    ///   group counts as written — the charge sharing destroys all three).
    ///   Sources of `Not`/`RowCopy` are sensed non-destructively and may
    ///   lie anywhere.
    ///
    /// # Errors
    ///
    /// Returns [`CodicError::AddressOutOfRange`] when a destructive
    /// command targets memory outside the safe range,
    /// [`CodicError::NoComputeRegion`] when a compute command arrives with
    /// no compute region configured, and
    /// [`CodicError::ComputeOutsideRegion`] when a compute command would
    /// overwrite a row outside that region.
    pub fn check_safe_range(&self, op: CodicOp) -> Result<(), CodicError> {
        if op.is_compute() {
            if self.compute_range.is_empty() {
                return Err(CodicError::NoComputeRegion);
            }
            for addr in op.written_rows().row_addrs() {
                if !self.compute_range.contains(&addr) {
                    return Err(CodicError::ComputeOutsideRegion {
                        addr,
                        start: self.compute_range.start,
                        end: self.compute_range.end,
                    });
                }
            }
            return Ok(());
        }
        if op.is_destructive() && !self.safe_range.contains(&op.row_addr()) {
            return Err(CodicError::AddressOutOfRange {
                addr: op.row_addr(),
                start: self.safe_range.start,
                end: self.safe_range.end,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> CodicController {
        CodicController::new(0x1000..0x2000)
    }

    #[test]
    fn issue_without_install_fails() {
        let c = controller();
        assert!(matches!(
            c.authorize(CodicOp::command(VariantId::Sig, 0x1000)),
            Err(CodicError::NoVariantInstalled)
        ));
    }

    #[test]
    fn issue_with_mismatched_variant_fails() {
        let mut c = controller();
        c.install(VariantId::DetZero);
        let err = c
            .authorize(CodicOp::command(VariantId::Sig, 0x1000))
            .unwrap_err();
        assert!(matches!(err, CodicError::WrongVariantInstalled { .. }));
        assert!(err.to_string().contains("CODIC-sig"));
    }

    #[test]
    fn destructive_commands_are_confined_to_safe_range() {
        let mut c = controller();
        c.install(VariantId::Sig);
        assert!(c
            .authorize(CodicOp::command(VariantId::Sig, 0x1000))
            .is_ok());
        assert!(c
            .authorize(CodicOp::command(VariantId::Sig, 0x1FFF))
            .is_ok());
        let err = c
            .authorize(CodicOp::command(VariantId::Sig, 0x2000))
            .unwrap_err();
        assert!(matches!(err, CodicError::AddressOutOfRange { .. }));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn non_destructive_commands_may_target_anywhere() {
        let mut c = controller();
        c.install(VariantId::Activate);
        assert!(c
            .authorize(CodicOp::command(VariantId::Activate, 0xFFFF_0000))
            .is_ok());
    }

    #[test]
    fn clone_baselines_need_no_install_but_respect_the_range() {
        let c = controller();
        assert!(c
            .authorize(CodicOp::RowCloneZero { row_addr: 0x1800 })
            .is_ok());
        assert!(matches!(
            c.authorize(CodicOp::LisaCloneZero { row_addr: 0x2000 }),
            Err(CodicError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn compute_commands_need_a_compute_region() {
        let c = controller();
        let err = c
            .authorize(CodicOp::MajAnd { row_addr: 0x1000 })
            .unwrap_err();
        assert!(matches!(err, CodicError::NoComputeRegion));
    }

    #[test]
    fn compute_commands_are_confined_to_the_compute_region() {
        // Region holds rows 0x10000..0x18000 (four 8 KB rows).
        let mut c = CodicController::new(0x1000..0x2000).with_compute_range(0x10000..0x18000);
        assert!(c.authorize(CodicOp::MajAnd { row_addr: 0x10000 }).is_ok());
        // The group's third row (0x14000 + 2·0x2000 = 0x18000) falls
        // outside: rejected even though the base row is inside.
        let err = c
            .authorize(CodicOp::MajOr { row_addr: 0x14000 })
            .unwrap_err();
        assert!(
            matches!(err, CodicError::ComputeOutsideRegion { addr: 0x18000, .. }),
            "{err:?}"
        );
        // A NOT may read from anywhere but must write inside.
        assert!(c
            .authorize(CodicOp::Not {
                src_addr: 0,
                dst_addr: 0x16000,
            })
            .is_ok());
        assert!(matches!(
            c.authorize(CodicOp::Not {
                src_addr: 0x10000,
                dst_addr: 0,
            }),
            Err(CodicError::ComputeOutsideRegion { addr: 0, .. })
        ));
        // The compute region does not loosen the safe range for the
        // classic destructive commands.
        c.install(VariantId::DetZero);
        assert!(matches!(
            c.authorize(CodicOp::command(VariantId::DetZero, 0x10000)),
            Err(CodicError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn install_programs_mode_registers() {
        let mut c = controller();
        let writes = c.install(VariantId::Sig);
        assert_eq!(writes, 2);
        assert_eq!(c.installed(), Some(VariantId::Sig));
        assert_eq!(
            &c.registers().schedule().unwrap(),
            VariantId::Sig.variant().schedule()
        );
    }

    #[test]
    fn uninstall_round_trips_the_register_file() {
        let mut c = controller();
        let fresh_writes = c.install(VariantId::DetZero);
        let cleared = c.uninstall();
        assert_eq!(cleared, fresh_writes, "every programmed register resets");
        assert_eq!(c.installed(), None);
        assert_eq!(c.registers().schedule().unwrap().programmed_signals(), 0);
        assert_eq!(c.install(VariantId::DetZero), fresh_writes);
    }
}
