//! Facade crate for the CODIC reproduction workspace.
//!
//! Besides re-exporting every workspace crate, this crate's root is the
//! **unified service API**: one typed command path from use case to
//! cycle-level controller, as the paper's §4.4 controlled interface
//! prescribes. The full layer map — including the trace-replay serving
//! layer (`codic-server`) that runs this stack behind a Unix socket —
//! and the reference walkthrough of one operation's life live in
//! `docs/ARCHITECTURE.md`; the serving wire format is specified in
//! `docs/PROTOCOL.md`.
//!
//! Policy checks run *before* an operation is enqueued — a rejected
//! [`CodicOp`] never reaches the command bus — and completions come back
//! typed, with the finishing cycle and the accounted occupancy and
//! energy cost. Completions are either drained
//! ([`CodicDevice::take_completions`]) or collected one by one: an
//! [`OpFuture`] is a one-shot slot that the clock driver
//! ([`DevicePool::drive`] or the per-device step/run functions) fills and
//! [`OpFuture::try_take`] empties.
//!
//! # Example
//!
//! ```
//! use codic::{CodicDevice, CodicOp, DeviceConfig, VariantId};
//! use codic::dram::{DramGeometry, TimingParams};
//!
//! let config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
//!     .with_safe_range(0..1 << 20)
//!     .with_refresh(false);
//! let mut device = CodicDevice::new(config);
//!
//! // Zero two rows through the typed service path.
//! let ops = [
//!     CodicOp::command(VariantId::DetZero, 0),
//!     CodicOp::command(VariantId::DetZero, 8192),
//! ];
//! let outcome = device.execute_all(&ops).unwrap();
//! assert_eq!(outcome.ops(), 2);
//! assert!(outcome.energy_nj > 0.0);
//!
//! // Destructive commands outside the safe range never reach the bus.
//! assert!(device.submit(CodicOp::command(VariantId::DetZero, 1 << 30)).is_err());
//! ```

pub use codic_circuit as circuit;
pub use codic_coldboot as coldboot;
pub use codic_core as core;
pub use codic_dram as dram;
pub use codic_nist as nist;
pub use codic_power as power;
pub use codic_puf as puf;
pub use codic_secdealloc as secdealloc;

pub use codic_core::device::{
    BatchOutcome, CodicDevice, DeviceConfig, OpCompletion, OpCost, OpToken, SweepReport,
};
pub use codic_core::error::CodicError;
pub use codic_core::executor::OpFuture;
pub use codic_core::ops::{CodicOp, InDramMechanism, RowRegion, VariantId};
pub use codic_core::pool::{DevicePool, PoolOutcome};

/// Compiles and runs the README's code snippets as doctests, so the
/// front-page examples can never drift from the live API again.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
