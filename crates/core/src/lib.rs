//! The CODIC substrate — the primary contribution of "CODIC: A Low-Cost
//! Substrate for Enabling Custom In-DRAM Functionalities and Optimizations"
//! (Orosa et al., ISCA 2021).
//!
//! CODIC makes four previously fixed DRAM internal circuit timing signals
//! (`wl`, `EQ`, `sense_p`, `sense_n`) programmable: each can be asserted and
//! deasserted anywhere in a 25 ns window at 1 ns steps. This crate provides:
//!
//! - [`CodicVariant`]: a named four-signal timing program, with the paper's
//!   Table 1 presets in [`library`] (activate, precharge, CODIC-sig,
//!   CODIC-sig-opt, CODIC-det, CODIC-sigsa);
//! - [`variant_space`]: the combinatorics of the 300⁴-variant design space
//!   (§4.1.3) with iterators and samplers;
//! - [`mode_register`]: the 4 × 10-bit mode registers through which the
//!   memory controller programs timings over the standard MRS command
//!   (§4.2.2);
//! - [`delay_element`]: the configurable delay-element circuit model and its
//!   area/energy/delay costs (§4.2.1: 0.28 % per mat per signal, < 500 fJ,
//!   0.028 ns added mux delay);
//! - [`classify`]: functional classification of any variant by running it
//!   through the `codic-circuit` analog simulator;
//! - [`latency`]: the paper's Table 2 latency and energy costs;
//! - [`exec`]: the data transformation each variant applies to a DRAM row;
//! - [`interface`]: the controlled, range-restricted controller API the
//!   paper proposes to avoid exposing raw internal signals (§4.4);
//! - [`ops`]: the typed command set ([`VariantId`], [`CodicOp`]) and the
//!   [`InDramMechanism`] trait the use cases implement;
//! - [`device`]: the [`CodicDevice`] service layer composing
//!   mode-register programming, safe-range policy, and event-driven
//!   cycle-level scheduling into one typed command path;
//! - [`executor`]: one-shot completion slots ([`OpFuture`]) that the
//!   clock driver fills and the caller takes, with no executor;
//! - [`pool`]: the sharded [`DevicePool`] for throughput-style
//!   workloads, with the
//!   [`submit_all_async_routed`](pool::DevicePool::submit_all_async_routed) /
//!   [`drive`](pool::DevicePool::drive) pair;
//! - [`fleet`]: the [`FleetHandle`], the one serving substrate — tenant
//!   slots, each owning its own [`DevicePool`] behind a lock of its own,
//!   with per-tenant quotas; a tenant's batch runs straight on its own
//!   pool, so its stream is bit-identical to a private pool's (a private
//!   session is a one-slot fleet), drained as [`FleetEvent`]s;
//! - [`data`]: the lazily materialized compute-region data plane, so
//!   bulk-bitwise results are value-checked rather than only timed;
//! - [`simd`]: the bit-serial SIMD planner compiling element-wise vector
//!   add/and/or/xor into multi-row-activation sequences (SIMDRAM-style).
//!
//! # Example
//!
//! ```
//! use codic_core::library;
//! use codic_core::classify::{classify, OperationClass};
//! use codic_circuit::CircuitParams;
//!
//! let sig = library::codic_sig();
//! assert_eq!(
//!     classify(&sig, &CircuitParams::default()),
//!     OperationClass::SignaturePreparation,
//! );
//! ```

pub mod classify;
pub mod data;
pub mod delay_element;
pub mod device;
pub mod error;
pub mod exec;
pub mod executor;
pub mod fault;
pub mod fleet;
pub mod interface;
pub mod latency;
pub mod library;
pub mod mode_register;
pub mod ops;
pub mod optimize;
pub mod pool;
pub mod simd;
pub mod variant;
pub mod variant_space;

pub use classify::OperationClass;
pub use data::DataPlane;
pub use device::{
    BatchOutcome, CodicDevice, DeviceConfig, OpCompletion, OpCost, OpToken, SweepReport,
};
pub use error::CodicError;
pub use executor::OpFuture;
pub use fault::{FaultCause, FaultPlan, FaultStats, HealthPolicy, OpOutcome, RetryPolicy};
pub use fleet::{FleetConfig, FleetEvent, FleetHandle, TenantId};
pub use latency::CommandCost;
pub use mode_register::{ModeRegister, ModeRegisterFile};
pub use ops::{CodicOp, InDramMechanism, RowRegion, VariantId};
pub use pool::{DevicePool, PoolOutcome, ShardHealth};
pub use simd::{SimdLayout, VecOp};
pub use variant::CodicVariant;
