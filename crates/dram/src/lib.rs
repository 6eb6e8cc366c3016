//! Cycle-level DDR3 DRAM simulator, substituting for the customized
//! Ramulator the CODIC paper uses (§6.2, Appendix A).
//!
//! The crate models:
//!
//! - DRAM organization: channel → rank → bank → row/column
//!   ([`geometry::DramGeometry`]), with module presets from 64 MB to 64 GB;
//! - JEDEC DDR3 timing (tRCD, tRP, tRAS, tRC, tRRD, tFAW, tWR, tWTR, tRTP,
//!   tCCD, tRFC, tREFI, …) via [`timing::TimingParams`], enforced by
//!   the controller's per-bank state machines and per-rank activation
//!   windows;
//! - an FR-FCFS memory controller with separate read/write queues, write
//!   draining, open-page policy, and refresh
//!   ([`controller::MemoryController`]);
//! - write-back caches with CLFLUSH support ([`cache::Cache`]);
//! - trace-driven in-order cores ([`cpu::Core`]) combined into a full
//!   [`system::System`] matching the paper's Tables 5 and 7.
//!
//! "Row operations" — bank-occupying commands such as CODIC, RowClone and
//! LISA-clone — are first-class requests ([`request::ReqKind::RowOp`]), so
//! the cold-boot and secure-deallocation studies reuse the same scheduler
//! the ordinary reads and writes go through.
//!
//! # Example
//!
//! ```
//! use codic_dram::geometry::DramGeometry;
//! use codic_dram::timing::TimingParams;
//! use codic_dram::controller::MemoryController;
//! use codic_dram::request::{MemRequest, ReqKind};
//!
//! let geometry = DramGeometry::module_mib(64);
//! let timing = TimingParams::ddr3_1600_11();
//! let mut mc = MemoryController::new(geometry, timing);
//! mc.push(MemRequest::new(0, ReqKind::Read)).unwrap();
//! let mut cycles = 0u64;
//! while !mc.is_idle() {
//!     mc.tick();
//!     cycles += 1;
//! }
//! // tRCD + tCL + burst, plus controller overhead.
//! assert!(cycles > 20 && cycles < 60, "read took {cycles} cycles");
//! ```

pub mod address;
mod bank;
pub mod cache;
pub mod command;
pub mod controller;
pub mod cpu;
pub mod geometry;
mod rank;
pub mod request;
pub mod stats;
pub mod system;
pub mod timing;
pub mod trace;

pub use address::DramAddress;
pub use command::CommandKind;
pub use controller::MemoryController;
pub use geometry::{Divisor, DramGeometry};
pub use request::{MemRequest, ReqKind, RowOpKind};
pub use stats::MemStats;
pub use system::System;
pub use timing::TimingParams;
