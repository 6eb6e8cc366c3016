//! Trace-replay serving layer over the CODIC device fleet.
//!
//! This crate turns the repository from a library into a running
//! service: a long-lived `replay-server` accepts Unix-socket
//! connections, decodes framed trace batches (secure-deallocation /
//! cold-boot row operations plus ordinary read/write traffic) into
//! typed [`CodicOp`](codic_core::ops::CodicOp)s, submits them to the
//! session's tenancy on a [`FleetHandle`](codic_core::fleet::FleetHandle),
//! drives the shard clocks, and streams typed completions (finish
//! cycle plus accounted energy) back per connection; `replay-client`
//! plays a trace file and verifies the completion stream bit-for-bit
//! against an in-process reference replay.
//!
//! The crate is std-only (no network or async-runtime dependencies):
//! transport is [`std::os::unix::net`], framing is the length-prefixed
//! binary protocol of [`proto`] (specified in `docs/PROTOCOL.md`), and
//! completions are drained from the devices' own completion buffers by
//! the session's [`FleetHandle`](codic_core::fleet::FleetHandle)
//! tenancy.
//!
//! The layer map and the life of one operation — from policy check and
//! MRS install through FR-FCFS scheduling, the event horizon, and
//! completion — are documented in `docs/ARCHITECTURE.md`.
//!
//! - [`proto`] — the wire protocol (frames, op/completion encoding,
//!   session checksum), in lockstep with `docs/PROTOCOL.md`;
//! - [`trace`] — the trace-file grammar, parser, and the deterministic
//!   mixed-workload generator;
//! - [`server`] — [`ReplayServer`], the per-session [`ReplayEngine`]
//!   (submission, backpressure, completion-ordered draining), and the
//!   session loop;
//! - [`governor`] — the replay-rate governor (host-side pacing that
//!   never perturbs device cycles);
//! - [`client`] — [`replay`], the cut-tolerant
//!   [`replay_resumable_with`](client::replay_resumable_with), and
//!   [`verify_against_reference`](client::verify_against_reference);
//! - [`chaos`] — the deterministic seeded chaos transport (corruption,
//!   mid-frame cuts, short I/O, stalls) the recovery tests run over.
//!
//! # Example
//!
//! Serve one session end to end over a real Unix socket:
//!
//! ```
//! use codic_server::client::{replay, verify_against_reference};
//! use codic_server::proto::SessionParams;
//! use codic_server::server::{ReplayServer, ServerConfig};
//! use codic_server::trace::generate_mixed;
//!
//! let socket = std::env::temp_dir().join(format!("codic-doc-{}.sock", std::process::id()));
//! let server = ReplayServer::bind(&socket, ServerConfig::default()).unwrap();
//! let serving = {
//!     let path = socket.clone();
//!     std::thread::spawn(move || {
//!         // `server` owns the listener; serve exactly one session.
//!         server.serve_connections(1).unwrap();
//!         drop(server);
//!         let _ = path; // socket file removed on drop
//!     })
//! };
//!
//! // Play a small deterministic mixed trace in batches of 64.
//! let ops = generate_mixed(256, 8192, 7);
//! let report = replay(&socket, &SessionParams::defaults(), &ops, 64).unwrap();
//! assert_eq!(report.summary.ops, 256);
//! assert!(report.summary.total_energy_nj > 0.0);
//!
//! // The served stream is bit-identical to the in-process reference.
//! verify_against_reference(&report, &ops, 64).unwrap();
//! serving.join().unwrap();
//! ```

pub mod chaos;
pub mod cli;
pub mod client;
pub mod governor;
pub mod proto;
pub mod server;
pub mod trace;

pub use client::{replay, ClientReport};
pub use server::{ReplayEngine, ReplayServer, ServerConfig, ShutdownHandle};
