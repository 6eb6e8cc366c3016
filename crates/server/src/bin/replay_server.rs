//! `replay-server`: the long-running trace-replay service.
//!
//! Binds a Unix socket and serves each connection as an independent
//! replay session over its own sharded device pool — a one-slot fleet —
//! or one slot of a shared fleet with `--fleet-slots` (wire format:
//! `docs/PROTOCOL.md`; architecture: `docs/ARCHITECTURE.md`).
//!
//! ```text
//! replay-server [--socket PATH] [--tcp ADDR] [--shards N]
//!               [--module-mib M] [--fleet-slots N]
//!               [--max-outstanding K] [--max-rows-per-sec R]
//!               [--refresh] [--connections N]
//!               [--compute-rows C]
//!               [--fault-seed S] [--misfire-per-64k P]
//!               [--stuck-shard I --stuck-at CYCLE]
//!               [--retry-attempts A]
//!               [--read-timeout-ms T] [--session-idle-ms I]
//!               [--journal-max-kib J]
//! ```
//!
//! `--tcp ADDR` (e.g. `--tcp 127.0.0.1:7070`) adds a TCP listener
//! beside the Unix socket; the protocol is identical over both.
//!
//! `--fleet-slots N` serves every session from one shared device fleet
//! of N tenant slots, each a pool of `--shards` shards behind its own
//! lock; a session's batches run straight on its own slot's pool, so its
//! stream stays bit-identical to a private pool of its slot shape.
//!
//! The deadline flags tune session robustness: `--read-timeout-ms` is
//! how long a session thread parks inside a socket read before
//! re-checking the shutdown flag and the idle deadline (and how often
//! parked sessions are checked for reaping),
//! `--session-idle-ms` tears down silent clients (and reaps parked
//! resume state) honestly, and `--journal-max-kib` caps each
//! session's resume journal.
//!
//! `--compute-rows C` reserves the top C rows of every session's module
//! as the default bulk-bitwise compute region (a `Hello` may request
//! its own region; 0 leaves compute disabled unless a client asks).
//!
//! `--connections N` serves exactly N sessions then exits (the smoke /
//! benchmark mode); the default serves forever. `--max-rows-per-sec`
//! sets the server-wide replay-rate cap a session's own target can only
//! lower.
//!
//! The fault flags arm the deterministic injection layer of
//! `codic_core::fault` for chaos rehearsal: `--fault-seed` seeds the
//! plan, `--misfire-per-64k` sets the per-attempt row-op misfire rate,
//! `--stuck-shard`/`--stuck-at` freeze one shard's clock at a cycle
//! ceiling (the pool quarantines it at the next batch boundary), and
//! `--retry-attempts` bounds re-issues per op (1 disables retry). With
//! none of these given the server runs the exact fault-free path.
//!
//! `codic_server::cli::server_config` reads the fault, retry, deadline
//! and `--fleet-slots` flags, as for `replay-client --self-serve`.
//! A numeric flag that is present but unparsable or out of range is a
//! usage error (exit status 2, naming the flag), and so is
//! `--stuck-shard` or `--stuck-at` given without the other.

use std::path::PathBuf;
use std::process::ExitCode;

use codic_server::cli::{arg, arg_num, has_flag, server_config};
use codic_server::server::{ReplayServer, ServerConfig};

fn main() -> ExitCode {
    let socket = arg("--socket")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("codic-replay.sock"));
    // The shared serving flags, then this server's substrate defaults.
    let serving = server_config();
    let config = ServerConfig {
        shards: arg_num("--shards").unwrap_or(serving.shards),
        module_mib: arg_num("--module-mib").unwrap_or(serving.module_mib),
        max_outstanding: arg_num("--max-outstanding").unwrap_or(serving.max_outstanding),
        target_rows_per_s: arg_num("--max-rows-per-sec").unwrap_or(serving.target_rows_per_s),
        refresh: has_flag("--refresh"),
        compute_rows: arg_num("--compute-rows").unwrap_or(serving.compute_rows),
        ..serving
    };
    let connections = arg_num("--connections");

    if config.fault.is_some() {
        eprintln!("replay-server: fault injection ARMED (deterministic chaos rehearsal)");
    }

    let server = match ReplayServer::bind(&socket, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("replay-server: cannot bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    let server = match arg("--tcp") {
        Some(addr) => match server.with_tcp(&addr) {
            Ok(server) => {
                // The bound address, so `--tcp 127.0.0.1:0` names its port.
                let bound = server.tcp_addr().map_or(addr, |a| a.to_string());
                eprintln!("replay-server: also listening on tcp {bound}");
                server
            }
            Err(e) => {
                eprintln!("replay-server: cannot bind tcp {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => server,
    };
    eprintln!(
        "replay-server: listening on {} ({} shard(s), {} MiB module, max outstanding {}, rate cap {}{})",
        socket.display(),
        config.shards,
        config.module_mib,
        config.max_outstanding,
        if config.target_rows_per_s == 0 {
            "none".to_string()
        } else {
            format!("{} rows/s", config.target_rows_per_s)
        },
        if config.fleet_slots == 0 {
            String::new()
        } else {
            format!(", shared fleet of {} tenant slots", config.fleet_slots)
        },
    );
    let served = match connections {
        Some(n) => server.serve_connections(n),
        None => server.serve_forever(),
    };
    if let Err(e) = served {
        eprintln!("replay-server: accept failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
