//! Minimal `--flag value` parsing shared by the `replay-server` and
//! `replay-client` binaries (kept tiny on purpose: the offline build
//! has no argument-parsing crate).

/// The value following `flag`, if present.
#[must_use]
pub fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value following `flag`, parsed as `u64`.
#[must_use]
pub fn arg_u64(flag: &str) -> Option<u64> {
    arg(flag).and_then(|v| v.parse().ok())
}

/// Whether `flag` appears anywhere on the command line.
#[must_use]
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The seeded fault plan described by `--fault-seed SEED`,
/// `--misfire-per-64k RATE`, and `--stuck-shard I --stuck-at CYCLE`, or
/// `None` (the exact fault-free path) when no fault flag is present.
#[must_use]
pub fn fault_plan_args() -> Option<codic_core::fault::FaultPlan> {
    use codic_core::fault::FaultPlan;
    let seed = arg_u64("--fault-seed");
    let misfire = arg_u64("--misfire-per-64k");
    let stuck_shard = arg_u64("--stuck-shard");
    if seed.is_none() && misfire.is_none() && stuck_shard.is_none() {
        return None;
    }
    let mut plan = FaultPlan::new(seed.unwrap_or(1));
    if let Some(rate) = misfire {
        plan = plan.with_misfires(rate.min(65_536) as u32);
    }
    if let Some(shard) = stuck_shard {
        if let Some(at) = arg_u64("--stuck-at") {
            plan = plan.with_stuck_shard(shard.min(u64::from(u16::MAX)) as u16, at);
        } else {
            eprintln!("--stuck-shard needs --stuck-at CYCLE; ignoring the stuck clock");
        }
    }
    Some(plan)
}

/// Applies the session-deadline and resume-journal flags to `config`:
/// `--read-timeout-ms` (how long a session thread parks in a read
/// before re-checking shutdown and the idle deadline),
/// `--session-idle-ms` (the silent-client teardown and parked-session
/// reap deadline), and `--journal-max-kib` (the per-session resume
/// journal cap). Flags not present leave `config` untouched; zero
/// values clamp to the smallest legal setting.
pub fn deadline_args(config: &mut crate::server::ServerConfig) {
    if let Some(ms) = arg_u64("--read-timeout-ms") {
        config.read_timeout_ms = ms.max(1);
    }
    if let Some(ms) = arg_u64("--session-idle-ms") {
        config.session_idle_ms = ms.max(1);
    }
    if let Some(kib) = arg_u64("--journal-max-kib") {
        config.journal_max_bytes = usize::try_from(kib.saturating_mul(1024))
            .unwrap_or(usize::MAX)
            .max(1);
    }
}

/// The retry policy from `--retry-attempts A` (1 disables retry), or
/// `default` when the flag is absent.
#[must_use]
pub fn retry_args(default: codic_core::fault::RetryPolicy) -> codic_core::fault::RetryPolicy {
    match arg_u64("--retry-attempts") {
        Some(n) => codic_core::fault::RetryPolicy::attempts(n.clamp(1, u64::from(u8::MAX)) as u8),
        None => default,
    }
}
