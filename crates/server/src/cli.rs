//! Minimal `--flag value` parsing shared by the `replay-server` and
//! `replay-client` binaries (kept tiny on purpose: the offline build
//! has no argument-parsing crate).

use std::str::FromStr;

/// The value following `flag`, if present, looked up as [`parse_flag`]
/// does: a flag with no value is a usage error.
#[must_use]
pub fn arg(flag: &str) -> Option<String> {
    arg_num(flag)
}

/// Parses the value following `flag` in `args` as a `T`. `Ok(None)` when
/// the flag is absent; an error naming the flag when its value is
/// missing, unparsable or outside `T`'s range, so a mistyped pin such as
/// `--expect-rows 1,693` can never silently switch its check off. A
/// following `--flag` is a missing value, never the value: `--out --rows
/// 5` must not name a file `--rows`.
///
/// # Errors
///
/// The usage message to print when the flag is present but unusable.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(value) = args.get(at + 1).filter(|v| !v.starts_with("--")) else {
        return Err(format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(parsed) => Ok(Some(parsed)),
        Err(_) => Err(format!(
            "{flag} {value:?} is not a number in range for this flag"
        )),
    }
}

/// The value following `flag` on the command line, parsed as a `T`
/// ([`parse_flag`]). A present but unusable value is a usage error.
#[must_use]
pub fn arg_num<T: FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|message| usage_error(&message))
}

/// Prints `message` and exits with status 2, the usage-error status.
pub fn usage_error(message: &str) -> ! {
    eprintln!("usage error: {message}");
    std::process::exit(2)
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
    let seed = arg_num("--fault-seed");
    let misfire: Option<u64> = arg_num("--misfire-per-64k");
    let stuck_shard: Option<u16> = arg_num("--stuck-shard");
    if seed.is_none() && misfire.is_none() && stuck_shard.is_none() {
        return None;
    }
    let mut plan = FaultPlan::new(seed.unwrap_or(1));
    if let Some(rate) = misfire {
        plan = plan.with_misfires(rate.min(65_536) as u32);
    }
    if let Some(shard) = stuck_shard {
        if let Some(at) = arg_num("--stuck-at") {
            plan = plan.with_stuck_shard(shard, at);
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
    if let Some(ms) = arg_num::<u64>("--read-timeout-ms") {
        config.read_timeout_ms = ms.max(1);
    }
    if let Some(ms) = arg_num::<u64>("--session-idle-ms") {
        config.session_idle_ms = ms.max(1);
    }
    if let Some(kib) = arg_num::<u64>("--journal-max-kib") {
        config.journal_max_bytes = usize::try_from(kib.saturating_mul(1024))
            .unwrap_or(usize::MAX)
            .max(1);
    }
}

/// The retry policy from `--retry-attempts A` (1 disables retry), or
/// `default` when the flag is absent.
#[must_use]
pub fn retry_args(default: codic_core::fault::RetryPolicy) -> codic_core::fault::RetryPolicy {
    match arg_num::<u64>("--retry-attempts") {
        Some(n) => codic_core::fault::RetryPolicy::attempts(n.clamp(1, u64::from(u8::MAX)) as u8),
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_flag_followed_by_a_flag_or_nothing_needs_a_value() {
        let line = args("c --out --rows 5 --trace t.trace --expect-failed -1 --socket");
        let text = |flag| parse_flag::<String>(&line, flag);
        assert_eq!(text("--rows"), Ok(Some("5".to_string())));
        assert_eq!(text("--trace"), Ok(Some("t.trace".to_string())));
        // A single-dash value is a value (a negative number, say).
        assert_eq!(text("--expect-failed"), Ok(Some("-1".to_string())));
        assert_eq!(text("--shards"), Ok(None));
        for flag in ["--out", "--socket"] {
            assert_eq!(text(flag), Err(format!("{flag} needs a value")));
            assert!(parse_flag::<u64>(&line, flag).is_err());
        }
    }

    #[test]
    fn an_absent_flag_is_none_and_a_good_value_parses() {
        let line = args("replay-client --expect-rows 1693 --shards 4");
        assert_eq!(parse_flag::<u64>(&line, "--expect-failed"), Ok(None));
        assert_eq!(parse_flag::<u64>(&line, "--expect-rows"), Ok(Some(1693)));
        assert_eq!(parse_flag::<u16>(&line, "--shards"), Ok(Some(4)));
    }

    #[test]
    fn a_present_but_unusable_value_is_an_error_naming_the_flag() {
        for (line, flag) in [
            ("c --expect-rows 1,693", "--expect-rows"),
            ("c --expect-failed -1", "--expect-failed"),
            ("c --batch 0x10", "--batch"),
            ("c --expect-rows", "--expect-rows"),
        ] {
            let error = parse_flag::<u64>(&args(line), flag).unwrap_err();
            assert!(error.starts_with(flag), "{error}");
        }
    }

    #[test]
    fn a_value_outside_the_target_type_is_refused_not_wrapped() {
        let line = args("c --module-mib 4294967296 --shards 65536");
        assert!(parse_flag::<u32>(&line, "--module-mib").is_err());
        assert!(parse_flag::<u16>(&line, "--shards").is_err());
        assert_eq!(parse_flag::<u64>(&line, "--module-mib"), Ok(Some(1 << 32)));
    }
}
