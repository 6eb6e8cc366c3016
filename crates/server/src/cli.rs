//! Minimal `--flag value` parsing shared by the `replay-server` and
//! `replay-client` binaries (kept tiny on purpose: the offline build
//! has no argument-parsing crate). [`server_config`] reads the serving
//! flags into the [`ServerConfig`] each session's fleet is built from.

use std::str::FromStr;

use codic_core::fault::{FaultPlan, RetryPolicy};

use crate::server::ServerConfig;

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

/// The [`ServerConfig`] the serving flags set on top of the default,
/// for `replay-server` and `replay-client --self-serve` alike: the fault
/// plan (`--fault-seed`, `--misfire-per-64k`, and `--stuck-shard` with
/// `--stuck-at`; either of that pair alone is a usage error; no fault
/// flag keeps the exact fault-free path), `--retry-attempts` (1
/// disables retry), the deadlines `--read-timeout-ms` and
/// `--session-idle-ms`, the resume-journal cap `--journal-max-kib`
/// (zero values clamp to the smallest legal setting), and
/// `--fleet-slots`.
#[must_use]
pub fn server_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    let seed = arg_num("--fault-seed");
    let misfire: Option<u64> = arg_num("--misfire-per-64k");
    let stuck = match (arg_num("--stuck-shard"), arg_num("--stuck-at")) {
        (Some(shard), Some(at)) => Some((shard, at)),
        (None, None) => None,
        _ => usage_error("--stuck-shard and --stuck-at must be given together"),
    };
    if seed.is_some() || misfire.is_some() || stuck.is_some() {
        let mut plan = FaultPlan::new(seed.unwrap_or(1));
        if let Some(rate) = misfire {
            plan = plan.with_misfires(rate.min(65_536) as u32);
        }
        if let Some((shard, at)) = stuck {
            plan = plan.with_stuck_shard(shard, at);
        }
        config.fault = Some(plan);
    }
    if let Some(n) = arg_num::<u64>("--retry-attempts") {
        config.retry = RetryPolicy::attempts(n.clamp(1, u64::from(u8::MAX)) as u8);
    }
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
    config.fleet_slots = arg_num("--fleet-slots").unwrap_or(config.fleet_slots);
    config
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
