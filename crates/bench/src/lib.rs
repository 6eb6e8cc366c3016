//! Experiment harness for the CODIC reproduction: the binaries in
//! `src/bin/` regenerate every table and figure of the paper's evaluation,
//! and `benches/` holds Criterion microbenchmarks of the performance-
//! critical kernels.

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Runs `f` with `RAYON_NUM_THREADS` forced to `n` (or unset for `None`),
/// restoring the previous value afterwards. The vendored rayon shim reads
/// the variable at call time, so this reliably pins the worker count of
/// everything `f` runs — used by the engine-comparison benchmarks.
pub fn with_threads<R>(n: Option<u32>, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    match n {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n.to_string()),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// Formats a milliseconds value the way Figure 7 labels its bars
/// (µs / ms / s with sensible precision).
#[must_use]
pub fn human_ms(ms: f64) -> String {
    if ms < 1.0 {
        format!("{:.0} us", ms * 1000.0)
    } else if ms < 1000.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.2} s", ms / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_ms_selects_units() {
        assert_eq!(human_ms(0.06), "60 us");
        assert_eq!(human_ms(34.0), "34.0 ms");
        assert_eq!(human_ms(34_800.0), "34.80 s");
    }

    #[test]
    fn row_formats_markdown() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
