//! Times the scalar, batched, and batched+parallel Monte Carlo engines on
//! the Table 11 CODIC-sigsa sweep and prints a JSON summary — the source
//! of the repository's `BENCH_mc.json`.
//!
//! Usage: `cargo run --release --bin bench_mc [-- --trials N --reps R]`

use std::time::Instant;

use codic_bench::with_threads;
use codic_circuit::montecarlo::SigsaExperiment;
use codic_server::cli::arg_num;

fn time(reps: u32, mut f: impl FnMut() -> u32) -> (f64, u32) {
    let mut flips = f(); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        flips = f();
    }
    (t0.elapsed().as_secs_f64() / f64::from(reps), flips)
}

fn main() {
    let trials = arg_num("--trials").unwrap_or(100_000);
    let reps = arg_num("--reps").unwrap_or(3);
    let exp = SigsaExperiment {
        trials,
        ..SigsaExperiment::default()
    };

    let (scalar_s, scalar_flips) = time(reps, || exp.run_scalar().flips);
    let (batched_s, batched_flips) = time(reps, || with_threads(Some(1), || exp.run().flips));
    let (parallel_s, parallel_flips) = time(reps, || exp.run().flips);
    assert_eq!(scalar_flips, batched_flips, "engines must agree");
    assert_eq!(scalar_flips, parallel_flips, "engines must agree");

    println!("{{");
    println!("  \"workload\": \"sigsa_montecarlo\",");
    println!("  \"trials\": {trials},");
    println!("  \"reps\": {reps},");
    println!("  \"threads_available\": {},", rayon::current_num_threads());
    println!("  \"flips\": {scalar_flips},");
    println!("  \"scalar_s\": {scalar_s:.4},");
    println!("  \"batched_1thread_s\": {batched_s:.4},");
    println!("  \"batched_parallel_s\": {parallel_s:.4},");
    println!("  \"speedup_batched\": {:.2},", scalar_s / batched_s);
    println!(
        "  \"speedup_batched_parallel\": {:.2}",
        scalar_s / parallel_s
    );
    println!("}}");
}
