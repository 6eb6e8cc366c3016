//! Regenerates Table 11: CODIC-sigsa bit flips vs process variation and
//! temperature (100k Monte Carlo circuit simulations per cell, as in the
//! paper; pass --quick for 20k).
//!
//! Runs on the batched, parallel engine (`CircuitSimBatch` chunks spread
//! across rayon threads).
use std::time::Instant;

use codic_circuit::montecarlo::SigsaExperiment;
use codic_circuit::variation::ProcessVariation;
use codic_server::cli::has_flag;

fn main() {
    let quick = has_flag("--quick");
    let trials = if quick { 20_000 } else { 100_000 };
    let t0 = Instant::now();
    println!(
        "Table 11: CODIC-sigsa bit flips (trials per cell: {trials}, engine: batched + parallel)"
    );
    println!("| PV (30 C) | flips % (paper) |");
    for (pv, paper) in [(2.0, "0.00"), (3.0, "0.00"), (4.0, "0.02"), (5.0, "0.19")] {
        let stats = SigsaExperiment {
            variation: ProcessVariation::from_pct(pv),
            temperature_c: 30.0,
            trials,
            seed: 0xC0D1C,
        }
        .run();
        println!("| {pv}% | {:.2}% ({paper}) |", stats.flip_pct());
    }
    println!("| Temp (4% PV) | flips % (paper) |");
    for (t, paper) in [
        (30.0, "0.02"),
        (60.0, "0.19"),
        (70.0, "0.21"),
        (85.0, "0.15"),
    ] {
        let stats = SigsaExperiment {
            variation: ProcessVariation::from_pct(4.0),
            temperature_c: t,
            trials,
            seed: 0xC0D1C,
        }
        .run();
        println!("| {t} C | {:.2}% ({paper}) |", stats.flip_pct());
    }
    println!(
        "(8 configurations x {trials} trials in {:.2} s, RAYON_NUM_THREADS={})",
        t0.elapsed().as_secs_f64(),
        rayon::current_num_threads()
    );
}
