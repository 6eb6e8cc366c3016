//! Regenerates Figure 9: 4-core mix speedup / energy savings (Table 9
//! mixes plus the 50-mix average).
use codic_secdealloc::mechanism::ZeroingMechanism;
use codic_secdealloc::mixes::{fifty_mixes, representative_mixes};
use codic_secdealloc::sim::mix_comparison;
use codic_server::cli::has_flag;
fn main() {
    let quick = has_flag("--quick");
    let bursts = if quick { 15 } else { 40 };
    println!("Figure 9: 4-core speedup / energy savings vs software zeroing");
    println!("| Mix | LISA-clone | RowClone | CODIC |");
    println!("|---|---|---|---|");
    for mix in representative_mixes() {
        let c = mix_comparison(mix.intensive, bursts, 11);
        let cells: Vec<String> = ZeroingMechanism::HARDWARE
            .iter()
            .map(|&m| {
                format!(
                    "{:+.1}% / {:+.1}%",
                    (c.speedup(m) - 1.0) * 100.0,
                    c.energy_savings(m) * 100.0
                )
            })
            .collect();
        println!("| {} | {} |", mix.name, cells.join(" | "));
    }
    let mixes = fifty_mixes(0xC0D1C);
    let sample = if quick { &mixes[..8] } else { &mixes[..] };
    let mut sums = [0.0f64; 3];
    for (i, m) in sample.iter().enumerate() {
        let c = mix_comparison(*m, bursts, 100 + i as u64);
        for (j, &mech) in ZeroingMechanism::HARDWARE.iter().enumerate() {
            sums[j] += c.speedup(mech) - 1.0;
        }
    }
    let cells: Vec<String> = sums
        .iter()
        .map(|s| format!("{:+.1}%", 100.0 * s / sample.len() as f64))
        .collect();
    println!(
        "| AVG{} (speedup only) | {} |",
        sample.len(),
        cells.join(" | ")
    );
}
