//! Regenerates Figure 8: single-core secure-deallocation speedup and
//! energy savings over the software baseline.
use codic_secdealloc::mechanism::ZeroingMechanism;
use codic_secdealloc::sim::single_core_comparison;
use codic_secdealloc::workload::Benchmark;
use codic_server::cli::has_flag;
fn main() {
    let quick = has_flag("--quick");
    let bursts = if quick { 30 } else { 120 };
    println!("Figure 8: Single-core speedup / energy savings vs software zeroing");
    println!("| Benchmark | LISA-clone | RowClone | CODIC |");
    println!("|---|---|---|---|");
    let mut energies = Vec::new();
    for b in Benchmark::ALL {
        let c = single_core_comparison(b, bursts, 7);
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
        println!("| {} | {} |", b.name(), cells.join(" | "));
        energies.push((b.name(), c.energy_savings(ZeroingMechanism::Codic)));
    }
    println!("\nPaper: speedups up to 21% and energy savings up to 34% (malloc, CODIC).");
}
