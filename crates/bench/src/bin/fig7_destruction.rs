//! Regenerates Figure 7: time to destroy all DRAM data, per mechanism and
//! module size; pass --energy for the 6.2 energy comparison.
use codic_bench::human_ms;
use codic_coldboot::energy::energy_ratios_vs_codic;
use codic_coldboot::latency::{destruction_time_ms, FIGURE7_SIZES_MIB};
use codic_coldboot::mechanism::DestructionMechanism;
use codic_server::cli::has_flag;
fn main() {
    let quick = has_flag("--quick");
    let sizes: Vec<u64> = if quick {
        vec![64, 256, 1024]
    } else {
        FIGURE7_SIZES_MIB.to_vec()
    };
    println!("Figure 7: DRAM module data destruction time");
    print!("| Mechanism |");
    for s in &sizes {
        if *s >= 1024 {
            print!(" {} GB |", s / 1024)
        } else {
            print!(" {s} MB |")
        }
    }
    println!();
    for m in DestructionMechanism::ALL {
        print!("| {} |", m.name());
        for &s in &sizes {
            print!(" {} |", human_ms(destruction_time_ms(m, s)));
        }
        println!();
    }
    println!("\nPaper @64MB: TCG 34 ms, LISA 150 us, RowClone 120 us, CODIC 60 us.");
    if has_flag("--energy") {
        let cap = if quick { 1024 } else { 8192 };
        println!(
            "\nEnergy vs CODIC at {} GB (paper: TCG 41.7x, LISA 2.5x, RowClone 1.7x):",
            cap / 1024
        );
        for (m, r) in energy_ratios_vs_codic(cap) {
            println!("  {:12} {r:.1}x", m.name());
        }
    }
}
