//! Regenerates Figure 5: intra-/inter-Jaccard distributions for the DRAM
//! Latency PUF, PreLatPUF, and CODIC-sig PUF on DDR3 and DDR3L chips.
//! Pass --auth to also report the naive authentication FRR/FAR (6.1.1).
use codic_puf::chip::VoltageClass;
use codic_puf::jaccard::{distributions, JaccardDistributions};
use codic_puf::mechanisms::{CodicSigPuf, Environment, LatencyPuf, PreLatPuf, PufMechanism};
use codic_puf::population::paper_population;
use codic_server::cli::has_flag;

fn report(name: &str, d: &JaccardDistributions) {
    println!(
        "  {name:18} intra mean {:.3}, inter mean {:.3}",
        d.intra_mean(),
        d.inter_mean()
    );
    let hist = JaccardDistributions::histogram(&d.intra, 10);
    let bars: Vec<String> = hist.iter().map(|p| format!("{p:4.0}")).collect();
    println!("    intra hist (0..1, %): {}", bars.join(" "));
    let hist = JaccardDistributions::histogram(&d.inter, 10);
    let bars: Vec<String> = hist.iter().map(|p| format!("{p:4.0}")).collect();
    println!("    inter hist (0..1, %): {}", bars.join(" "));
}

fn main() {
    let quick = has_flag("--quick");
    let pairs = if quick { 100 } else { 1000 };
    let pop = paper_population(0xC0D1C);
    let env = Environment::nominal();
    let mechanisms: Vec<(&str, Box<dyn PufMechanism>)> = vec![
        ("DRAM Latency PUF", Box::new(LatencyPuf::default())),
        ("PreLatPUF", Box::new(PreLatPuf)),
        ("CODIC-sig PUF", Box::new(CodicSigPuf)),
    ];
    println!("Figure 5: Jaccard indices ({pairs} pairs per distribution)");
    for (class, label) in [
        (VoltageClass::Ddr3, "DDR3 (64 chips)"),
        (VoltageClass::Ddr3l, "DDR3L (72 chips)"),
    ] {
        println!("{label}:");
        for (i, (name, m)) in mechanisms.iter().enumerate() {
            let d = distributions(&pop, class, m.as_ref(), &env, pairs, 40 + i as u64);
            report(name, &d);
        }
    }
    if has_flag("--auth") {
        let rates = codic_puf::auth::measure_rates(&pop, &CodicSigPuf, &env, 500, 77);
        println!(
            "\nNaive CODIC-sig authentication: FRR {:.2}% (paper 0.64%), FAR {:.2}% (paper 0.00%)",
            rates.frr * 100.0,
            rates.far * 100.0
        );
    }
}
