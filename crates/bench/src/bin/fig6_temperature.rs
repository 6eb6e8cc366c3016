//! Regenerates Figure 6: intra-Jaccard vs temperature delta.
use codic_puf::jaccard::intra_vs_temperature;
use codic_puf::mechanisms::{CodicSigPuf, LatencyPuf, PreLatPuf, PufMechanism};
use codic_puf::population::paper_population;
use codic_server::cli::has_flag;

fn main() {
    let quick = has_flag("--quick");
    let pairs = if quick { 30 } else { 200 };
    let pop = paper_population(0xC0D1C);
    let mechanisms: Vec<(&str, Box<dyn PufMechanism>)> = vec![
        ("DRAM Latency PUF", Box::new(LatencyPuf::default())),
        ("PreLatPUF", Box::new(PreLatPuf)),
        ("CODIC-sig PUF", Box::new(CodicSigPuf)),
    ];
    println!("Figure 6: Intra-Jaccard vs temperature delta from 30 C ({pairs} pairs)");
    println!("| Mechanism | dT=0 | dT=15 | dT=25 | dT=55 |");
    println!("|---|---|---|---|---|");
    for (i, (name, m)) in mechanisms.iter().enumerate() {
        let mut cells = vec![name.to_string()];
        for (j, dt) in [0.0, 15.0, 25.0, 55.0].iter().enumerate() {
            let xs = intra_vs_temperature(&pop, m.as_ref(), *dt, pairs, 7 * (i as u64) + j as u64);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            cells.push(format!("{mean:.3}"));
        }
        println!("| {} |", cells.join(" | "));
    }
    println!("\nPaper: CODIC-sig and PreLatPUF stay near 1; the latency PUF degrades sharply.");
}
