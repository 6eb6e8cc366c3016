//! Regenerates Table 10: the NIST SP 800-22 suite over Von Neumann-whitened
//! CODIC-sig response streams (6.1.3 / Appendix B). Pass --quick for a
//! 200 kbit stream instead of the paper's 2 Mbit (250 KB).
use codic_nist::suite::run_suite;
use codic_puf::bitstream::whitened_stream;
use codic_puf::mechanisms::{CodicSigPuf, Environment};
use codic_puf::population::paper_population;
use codic_server::cli::has_flag;
fn main() {
    let quick = has_flag("--quick");
    let bits = if quick { 200_000 } else { 2_000_000 };
    let pop = paper_population(0xC0D1C);
    eprintln!("building {bits}-bit whitened CODIC-sig stream...");
    let stream = whitened_stream(&pop, &CodicSigPuf, &Environment::nominal(), bits);
    let results = run_suite(&stream);
    println!("Table 10: NIST statistical test suite on CODIC-sig values ({bits} bits)");
    println!("| NIST Test | p-value | Result |");
    println!("|---|---|---|");
    for r in &results.rows {
        let verdict = if r.p_value.is_nan() {
            "N/A"
        } else if r.passed() {
            "PASS"
        } else {
            "FAIL"
        };
        println!("| {} | {:.3} | {verdict} |", r.name, r.p_value);
    }
    println!(
        "\n{} of {} applicable tests pass (paper: all 15 pass).",
        results
            .rows
            .iter()
            .filter(|r| r.p_value.is_finite() && r.passed())
            .count(),
        results.applicable()
    );
}
