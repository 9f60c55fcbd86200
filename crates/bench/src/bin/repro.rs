//! Regenerates the paper's figures and tables: `repro <name>...` prints
//! each named entry of the repro table, byte-identical to
//! `results/<name>.txt`.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin repro -- fig7_rollback > results/fig7_rollback.txt
//! ```

use std::process::exit;

use synergy_bench::repro::TABLE;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut entries = Vec::new();
    for name in &names {
        match TABLE.iter().find(|(stem, ..)| stem == name) {
            Some(entry) => entries.push(entry),
            None => eprintln!("error: unknown name {name:?}"),
        }
    }
    if entries.is_empty() || entries.len() < names.len() {
        eprintln!("usage: repro <name>...   (writes what results/<name>.txt holds)");
        for (stem, what, _) in TABLE {
            eprintln!("  {stem:<24} {what}");
        }
        exit(2);
    }
    for (_, _, write) in entries {
        let mut out = String::new();
        write(&mut out);
        print!("{out}");
    }
}
