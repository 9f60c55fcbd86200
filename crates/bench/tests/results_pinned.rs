//! Every committed `results/<name>.txt` is exactly what `repro <name>`
//! prints today: a change that moves a figure must regenerate its file.

use synergy_bench::repro::TABLE;

#[test]
fn every_results_file_matches_its_repro_entry() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for (name, _, write) in TABLE {
        let path = format!("{results}/{name}.txt");
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut out = String::new();
        write(&mut out);
        if out == pinned {
            continue;
        }
        let (got, want): (Vec<&str>, Vec<&str>) = (out.lines().collect(), pinned.lines().collect());
        let line = (0..got.len().max(want.len()))
            .find(|&i| got.get(i) != want.get(i))
            .unwrap_or(got.len());
        panic!(
            "repro {name} differs from results/{name}.txt at line {}:\n  \
             repro:   {:?}\n  results: {:?}\n\
             if the change is intended, regenerate with\n  \
             cargo run --release -p synergy-bench --bin repro -- {name} > results/{name}.txt",
            line + 1,
            got.get(line),
            want.get(line),
        );
    }
}
