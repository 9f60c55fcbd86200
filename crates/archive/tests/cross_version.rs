//! The on-disk format across the commit that made images travel as shared
//! windows: directories under `fixtures/written-by-1a83662/` were written
//! by that commit's parent (`DeltaStable<DiskStableStore>`, the rounds
//! below, k = 1 and k = 4).
//!
//! Both directions in one test. The parent's directory reloads here with
//! every guard passing; and the same rounds written here are the parent's
//! files byte for byte — so the parent reloads them exactly as it reloads
//! its own.

use std::fs;
use std::path::{Path, PathBuf};

use synergy_archive::{DeltaStable, StableHistory};
use synergy_des::SimTime;
use synergy_storage::{Checkpoint, DiskStableStore, Stable};

/// The rounds the fixtures hold, as the parent's generator built them.
fn ckpt(seq: u64) -> Checkpoint {
    let mut state = vec![0u8; 320];
    state[10] = seq as u8;
    state[300] = (seq as u8).wrapping_mul(7);
    Checkpoint::encode(seq, SimTime::from_nanos(seq * 1_000), "epoch", &state).unwrap()
}

fn record_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn directories_reload_across_the_shared_window_change_in_both_directions() {
    let fixtures =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/written-by-1a83662");
    for (k, rounds) in [(1u32, 3u64), (4, 5)] {
        let originals: Vec<_> = (1..=rounds).map(ckpt).collect();
        let parents = record_files(&fixtures.join(format!("k{k}")));
        assert_eq!(parents.len() as u64, rounds);
        let tmp = std::env::temp_dir().join(format!("syarc-xver-{}-k{k}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);

        // Parent → change: a copy of the parent's directory (opening a store
        // may delete files; the fixtures stay as committed).
        let from_parent = tmp.join("from-parent");
        fs::create_dir_all(&from_parent).unwrap();
        for (name, bytes) in &parents {
            fs::write(from_parent.join(name), bytes).unwrap();
        }
        let s = DeltaStable::open(DiskStableStore::open(&from_parent).unwrap(), k);
        assert_eq!(s.stats().corrupt_records, 0, "k = {k}");
        assert_eq!(s.delta_stats().chain_orphans, 0, "k = {k}");
        assert_eq!(s.committed_records(), originals, "k = {k}");
        for c in s.committed_records() {
            c.decode::<Vec<u8>>().expect("served images pass their CRC");
        }

        // Change → parent: the same rounds written here are the same files.
        let from_change = tmp.join("from-change");
        let mut s = DeltaStable::open(DiskStableStore::open(&from_change).unwrap(), k);
        for c in &originals {
            s.begin_write(c.clone()).unwrap();
            s.commit_write().unwrap();
        }
        drop(s);
        assert_eq!(record_files(&from_change), parents, "k = {k}");
        fs::remove_dir_all(&tmp).unwrap();
    }
}
