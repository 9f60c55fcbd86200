//! Property tests for the delta format and the CRC chain.
//!
//! Two claims, checked over seeded-random inputs:
//!
//! 1. **Round-trip**: for arbitrary base/new image pairs — random contents,
//!    random mutation patterns, growth, shrinkage, emptiness — diff → apply
//!    reconstructs the new image exactly, and the patch survives the wire
//!    codec.
//! 2. **Single-bit integrity**: flipping any one bit anywhere in any
//!    serialized chain record never makes the chain serve a wrong image.
//!    The flipped record (and anything chained on it, up to the next full
//!    image) is dropped; every record the walker *does* serve is
//!    byte-identical to the original.

use synergy_archive::{ChainRecord, ChainWalker, CheckpointCodec, DeltaPatch};
use synergy_des::{DetRng, SimTime};
use synergy_storage::Checkpoint;

fn random_image(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Mutates `base` into a new image: a random number of random-length dirty
/// spans, plus an occasional grow / shrink / wipe.
fn mutate(rng: &mut DetRng, base: &[u8]) -> Vec<u8> {
    let mut new = base.to_vec();
    match rng.next_u64() % 10 {
        // Grow by up to 2x.
        0 => {
            let extra = (rng.next_u64() % (base.len() as u64 + 64)) as usize;
            let mut tail = vec![0u8; extra];
            rng.fill_bytes(&mut tail);
            new.extend_from_slice(&tail);
        }
        // Shrink (possibly to empty).
        1 => {
            let keep = (rng.next_u64() % (base.len() as u64 + 1)) as usize;
            new.truncate(keep);
        }
        // Unchanged.
        2 => {}
        // Dirty 1..=6 random spans.
        _ => {
            if !new.is_empty() {
                let spans = 1 + rng.next_u64() % 6;
                for _ in 0..spans {
                    let start = (rng.next_u64() % new.len() as u64) as usize;
                    let len = 1 + (rng.next_u64() % 200) as usize;
                    let end = (start + len).min(new.len());
                    rng.fill_bytes(&mut new[start..end]);
                }
            }
        }
    }
    new
}

#[test]
fn arbitrary_dirty_region_sets_roundtrip() {
    let mut rng = DetRng::new(0xA5C1).stream("delta-roundtrip");
    let mut base = random_image(&mut rng, 1500);
    for case in 0..300 {
        let new = mutate(&mut rng, &base);
        let patch = DeltaPatch::diff(&base, &new);
        assert_eq!(
            patch.apply(&base).expect("clean patch applies"),
            new,
            "case {case}: diff → apply must reconstruct exactly"
        );
        // The patch survives the wire codec byte-identically.
        let bytes = synergy_codec::to_bytes(&patch).unwrap();
        let back: DeltaPatch = synergy_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, patch, "case {case}: codec round-trip");
        assert_eq!(back.apply(&base).unwrap(), new, "case {case}");
        base = new;
    }
}

/// Builds a chain of `n` records over randomly mutating state (images of
/// roughly `image_len` bytes), returning each record with its seq and the
/// original image it must reconstruct.
fn build_chain(
    rng: &mut DetRng,
    k: u32,
    n: u64,
    image_len: usize,
) -> Vec<(u64, ChainRecord, Vec<u8>)> {
    let mut codec = CheckpointCodec::new(k);
    let mut state = random_image(rng, image_len);
    let mut out = Vec::new();
    for seq in 1..=n {
        state = mutate(rng, &state);
        let ckpt = Checkpoint::encode(seq, SimTime::from_nanos(seq), "epoch", &state).unwrap();
        let record = codec.encode_record(&ckpt);
        codec.note_committed(&ckpt, record.kind());
        // The chained image is the *serialized* state (the checkpoint's
        // data bytes), which is what the stable layer persists.
        out.push((seq, record, ckpt.shared_data().to_vec()));
    }
    out
}

#[test]
fn chains_over_random_states_replay_byte_identically() {
    let root = DetRng::new(0xC4A1);
    for (i, k) in [1u32, 2, 3, 5, 8].iter().enumerate() {
        let mut rng = root.stream_indexed("chain-replay", i as u64);
        let chain = build_chain(&mut rng, *k, 24, 800);
        let mut walker = ChainWalker::new();
        let mut base: &[u8] = &[];
        for (seq, record, want) in &chain {
            let got = walker.feed(*seq, record).expect("intact chain replays");
            assert_eq!(got.as_ref(), &want[..], "k={k} seq={seq}");
            // The codec and the walker carry CRCs instead of hashing; what
            // they produce is what the public, hashing forms produce.
            if let ChainRecord::Delta { patch, .. } = record {
                assert_eq!(patch, &DeltaPatch::diff(base, want), "k={k} seq={seq}");
                assert_eq!(patch.apply(base).unwrap(), *want, "k={k} seq={seq}");
            }
            base = want;
        }
        assert_eq!(walker.orphans(), 0, "k={k}");
    }
}

#[test]
fn single_bit_flip_anywhere_never_serves_a_wrong_image() {
    // Small images keep the exhaustive every-bit-of-every-record sweep
    // fast; the format has no size-dependent code paths above REGION_SIZE.
    let mut rng = DetRng::new(0xB17F).stream("bit-flip");
    let chain = build_chain(&mut rng, 3, 6, 96);
    let serialized: Vec<Vec<u8>> = chain
        .iter()
        .map(|(_, record, _)| synergy_codec::to_bytes(record).unwrap())
        .collect();

    for victim in 0..chain.len() {
        for bit in 0..serialized[victim].len() * 8 {
            let mut bytes = serialized[victim].clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            // A flip may make the record undecodable — that is a legal
            // outcome (the layer below would have dropped it); the walker
            // then simply never sees record `victim`.
            let flipped: Option<ChainRecord> = synergy_codec::from_bytes(&bytes).ok();
            let mut walker = ChainWalker::new();
            let mut served_flipped_position = false;
            for (i, (seq, record, want)) in chain.iter().enumerate() {
                let got = if i == victim {
                    match &flipped {
                        Some(r) => walker.feed(*seq, r),
                        None => {
                            walker.note_orphan();
                            None
                        }
                    }
                } else {
                    walker.feed(*seq, record)
                };
                // THE property: whatever the walker serves is the original
                // image for that position — a flipped record either drops
                // out (with its chained suffix) or, in the one benign case
                // (the flip produced the identical record back), matches.
                if let Some(image) = got {
                    assert_eq!(
                        image.as_ref(),
                        &want[..],
                        "record {victim} bit {bit}: served a wrong image at position {i}"
                    );
                    if i == victim {
                        served_flipped_position = true;
                    }
                }
            }
            assert!(
                !served_flipped_position || flipped.as_ref() == Some(&chain[victim].1),
                "record {victim} bit {bit}: a *changed* record must never be served"
            );
        }
    }
}

#[test]
fn prefix_before_a_flipped_record_survives_and_next_full_recovers() {
    let mut rng = DetRng::new(0x5EED).stream("prefix");
    let chain = build_chain(&mut rng, 3, 9, 400);
    // Corrupt the image CRC of the seq-5 record (mid-chain, k=3 ⇒ seqs 4-6
    // form the second segment; 5 is a delta).
    let victim = 4usize;
    let mut bytes = synergy_codec::to_bytes(&chain[victim].1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let flipped: Option<ChainRecord> = synergy_codec::from_bytes(&bytes).ok();

    let mut walker = ChainWalker::new();
    let mut served = Vec::new();
    for (i, (seq, record, want)) in chain.iter().enumerate() {
        let fed = if i == victim {
            flipped.as_ref().and_then(|r| walker.feed(*seq, r))
        } else {
            walker.feed(*seq, record)
        };
        if let Some(image) = fed {
            assert_eq!(image.as_ref(), &want[..]);
            served.push(*seq);
        }
    }
    assert!(
        served.contains(&4) && !served.contains(&5),
        "prefix survives, flipped record does not: {served:?}"
    );
    assert!(
        served.contains(&7) && served.contains(&9),
        "the next full image restarts the chain: {served:?}"
    );
}
