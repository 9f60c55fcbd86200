//! The checkpoint chain format shared by simulator, middleware and cluster.
//!
//! A [`CheckpointCodec`] turns a stream of committed [`Checkpoint`]s into a
//! stream of [`ChainRecord`]s: a full image every `k` records, CRC-chained
//! dirty-region deltas between. The codec is the *only* definition of the
//! format — the simulator uses it to account stable-write bytes, the
//! middleware's TB runtime and the cluster nodes persist through it via
//! [`DeltaStable`](crate::DeltaStable), and the archive tier mirrors the
//! records it produces.
//!
//! Chain order is **commit order**, not sequence-number order: after a
//! global rollback the TB protocol reuses epoch numbers, and the chain
//! simply continues from the last committed image (the record's `base_seq`
//! and base CRC pin the base explicitly, so a reload can never splice a
//! delta onto the wrong image).

use synergy_codec::{Codec, CodecError, Reader, SharedBytes};
use synergy_storage::{crc32, crc32_combine, Checkpoint};

use crate::delta::{chain_link, DeltaPatch, CHAIN_SEED};

/// Whether a chain record carries a full image or a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A complete checkpoint image; restarts the chain.
    Full,
    /// A dirty-region delta against the previous record's image.
    Delta,
}

/// One record of a checkpoint chain, as persisted by the delta store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainRecord {
    /// A complete image. `chain_crc` = link(CHAIN_SEED, crc32(image)).
    Full {
        /// The chain link for this record.
        chain_crc: u32,
        /// The serialized checkpoint state, verbatim. Decoded from a
        /// wrapper checkpoint, it is a window of the wrapper's buffer.
        image: SharedBytes,
    },
    /// A delta against the previous record in commit order.
    Delta {
        /// Sequence number of the checkpoint whose image is the base.
        base_seq: u64,
        /// link(previous record's chain CRC, patch.image_crc).
        chain_crc: u32,
        /// The dirty regions.
        patch: DeltaPatch,
    },
}

impl ChainRecord {
    /// Which kind of record this is.
    pub fn kind(&self) -> RecordKind {
        match self {
            ChainRecord::Full { .. } => RecordKind::Full,
            ChainRecord::Delta { .. } => RecordKind::Delta,
        }
    }

    /// The chain-link CRC carried by the record.
    pub fn chain_crc(&self) -> u32 {
        match self {
            ChainRecord::Full { chain_crc, .. } | ChainRecord::Delta { chain_crc, .. } => {
                *chain_crc
            }
        }
    }

    /// Exact length of [`synergy_codec::to_bytes`] for this record, computed
    /// without serializing (the simulator accounts bytes through this on
    /// every commit, so it must be allocation-free).
    pub fn encoded_len(&self) -> u64 {
        match self {
            // enum tag + chain_crc + (len prefix + image bytes)
            ChainRecord::Full { image, .. } => 4 + 4 + 8 + image.len() as u64,
            ChainRecord::Delta { patch, .. } => {
                // enum tag + base_seq + chain_crc + base_crc + image_crc +
                // new_len + region count, then per region offset + len
                // prefix + bytes.
                let regions: u64 = patch
                    .regions
                    .iter()
                    .map(|r| 8 + 8 + r.bytes.len() as u64)
                    .sum();
                4 + 8 + 4 + 4 + 4 + 8 + 8 + regions
            }
        }
    }
}

impl Codec for ChainRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChainRecord::Full { chain_crc, image } => {
                0u32.encode(out);
                chain_crc.encode(out);
                image.encode(out);
            }
            ChainRecord::Delta {
                base_seq,
                chain_crc,
                patch,
            } => {
                1u32.encode(out);
                base_seq.encode(out);
                chain_crc.encode(out);
                patch.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(r)? {
            0 => Ok(ChainRecord::Full {
                chain_crc: u32::decode(r)?,
                image: SharedBytes::decode(r)?,
            }),
            1 => Ok(ChainRecord::Delta {
                base_seq: u64::decode(r)?,
                chain_crc: u32::decode(r)?,
                patch: DeltaPatch::decode(r)?,
            }),
            other => Err(CodecError::InvalidVariant(other)),
        }
    }
}

/// The CRC-32 of a full record's encoding from the CRC of its image alone.
/// The encoding is `head‖image` — `head` being the enum tag, the chain link
/// and the image's length prefix — so its checksum is `crc32(head)` combined
/// with the image's: sixteen bytes hashed, not the image a second time.
///
/// Both ends of a wrapper checkpoint's guard go through here. The store
/// stamps a full record's wrapper with the CRC the checkpoint *carries*, the
/// walker compares that stamp against the CRC it *computes* from the image
/// bytes it is about to serve — so an image whose bytes no longer match the
/// CRC they were committed under fails the comparison, exactly as it would
/// fail a whole pass over the wrapper.
pub(crate) fn full_record_crc(head: &[u8], image_crc: u32, image_len: usize) -> u32 {
    crc32_combine(crc32(head), image_crc, image_len)
}

/// What one committed checkpoint cost through the chain format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordCost {
    /// Whether the record was a full image or a delta.
    pub kind: RecordKind,
    /// Bytes the chain format persists for this commit.
    pub encoded_bytes: u64,
    /// Bytes a full-image scheme would have persisted (the state size).
    pub full_bytes: u64,
}

/// The last committed image, as the codec and the walker track it.
#[derive(Clone, Debug)]
struct LastImage {
    seq: u64,
    image: SharedBytes,
    crc: u32,
    chain_crc: u32,
}

/// Stateful encoder for the checkpoint chain: full image every `k`
/// committed records, deltas between.
#[derive(Clone, Debug)]
pub struct CheckpointCodec {
    k: u32,
    deltas_since_full: u32,
    last: Option<LastImage>,
}

impl CheckpointCodec {
    /// Creates a codec emitting a full image every `k` records (`k = 1`
    /// degenerates to the full-image scheme).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "full-image cadence k must be at least 1");
        CheckpointCodec {
            k,
            deltas_since_full: 0,
            last: None,
        }
    }

    /// The full-image cadence.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The kind the *next* committed checkpoint will be encoded as.
    pub fn next_kind(&self) -> RecordKind {
        match &self.last {
            Some(_) if self.deltas_since_full < self.k - 1 => RecordKind::Delta,
            _ => RecordKind::Full,
        }
    }

    /// Encodes `ckpt` as the next chain record **without** advancing the
    /// codec: the adapted-TB write may be replaced or torn before it
    /// commits, so state only moves in
    /// [`note_committed`](Self::note_committed).
    ///
    /// The image CRC folded into the chain link — and into a delta's
    /// `image_crc` — is the one the checkpoint carries ([`Checkpoint::crc`]),
    /// not a fresh hash of its bytes, and a delta's `base_crc` is the chain
    /// position's: a checkpoint corrupted in memory keeps its stale CRC, so
    /// the walker — which does hash the bytes it serves — orphans the record
    /// on reload instead of the chain re-stamping the damage as valid.
    pub fn encode_record(&self, ckpt: &Checkpoint) -> ChainRecord {
        let image = ckpt.shared_data();
        match (self.next_kind(), &self.last) {
            (RecordKind::Delta, Some(last)) => {
                let patch = DeltaPatch::diff_with_crcs(&last.image, last.crc, &image, ckpt.crc());
                ChainRecord::Delta {
                    base_seq: last.seq,
                    chain_crc: chain_link(last.chain_crc, ckpt.crc()),
                    patch,
                }
            }
            _ => ChainRecord::Full {
                chain_crc: chain_link(CHAIN_SEED, ckpt.crc()),
                image,
            },
        }
    }

    /// Advances the codec past a committed checkpoint.
    pub fn note_committed(&mut self, ckpt: &Checkpoint, kind: RecordKind) {
        let crc = ckpt.crc();
        let chain_crc = match (kind, &self.last) {
            (RecordKind::Delta, Some(last)) => {
                self.deltas_since_full += 1;
                chain_link(last.chain_crc, crc)
            }
            _ => {
                self.deltas_since_full = 0;
                chain_link(CHAIN_SEED, crc)
            }
        };
        self.last = Some(LastImage {
            seq: ckpt.seq(),
            image: ckpt.shared_data(),
            crc,
            chain_crc,
        });
    }

    /// Accounts what persisting `ckpt` through the chain format costs, and
    /// advances the codec — the simulator's per-commit hook. Allocation-free
    /// in steady state: the retained image is a refcount bump of the
    /// checkpoint's shared bytes and the delta size is computed from dirty
    /// spans without materializing them.
    pub fn measure_committed(&mut self, ckpt: &Checkpoint) -> RecordCost {
        let image = ckpt.shared_data();
        let full_bytes = image.len() as u64;
        let kind = self.next_kind();
        let encoded_bytes = match (kind, &self.last) {
            (RecordKind::Delta, Some(last)) => {
                let mut regions = 0u64;
                let mut region_bytes = 0u64;
                crate::delta::dirty_spans(&last.image, &image, |_, len| {
                    regions += 1;
                    region_bytes += len as u64;
                });
                4 + 8 + 4 + 4 + 4 + 8 + 8 + regions * 16 + region_bytes
            }
            _ => 4 + 4 + 8 + full_bytes,
        };
        self.note_committed(ckpt, kind);
        RecordCost {
            kind,
            encoded_bytes,
            full_bytes,
        }
    }

    /// Forgets the chain position: the next record will be a full image.
    /// Called after a reload that found orphaned records, so the chain
    /// self-heals instead of extending a damaged suffix.
    pub fn force_full(&mut self) {
        self.last = None;
        self.deltas_since_full = 0;
    }
}

/// The wrapper checkpoint a record was decoded from: its state bytes — the
/// record's encoding — and the CRC stored over them.
struct Wrapper<'a> {
    bytes: &'a [u8],
    crc: u32,
}

/// Replays chain records in commit order, reconstructing images and
/// refusing — never serving — any record whose links do not verify.
#[derive(Debug, Default)]
pub struct ChainWalker {
    last: Option<LastImage>,
    deltas_since_full: u32,
    orphans: u64,
}

impl ChainWalker {
    /// Creates a walker with no chain position.
    pub fn new() -> Self {
        ChainWalker::default()
    }

    /// Records fed so far that could not be chained (corrupt link, missing
    /// base, wrong base). Orphans are *dropped*, never served: a partial
    /// chain must fall back to the last intact full image.
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    /// Counts a record that never reached [`feed`](Self::feed) — e.g. one
    /// whose bytes did not decode as a [`ChainRecord`] at all. The chain
    /// position is unchanged, so later deltas orphan on their base check,
    /// and [`into_codec`](Self::into_codec) restarts with a full image.
    pub fn note_orphan(&mut self) {
        self.orphans += 1;
    }

    /// Feeds the next record in commit order. Returns the reconstructed
    /// image when every link verifies, `None` (counting an orphan) when it
    /// does not. After an orphaned delta, later deltas fail their base
    /// check until the next full image restarts the chain.
    pub fn feed(&mut self, seq: u64, record: &ChainRecord) -> Option<SharedBytes> {
        self.step(seq, record, None).map(|last| last.image.clone())
    }

    /// Decodes the chain record a backend checkpoint carries, feeds it, and
    /// rebuilds the original checkpoint (the wrapper keeps the original's
    /// seq, timestamp and label) — `None`, counting an orphan, when the
    /// record does not decode, fails the wrapper's CRC or does not chain.
    ///
    /// A full record is served without a copy and with one pass over its
    /// image: the image is a window of the wrapper's buffer, and the hash
    /// of it taken here answers for the chain link *and* — combined with
    /// the hash of the sixteen bytes before it (`crc32_combine`) — for
    /// the wrapper's CRC, which covers exactly those bytes and the image. A
    /// delta record is small and keeps a pass of its own over the wrapper.
    /// Either way both stored values are compared against hashes of the
    /// bytes taken in this call, and the rebuilt checkpoint carries the
    /// image CRC so verified instead of hashing the image again.
    pub fn replay(&mut self, wrapped: &Checkpoint) -> Option<Checkpoint> {
        let bytes = wrapped.shared_data();
        let Ok(record) = synergy_codec::from_shared::<ChainRecord>(&bytes) else {
            self.note_orphan();
            return None;
        };
        let wrapper = Wrapper {
            bytes: &bytes,
            crc: wrapped.crc(),
        };
        let last = self.step(wrapped.seq(), &record, Some(wrapper))?;
        Some(Checkpoint::from_verified_parts(
            wrapped.seq(),
            wrapped.taken_at(),
            wrapped.label(),
            last.image.clone(),
            last.crc,
        ))
    }

    /// Verifies `record` against the chain position — and against the
    /// `wrapper` it was decoded from, when it came in one — and, if every
    /// guard holds, moves the position onto its image and returns it.
    fn step(
        &mut self,
        seq: u64,
        record: &ChainRecord,
        wrapper: Option<Wrapper<'_>>,
    ) -> Option<&LastImage> {
        match record {
            ChainRecord::Full { chain_crc, image } => {
                let crc = crc32(image);
                // A decoded full record is its wrapper's bytes end to end:
                // whatever precedes the image is the head.
                let wrapper_fails = wrapper.is_some_and(|w| {
                    let head = &w.bytes[..w.bytes.len() - image.len()];
                    full_record_crc(head, crc, image.len()) != w.crc
                });
                if wrapper_fails || *chain_crc != chain_link(CHAIN_SEED, crc) {
                    self.orphans += 1;
                    return None;
                }
                self.deltas_since_full = 0;
                self.last = Some(LastImage {
                    seq,
                    image: image.clone(),
                    crc,
                    chain_crc: *chain_crc,
                });
            }
            ChainRecord::Delta {
                base_seq,
                chain_crc,
                patch,
            } => {
                if wrapper.is_some_and(|w| crc32(w.bytes) != w.crc) {
                    self.orphans += 1;
                    return None;
                }
                let Some(last) = &self.last else {
                    self.orphans += 1;
                    return None;
                };
                if *base_seq != last.seq
                    || patch.base_crc != last.crc
                    || *chain_crc != chain_link(last.chain_crc, patch.image_crc)
                {
                    self.orphans += 1;
                    return None;
                }
                // `last.crc` is this walker's own hash of `last.image` (or the
                // rebuilt-image CRC it verified one record ago) and has just
                // matched `patch.base_crc`: the base is not hashed again.
                let Ok(image) = patch.apply_to_verified_base(&last.image) else {
                    self.orphans += 1;
                    return None;
                };
                self.deltas_since_full += 1;
                self.last = Some(LastImage {
                    seq,
                    image: image.into(),
                    crc: patch.image_crc,
                    chain_crc: *chain_crc,
                });
            }
        }
        self.last.as_ref()
    }

    /// Hands the walker's final position to a codec so encoding continues
    /// the chain exactly where the reload left it. If any record was
    /// orphaned the codec restarts with a full image instead — the damaged
    /// suffix is never extended.
    pub fn into_codec(self, k: u32) -> CheckpointCodec {
        let mut codec = CheckpointCodec::new(k);
        if self.orphans == 0 {
            codec.deltas_since_full = self.deltas_since_full.min(k.saturating_sub(1));
            codec.last = self.last;
        }
        codec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_des::SimTime;

    fn ckpt(seq: u64, state: &[u8]) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "t", &state.to_vec()).unwrap()
    }

    fn image(n: usize, tweak: u8) -> Vec<u8> {
        let mut v = vec![0u8; n];
        v[n / 2] = tweak;
        v
    }

    #[test]
    fn cadence_is_full_every_k() {
        let mut codec = CheckpointCodec::new(3);
        let mut kinds = Vec::new();
        for seq in 1..=7u64 {
            let c = ckpt(seq, &image(500, seq as u8));
            kinds.push(codec.measure_committed(&c).kind);
        }
        use RecordKind::{Delta, Full};
        assert_eq!(kinds, [Full, Delta, Delta, Full, Delta, Delta, Full]);
    }

    #[test]
    fn measure_matches_real_encoding() {
        let mut measure = CheckpointCodec::new(4);
        let mut encode = CheckpointCodec::new(4);
        for seq in 1..=9u64 {
            let c = ckpt(seq, &image(2000, seq as u8));
            let record = encode.encode_record(&c);
            let serialized = synergy_codec::to_bytes(&record).unwrap();
            assert_eq!(
                record.encoded_len(),
                serialized.len() as u64,
                "encoded_len exact at seq {seq}"
            );
            let cost = measure.measure_committed(&c);
            assert_eq!(cost.kind, record.kind());
            assert_eq!(
                cost.encoded_bytes,
                serialized.len() as u64,
                "measure matches serialization at seq {seq}"
            );
            encode.note_committed(&c, record.kind());
        }
    }

    #[test]
    fn chain_record_format_is_pinned() {
        // Golden values from the parent of the commit that moved images onto
        // the codec's slice path and built chain links from the checkpoint's
        // own CRC; a change here is an archive-format change.
        let mut state: Vec<u8> = (0..2048u32).map(|i| (i * 13 + 5) as u8).collect();
        let mut codec = CheckpointCodec::new(4);
        let c1 = ckpt(1, &state);
        let full = codec.encode_record(&c1);
        codec.note_committed(&c1, full.kind());
        state[100] ^= 0xFF;
        state[1900] = 0x42;
        let delta = codec.encode_record(&ckpt(2, &state));
        for (record, kind, len, crc) in [
            (&full, RecordKind::Full, 2072, 0x6961_36e6u32),
            (&delta, RecordKind::Delta, 200, 0xbac1_9f38),
        ] {
            let bytes = synergy_codec::to_bytes(record).unwrap();
            assert_eq!(record.kind(), kind);
            assert_eq!(bytes.len(), len);
            assert_eq!(crc32(&bytes), crc, "{kind:?} record bytes moved");
            assert_eq!(
                &synergy_codec::from_bytes::<ChainRecord>(&bytes).unwrap(),
                record
            );
        }
    }

    #[test]
    fn walker_replays_what_codec_encodes() {
        let mut codec = CheckpointCodec::new(3);
        let mut records = Vec::new();
        let mut images = Vec::new();
        for seq in 1..=8u64 {
            // Lengths 700, 900, 500, 700, …: deltas that grow and shrink.
            let img = image(500 + 200 * ((seq as usize + 1) % 3), seq as u8);
            let c = ckpt(seq, &img);
            let record = codec.encode_record(&c);
            codec.note_committed(&c, record.kind());
            records.push((c.seq(), record));
            images.push(c.shared_data());
        }
        let mut walker = ChainWalker::new();
        for (i, ((seq, record), want)) in records.iter().zip(&images).enumerate() {
            let got = walker.feed(*seq, record).expect("intact chain replays");
            assert_eq!(&got, want);
            // The CRC-carrying forms are the public, hashing ones byte for byte.
            if let ChainRecord::Delta {
                base_seq,
                chain_crc,
                patch,
            } = record
            {
                let base = &images[i - 1];
                let public = ChainRecord::Delta {
                    base_seq: *base_seq,
                    chain_crc: *chain_crc,
                    patch: DeltaPatch::diff(base, want),
                };
                assert_eq!(
                    synergy_codec::to_bytes(record).unwrap(),
                    synergy_codec::to_bytes(&public).unwrap()
                );
                assert_eq!(got.as_ref(), &patch.apply(base).unwrap()[..]);
            }
        }
        assert_eq!(walker.orphans(), 0);
    }

    #[test]
    fn tampered_patches_are_orphaned_not_served() {
        let mut codec = CheckpointCodec::new(4);
        let c1 = ckpt(1, &image(600, 1));
        let full = codec.encode_record(&c1);
        codec.note_committed(&c1, full.kind());
        let c2 = ckpt(2, &image(600, 2));
        let ChainRecord::Delta {
            base_seq,
            chain_crc,
            patch,
        } = codec.encode_record(&c2)
        else {
            panic!("k = 4: the second record is a delta");
        };
        // Each leaves the record's own fields consistent, so the refusal is
        // the patch layer's: rebuilt-image CRC, region bound, growth bound,
        // and the walker's base comparison.
        let tampers: [fn(&mut DeltaPatch); 4] = [
            |p| p.regions[0].bytes[0] ^= 0x80,
            |p| p.regions[0].offset = 1 << 40,
            |p| p.new_len = u64::MAX,
            |p| p.base_crc ^= 1,
        ];
        for (i, tamper) in tampers.iter().enumerate() {
            let mut walker = ChainWalker::new();
            walker.feed(1, &full).expect("clean full record");
            let mut patch = patch.clone();
            tamper(&mut patch);
            let record = ChainRecord::Delta {
                base_seq,
                chain_crc,
                patch,
            };
            assert!(walker.feed(2, &record).is_none(), "tamper {i} was served");
            assert_eq!(walker.orphans(), 1, "tamper {i}");
            assert_eq!(walker.into_codec(4).next_kind(), RecordKind::Full);
        }
    }

    #[test]
    fn stale_crc_base_orphans_itself_and_the_delta_diffed_against_it() {
        let mut bad = ckpt(2, &image(600, 2));
        bad.corrupt_bit(8 * 300);
        let clean = ckpt(3, &image(600, 3));
        // The corrupt checkpoint lands as a full record (its link fails the
        // walker's hash) or as a delta (its rebuilt image fails the stale
        // `image_crc`); either way the clean delta diffed against it names
        // a base the walker never reached.
        for good in [None, Some(ckpt(1, &image(600, 1)))] {
            let mut codec = CheckpointCodec::new(4);
            let mut walker = ChainWalker::new();
            let mut served = Vec::new();
            for c in good.iter().chain([&bad, &clean]) {
                let record = codec.encode_record(c);
                codec.note_committed(c, record.kind());
                if walker.feed(c.seq(), &record).is_some() {
                    served.push(c.seq());
                }
            }
            assert_eq!(served, good.iter().map(Checkpoint::seq).collect::<Vec<_>>());
            assert_eq!(walker.orphans(), 2);
            assert_eq!(walker.into_codec(4).next_kind(), RecordKind::Full);
        }
    }

    #[test]
    fn orphaned_delta_drops_suffix_until_next_full() {
        let mut codec = CheckpointCodec::new(4);
        let mut records = Vec::new();
        for seq in 1..=8u64 {
            let c = ckpt(seq, &image(600, seq as u8));
            let record = codec.encode_record(&c);
            codec.note_committed(&c, record.kind());
            records.push((c.seq(), record));
        }
        // Drop record 2 (a delta): 3 and 4 are orphaned, 5 (full) recovers.
        let mut walker = ChainWalker::new();
        let mut served = Vec::new();
        for (seq, record) in records.iter().filter(|(seq, _)| *seq != 2) {
            if walker.feed(*seq, record).is_some() {
                served.push(*seq);
            }
        }
        assert_eq!(served, [1, 5, 6, 7, 8]);
        assert_eq!(walker.orphans(), 2);
    }

    #[test]
    fn walker_resumes_codec_midsegment() {
        let mut codec = CheckpointCodec::new(4);
        let mut records = Vec::new();
        for seq in 1..=6u64 {
            let c = ckpt(seq, &image(400, seq as u8));
            let record = codec.encode_record(&c);
            codec.note_committed(&c, record.kind());
            records.push((c.seq(), record));
        }
        let mut walker = ChainWalker::new();
        for (seq, record) in &records {
            walker.feed(*seq, record);
        }
        let mut resumed = walker.into_codec(4);
        // Records 5, 6 were full + delta; 7 and 8 continue the segment.
        assert_eq!(resumed.next_kind(), RecordKind::Delta);
        let c7 = ckpt(7, &image(400, 77));
        let r7 = resumed.encode_record(&c7);
        assert_eq!(r7.kind(), RecordKind::Delta);
        resumed.note_committed(&c7, r7.kind());
        let c8 = ckpt(8, &image(400, 78));
        assert_eq!(resumed.encode_record(&c8).kind(), RecordKind::Delta);
        resumed.note_committed(&c8, RecordKind::Delta);
        let c9 = ckpt(9, &image(400, 79));
        assert_eq!(
            resumed.encode_record(&c9).kind(),
            RecordKind::Full,
            "cadence position survives the reload"
        );
    }

    #[test]
    fn orphaned_reload_forces_full_restart() {
        let mut walker = ChainWalker::new();
        // A lone delta with no base: orphan.
        let patch = DeltaPatch::diff(b"aaaa", b"aaab");
        walker.feed(
            2,
            &ChainRecord::Delta {
                base_seq: 1,
                chain_crc: 0,
                patch,
            },
        );
        assert_eq!(walker.orphans(), 1);
        let codec = walker.into_codec(8);
        assert_eq!(codec.next_kind(), RecordKind::Full);
    }
}
