//! [`DeltaStable`]: the incremental-checkpoint layer over any stable store.
//!
//! The layer is format-only — it persists each checkpoint's state as a
//! [`ChainRecord`] (full image every `k` commits, CRC-chained dirty-region
//! deltas between) while preserving the backend's two-phase write semantics
//! untouched. The inner store still sees ordinary [`Checkpoint`]s with the
//! *original* sequence number, timestamp and label (only the state bytes are
//! the encoded chain record), so on disk the files remain `ckpt-*.bin`
//! frames and every torn-write / bit-rot / retention mechanism of
//! [`DiskStableStore`] keeps working unchanged.
//!
//! On reload the layer walks the backend's committed history **in commit
//! order**, CRC-verifying every chain link, and reconstructs the original
//! checkpoints byte-identically. Any record that fails a link check is an
//! *orphan*: it is dropped — never served — and recovery falls back to the
//! newest intact prefix, exactly like the disk store's handling of a
//! corrupt frame, one layer up.

use synergy_codec::SharedBytes;
use synergy_storage::{
    crc32, Checkpoint, DiskStableStore, Stable, StableStats, StableStore, StableWriteError,
};

use crate::codec::{full_record_crc, ChainRecord, ChainWalker, CheckpointCodec, RecordKind};

/// A stable store whose committed history can be enumerated in commit
/// order — what [`DeltaStable`] needs to rebuild its chain on reload.
///
/// Commit order matters (and differs from sequence-number order): after a
/// global rollback the TB protocol reuses epoch numbers, and the delta
/// chain continues from the most recently *committed* image regardless of
/// its sequence number.
pub trait StableHistory: Stable {
    /// Shared handles to every retained committed checkpoint, oldest first.
    fn committed_records(&self) -> Vec<Checkpoint>;
}

impl StableHistory for StableStore {
    fn committed_records(&self) -> Vec<Checkpoint> {
        self.committed_shared()
    }
}

impl StableHistory for DiskStableStore {
    fn committed_records(&self) -> Vec<Checkpoint> {
        self.committed_shared()
    }
}

/// Counters kept by a [`DeltaStable`] about the chain format itself (the
/// backend's write counters stay in [`StableStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Committed records carrying a full image.
    pub full_records: u64,
    /// Committed records carrying a dirty-region delta.
    pub delta_records: u64,
    /// Records dropped on reload because a chain link failed to verify
    /// (bit-rot in a delta, a missing base, a wrong base).
    pub chain_orphans: u64,
    /// Bytes actually persisted through the chain format.
    pub encoded_bytes: u64,
    /// Bytes a full-image-every-commit scheme would have persisted.
    pub full_image_bytes: u64,
}

/// Incremental-checkpoint layer over a stable store: full image every `k`
/// commits, CRC-chained deltas between, byte-identical reconstruction on
/// reload with fallback past any damaged suffix.
///
/// The backend must retain at least `retain + k - 1` records: evicting a
/// full image while deltas chained on it are still retained orphans those
/// deltas on the next reload (handled gracefully — they are dropped and the
/// chain restarts at the next full image — but it shrinks the usable
/// history). With that margin the baseless deltas at the old end of the
/// backend's history all lie outside the served window, and a reload skips
/// them without counting an orphan.
#[derive(Debug)]
pub struct DeltaStable<S: StableHistory> {
    inner: S,
    codec: CheckpointCodec,
    /// Reconstructed original checkpoints, oldest first, commit order.
    committed: Vec<Checkpoint>,
    /// The original checkpoint and its encoded record for the in-flight
    /// two-phase write.
    pending: Option<(Checkpoint, ChainRecord)>,
    retain: usize,
    delta_stats: DeltaStats,
    scratch: Vec<u8>,
}

impl<S: StableHistory> DeltaStable<S> {
    /// Opens the layer over `inner`, emitting a full image every `k`
    /// commits and retaining the last 8 reconstructed checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn open(inner: S, k: u32) -> Self {
        Self::open_with_retention(inner, k, 8)
    }

    /// Opens the layer over `inner`, replaying the backend's committed
    /// history through the chain walker. Records whose links do not verify
    /// are dropped and counted in [`DeltaStats::chain_orphans`]; if any
    /// were, the next record is forced to be a full image so the damaged
    /// suffix is never extended.
    ///
    /// Who hashes what: a disk backend made one pass over each record file
    /// at its own open and left its hash in [`Checkpoint::held_crc`]; the
    /// walk ([`ChainWalker::replay`]) hashes no image that pass covered.
    /// The rebuilt checkpoint carries the image CRC so verified instead of
    /// hashing the image again, and shares the wrapper's buffer: the
    /// reload holds one buffer per full record.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `retain` is zero.
    pub fn open_with_retention(inner: S, k: u32, retain: usize) -> Self {
        assert!(retain > 0, "must retain at least one checkpoint");
        let records = inner.committed_records();
        // Deltas older than the served window and older than the backend's
        // oldest full image lost their base to its retention, not to
        // damage: they are skipped, not orphaned.
        let spare = records.len().saturating_sub(retain);
        let residue = records[..spare]
            .iter()
            .take_while(|wrapped| {
                synergy_codec::from_shared::<ChainRecord>(&wrapped.shared_data())
                    .is_ok_and(|record| record.kind() == RecordKind::Delta)
            })
            .count();
        let mut walker = ChainWalker::new();
        let mut committed: Vec<Checkpoint> = records[residue..]
            .iter()
            .filter_map(|wrapped| walker.replay(wrapped))
            .collect();
        if committed.len() > retain {
            let excess = committed.len() - retain;
            committed.drain(..excess);
        }
        let orphans = walker.orphans();
        DeltaStable {
            inner,
            codec: walker.into_codec(k),
            committed,
            pending: None,
            retain,
            delta_stats: DeltaStats {
                chain_orphans: orphans,
                ..DeltaStats::default()
            },
            scratch: Vec::new(),
        }
    }

    /// The backend store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the layer, returning the backend store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Chain-format counters.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta_stats
    }

    /// Wraps `original` as an inner checkpoint whose state bytes are the
    /// encoded chain `record`, preserving seq / timestamp / label, and
    /// returns it with the pair to hold pending.
    ///
    /// A full record's wrapper is stamped with the CRC derived from the one
    /// `original` carries ([`full_record_crc`]) — its image is not hashed
    /// again, and an image that no longer matches its CRC yields a wrapper
    /// that no longer matches its own, refused on reload. The pending pair
    /// is then re-pointed at the image inside the wrapper's buffer, so the
    /// layer retains one buffer per full record after a commit exactly as
    /// after a reload, and the caller's buffer is the caller's to free. A
    /// delta's wrapper does not hold its image: hashed whole, nothing moves.
    fn wrap(
        &mut self,
        original: Checkpoint,
        record: ChainRecord,
    ) -> Result<(Checkpoint, (Checkpoint, ChainRecord)), StableWriteError> {
        synergy_codec::to_bytes_into(&record, &mut self.scratch)
            .map_err(|e| StableWriteError::Io(format!("encode chain record: {e}")))?;
        let bytes = SharedBytes::from(self.scratch.as_slice());
        let (crc, pending) = match record {
            ChainRecord::Full { chain_crc, image } => {
                let head = bytes.len() - image.len();
                let crc = full_record_crc(&bytes[..head], original.crc(), image.len());
                let image = bytes.slice(head..bytes.len());
                let original = Checkpoint::from_verified_parts(
                    original.seq(),
                    original.taken_at(),
                    original.label(),
                    image.clone(),
                    original.crc(),
                );
                (crc, (original, ChainRecord::Full { chain_crc, image }))
            }
            delta => (crc32(&bytes), (original, delta)),
        };
        let (original, _) = &pending;
        let wrapped = Checkpoint::from_verified_parts(
            original.seq(),
            original.taken_at(),
            original.label(),
            bytes,
            crc,
        );
        Ok((wrapped, pending))
    }
}

impl<S: StableHistory> Stable for DeltaStable<S> {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.pending.is_some() {
            return Err(StableWriteError::WriteAlreadyInProgress);
        }
        let record = self.codec.encode_record(&checkpoint);
        let (wrapped, pending) = self.wrap(checkpoint, record)?;
        self.inner.begin_write(wrapped)?;
        self.pending = Some(pending);
        Ok(())
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.pending.is_none() {
            return Err(StableWriteError::NoWriteInProgress);
        }
        // The codec only advances on commit, so the replacement is diffed
        // against the same base as the write it replaces.
        let record = self.codec.encode_record(&checkpoint);
        let (wrapped, pending) = self.wrap(checkpoint, record)?;
        self.inner.replace_in_progress(wrapped)?;
        self.pending = Some(pending);
        Ok(())
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        if self.pending.is_none() {
            return Err(StableWriteError::NoWriteInProgress);
        }
        // A failed backend commit keeps the write in flight (the caller may
        // retry), so the pending pair is only consumed on success.
        self.inner.commit_write()?;
        let (original, record) = self.pending.take().expect("checked above");
        match record.kind() {
            RecordKind::Full => self.delta_stats.full_records += 1,
            RecordKind::Delta => self.delta_stats.delta_records += 1,
        }
        self.delta_stats.encoded_bytes += record.encoded_len();
        self.delta_stats.full_image_bytes += original.size_bytes() as u64;
        self.codec.note_committed(&original, record.kind());
        self.committed.push(original);
        if self.committed.len() > self.retain {
            let excess = self.committed.len() - self.retain;
            self.committed.drain(..excess);
        }
        Ok(())
    }

    fn abort_write(&mut self) -> bool {
        self.pending = None;
        self.inner.abort_write()
    }

    fn crash(&mut self) {
        self.pending = None;
        self.inner.crash();
    }

    fn is_writing(&self) -> bool {
        self.inner.is_writing()
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        self.committed.last().cloned()
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.committed
            .iter()
            .rev()
            .find(|c| c.seq() <= seq)
            .cloned()
    }

    /// Discards the records above `epoch` from the backend and the served
    /// view, and restarts the chain if its position went with them
    /// ([`CheckpointCodec::discard_above`]).
    fn discard_above(&mut self, epoch: u64) -> Result<(), StableWriteError> {
        self.inner.discard_above(epoch)?;
        self.committed.retain(|c| c.seq() <= epoch);
        self.codec.discard_above(epoch);
        Ok(())
    }

    fn stats(&self) -> StableStats {
        self.inner.stats()
    }
}

impl<S: StableHistory> StableHistory for DeltaStable<S> {
    fn committed_records(&self) -> Vec<Checkpoint> {
        self.committed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{chain_link, CHAIN_SEED};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use synergy_des::{DetRng, SimTime};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("syarc-store-{}-{tag}-{n}", std::process::id()))
    }

    /// Whether `inner` is a window of `outer`'s memory — the same bytes at
    /// the same addresses, not an equal copy.
    fn lies_inside(inner: &[u8], outer: &[u8]) -> bool {
        let (inner, outer) = (inner.as_ptr_range(), outer.as_ptr_range());
        outer.start <= inner.start && inner.end <= outer.end
    }

    /// A checkpoint whose state is a sizeable buffer with a small mutation
    /// per epoch — the shape delta encoding exists for.
    fn ckpt(seq: u64, tweak: u8) -> Checkpoint {
        let mut state = vec![0u8; 2048];
        state[100] = tweak;
        state[1900] = tweak.wrapping_add(1);
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "epoch", &state).unwrap()
    }

    fn commit(store: &mut impl Stable, c: Checkpoint) {
        store.begin_write(c).unwrap();
        store.commit_write().unwrap();
    }

    #[test]
    fn roundtrip_over_memory_store_is_byte_identical() {
        let mut s = DeltaStable::open(StableStore::with_retention(32), 4);
        let originals: Vec<_> = (1..=10).map(|seq| ckpt(seq, seq as u8)).collect();
        for c in &originals {
            commit(&mut s, c.clone());
        }
        assert_eq!(s.latest_shared().unwrap(), originals[9]);
        assert_eq!(s.latest_at_or_before_shared(7).unwrap(), originals[6]);
        let ds = s.delta_stats();
        assert_eq!(ds.full_records, 3, "seqs 1, 5, 9 at k=4");
        assert_eq!(ds.delta_records, 7);
        assert!(
            ds.encoded_bytes < ds.full_image_bytes / 2,
            "deltas must shrink the write volume: {ds:?}"
        );
    }

    #[test]
    fn reload_from_disk_reconstructs_chain_byte_identically() {
        let dir = tmp_dir("reload");
        let originals: Vec<_> = (1..=6).map(|seq| ckpt(seq, seq as u8)).collect();
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 3);
            for c in &originals {
                commit(&mut s, c.clone());
            }
        }
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 3);
        assert_eq!(s.delta_stats().chain_orphans, 0);
        assert_eq!(s.latest_shared().unwrap(), originals[5]);
        assert_eq!(s.latest_at_or_before_shared(2).unwrap(), originals[1]);
        assert_eq!(s.committed_records(), originals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reloaded_full_records_are_windows_of_the_backend_record() {
        let dir = tmp_dir("windows");
        let originals: Vec<_> = (1..=4).map(|seq| ckpt(seq, seq as u8)).collect();
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 1);
            for c in &originals {
                commit(&mut s, c.clone());
            }
        }
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 1);
        let (wrapped, served) = (s.inner().committed_records(), s.committed_records());
        assert_eq!(served, originals);
        assert_eq!(wrapped.len(), served.len());
        for (w, c) in wrapped.iter().zip(&served) {
            assert!(
                lies_inside(&c.shared_data(), &w.shared_data()),
                "seq {}: the served image is a copy, not a window of its record",
                c.seq()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_full_record_lives_in_the_wrapper_and_frees_the_callers_buffer() {
        let state = ckpt(1, 1).shared_data().to_vec();
        let buffer: Arc<[u8]> = state.into();
        let original = Checkpoint::from_verified_parts(
            1,
            SimTime::from_nanos(1),
            "epoch",
            Arc::clone(&buffer).into(),
            crc32(&buffer),
        );
        let mut s = DeltaStable::open(StableStore::with_retention(8), 1);
        s.begin_write(original.clone()).unwrap();
        // In flight already: a torn or replaced write holds no more than a
        // committed one.
        assert!(lies_inside(
            &s.pending.as_ref().unwrap().0.shared_data(),
            &s.inner().in_progress().unwrap().shared_data()
        ));
        s.commit_write().unwrap();
        let wrapped = s.inner().committed_records();
        let served = s.latest_shared().unwrap();
        assert_eq!(served, original);
        assert!(lies_inside(
            &served.shared_data(),
            &wrapped[0].shared_data()
        ));
        assert!(!lies_inside(&served.shared_data(), &buffer));
        drop(original);
        assert_eq!(
            Arc::strong_count(&buffer),
            1,
            "the layer still holds the caller's buffer"
        );
    }

    #[test]
    fn committed_delta_record_keeps_the_callers_image() {
        // A delta's wrapper holds dirty regions, not the image: there is
        // nothing inside it to re-point at, and the image stays where the
        // caller built it.
        let mut s = DeltaStable::open(StableStore::with_retention(8), 4);
        commit(&mut s, ckpt(1, 1));
        let second = ckpt(2, 2);
        assert_eq!(s.codec.next_kind(), RecordKind::Delta);
        commit(&mut s, second.clone());
        let served = s.latest_shared().unwrap();
        assert_eq!(
            served.shared_data().as_ptr_range(),
            second.shared_data().as_ptr_range()
        );
        let wrapped = s.inner().committed_records();
        assert!(!lies_inside(
            &served.shared_data(),
            &wrapped[1].shared_data()
        ));
    }

    #[test]
    fn wrapper_crc_of_a_full_record_is_derivable() {
        // Image lengths around the CRC kernel's chunk (8), lane (1 024) and
        // page edges, and the benchmark's.
        for len in [0usize, 1, 15, 16, 1023, 1024, 4096, 256 * 1024] {
            let mut image = vec![0u8; len];
            DetRng::new(18).stream("wrapper").fill_bytes(&mut image);
            let image_crc = crc32(&image);
            let original = Checkpoint::from_verified_parts(
                7,
                SimTime::from_nanos(7),
                "epoch",
                image.clone().into(),
                image_crc,
            );
            let mut s = DeltaStable::open(StableStore::with_retention(8), 1);
            commit(&mut s, original.clone());
            let wrapped = s.inner().latest_shared().unwrap();

            // The value `wrap` stamped is the CRC of the record's encoding.
            let record = ChainRecord::Full {
                chain_crc: chain_link(CHAIN_SEED, image_crc),
                image: image.clone().into(),
            };
            let encoded = synergy_codec::to_bytes(&record).unwrap();
            assert_eq!(&*wrapped.shared_data(), &encoded[..], "len {len}");
            assert_eq!(wrapped.crc(), crc32(&encoded), "stamped, len {len}");
            // It is derived from the head and the image's CRC alone, and
            // `replay` maps the wrapper's CRC back to the image's.
            let head = &encoded[..encoded.len() - len];
            assert_eq!(head.len(), 16);
            assert_eq!(
                full_record_crc(head, crc32(&encoded[16..]), len),
                crc32(&encoded),
                "derived, len {len}"
            );
            assert_eq!(
                full_record_crc(head, crc32(&encoded), len),
                image_crc,
                "mapped back, len {len}"
            );
            assert_eq!(wrapped.decode::<ChainRecord>().unwrap(), record);
            let s = DeltaStable::open(s.into_inner(), 1);
            assert_eq!(s.delta_stats().chain_orphans, 0, "len {len}");
            assert_eq!(s.latest_shared().unwrap(), original);
        }
    }

    /// One way of damaging the newest record of a committed chain.
    #[derive(Clone, Copy, Debug)]
    enum Tamper {
        /// Flip one bit of this byte of the encoded chain record, under a
        /// frame that is valid for the damaged bytes.
        RecordByte(usize),
        /// Flip one bit of the wrapper checkpoint's stored CRC, likewise.
        WrapperCrc,
        /// Flip one bit of the frame trailer in the file itself.
        FrameTrailer,
    }

    #[test]
    fn every_guard_refuses_a_flipped_bit() {
        use RecordKind::{Delta, Full};
        // The newest record: a full one at k = 1 and at k = 4 (the fifth),
        // a delta at k = 4 (the fourth).
        for (k, rounds, kind) in [(1u32, 5u64, Full), (4, 5, Full), (4, 4, Delta)] {
            let dir = tmp_dir("guards");
            let originals: Vec<_> = (1..=rounds).map(|seq| ckpt(seq, seq as u8)).collect();
            {
                let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), k);
                for c in &originals {
                    commit(&mut s, c.clone());
                }
            }
            let newest = dir.join(DiskStableStore::record_file_name(rounds - 1));
            let pristine = fs::read(&newest).unwrap();
            let wrapped = DiskStableStore::read_record_file(&newest).unwrap();
            let record = wrapped.shared_data();
            assert_eq!(wrapped.decode::<ChainRecord>().unwrap().kind(), kind);
            // Full: tag · chain_crc · image length · image. Delta: tag ·
            // base_seq · chain_crc · patch. Either way a 16-byte head.
            let chain_crc_at = if kind == Full { 4 } else { 12 };
            let cases = [
                ("head: the tag", Tamper::RecordByte(0)),
                ("head: length prefix / base_seq", Tamper::RecordByte(8)),
                ("head: chain_crc", Tamper::RecordByte(chain_crc_at)),
                ("body: first byte", Tamper::RecordByte(16)),
                (
                    "body: a middle byte",
                    Tamper::RecordByte((16 + record.len()) / 2),
                ),
                ("body: last byte", Tamper::RecordByte(record.len() - 1)),
                ("the wrapper's crc field", Tamper::WrapperCrc),
                ("the frame trailer", Tamper::FrameTrailer),
            ];
            for (what, tamper) in cases {
                let what = format!("k = {k}, {kind:?} record, {what}");
                let reframed = |bytes: Vec<u8>, crc: u32| {
                    let damaged = Checkpoint::from_verified_parts(
                        wrapped.seq(),
                        wrapped.taken_at(),
                        wrapped.label(),
                        bytes.into(),
                        crc,
                    );
                    DiskStableStore::write_record_file(&newest, &damaged).unwrap();
                };
                match tamper {
                    Tamper::RecordByte(at) => {
                        let mut bytes = record.to_vec();
                        bytes[at] ^= 0x10;
                        reframed(bytes, wrapped.crc());
                    }
                    Tamper::WrapperCrc => reframed(record.to_vec(), wrapped.crc() ^ 0x10),
                    Tamper::FrameTrailer => {
                        let mut file = pristine.clone();
                        *file.last_mut().unwrap() ^= 0x10;
                        fs::write(&newest, file).unwrap();
                    }
                }

                let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), k);
                let (frame, chain) = (s.stats().corrupt_records, s.delta_stats().chain_orphans);
                if let Tamper::FrameTrailer = tamper {
                    assert_eq!((frame, chain), (1, 0), "{what}: the frame's to refuse");
                    // The file is gone and the chain ends one record
                    // earlier, intact: cadence decides what follows.
                    let follows = if (k, rounds) == (4, 4) { Delta } else { Full };
                    assert_eq!(s.codec.next_kind(), follows, "{what}");
                } else {
                    assert_eq!((frame, chain), (0, 1), "{what}: the chain's to refuse");
                    assert_eq!(s.codec.next_kind(), Full, "{what}");
                }
                let intact = &originals[..rounds as usize - 1];
                assert_eq!(s.latest_shared().as_ref(), intact.last(), "{what}");
                assert_eq!(s.committed_records(), intact, "{what}");
                drop(s);
                fs::write(&newest, &pristine).unwrap();
            }
            let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), k);
            assert_eq!(s.committed_records(), originals, "k = {k}: restored");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_delta_falls_back_to_previous_checkpoint() {
        // Regression: a crash between begin and commit of a *delta* record
        // must fall back to the last committed checkpoint, exactly like a
        // torn full-image write — never load a partial chain.
        let dir = tmp_dir("torn-tail");
        let originals: Vec<_> = (1..=3).map(|seq| ckpt(seq, seq as u8)).collect();
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
            for c in &originals {
                commit(&mut s, c.clone());
            }
            s.begin_write(ckpt(4, 44)).unwrap();
            assert_eq!(s.pending.as_ref().unwrap().1.kind(), RecordKind::Delta);
            // Dropped mid-write: inflight.tmp stays behind, like a SIGKILL.
        }
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
        assert_eq!(s.stats().torn_writes, 1, "backend detects the torn delta");
        assert_eq!(s.delta_stats().chain_orphans, 0, "committed chain intact");
        assert_eq!(s.latest_shared().unwrap(), originals[2]);
        assert_eq!(
            s.codec.next_kind(),
            RecordKind::Delta,
            "intact chain resumes mid-segment"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_chain_delta_falls_back_never_serves_partial_chain() {
        // Regression: bit-rot in a *mid-chain* delta must drop that record
        // and everything chained on it — recovery serves the intact prefix,
        // never a partially-reconstructed image.
        let dir = tmp_dir("rot-mid");
        let originals: Vec<_> = (1..=5).map(|seq| ckpt(seq, seq as u8)).collect();
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 8);
            for c in &originals {
                commit(&mut s, c.clone());
            }
        }
        // File index 2 holds the third record: the seq-3 delta.
        let victim = dir.join(DiskStableStore::record_file_name(2));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 8);
        assert_eq!(s.stats().corrupt_records, 1, "backend CRC catches the rot");
        assert_eq!(
            s.delta_stats().chain_orphans,
            2,
            "seq 4 and 5 chained on the rotted record are dropped"
        );
        assert_eq!(s.latest_shared().unwrap(), originals[1], "intact prefix");
        assert_eq!(s.committed_records(), originals[..2]);
        assert_eq!(
            s.codec.next_kind(),
            RecordKind::Full,
            "damaged suffix is never extended"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_chain_link_is_refused_one_layer_above_frame_crc() {
        // A record whose frame and checkpoint CRCs verify but whose chain
        // link is wrong (tampering between layers) must still be orphaned.
        let mut s = DeltaStable::open(StableStore::with_retention(8), 4);
        commit(&mut s, ckpt(1, 1));
        let mut inner = s.into_inner();
        let bad = ChainRecord::Full {
            chain_crc: 0xDEAD_BEEF,
            image: ckpt(2, 2).shared_data(),
        };
        inner
            .begin_write(Checkpoint::encode(2, SimTime::from_nanos(2), "epoch", &bad).unwrap())
            .unwrap();
        inner.commit_write().unwrap();
        let s = DeltaStable::open(inner, 4);
        assert_eq!(s.delta_stats().chain_orphans, 1);
        assert_eq!(s.latest_shared().unwrap().seq(), 1);
    }

    /// Commits `good` then `bad` — a checkpoint whose bytes were flipped
    /// in memory after its CRC was taken — and reopens the backend.
    fn reopen_after_corrupt_commit(k: u32, good: &[Checkpoint], kind: RecordKind) {
        let mut s = DeltaStable::open(StableStore::with_retention(8), k);
        for c in good {
            commit(&mut s, c.clone());
        }
        let mut bad = ckpt(9, 9);
        bad.corrupt_bit(8 * 300);
        assert!(bad.decode::<Vec<u8>>().is_err(), "the raw store refuses it");
        assert_eq!(s.codec.next_kind(), kind);
        commit(&mut s, bad);

        // The record was built from the CRC the checkpoint carries, so the
        // walker's hash of the bytes it would serve disagrees — with the
        // chain link for a full record, with the patch's `image_crc` after
        // the rebuild for a delta: orphaned, not re-stamped with a fresh
        // valid CRC.
        let s = DeltaStable::open(s.into_inner(), k);
        assert_eq!(s.delta_stats().chain_orphans, 1);
        assert_eq!(s.latest_shared().as_ref(), good.last());
        assert_eq!(s.committed_records(), good);
        assert_eq!(s.codec.next_kind(), RecordKind::Full);
    }

    #[test]
    fn corrupt_in_memory_checkpoint_is_orphaned_as_a_full_record() {
        reopen_after_corrupt_commit(1, &[ckpt(1, 1), ckpt(2, 2)], RecordKind::Full);
    }

    #[test]
    fn corrupt_in_memory_checkpoint_is_orphaned_as_a_delta_record() {
        reopen_after_corrupt_commit(4, &[ckpt(1, 1), ckpt(2, 2)], RecordKind::Delta);
    }

    #[test]
    fn replace_in_progress_rediffs_against_the_same_base() {
        let mut s = DeltaStable::open(StableStore::with_retention(8), 2);
        commit(&mut s, ckpt(1, 1));
        s.begin_write(ckpt(2, 2)).unwrap();
        s.replace_in_progress(ckpt(2, 99)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest_shared().unwrap(), ckpt(2, 99));
        assert_eq!(s.stats().replacements, 1);
        assert_eq!(
            s.delta_stats().delta_records,
            1,
            "replacement stayed a delta"
        );
    }

    #[test]
    fn post_rollback_seq_reuse_chains_in_commit_order() {
        // After a global rollback the protocol reuses epoch numbers; the
        // chain must base each delta on the previously *committed* image,
        // not the previous sequence number, and a reload must reproduce it.
        let dir = tmp_dir("seq-reuse");
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
            for seq in 1..=3u64 {
                commit(&mut s, ckpt(seq, seq as u8));
            }
            // Rollback to epoch 1, then re-establish epochs 2 and 3.
            commit(&mut s, ckpt(2, 102));
            commit(&mut s, ckpt(3, 103));
            assert_eq!(s.latest_at_or_before_shared(2).unwrap(), ckpt(2, 102));
        }
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
        assert_eq!(s.delta_stats().chain_orphans, 0);
        assert_eq!(s.latest_shared().unwrap(), ckpt(3, 103));
        assert_eq!(
            s.latest_at_or_before_shared(2).unwrap(),
            ckpt(2, 102),
            "newest committed record at or before the line wins"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discard_above_drops_the_abandoned_timeline_and_restarts_the_chain() {
        let dir = tmp_dir("discard");
        {
            let mut s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
            for seq in 1..=3u64 {
                commit(&mut s, ckpt(seq, seq as u8));
            }
            // Rollback to epoch 1: epochs 2 and 3 are the abandoned timeline,
            // and epoch 3 was the chain's base.
            s.discard_above(1).unwrap();
            assert_eq!(s.latest_seq(), Some(1));
            commit(&mut s, ckpt(2, 102));
            assert_eq!(s.delta_stats().full_records, 2, "the chain restarts");
        }
        let s = DeltaStable::open(DiskStableStore::open(&dir).unwrap(), 4);
        assert_eq!(s.delta_stats().chain_orphans, 0);
        assert_eq!(s.committed_records(), [ckpt(1, 1), ckpt(2, 102)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_simulator_codec_accounts_a_rollback_as_the_store_writes_it() {
        // One commit/rollback sequence through the store and through the
        // bare codec as the simulator drives it: `measure_committed` per
        // commit, `discard_above` per restore. `(seq, tweak)` commits, and
        // tweak 0 rolls back to `seq`. The rollbacks to 1 and to 0 cut the
        // chain's base, the one to 6 cuts nothing.
        #[rustfmt::skip]
        let ops = [
            (1, 1), (2, 2), (3, 3), (1, 0), (2, 102), (3, 103), (4, 104),
            (5, 105), (6, 106), (6, 0), (7, 107), (0, 0), (1, 201), (2, 202),
        ];
        let mut store = DeltaStable::open(StableStore::with_retention(16), 4);
        let mut codec = CheckpointCodec::new(4);
        let (mut full_records, mut encoded_bytes) = (0, 0);
        for (seq, tweak) in ops {
            if tweak == 0 {
                store.discard_above(seq).unwrap();
                codec.discard_above(seq);
                continue;
            }
            commit(&mut store, ckpt(seq, tweak));
            let cost = codec.measure_committed(&ckpt(seq, tweak));
            full_records += u64::from(cost.kind == RecordKind::Full);
            encoded_bytes += cost.encoded_bytes;
        }
        // Full images: the first commit, one after each cut, one by cadence.
        let stats = store.delta_stats();
        assert_eq!((stats.full_records, stats.delta_records), (4, 7));
        assert_eq!((full_records, encoded_bytes), (4, stats.encoded_bytes));
    }

    #[test]
    fn an_unstamped_record_is_written_as_the_pinned_frame_and_reloads() {
        // The golden record of the disk store's frame pin, fresh from
        // `encode` and so not yet stamped, through the plain disk store and
        // through the chain layer over one.
        let (plain, chained) = (tmp_dir("unstamped-plain"), tmp_dir("unstamped-chain"));
        let state: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let golden =
            || Checkpoint::encode(7, SimTime::from_nanos(1_500_000_000), "golden", &state).unwrap();
        commit(&mut DiskStableStore::open(&plain).unwrap(), golden());
        let file = fs::read(plain.join(DiskStableStore::record_file_name(0))).unwrap();
        assert_eq!((file.len(), crc32(&file)), (1066, 0xbb76_57aa));
        let disk = || DiskStableStore::open(&chained).unwrap();
        commit(&mut DeltaStable::open(disk(), 4), golden());
        for back in [
            DiskStableStore::open(&plain).unwrap().latest_shared(),
            DeltaStable::open(disk(), 4).latest_shared(),
        ] {
            let back = back.unwrap();
            assert_eq!(back.decode::<Vec<u8>>().unwrap(), state);
            assert_eq!(back, golden());
        }
        fs::remove_dir_all(&plain).unwrap();
        fs::remove_dir_all(&chained).unwrap();
    }

    #[test]
    fn crash_tears_pending_delta_without_orphaning_committed_chain() {
        let mut s = DeltaStable::open(StableStore::with_retention(8), 4);
        commit(&mut s, ckpt(1, 1));
        s.begin_write(ckpt(2, 2)).unwrap();
        s.crash();
        assert_eq!(s.stats().torn_writes, 1);
        assert!(!s.is_writing());
        // The codec never advanced: the next write re-diffs against seq 1.
        s.begin_write(ckpt(2, 22)).unwrap();
        s.commit_write().unwrap();
        assert_eq!(s.latest_shared().unwrap(), ckpt(2, 22));
        assert_eq!(s.delta_stats().delta_records, 1);
    }

    #[test]
    fn abort_write_is_not_torn_and_keeps_chain_position() {
        let mut s = DeltaStable::open(StableStore::with_retention(8), 4);
        commit(&mut s, ckpt(1, 1));
        s.begin_write(ckpt(2, 2)).unwrap();
        assert!(s.abort_write());
        assert!(!s.abort_write());
        assert_eq!(s.stats().torn_writes, 0);
        assert_eq!(s.codec.next_kind(), RecordKind::Delta);
    }

    #[test]
    fn backend_eviction_of_a_full_image_orphans_its_deltas_gracefully() {
        // The backend retains fewer records than retain + k - 1: the oldest
        // full image is evicted while deltas chained on it survive. Those
        // deltas are dropped on reload; the chain restarts at the next full.
        let mut s = DeltaStable::open_with_retention(StableStore::with_retention(3), 4, 8);
        for seq in 1..=6u64 {
            commit(&mut s, ckpt(seq, seq as u8));
        }
        // Inner retains records 4 (delta), 5 (full), 6 (delta).
        let s = DeltaStable::open(s.into_inner(), 4);
        assert_eq!(s.delta_stats().chain_orphans, 1, "the baseless seq-4 delta");
        assert_eq!(s.latest_shared().unwrap(), ckpt(6, 6));
        assert_eq!(
            s.committed_records(),
            vec![ckpt(5, 5), ckpt(6, 6)],
            "usable history restarts at the surviving full image"
        );
        assert_eq!(s.codec.next_kind(), RecordKind::Full);
    }

    #[test]
    fn overlapping_and_unpaired_writes_rejected_at_the_layer() {
        let mut s = DeltaStable::open(StableStore::with_retention(8), 2);
        assert!(matches!(
            s.commit_write(),
            Err(StableWriteError::NoWriteInProgress)
        ));
        assert!(matches!(
            s.replace_in_progress(ckpt(1, 1)),
            Err(StableWriteError::NoWriteInProgress)
        ));
        s.begin_write(ckpt(1, 1)).unwrap();
        assert!(matches!(
            s.begin_write(ckpt(2, 2)),
            Err(StableWriteError::WriteAlreadyInProgress)
        ));
    }
}
