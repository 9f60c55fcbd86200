//! A durable [`Stable`] backend: checkpoints as files, two-phase writes as
//! temp-file + `fsync` + atomic rename.
//!
//! The in-memory [`StableStore`](crate::StableStore) *models* stable storage
//! for the simulator; this store *is* stable storage for the cluster
//! runtime, where a hardware fault is a real `SIGKILL` and recovery starts
//! from whatever the filesystem still holds. The mapping of the adapted TB
//! write protocol onto POSIX file semantics:
//!
//! | protocol step           | filesystem action                               |
//! |-------------------------|-------------------------------------------------|
//! | `begin_write`           | write `inflight.tmp`, `fsync` the file          |
//! | `replace_in_progress`   | rewrite `inflight.tmp`, `fsync` the file        |
//! | `commit_write`          | rename to `ckpt-NNN.bin`, `fsync` the directory |
//! | crash before commit     | `inflight.tmp` left behind — a **torn write**   |
//!
//! On [`open`](DiskStableStore::open) the store reloads every committed
//! checkpoint file, verifying the outer frame CRC — which covers the whole
//! serialized [`Checkpoint`], its own state CRC included; that inner CRC is
//! checked against the state bytes once, when the checkpoint is
//! [`decode`](Checkpoint::decode)d. A leftover `inflight.tmp` is detected
//! as a torn write, counted in [`StableStats::torn_writes`] and discarded,
//! so recovery proceeds from the previous committed checkpoint — exactly
//! the in-memory store's [`crash`](crate::StableStore::crash) semantics,
//! made durable.
//!
//! Who holds and who hashes what on reload: each record file is read once,
//! whole, into one buffer sized from the file's metadata, and the reloaded
//! [`Checkpoint`]'s state bytes are a window of that buffer — one
//! allocation and no copy per record. This store makes one pass over the
//! buffer, the frame CRC; the state CRC is left to whoever decodes the
//! checkpoint (for a chain record, the archive layer's walk).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use synergy_codec::{Codec, SharedBytes};

use crate::checkpoint::Checkpoint;
use crate::crc::crc32;
use crate::stable::{Stable, StableStats, StableWriteError};

/// Magic number opening every checkpoint file (`"SYCK"` little-endian).
const MAGIC: u32 = 0x4B43_5953;
/// Refuse to load absurdly sized records (corrupted length fields).
const MAX_RECORD_LEN: u64 = 256 * 1024 * 1024;
/// Name of the in-flight (uncommitted) write.
const INFLIGHT: &str = "inflight.tmp";

fn io_err(op: &str, path: &Path, e: std::io::Error) -> StableWriteError {
    StableWriteError::Io(format!("{op} {}: {e}", path.display()))
}

/// Serializes a checkpoint into the on-disk frame:
/// `magic · payload_len · payload · crc32(payload)`. The checkpoint is
/// encoded straight into the frame buffer (the length is patched in once
/// known), so the image is copied once on its way to the file.
fn frame(ckpt: &Checkpoint) -> Vec<u8> {
    // One exact allocation: frame header and trailer (16), the checkpoint's
    // fixed fields and two length prefixes (36), label and state bytes.
    let mut out = Vec::with_capacity(16 + 36 + ckpt.label().len() + ckpt.size_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    ckpt.encode(&mut out);
    let payload_len = (out.len() - 12) as u64;
    out[4..12].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[12..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses and CRC-verifies an on-disk frame. Any failure — truncation, bad
/// magic, bad CRC, codec error, trailing bytes — yields `None`: the record
/// is treated as never written. The checkpoint's state bytes are a window
/// of `bytes`.
fn unframe(bytes: &SharedBytes) -> Option<Checkpoint> {
    let magic = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
    if magic != MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(bytes.get(4..12)?.try_into().ok()?);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let len = usize::try_from(len).ok()?;
    let payload = bytes.get(12..12 + len)?;
    let stored_crc = u32::from_le_bytes(bytes.get(12 + len..16 + len)?.try_into().ok()?);
    if bytes.len() != 16 + len || crc32(payload) != stored_crc {
        return None;
    }
    // The frame CRC covers the whole serialized checkpoint, including the
    // checkpoint's own state CRC; the latter is re-verified at decode time.
    synergy_codec::from_shared(&bytes.slice(12..12 + len)).ok()
}

/// Reads exactly `len` bytes — all there is — from `file` into one shared
/// buffer. `Ok(None)` when the file ends before `len` bytes or holds a byte
/// after them (it shrank or grew since its length was taken): what was read
/// is then no record, and is never served short, padded or cut.
fn read_exactly(mut file: impl Read, len: usize) -> io::Result<Option<SharedBytes>> {
    let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
    let dst = Arc::get_mut(&mut buf).expect("a freshly built Arc has one owner");
    match file.read_exact(dst) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let grew = file.take(1).read_to_end(&mut Vec::new())? != 0;
    Ok((!grew).then(|| buf.into()))
}

/// Reads one record file whole, into the buffer its checkpoint will share;
/// `Ok(None)` is a corrupt record. The file's length is checked before a
/// byte of it is read: no valid frame is longer than
/// [`DiskStableStore::MAX_RECORD_FILE_LEN`], so a longer file is refused
/// without loading it.
fn read_file(path: &Path) -> io::Result<Option<SharedBytes>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    match usize::try_from(len) {
        Ok(n) if len <= DiskStableStore::MAX_RECORD_FILE_LEN => read_exactly(file, n),
        _ => Ok(None),
    }
}

/// Reads one record file and parses its frame; `Ok(None)` is a corrupt
/// record.
fn read_record(path: &Path) -> io::Result<Option<Checkpoint>> {
    Ok(read_file(path)?.and_then(|bytes| unframe(&bytes)))
}

/// Durable stable storage for one process: committed checkpoints are files
/// under a directory, writes are two-phase and survive `SIGKILL` at any
/// instant with either the old or the new contents — never a half state.
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::{Checkpoint, DiskStableStore, Stable};
///
/// let dir = std::env::temp_dir().join(format!("syck-doc-{}", std::process::id()));
/// let mut disk = DiskStableStore::open(&dir)?;
/// disk.begin_write(Checkpoint::encode(1, SimTime::ZERO, "epoch-1", &7u64)?)?;
/// disk.commit_write()?;
/// drop(disk);
/// // A fresh process sees the committed checkpoint, CRC-verified:
/// let reloaded = DiskStableStore::open(&dir)?;
/// assert_eq!(reloaded.latest_shared().unwrap().decode::<u64>()?, 7);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DiskStableStore {
    dir: PathBuf,
    /// Committed history, oldest first, as `(file index, checkpoint)`.
    committed: Vec<(u64, Checkpoint)>,
    in_progress: Option<Checkpoint>,
    next_index: u64,
    stats: StableStats,
    retain: usize,
}

impl DiskStableStore {
    /// The longest a record file can be: a frame's 16 bytes of header and
    /// trailer around the largest payload the store accepts. No reader of
    /// record files — this store, or a tier that mirrors them — loads a
    /// longer one.
    pub const MAX_RECORD_FILE_LEN: u64 = MAX_RECORD_LEN + 16;

    /// Opens (creating if needed) the store at `dir`, retaining the last 8
    /// committed checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::Io`] if the directory cannot be created
    /// or scanned.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StableWriteError> {
        Self::open_with_retention(dir, 8)
    }

    /// Opens the store, retaining the last `retain` committed checkpoints on
    /// disk.
    ///
    /// Reload semantics: committed `ckpt-*.bin` files are loaded oldest to
    /// newest with the frame CRC verified (corrupt records are skipped; the
    /// checkpoint's own CRC is verified when it is decoded); a leftover
    /// in-flight temp file is a **torn write** — counted, deleted, and the
    /// previous committed checkpoint remains the latest.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::Io`] on filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero.
    pub fn open_with_retention(
        dir: impl Into<PathBuf>,
        retain: usize,
    ) -> Result<Self, StableWriteError> {
        assert!(retain > 0, "must retain at least one checkpoint");
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let mut stats = StableStats::default();
        let mut committed: Vec<(u64, Checkpoint)> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("read dir", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", &dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == INFLIGHT {
                // A write began but never committed before the crash.
                stats.torn_writes += 1;
                fs::remove_file(entry.path()).map_err(|e| io_err("remove", &entry.path(), e))?;
                continue;
            }
            let Some(index) = parse_index(name) else {
                continue;
            };
            let path = entry.path();
            match read_record(&path).map_err(|e| io_err("read", &path, e))? {
                Some(ckpt) => committed.push((index, ckpt)),
                // Corrupt committed record (bit-rot, or a file too long to
                // be a frame): unusable, count it and treat it as absent so
                // recovery falls back to the previous committed checkpoint.
                None => {
                    stats.corrupt_records += 1;
                    fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
                }
            }
        }
        committed.sort_by_key(|(index, _)| *index);
        let next_index = committed.last().map_or(0, |(i, _)| i + 1);
        Ok(DiskStableStore {
            dir,
            committed,
            in_progress: None,
            next_index,
            stats,
            retain,
        })
    }

    /// The directory backing this store.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Shared handles to every retained committed checkpoint, oldest first
    /// (commit order — which is file-index order, not sequence-number order:
    /// a post-rollback epoch reuses sequence numbers with a fresh index).
    pub fn committed_shared(&self) -> Vec<Checkpoint> {
        self.committed.iter().map(|(_, c)| c.clone()).collect()
    }

    /// File index and path of the newest committed record, if any.
    pub fn newest_record_file(&self) -> Option<(u64, PathBuf)> {
        self.committed
            .last()
            .map(|(i, _)| (*i, self.dir.join(file_name(*i))))
    }

    /// Reads and CRC-verifies one committed record file. Any failure —
    /// truncation, bad magic, bad CRC, codec error, a file longer than any
    /// frame (refused unread) — yields `None`; the record is unusable.
    /// Exposed so out-of-process tooling (the chaos orchestrator's
    /// layout-aware fault injection, the archive tier's rehydration) can
    /// inspect records without reimplementing the frame.
    pub fn read_record_file(path: &Path) -> Option<Checkpoint> {
        read_record(path).ok()?
    }

    /// The bytes of one record file, frame and all, unparsed — for a tier
    /// that mirrors record files verbatim. The same bounded read as
    /// [`read_record_file`](Self::read_record_file): `None` for a file that
    /// cannot be read, is longer than
    /// [`MAX_RECORD_FILE_LEN`](Self::MAX_RECORD_FILE_LEN) (refused unread),
    /// or changed length while it was read.
    pub fn read_record_file_bytes(path: &Path) -> Option<SharedBytes> {
        read_file(path).ok()?
    }

    /// Writes `ckpt` to `path` as a committed record with a valid frame.
    /// The counterpart of [`read_record_file`](Self::read_record_file) for
    /// layout-aware tooling — e.g. the chaos orchestrator fabricating
    /// record-level corruption that must still pass the frame CRC so it is
    /// only caught by a verification layer above the frame.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::Io`] on filesystem failure.
    pub fn write_record_file(path: &Path, ckpt: &Checkpoint) -> Result<(), StableWriteError> {
        fs::write(path, frame(ckpt)).map_err(|e| io_err("write record", path, e))
    }

    /// The on-disk file name of a committed record (`ckpt-NNNNNNNNNN.bin`).
    pub fn record_file_name(index: u64) -> String {
        file_name(index)
    }

    /// Parses a committed-record file name back to its index.
    pub fn parse_record_file_name(name: &str) -> Option<u64> {
        parse_index(name)
    }

    fn inflight_path(&self) -> PathBuf {
        self.dir.join(INFLIGHT)
    }

    /// Writes `ckpt` to the in-flight temp file and fsyncs it, so the bytes
    /// are durable *as uncommitted* before the caller proceeds.
    fn write_inflight(&self, ckpt: &Checkpoint) -> Result<(), StableWriteError> {
        let path = self.inflight_path();
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        f.write_all(&frame(ckpt))
            .map_err(|e| io_err("write", &path, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &path, e))?;
        Ok(())
    }

    fn fsync_dir(&self) -> Result<(), StableWriteError> {
        let d = File::open(&self.dir).map_err(|e| io_err("open dir", &self.dir, e))?;
        d.sync_all().map_err(|e| io_err("fsync dir", &self.dir, e))
    }
}

fn parse_index(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn file_name(index: u64) -> String {
    format!("ckpt-{index:010}.bin")
}

impl Stable for DiskStableStore {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_some() {
            return Err(StableWriteError::WriteAlreadyInProgress);
        }
        self.write_inflight(&checkpoint)?;
        self.in_progress = Some(checkpoint);
        Ok(())
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        if self.in_progress.is_none() {
            return Err(StableWriteError::NoWriteInProgress);
        }
        self.write_inflight(&checkpoint)?;
        self.in_progress = Some(checkpoint);
        self.stats.replacements += 1;
        Ok(())
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        let ckpt = self
            .in_progress
            .take()
            .ok_or(StableWriteError::NoWriteInProgress)?;
        let index = self.next_index;
        let target = self.dir.join(file_name(index));
        // The rename is the atomic commit point: before it the record is
        // `inflight.tmp` (torn on crash), after it the record is durable.
        fs::rename(self.inflight_path(), &target).map_err(|e| io_err("rename", &target, e))?;
        self.fsync_dir()?;
        self.next_index += 1;
        self.committed.push((index, ckpt));
        while self.committed.len() > self.retain {
            let (old, _) = self.committed.remove(0);
            let path = self.dir.join(file_name(old));
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        self.stats.commits += 1;
        Ok(())
    }

    fn abort_write(&mut self) -> bool {
        if self.in_progress.take().is_some() {
            // Best-effort cleanup: a leftover temp file would otherwise be
            // (correctly, if conservatively) counted as torn on reload.
            let _ = fs::remove_file(self.inflight_path());
            true
        } else {
            false
        }
    }

    fn crash(&mut self) {
        // Simulated crash: forget the in-flight write but *leave the temp
        // file on disk*, which is exactly what a killed process leaves
        // behind; reopening the directory detects and counts it.
        if self.in_progress.take().is_some() {
            self.stats.torn_writes += 1;
        }
    }

    fn is_writing(&self) -> bool {
        self.in_progress.is_some()
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        self.committed.last().map(|(_, c)| c.clone())
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.committed
            .iter()
            .rev()
            .find(|(_, c)| c.seq() <= seq)
            .map(|(_, c)| c.clone())
    }

    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        // Byzantine-lite injection: rewrite the newest committed record
        // both on disk and in the cache. Best-effort — a failed rewrite
        // reports "unsupported" rather than corrupting bookkeeping.
        let Some((index, slot)) = self.committed.last_mut().map(|(i, c)| (*i, c)) else {
            return false;
        };
        let path = self.dir.join(file_name(index));
        if fs::write(&path, frame(&checkpoint)).is_err() {
            return false;
        }
        *slot = checkpoint;
        true
    }

    fn stats(&self) -> StableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use synergy_des::SimTime;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("syck-test-{}-{tag}-{n}", std::process::id()))
    }

    fn ckpt(seq: u64, value: u64) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "t", &value).unwrap()
    }

    #[test]
    fn on_disk_frame_format_is_pinned() {
        // Golden value from the parent of the commit that made `frame`
        // encode in place and moved byte sequences onto the codec's slice
        // path; a change here is a disk-format change.
        let state: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let c =
            Checkpoint::encode(7, SimTime::from_nanos(1_500_000_000), "golden", &state).unwrap();
        let framed = frame(&c);
        assert_eq!(framed.len(), 1066);
        assert_eq!(framed.capacity(), framed.len(), "one exact allocation");
        assert_eq!(crc32(&framed), 0xbb76_57aa);
        let framed = SharedBytes::from(framed);
        assert_eq!(unframe(&framed), Some(c));
    }

    #[test]
    fn committed_checkpoints_survive_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            s.begin_write(ckpt(1, 11)).unwrap();
            s.commit_write().unwrap();
            s.begin_write(ckpt(2, 22)).unwrap();
            s.replace_in_progress(ckpt(2, 33)).unwrap();
            s.commit_write().unwrap();
            assert_eq!(s.stats().commits, 2);
            assert_eq!(s.stats().replacements, 1);
        }
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.latest_seq(), Some(2));
        assert_eq!(s.latest_shared().unwrap().decode::<u64>().unwrap(), 33);
        assert_eq!(s.latest_at_or_before_shared(1).unwrap().seq(), 1);
        assert_eq!(s.stats().torn_writes, 0, "clean shutdown tears nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_detected_on_reload_previous_checkpoint_used() {
        let dir = tmp_dir("torn");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            s.begin_write(ckpt(1, 1)).unwrap();
            s.commit_write().unwrap();
            s.begin_write(ckpt(2, 2)).unwrap();
            // Dropped mid-write: the temp file stays behind, like a SIGKILL
            // between begin and commit.
        }
        assert!(dir.join(INFLIGHT).exists(), "torn temp file left on disk");
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.stats().torn_writes, 1, "torn write detected on reload");
        assert_eq!(
            s.latest_seq(),
            Some(1),
            "previous committed checkpoint used"
        );
        assert!(!dir.join(INFLIGHT).exists(), "torn record discarded");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_inflight_counts_as_torn() {
        let dir = tmp_dir("truncated");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            s.begin_write(ckpt(1, 1)).unwrap();
            s.commit_write().unwrap();
        }
        // A write killed mid-`write_all`: only half the frame reached disk.
        let full = frame(&ckpt(2, 2));
        fs::write(dir.join(INFLIGHT), &full[..full.len() / 2]).unwrap();
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.stats().torn_writes, 1);
        assert_eq!(s.latest_seq(), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_committed_record_fails_crc_and_is_skipped() {
        let dir = tmp_dir("corrupt");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            for seq in 1..=2 {
                s.begin_write(ckpt(seq, seq * 10)).unwrap();
                s.commit_write().unwrap();
            }
        }
        // Flip one payload byte of the newest committed record.
        let newest = dir.join(file_name(1));
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.latest_seq(), Some(1), "corrupt record must not be served");
        assert_eq!(s.latest_shared().unwrap().decode::<u64>().unwrap(), 10);
        assert_eq!(s.stats().corrupt_records, 1, "bit-rot is counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_bit_rot_falls_back_to_previous_checkpoint() {
        // The weakest possible corruption — one flipped bit, anywhere in the
        // newest record — must be caught by CRC verification and recovery
        // must fall back to the previous committed checkpoint.
        let dir = tmp_dir("bitrot");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            for seq in 1..=2 {
                s.begin_write(ckpt(seq, seq * 100)).unwrap();
                s.commit_write().unwrap();
            }
        }
        let newest = dir.join(file_name(1));
        let pristine = fs::read(&newest).unwrap();
        // A handful of positions spread across the frame: magic, length
        // field, payload head/middle/tail, and the stored CRC itself.
        let positions = [
            0,
            5,
            13,
            pristine.len() / 2,
            pristine.len() - 5,
            pristine.len() - 1,
        ];
        for pos in positions {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x01;
            fs::write(&newest, &bytes).unwrap();
            let s = DiskStableStore::open(&dir).unwrap();
            assert_eq!(
                s.latest_seq(),
                Some(1),
                "bit flip at byte {pos} must not be served"
            );
            assert_eq!(s.latest_shared().unwrap().decode::<u64>().unwrap(), 100);
            assert_eq!(s.stats().corrupt_records, 1, "flip at byte {pos} counted");
            assert!(!newest.exists(), "corrupt record removed (flip at {pos})");
            drop(s);
            // Restore the record (reload deleted it) for the next position.
            fs::write(&newest, &pristine).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_file_is_refused_unread() {
        // Sparse files: one byte past the longest possible frame, and one
        // far larger than memory — loading either to look at its length
        // field is what the stat-first check avoids.
        for len in [MAX_RECORD_LEN + 17, 1 << 36] {
            let dir = tmp_dir("oversized");
            {
                let mut s = DiskStableStore::open(&dir).unwrap();
                s.begin_write(ckpt(1, 10)).unwrap();
                s.commit_write().unwrap();
            }
            let huge = dir.join(file_name(1));
            let mut f = File::create(&huge).unwrap();
            f.write_all(&frame(&ckpt(2, 20))).unwrap();
            f.set_len(len).unwrap();
            drop(f);
            assert_eq!(DiskStableStore::read_record_file(&huge), None);
            let s = DiskStableStore::open(&dir).unwrap();
            assert_eq!(s.stats().corrupt_records, 1, "counted ({len} bytes)");
            assert!(!huge.exists(), "oversized record removed");
            assert_eq!(s.latest_seq(), Some(1), "previous checkpoint served");
            assert_eq!(s.latest_shared().unwrap().decode::<u64>().unwrap(), 10);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn truncated_record_file_is_corrupt_not_padded_or_served_short() {
        // The buffer is sized from the file's metadata before the read, so a
        // cut file must come back as a corrupt record — never a panic, never
        // a frame padded out with the buffer's zeroes.
        let whole = frame(&ckpt(2, 20));
        for keep in [whole.len() - 1, whole.len() / 2, 0] {
            let dir = tmp_dir("truncated-record");
            {
                let mut s = DiskStableStore::open(&dir).unwrap();
                s.begin_write(ckpt(1, 10)).unwrap();
                s.commit_write().unwrap();
            }
            let cut = dir.join(file_name(1));
            fs::write(&cut, &whole[..keep]).unwrap();
            assert_eq!(DiskStableStore::read_record_file(&cut), None);
            let s = DiskStableStore::open(&dir).unwrap();
            assert_eq!(s.stats().corrupt_records, 1, "counted ({keep} bytes kept)");
            assert!(!cut.exists(), "truncated record removed");
            assert_eq!(s.latest_seq(), Some(1), "previous checkpoint served");
            assert_eq!(s.latest_shared().unwrap().decode::<u64>().unwrap(), 10);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn file_that_changes_length_under_the_read_is_no_record() {
        // What a file that shrank or grew between `metadata` and `read`
        // looks like from inside: a reader that ends before the length it
        // was sized for, or holds a byte after it.
        let whole = frame(&ckpt(2, 20));
        let exact = read_exactly(&whole[..], whole.len()).unwrap().unwrap();
        assert_eq!(&*exact, &whole[..]);
        assert_eq!(unframe(&exact), Some(ckpt(2, 20)));
        for shrunk_to in [whole.len() - 1, whole.len() / 2, 0] {
            let got = read_exactly(&whole[..shrunk_to], whole.len()).unwrap();
            assert_eq!(
                got,
                None,
                "{shrunk_to} bytes where {} were stat'd",
                whole.len()
            );
        }
        let mut grown = whole.clone();
        grown.push(0);
        assert_eq!(read_exactly(&grown[..], whole.len()).unwrap(), None);
        assert!(read_exactly(&[][..], 0).unwrap().unwrap().is_empty());
    }

    #[test]
    fn reloaded_checkpoint_is_a_window_of_its_record_buffer() {
        let dir = tmp_dir("window");
        {
            let mut s = DiskStableStore::open(&dir).unwrap();
            s.begin_write(ckpt(1, 10)).unwrap();
            s.commit_write().unwrap();
        }
        let path = dir.join(file_name(0));
        let file = DiskStableStore::read_record_file_bytes(&path).unwrap();
        assert_eq!(&*file, &fs::read(&path).unwrap()[..]);
        // The state bytes sit where the frame puts them, uncopied: after the
        // frame header and the checkpoint's seq, timestamp, label and length
        // prefix, before its CRC and the frame trailer.
        let data = unframe(&file).unwrap().shared_data();
        let at = 12 + 8 + 8 + (8 + 1) + 8;
        assert_eq!(data.as_ptr_range(), file[at..file.len() - 8].as_ptr_range());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failures_are_transient_and_survive_reopen() {
        // A flaky disk under the real durable store: `FaultyStable` fails
        // the first begin at epoch 2 and the first commit at epoch 3; the
        // retries succeed and a fresh process sees all three epochs.
        use crate::faulty::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable};
        let dir = tmp_dir("fsync-fail");
        {
            let disk = DiskStableStore::open(&dir).unwrap();
            let plan = DiskFaultPlan {
                faults: vec![
                    DiskFault {
                        seq: 2,
                        op: DiskOp::Begin,
                        times: 1,
                    },
                    DiskFault {
                        seq: 3,
                        op: DiskOp::Commit,
                        times: 1,
                    },
                ],
            };
            let mut s = FaultyStable::new(disk, plan);
            s.begin_write(ckpt(1, 1)).unwrap();
            s.commit_write().unwrap();
            assert!(matches!(
                s.begin_write(ckpt(2, 2)),
                Err(StableWriteError::Io(_))
            ));
            assert!(!s.is_writing(), "failed begin leaves no in-flight write");
            s.begin_write(ckpt(2, 2)).expect("begin retry succeeds");
            s.commit_write().unwrap();
            s.begin_write(ckpt(3, 3)).unwrap();
            assert!(matches!(s.commit_write(), Err(StableWriteError::Io(_))));
            assert!(s.is_writing(), "failed commit keeps the in-flight write");
            s.commit_write().expect("commit retry succeeds");
        }
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.latest_seq(), Some(3), "all epochs durable despite faults");
        assert_eq!(s.stats().torn_writes, 0, "masked faults tear nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_leaves_temp_file_for_reload_detection() {
        let dir = tmp_dir("crash");
        let mut s = DiskStableStore::open(&dir).unwrap();
        s.begin_write(ckpt(1, 1)).unwrap();
        s.crash();
        assert_eq!(s.stats().torn_writes, 1);
        assert!(!s.is_writing());
        assert!(dir.join(INFLIGHT).exists());
        drop(s);
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.stats().torn_writes, 1, "reload re-detects the torn file");
        assert_eq!(s.latest_seq(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_write_removes_temp_file() {
        let dir = tmp_dir("abort");
        let mut s = DiskStableStore::open(&dir).unwrap();
        s.begin_write(ckpt(1, 1)).unwrap();
        assert!(s.abort_write());
        assert!(!s.abort_write());
        assert!(!dir.join(INFLIGHT).exists());
        drop(s);
        let s = DiskStableStore::open(&dir).unwrap();
        assert_eq!(s.stats().torn_writes, 0, "aborted writes are not torn");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_deletes_oldest_files() {
        let dir = tmp_dir("retain");
        let mut s = DiskStableStore::open_with_retention(&dir, 2).unwrap();
        for seq in 1..=4 {
            s.begin_write(ckpt(seq, seq)).unwrap();
            s.commit_write().unwrap();
        }
        let bins: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.ends_with(".bin"))
            .collect();
        assert_eq!(bins.len(), 2, "only the retained files remain: {bins:?}");
        assert_eq!(s.latest_seq(), Some(4));
        assert_eq!(s.latest_at_or_before_shared(2), None, "evicted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_writes_rejected() {
        let dir = tmp_dir("overlap");
        let mut s = DiskStableStore::open(&dir).unwrap();
        s.begin_write(ckpt(1, 1)).unwrap();
        assert_eq!(
            s.begin_write(ckpt(2, 2)),
            Err(StableWriteError::WriteAlreadyInProgress)
        );
        assert_eq!(
            DiskStableStore::open(tmp_dir("overlap-b"))
                .unwrap()
                .commit_write(),
            Err(StableWriteError::NoWriteInProgress)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
