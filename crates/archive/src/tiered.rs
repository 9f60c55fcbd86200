//! [`TieredStore`]: local disk as tier 0, an object store as the archive
//! tier.
//!
//! Writes follow the neon `remote_storage` / `wal_backup` split: the
//! two-phase stable write commits **locally first** (tier 0 is the
//! durability the TB protocol reasons about), and every committed record
//! file is then mirrored to the archive tier by a background uploader with
//! unlimited exponential-backoff retries — an archive outage slows the
//! mirror down, it never blocks or fails a checkpoint commit.
//!
//! Recovery ladder on [`open`](TieredStore::open):
//!
//! 1. Local record files present → open tier 0 as usual (a reachable
//!    archive is then *resynced*: local records it is missing are queued).
//! 2. Local disk empty (wiped node) but the archive has records →
//!    **rehydrate**: fetch every object, write it verbatim as a local
//!    record file, then open tier 0 — its CRC verification drops any
//!    half-uploaded or rotten object, so a damaged archive degrades to an
//!    older checkpoint, never a wrong one.
//! 3. Both empty (or archive unreachable and disk empty) → fresh node.
//!
//! The caller keeps an [`ArchiveHandle`] for status reporting and
//! quiescing; the store itself stays a plain [`Stable`] so it slots under
//! [`DeltaStable`](crate::DeltaStable) or directly under the middleware.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synergy_codec::SharedBytes;
use synergy_net::retry::Backoff;
use synergy_storage::{Checkpoint, DiskStableStore, Stable, StableStats, StableWriteError};

use crate::object::{ObjectStore, ObjectStoreError};
use crate::store::StableHistory;

/// How long `open` keeps retrying an unreachable archive tier before
/// proceeding without it (rehydration and resync are skipped; uploads still
/// retry forever in the background).
const OPEN_RETRY_BUDGET: Duration = Duration::from_secs(3);

/// Counters for the archive tier, readable through an [`ArchiveHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Record files successfully mirrored to the archive tier.
    pub uploads: u64,
    /// Upload attempts that failed (each is retried until it lands).
    pub upload_failures: u64,
    /// Objects fetched from the archive to rebuild a wiped local disk.
    pub rehydrated: u64,
    /// Local record files queued on open because the archive was missing
    /// them (e.g. a crash beheaded the upload queue).
    pub resynced: u64,
}

struct UploadQueue {
    /// Record files by name, each read through the disk store's bounded
    /// reader into one shared buffer (the uploader's copy of the head is a
    /// refcount bump).
    pending: VecDeque<(String, SharedBytes)>,
    stats: ArchiveStats,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<UploadQueue>,
    cond: Condvar,
}

/// A cloneable view of a [`TieredStore`]'s archive state, usable after the
/// store itself has moved into the runtime.
#[derive(Clone)]
pub struct ArchiveHandle(Arc<Shared>);

impl ArchiveHandle {
    /// Record files queued but not yet mirrored to the archive.
    pub fn pending(&self) -> usize {
        self.0
            .queue
            .lock()
            .expect("archive queue poisoned")
            .pending
            .len()
    }

    /// Archive-tier counters.
    pub fn stats(&self) -> ArchiveStats {
        self.0.queue.lock().expect("archive queue poisoned").stats
    }

    /// Blocks until the upload queue is empty or `timeout` elapses; returns
    /// whether it drained. The quiesce path of choice before killing or
    /// wiping a node whose archive copy must be complete.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut q = self.0.queue.lock().expect("archive queue poisoned");
        while !q.pending.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .0
                .cond
                .wait_timeout(q, left)
                .expect("archive queue poisoned");
            q = guard;
        }
        true
    }
}

/// Local [`DiskStableStore`] mirrored to an archive tier by a background
/// uploader. See the module docs for the write path and recovery ladder.
pub struct TieredStore {
    disk: DiskStableStore,
    shared: Arc<Shared>,
    uploader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("disk", &self.disk)
            .field("pending", &self.handle().pending())
            .finish()
    }
}

/// Lists the archive's record keys, retrying within the open budget.
/// `None` means the tier stayed unreachable.
fn list_with_retry(archive: &mut dyn ObjectStore) -> Option<Vec<String>> {
    let deadline = Instant::now() + OPEN_RETRY_BUDGET;
    let mut backoff =
        Backoff::exponential(Duration::from_millis(5), Duration::from_millis(250), None);
    loop {
        match archive.list() {
            Ok(keys) => {
                return Some(
                    keys.into_iter()
                        .filter(|k| DiskStableStore::parse_record_file_name(k).is_some())
                        .collect(),
                )
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(backoff.next_delay().expect("unlimited schedule"));
            }
            Err(_) => return None,
        }
    }
}

/// Fetches one object, retrying within the open budget. An object too long
/// to be a record file is skipped at once: asking again will not shorten it.
fn get_with_retry(archive: &mut dyn ObjectStore, key: &str) -> Option<Vec<u8>> {
    let deadline = Instant::now() + OPEN_RETRY_BUDGET;
    let mut backoff =
        Backoff::exponential(Duration::from_millis(5), Duration::from_millis(250), None);
    loop {
        match archive.get(key) {
            Ok(bytes) => return bytes,
            Err(ObjectStoreError::TooLarge { .. }) => return None,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(backoff.next_delay().expect("unlimited schedule"));
            }
            Err(_) => return None,
        }
    }
}

fn local_record_names(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| DiskStableStore::parse_record_file_name(n).is_some())
        .collect();
    names.sort();
    names
}

impl TieredStore {
    /// Opens tier 0 at `dir` (retaining `retain` records locally) mirrored
    /// to `archive`, running the recovery ladder described in the module
    /// docs, and spawns the background uploader. Wrap the archive in a
    /// [`FaultyObjectStore`](crate::FaultyObjectStore) *before* passing it
    /// here to put the whole ladder — rehydration, resync, uploads — under
    /// an injected fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`StableWriteError::Io`] if tier 0 cannot be opened. An
    /// unreachable archive is not an open error.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero.
    pub fn open(
        dir: impl Into<PathBuf>,
        retain: usize,
        mut archive: Box<dyn ObjectStore>,
    ) -> Result<Self, StableWriteError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StableWriteError::Io(format!("create {}: {e}", dir.display())))?;
        let mut stats = ArchiveStats::default();
        let local = local_record_names(&dir);
        let archived = list_with_retry(archive.as_mut());

        if local.is_empty() {
            // A wiped (or brand-new) node: rebuild tier 0 from the archive.
            // Objects are written verbatim; DiskStableStore's CRC checks
            // below drop anything half-uploaded or rotten.
            if let Some(keys) = &archived {
                for key in keys {
                    if let Some(bytes) = get_with_retry(archive.as_mut(), key) {
                        let path = dir.join(key);
                        fs::write(&path, &bytes).map_err(|e| {
                            StableWriteError::Io(format!("rehydrate {}: {e}", path.display()))
                        })?;
                        stats.rehydrated += 1;
                    }
                }
            }
        }

        let disk = DiskStableStore::open_with_retention(&dir, retain)?;

        // Resync: any local record the archive is missing (mid-upload crash
        // beheaded the queue, or the archive was down when it committed)
        // goes back on the queue.
        let mut pending = VecDeque::new();
        if let Some(keys) = &archived {
            for name in local_record_names(&dir) {
                if !keys.contains(&name) {
                    if let Some(bytes) = DiskStableStore::read_record_file_bytes(&dir.join(&name)) {
                        pending.push_back((name, bytes));
                        stats.resynced += 1;
                    }
                }
            }
        }

        let shared = Arc::new(Shared {
            queue: Mutex::new(UploadQueue {
                pending,
                stats,
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let uploader = std::thread::Builder::new()
            .name("archive-uploader".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || upload_loop(&shared, archive)
            })
            .map_err(|e| StableWriteError::Io(format!("spawn uploader: {e}")))?;
        if !shared
            .queue
            .lock()
            .expect("archive queue poisoned")
            .pending
            .is_empty()
        {
            shared.cond.notify_all();
        }
        Ok(TieredStore {
            disk,
            shared,
            uploader: Some(uploader),
        })
    }

    /// A cloneable handle for status and quiescing.
    pub fn handle(&self) -> ArchiveHandle {
        ArchiveHandle(Arc::clone(&self.shared))
    }

    /// The local (tier 0) store.
    pub fn disk(&self) -> &DiskStableStore {
        &self.disk
    }
}

fn upload_loop(shared: &Shared, mut archive: Box<dyn ObjectStore>) {
    let mut backoff =
        Backoff::exponential(Duration::from_millis(5), Duration::from_millis(250), None);
    loop {
        // Take (a copy of) the head without popping: the record only leaves
        // the queue once it has landed.
        let (key, bytes) = {
            let mut q = shared.queue.lock().expect("archive queue poisoned");
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(head) = q.pending.front() {
                    break head.clone();
                }
                q = shared.cond.wait(q).expect("archive queue poisoned");
            }
        };
        match archive.put(&key, &bytes) {
            Ok(()) => {
                backoff.reset();
                let mut q = shared.queue.lock().expect("archive queue poisoned");
                q.pending.pop_front();
                q.stats.uploads += 1;
                // Wake any wait_drained caller.
                shared.cond.notify_all();
            }
            Err(_) => {
                let delay = backoff.next_delay().expect("unlimited schedule");
                let mut q = shared.queue.lock().expect("archive queue poisoned");
                q.stats.upload_failures += 1;
                // Sleep on the condvar so shutdown interrupts the backoff.
                let _ = shared
                    .cond
                    .wait_timeout(q, delay)
                    .expect("archive queue poisoned");
            }
        }
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("archive queue poisoned");
            q.shutdown = true;
        }
        self.shared.cond.notify_all();
        if let Some(h) = self.uploader.take() {
            let _ = h.join();
        }
        // Records still pending are not lost: tier 0 has them, and the next
        // open's resync re-queues whatever the archive is missing.
    }
}

impl Stable for TieredStore {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        self.disk.begin_write(checkpoint)
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        self.disk.replace_in_progress(checkpoint)
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        self.disk.commit_write()?;
        // Mirror the freshly committed record file. Failure to *read back*
        // the local file is not a commit failure — tier 0 is durable; the
        // record is simply picked up by the next resync.
        if let Some((_, path)) = self.disk.newest_record_file() {
            if let (Some(name), Some(bytes)) = (
                path.file_name().and_then(|n| n.to_str()).map(String::from),
                DiskStableStore::read_record_file_bytes(&path),
            ) {
                let mut q = self.shared.queue.lock().expect("archive queue poisoned");
                q.pending.push_back((name, bytes));
                drop(q);
                self.shared.cond.notify_all();
            }
        }
        Ok(())
    }

    fn abort_write(&mut self) -> bool {
        self.disk.abort_write()
    }

    fn crash(&mut self) {
        self.disk.crash();
    }

    fn is_writing(&self) -> bool {
        self.disk.is_writing()
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        self.disk.latest_shared()
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        self.disk.latest_at_or_before_shared(seq)
    }

    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        // Byzantine-lite injection corrupts the *local* tier only: the
        // archive keeps its clean mirror (an independent replica does not
        // follow a node's silent corruption).
        self.disk.replace_latest(checkpoint)
    }

    fn stats(&self) -> StableStats {
        self.disk.stats()
    }
}

impl StableHistory for TieredStore {
    fn committed_records(&self) -> Vec<Checkpoint> {
        self.disk.committed_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ArchiveFaultPlan, DirObjectStore, FaultyObjectStore, OutageWindow};
    use std::sync::atomic::{AtomicU64, Ordering};
    use synergy_des::SimTime;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("syarc-tier-{}-{tag}-{n}", std::process::id()))
    }

    fn ckpt(seq: u64, value: u64) -> Checkpoint {
        Checkpoint::encode(seq, SimTime::from_nanos(seq), "epoch", &value).unwrap()
    }

    fn commit(store: &mut TieredStore, c: Checkpoint) {
        store.begin_write(c).unwrap();
        store.commit_write().unwrap();
    }

    fn archive_over(dir: &Path, plan: ArchiveFaultPlan) -> Box<dyn ObjectStore> {
        Box::new(FaultyObjectStore::new(
            DirObjectStore::open(dir).unwrap(),
            plan,
        ))
    }

    fn assert_mirrored(local: &Path, remote: &Path) {
        let names = local_record_names(local);
        assert!(!names.is_empty());
        assert_eq!(names, local_record_names(remote), "same record set");
        for name in names {
            assert_eq!(
                fs::read(local.join(&name)).unwrap(),
                fs::read(remote.join(&name)).unwrap(),
                "record {name} must mirror byte-for-byte"
            );
        }
    }

    #[test]
    fn committed_records_mirror_to_the_archive_byte_for_byte() {
        let (local, remote) = (tmp_dir("mirror-l"), tmp_dir("mirror-r"));
        let mut s =
            TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert())).unwrap();
        let handle = s.handle();
        for seq in 1..=4 {
            commit(&mut s, ckpt(seq, seq * 10));
        }
        assert!(handle.wait_drained(Duration::from_secs(5)), "queue drains");
        assert_eq!(handle.stats().uploads, 4);
        assert_mirrored(&local, &remote);
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn wiped_disk_rehydrates_from_the_archive() {
        let (local, remote) = (tmp_dir("wipe-l"), tmp_dir("wipe-r"));
        {
            let mut s =
                TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert()))
                    .unwrap();
            for seq in 1..=3 {
                commit(&mut s, ckpt(seq, seq * 100));
            }
            assert!(s.handle().wait_drained(Duration::from_secs(5)));
        }
        fs::remove_dir_all(&local).unwrap();
        let s =
            TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert())).unwrap();
        assert_eq!(s.handle().stats().rehydrated, 3);
        assert_eq!(s.latest_shared().unwrap(), ckpt(3, 300));
        assert_eq!(s.latest_at_or_before_shared(2).unwrap(), ckpt(2, 200));
        assert_mirrored(&local, &remote);
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn archive_outage_defers_uploads_then_drains() {
        let (local, remote) = (tmp_dir("outage-l"), tmp_dir("outage-r"));
        // The window opens *after* `open`'s initial archive listing (which
        // runs at ~0 ms) and closes well before the drain deadline.
        let plan = ArchiveFaultPlan {
            outages: vec![OutageWindow {
                start_ms: 100,
                end_ms: 700,
            }],
            ..ArchiveFaultPlan::inert()
        };
        let mut s = TieredStore::open(&local, 8, archive_over(&remote, plan)).unwrap();
        let handle = s.handle();
        std::thread::sleep(Duration::from_millis(150));
        commit(&mut s, ckpt(1, 1));
        commit(&mut s, ckpt(2, 2));
        assert!(
            !handle.wait_drained(Duration::from_millis(50)),
            "outage holds the queue"
        );
        assert!(
            handle.wait_drained(Duration::from_secs(5)),
            "then it drains"
        );
        let stats = handle.stats();
        assert!(stats.upload_failures >= 1, "the outage was felt: {stats:?}");
        assert_eq!(stats.uploads, 2);
        assert_mirrored(&local, &remote);
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn flaky_puts_retry_until_every_record_lands_intact() {
        let (local, remote) = (tmp_dir("flaky-l"), tmp_dir("flaky-r"));
        let plan = ArchiveFaultPlan {
            seed: 11,
            put_fail: 0.4,
            put_partial: 0.3,
            ..ArchiveFaultPlan::inert()
        };
        let mut s = TieredStore::open(&local, 8, archive_over(&remote, plan)).unwrap();
        let handle = s.handle();
        for seq in 1..=6 {
            commit(&mut s, ckpt(seq, seq));
        }
        assert!(handle.wait_drained(Duration::from_secs(10)));
        // Partial PUTs left prefixes along the way; the retries must have
        // overwritten every one with the full record.
        assert_mirrored(&local, &remote);
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn mid_upload_crash_is_resynced_on_reopen() {
        let (local, remote) = (tmp_dir("resync-l"), tmp_dir("resync-r"));
        {
            // An archive that is down for far longer than the test runs:
            // commits land locally, the queue never drains, and dropping
            // the store is the mid-upload crash.
            let plan = ArchiveFaultPlan {
                outages: vec![OutageWindow {
                    start_ms: 0,
                    end_ms: 3_600_000,
                }],
                ..ArchiveFaultPlan::inert()
            };
            let mut s = TieredStore::open(&local, 8, archive_over(&remote, plan)).unwrap();
            for seq in 1..=3 {
                commit(&mut s, ckpt(seq, seq));
            }
            assert!(s.handle().pending() > 0, "uploads still queued at crash");
        }
        assert!(
            local_record_names(&remote).len() < 3,
            "the archive is missing records"
        );
        let s =
            TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert())).unwrap();
        let handle = s.handle();
        assert!(handle.stats().resynced >= 1, "missing records re-queued");
        assert!(handle.wait_drained(Duration::from_secs(5)));
        assert_mirrored(&local, &remote);
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn rehydration_drops_damaged_archive_objects_via_crc() {
        let (local, remote) = (tmp_dir("damaged-l"), tmp_dir("damaged-r"));
        {
            let mut s =
                TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert()))
                    .unwrap();
            for seq in 1..=3 {
                commit(&mut s, ckpt(seq, seq * 7));
            }
            assert!(s.handle().wait_drained(Duration::from_secs(5)));
        }
        // Rot the newest archived object and truncate the middle one — a
        // half-uploaded PUT frozen by the outage that killed the node.
        let names = local_record_names(&remote);
        let newest = remote.join(&names[2]);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let middle = remote.join(&names[1]);
        let bytes = fs::read(&middle).unwrap();
        fs::write(&middle, &bytes[..bytes.len() / 3]).unwrap();
        fs::remove_dir_all(&local).unwrap();
        let s =
            TieredStore::open(&local, 8, archive_over(&remote, ArchiveFaultPlan::inert())).unwrap();
        assert_eq!(s.handle().stats().rehydrated, 3, "all objects fetched");
        assert_eq!(s.stats().corrupt_records, 2, "damaged objects rejected");
        assert_eq!(
            s.latest_shared().unwrap(),
            ckpt(1, 7),
            "recovery degrades to the oldest intact record, never a wrong one"
        );
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }

    #[test]
    fn unreachable_archive_does_not_block_a_fresh_node() {
        let (local, remote) = (tmp_dir("down-l"), tmp_dir("down-r"));
        let plan = ArchiveFaultPlan {
            outages: vec![OutageWindow {
                start_ms: 0,
                end_ms: 3_600_000,
            }],
            ..ArchiveFaultPlan::inert()
        };
        let started = Instant::now();
        let mut s = TieredStore::open(&local, 8, archive_over(&remote, plan)).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "open is bounded by the retry budget"
        );
        commit(&mut s, ckpt(1, 1));
        assert_eq!(s.latest_shared().unwrap(), ckpt(1, 1), "tier 0 unaffected");
        drop(s);
        fs::remove_dir_all(&local).unwrap();
        fs::remove_dir_all(&remote).unwrap();
    }
}
