//! The archive tier's object-store abstraction and its fault-injected
//! wrapper.
//!
//! The interface is the minimal blob contract a checkpoint archive needs —
//! `put` / `get` / `list` / `delete` over string keys — with two backends:
//! [`MemObjectStore`] for in-process tests and [`DirObjectStore`] for the
//! cluster runtime (a directory of flat files that survives process death).
//! `DirObjectStore::put` is **deliberately non-atomic** (no temp-file +
//! rename): a real object store can expose a half-uploaded blob, and the
//! recovery path must tolerate exactly that, so the simulation does not
//! paper over it.
//!
//! [`FaultyObjectStore`] wraps any backend with a seeded
//! [`ArchiveFaultPlan`]: per-operation failure probabilities, partial PUTs
//! (a prefix lands, the call errors), fixed per-call latency, and wall-clock
//! outage windows during which the whole tier is unreachable. The same seed
//! reproduces the same fault sequence, which is what lets the chaos
//! harness's shrinker re-run a failing campaign minus one axis.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Read;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use core::fmt;

use synergy_codec::codec_struct;
use synergy_des::DetRng;
use synergy_storage::DiskStableStore;

/// Errors from the archive tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjectStoreError {
    /// The tier is unreachable (injected outage, injected failure, or a
    /// real connectivity error). Retryable.
    Unavailable(String),
    /// The backend failed at the operating-system level.
    Io(String),
    /// The object is longer than any record file can be, so it is not one;
    /// it was refused without being loaded. Not retryable.
    TooLarge {
        /// The object's key.
        key: String,
        /// Its length in bytes, as far as it was measured.
        len: u64,
    },
}

impl fmt::Display for ObjectStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectStoreError::Unavailable(e) => write!(f, "archive tier unavailable: {e}"),
            ObjectStoreError::Io(e) => write!(f, "archive tier i/o error: {e}"),
            ObjectStoreError::TooLarge { key, len } => write!(
                f,
                "archive object {key} is {len} bytes, longer than any record file ({} bytes)",
                DiskStableStore::MAX_RECORD_FILE_LEN
            ),
        }
    }
}

impl std::error::Error for ObjectStoreError {}

/// The blob contract the checkpoint archive runs on.
pub trait ObjectStore: Send {
    /// Stores `bytes` under `key`, replacing any previous object.
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectStoreError`] on failure; the object may then be
    /// absent **or half-written** — readers must CRC-verify.
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<(), ObjectStoreError>;

    /// Fetches the object under `key`, `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectStoreError`] when the tier cannot answer.
    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ObjectStoreError>;

    /// All keys, ascending.
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectStoreError`] when the tier cannot answer.
    fn list(&mut self) -> Result<Vec<String>, ObjectStoreError>;

    /// Removes the object under `key` (absent is not an error).
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectStoreError`] when the tier cannot answer.
    fn delete(&mut self, key: &str) -> Result<(), ObjectStoreError>;
}

/// In-memory object store for tests and the simulator.
#[derive(Clone, Debug, Default)]
pub struct MemObjectStore {
    objects: BTreeMap<String, Vec<u8>>,
}

impl MemObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemObjectStore::default()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

impl ObjectStore for MemObjectStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<(), ObjectStoreError> {
        self.objects.insert(key.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ObjectStoreError> {
        Ok(self.objects.get(key).cloned())
    }

    fn list(&mut self) -> Result<Vec<String>, ObjectStoreError> {
        Ok(self.objects.keys().cloned().collect())
    }

    fn delete(&mut self, key: &str) -> Result<(), ObjectStoreError> {
        self.objects.remove(key);
        Ok(())
    }
}

/// A directory-of-flat-files object store: the cluster's simulated remote
/// tier, durable across process death. Writes are plain `fs::write` — no
/// temp-file + rename — so a crash or injected partial PUT leaves a
/// half-written object, as a real object store can.
#[derive(Debug)]
pub struct DirObjectStore {
    dir: PathBuf,
}

impl DirObjectStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectStoreError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ObjectStoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| ObjectStoreError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(DirObjectStore { dir })
    }

    /// The directory backing this store.
    pub fn path(&self) -> &std::path::Path {
        &self.dir
    }

    fn key_path(&self, key: &str) -> Result<PathBuf, ObjectStoreError> {
        if key.is_empty() || key.contains(['/', '\\']) || key.contains("..") {
            return Err(ObjectStoreError::Io(format!("invalid object key {key:?}")));
        }
        Ok(self.dir.join(key))
    }
}

impl ObjectStore for DirObjectStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<(), ObjectStoreError> {
        let path = self.key_path(key)?;
        fs::write(&path, bytes)
            .map_err(|e| ObjectStoreError::Io(format!("put {}: {e}", path.display())))
    }

    /// The tier holds record files and nothing else, so the disk store's
    /// bound on a record file bounds an object: a longer one is refused on
    /// its metadata, before a byte is read, and the read itself stops one
    /// byte past the bound should the file grow under it.
    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ObjectStoreError> {
        const MAX: u64 = DiskStableStore::MAX_RECORD_FILE_LEN;
        let path = self.key_path(key)?;
        let io_err = |e| ObjectStoreError::Io(format!("get {}: {e}", path.display()));
        let too_large = |len| ObjectStoreError::TooLarge {
            key: key.to_string(),
            len,
        };
        let file = match File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(e)),
        };
        let len = file.metadata().map_err(io_err)?.len();
        if len > MAX {
            return Err(too_large(len));
        }
        let mut bytes = Vec::with_capacity(len as usize);
        file.take(MAX + 1).read_to_end(&mut bytes).map_err(io_err)?;
        if bytes.len() as u64 > MAX {
            return Err(too_large(bytes.len() as u64));
        }
        Ok(Some(bytes))
    }

    fn list(&mut self) -> Result<Vec<String>, ObjectStoreError> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| ObjectStoreError::Io(format!("list {}: {e}", self.dir.display())))?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| ObjectStoreError::Io(format!("list {}: {e}", self.dir.display())))?;
            if let Ok(name) = entry.file_name().into_string() {
                keys.push(name);
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn delete(&mut self, key: &str) -> Result<(), ObjectStoreError> {
        let path = self.key_path(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(ObjectStoreError::Io(format!(
                "delete {}: {e}",
                path.display()
            ))),
        }
    }
}

/// A wall-clock window (milliseconds since the faulty store was created)
/// during which the archive tier is unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutageWindow {
    /// Window start, ms since store creation.
    pub start_ms: u64,
    /// Window end (exclusive), ms since store creation.
    pub end_ms: u64,
}

codec_struct!(OutageWindow { start_ms, end_ms });

/// Seeded fault schedule for an archive tier, serializable so the chaos
/// orchestrator can hand it to a node process on the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchiveFaultPlan {
    /// Seed for the per-operation fault draws.
    pub seed: u64,
    /// Probability a PUT fails outright (nothing lands).
    pub put_fail: f64,
    /// Probability a PUT lands a half-written object and then errors.
    pub put_partial: f64,
    /// Probability a GET fails.
    pub get_fail: f64,
    /// Fixed latency added to every operation, milliseconds.
    pub latency_ms: u64,
    /// Wall-clock windows during which every operation is refused.
    pub outages: Vec<OutageWindow>,
}

codec_struct!(ArchiveFaultPlan {
    seed,
    put_fail,
    put_partial,
    get_fail,
    latency_ms,
    outages
});

impl ArchiveFaultPlan {
    /// A plan that injects nothing.
    pub fn inert() -> Self {
        ArchiveFaultPlan {
            seed: 0,
            put_fail: 0.0,
            put_partial: 0.0,
            get_fail: 0.0,
            latency_ms: 0,
            outages: Vec::new(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.put_fail == 0.0
            && self.put_partial == 0.0
            && self.get_fail == 0.0
            && self.latency_ms == 0
            && self.outages.is_empty()
    }
}

impl Default for ArchiveFaultPlan {
    fn default() -> Self {
        ArchiveFaultPlan::inert()
    }
}

/// An object store wrapped with a seeded [`ArchiveFaultPlan`].
#[derive(Debug)]
pub struct FaultyObjectStore<O: ObjectStore> {
    inner: O,
    plan: ArchiveFaultPlan,
    rng: DetRng,
    started: Instant,
    injected: u64,
}

impl<O: ObjectStore> FaultyObjectStore<O> {
    /// Wraps `inner` under `plan`. Outage windows are measured from this
    /// call.
    pub fn new(inner: O, plan: ArchiveFaultPlan) -> Self {
        let rng = DetRng::new(plan.seed).stream("archive-faults");
        FaultyObjectStore {
            inner,
            plan,
            rng,
            started: Instant::now(),
            injected: 0,
        }
    }

    /// Faults injected so far (failed/partial operations and refusals
    /// inside outage windows).
    pub fn injected_faults(&self) -> u64 {
        self.injected
    }

    /// Checks outage windows and applies latency; the common prefix of
    /// every operation.
    fn admit(&mut self, op: &str) -> Result<(), ObjectStoreError> {
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        for w in &self.plan.outages {
            if elapsed_ms >= w.start_ms && elapsed_ms < w.end_ms {
                self.injected += 1;
                return Err(ObjectStoreError::Unavailable(format!(
                    "injected outage [{}, {}) ms refuses {op} at {elapsed_ms} ms",
                    w.start_ms, w.end_ms
                )));
            }
        }
        if self.plan.latency_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.plan.latency_ms));
        }
        Ok(())
    }

    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }
}

impl<O: ObjectStore> ObjectStore for FaultyObjectStore<O> {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<(), ObjectStoreError> {
        self.admit("put")?;
        if self.draw(self.plan.put_fail) {
            self.injected += 1;
            return Err(ObjectStoreError::Unavailable(format!(
                "injected put failure for {key}"
            )));
        }
        if self.draw(self.plan.put_partial) {
            // The realistic half-upload: a prefix lands, the call errors.
            self.injected += 1;
            self.inner.put(key, &bytes[..bytes.len() / 2])?;
            return Err(ObjectStoreError::Unavailable(format!(
                "injected partial put for {key}"
            )));
        }
        self.inner.put(key, bytes)
    }

    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ObjectStoreError> {
        self.admit("get")?;
        if self.draw(self.plan.get_fail) {
            self.injected += 1;
            return Err(ObjectStoreError::Unavailable(format!(
                "injected get failure for {key}"
            )));
        }
        self.inner.get(key)
    }

    fn list(&mut self) -> Result<Vec<String>, ObjectStoreError> {
        self.admit("list")?;
        self.inner.list()
    }

    fn delete(&mut self, key: &str) -> Result<(), ObjectStoreError> {
        self.admit("delete")?;
        self.inner.delete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("syarc-obj-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn mem_store_roundtrips() {
        let mut s = MemObjectStore::new();
        s.put("b", b"two").unwrap();
        s.put("a", b"one").unwrap();
        assert_eq!(s.get("a").unwrap().unwrap(), b"one");
        assert_eq!(s.get("missing").unwrap(), None);
        assert_eq!(s.list().unwrap(), ["a", "b"], "ascending");
        s.delete("a").unwrap();
        s.delete("a").unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn dir_store_survives_reopen_and_rejects_bad_keys() {
        let dir = tmp_dir("reopen");
        {
            let mut s = DirObjectStore::open(&dir).unwrap();
            s.put("ckpt-0000000001.bin", b"payload").unwrap();
            assert!(s.put("../escape", b"x").is_err());
            assert!(s.put("a/b", b"x").is_err());
            assert!(s.put("", b"x").is_err());
        }
        let mut s = DirObjectStore::open(&dir).unwrap();
        assert_eq!(s.list().unwrap(), ["ckpt-0000000001.bin"]);
        assert_eq!(s.get("ckpt-0000000001.bin").unwrap().unwrap(), b"payload");
        s.delete("ckpt-0000000001.bin").unwrap();
        assert!(s.list().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_object_is_refused_unread() {
        // Sparse files, as in the disk store's test of the same bound: one
        // byte past the longest record file, and one far larger than memory.
        let dir = tmp_dir("oversized");
        let mut s = DirObjectStore::open(&dir).unwrap();
        s.put("ckpt-0000000001.bin", b"payload").unwrap();
        for len in [DiskStableStore::MAX_RECORD_FILE_LEN + 1, 1 << 36] {
            let f = File::options()
                .write(true)
                .open(dir.join("ckpt-0000000001.bin"))
                .unwrap();
            f.set_len(len).unwrap();
            drop(f);
            assert_eq!(
                s.get("ckpt-0000000001.bin"),
                Err(ObjectStoreError::TooLarge {
                    key: "ckpt-0000000001.bin".to_string(),
                    len
                })
            );
        }
        // Its neighbour is untouched by the refusal.
        s.put("ckpt-0000000002.bin", b"payload").unwrap();
        assert_eq!(s.get("ckpt-0000000002.bin").unwrap().unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let mut s = FaultyObjectStore::new(MemObjectStore::new(), ArchiveFaultPlan::inert());
        assert!(ArchiveFaultPlan::inert().is_inert());
        for i in 0..50 {
            s.put(&format!("k{i}"), b"v").unwrap();
        }
        assert_eq!(s.injected_faults(), 0);
        assert_eq!(s.list().unwrap().len(), 50);
    }

    #[test]
    fn certain_put_failure_lands_nothing() {
        let plan = ArchiveFaultPlan {
            put_fail: 1.0,
            ..ArchiveFaultPlan::inert()
        };
        let mut s = FaultyObjectStore::new(MemObjectStore::new(), plan);
        for i in 0..10 {
            assert!(s.put(&format!("k{i}"), b"payload").is_err());
        }
        assert!(s.list().unwrap().is_empty(), "failed puts land nothing");
        assert_eq!(s.injected_faults(), 10);
    }

    #[test]
    fn partial_put_lands_a_prefix_and_errors() {
        let plan = ArchiveFaultPlan {
            put_partial: 1.0,
            ..ArchiveFaultPlan::inert()
        };
        let mut s = FaultyObjectStore::new(MemObjectStore::new(), plan);
        assert!(s.put("k", b"0123456789").is_err());
        assert_eq!(
            s.get("k").unwrap().unwrap(),
            b"01234",
            "half the object is visible — readers must CRC-verify"
        );
    }

    #[test]
    fn certain_get_failure_blocks_reads_not_writes() {
        let plan = ArchiveFaultPlan {
            get_fail: 1.0,
            ..ArchiveFaultPlan::inert()
        };
        let mut s = FaultyObjectStore::new(MemObjectStore::new(), plan);
        s.put("k", b"v").unwrap();
        assert!(s.get("k").is_err());
        assert_eq!(s.list().unwrap(), ["k"]);
    }

    #[test]
    fn outage_window_refuses_everything_then_clears() {
        let plan = ArchiveFaultPlan {
            outages: vec![OutageWindow {
                start_ms: 0,
                end_ms: 60,
            }],
            ..ArchiveFaultPlan::inert()
        };
        let mut s = FaultyObjectStore::new(MemObjectStore::new(), plan);
        assert!(matches!(
            s.put("k", b"v"),
            Err(ObjectStoreError::Unavailable(_))
        ));
        assert!(s.list().is_err());
        std::thread::sleep(Duration::from_millis(80));
        s.put("k", b"v").unwrap();
        assert_eq!(s.get("k").unwrap().unwrap(), b"v");
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        let plan = ArchiveFaultPlan {
            seed: 7,
            put_fail: 0.5,
            ..ArchiveFaultPlan::inert()
        };
        let mut a = FaultyObjectStore::new(MemObjectStore::new(), plan.clone());
        let mut b = FaultyObjectStore::new(MemObjectStore::new(), plan);
        let pattern_a: Vec<bool> = (0..40)
            .map(|i| a.put(&format!("k{i}"), b"v").is_ok())
            .collect();
        let pattern_b: Vec<bool> = (0..40)
            .map(|i| b.put(&format!("k{i}"), b"v").is_ok())
            .collect();
        assert_eq!(pattern_a, pattern_b);
        assert!(pattern_a.iter().any(|ok| *ok) && pattern_a.iter().any(|ok| !*ok));
    }

    #[test]
    fn plan_roundtrips_through_the_codec() {
        let plan = ArchiveFaultPlan {
            seed: 3,
            put_fail: 0.25,
            put_partial: 0.1,
            get_fail: 0.05,
            latency_ms: 2,
            outages: vec![OutageWindow {
                start_ms: 100,
                end_ms: 400,
            }],
        };
        let bytes = synergy_codec::to_bytes(&plan).unwrap();
        let back: ArchiveFaultPlan = synergy_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, plan);
    }
}
