//! The checkpoint record the stable stores hold.

use core::fmt;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

use synergy_codec::{Codec, CodecError, Reader, SharedBytes};
use synergy_des::SimTime;

use crate::crc::{crc32, crc32_combine};

/// Errors from encoding or decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The binary codec failed.
    Codec(CodecError),
    /// Stored CRC does not match the data (corruption or type mismatch).
    CrcMismatch {
        /// CRC recorded when the checkpoint was taken.
        expected: u32,
        /// CRC of the bytes as read back.
        actual: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint crc mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::CrcMismatch { .. } => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// A snapshot of one process's state, ready for stable storage.
///
/// The state is stored in the [`synergy_codec`] binary format and
/// guarded by a CRC-32, so corruption (and decoding with the wrong type) is
/// detected rather than silently accepted.
///
/// The serialized bytes are a [`SharedBytes`] — a window onto a shared
/// buffer: cloning a checkpoint — the adapted TB protocol's volatile→stable
/// dirty-copy, epoch-line selection, payload bundling — bumps a refcount
/// instead of deep-copying the state, and a checkpoint decoded from a
/// larger record (a frame read from disk, a chain record's wrapper) is a
/// window of that record's buffer, not a copy of it. `SharedBytes` encodes
/// byte-identically to `Vec<u8>`, so the wire format (and every committed
/// CRC) is unchanged.
///
/// A record built by [`deferred`](Self::deferred) holds its state instead
/// of its bytes and serializes it on first read: the first of
/// [`shared_data`](Self::shared_data), [`size_bytes`](Self::size_bytes),
/// [`crc`](Self::crc), [`decode`](Self::decode), a frame written through
/// [`Codec`], `==`, `Debug` or [`corrupt_bit`](Self::corrupt_bit) encodes
/// it once, through a reused per-thread buffer, and drops the state.
/// Clones share that one cell, so however many of them read it, the state
/// is encoded once. The bytes are those [`encode`](Self::encode) would
/// have produced when the record was built, because the state cannot
/// change in between: the record owns it and nothing hands out a mutable
/// reference to it. A record nobody reads (a stable checkpoint the store
/// evicts before any recovery selects it) is never serialized.
///
/// The CRC is stamped on first use, not at encode: [`encode`](Self::encode)
/// only serializes, and the first of [`crc`](Self::crc),
/// [`decode`](Self::decode) or a frame written through [`Codec`] hashes the
/// bytes once and memoizes the value. A record nobody reads back (a
/// checkpoint replaced before it commits, one the store evicts unread) is
/// never hashed. The stamp is the CRC the bytes had when they were
/// encoded, because they cannot change in between: [`SharedBytes`] is an
/// immutable shared buffer, and the one mutator,
/// [`corrupt_bit`](Self::corrupt_bit), stamps before it flips. Layers that
/// re-frame the record carry [`crc`](Self::crc) along
/// ([`from_verified_parts`](Self::from_verified_parts), which stamps the
/// value it is given); [`decode`](Self::decode) hashes the bytes on every
/// call and compares them against the stamp.
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::Checkpoint;
///
/// let ckpt = Checkpoint::encode(3, SimTime::from_secs_f64(1.5), "type1", &(42u64, true))?;
/// let (counter, flag): (u64, bool) = ckpt.decode()?;
/// assert_eq!((counter, flag), (42, true));
/// assert_eq!(ckpt.seq(), 3);
/// let later = Checkpoint::deferred(3, SimTime::from_secs_f64(1.5), "type1", (42u64, true));
/// assert_eq!(later, ckpt);
/// # Ok::<(), synergy_storage::CheckpointError>(())
/// ```
#[derive(Clone)]
pub struct Checkpoint {
    seq: u64,
    taken_at_nanos: u64,
    label: Cow<'static, str>,
    body: Body,
    /// CRC-32 of the serialized state, stamped on first use.
    crc: OnceLock<u32>,
    /// CRC-32 of the bytes `body` holds, when a pass over them computed it.
    held: Option<u32>,
}

/// A checkpoint's serialized state: in hand, or produced on first read.
#[derive(Clone)]
enum Body {
    Bytes(SharedBytes),
    Deferred(Arc<dyn DeferredBytes>),
}

/// A captured state that serializes itself once, on first read.
trait DeferredBytes: Send + Sync {
    fn bytes(&self) -> &SharedBytes;
}

/// The one cell the clones of a deferred record share: the state until it
/// is encoded, the bytes from then on.
struct Deferred<T> {
    bytes: OnceLock<SharedBytes>,
    state: Mutex<Option<T>>,
}

impl<T: Codec + Send> DeferredBytes for Deferred<T> {
    fn bytes(&self) -> &SharedBytes {
        self.bytes.get_or_init(|| {
            let state = self
                .state
                .lock()
                .expect("the lock is held only to take the state, which cannot panic")
                .take()
                .expect("a deferred state is encoded once");
            encode_shared(&state)
        })
    }
}

/// Serializes `state` through this thread's reused buffer into a shared one
/// of exactly its size. A state whose encoding reads another deferred
/// record finds the buffer taken and encodes that record into a fresh one.
fn encode_shared<T: Codec>(state: &T) -> SharedBytes {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut fresh = Vec::new();
        let mut held = cell.try_borrow_mut();
        let buf = held.as_deref_mut().unwrap_or(&mut fresh);
        buf.clear();
        state.encode(buf);
        buf.as_slice().into()
    })
}

impl Codec for Checkpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.taken_at_nanos.encode(out);
        self.label.encode(out);
        self.data().encode(out);
        self.crc().encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Checkpoint {
            seq: u64::decode(r)?,
            taken_at_nanos: u64::decode(r)?,
            label: Cow::decode(r)?,
            body: Body::Bytes(SharedBytes::decode(r)?),
            crc: OnceLock::from(u32::decode(r)?),
            held: None,
        })
    }
}

impl PartialEq for Checkpoint {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.taken_at_nanos == other.taken_at_nanos
            && self.label == other.label
            && self.data() == other.data()
            && self.crc() == other.crc()
    }
}

impl Eq for Checkpoint {}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("seq", &self.seq)
            .field("taken_at_nanos", &self.taken_at_nanos)
            .field("label", &self.label)
            .field("data", self.data())
            .field("crc", &self.crc())
            .finish()
    }
}

impl Checkpoint {
    /// Serializes `state` into a new checkpoint record.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Codec`] when `state` cannot be represented
    /// in the binary format (e.g. unknown-length sequences).
    pub fn encode<T: Codec>(
        seq: u64,
        taken_at: SimTime,
        label: impl Into<String>,
        state: &T,
    ) -> Result<Self, CheckpointError> {
        let bytes = synergy_codec::to_bytes(state)?;
        Ok(Checkpoint {
            seq,
            taken_at_nanos: taken_at.as_nanos(),
            label: Cow::Owned(label.into()),
            body: Body::Bytes(bytes.as_slice().into()),
            crc: OnceLock::new(),
            held: None,
        })
    }

    /// A record of `state` that is serialized on first read (see the type
    /// docs): until then it holds `state` in one cell its clones share, and
    /// once read it is byte for byte the record [`encode`](Self::encode)
    /// builds from the same arguments.
    pub fn deferred<T: Codec + Send + 'static>(
        seq: u64,
        taken_at: SimTime,
        label: &'static str,
        state: T,
    ) -> Self {
        Checkpoint {
            seq,
            taken_at_nanos: taken_at.as_nanos(),
            label: Cow::Borrowed(label),
            body: Body::Deferred(Arc::new(Deferred {
                bytes: OnceLock::new(),
                state: Mutex::new(Some(state)),
            })),
            crc: OnceLock::new(),
            held: None,
        }
    }

    /// Rebuilds a checkpoint from already-serialized state bytes and the
    /// CRC-32 the caller has just computed or verified over exactly those
    /// bytes — the reconstruction path for layered stores (the archive's
    /// delta chain) that persist a *transformed* record and must reproduce
    /// the original byte-identically without hashing the image a second
    /// time: for any checkpoint built by [`encode`](Self::encode), the same
    /// metadata, [`shared_data`](Self::shared_data) and [`crc`](Self::crc)
    /// yield an equal record.
    ///
    /// Nothing is taken on trust: [`decode`](Self::decode) re-verifies
    /// `crc` against `data`, so a wrong value makes the record undecodable
    /// ([`CheckpointError::CrcMismatch`]), never silently accepted.
    pub fn from_verified_parts(
        seq: u64,
        taken_at: SimTime,
        label: impl Into<String>,
        data: SharedBytes,
        crc: u32,
    ) -> Self {
        Checkpoint {
            seq,
            taken_at_nanos: taken_at.as_nanos(),
            label: Cow::Owned(label.into()),
            body: Body::Bytes(data),
            crc: OnceLock::from(crc),
            held: None,
        }
    }

    /// Decodes the checkpoint `payload` encodes and hashes `payload` in the
    /// same pass, as prefix ‖ state ‖ suffix joined with [`crc32_combine`]:
    /// the record comes back with its [`held_crc`](Self::held_crc) set to
    /// the state's hash, beside the CRC of the whole payload. `None` when
    /// `payload` does not decode as a checkpoint.
    pub(crate) fn decode_hashed(payload: &SharedBytes) -> Option<(Checkpoint, u32)> {
        let mut ckpt: Checkpoint = synergy_codec::from_shared(payload).ok()?;
        // The state is the encoding's last field but the stamp's four bytes.
        let end = payload.len() - 4;
        let start = end - ckpt.size_bytes();
        let state = crc32(&payload[start..end]);
        let head = crc32_combine(crc32(&payload[..start]), state, end - start);
        ckpt.held = Some(state);
        Some((ckpt, crc32_combine(head, crc32(&payload[end..]), 4)))
    }

    /// Deserializes the stored state, hashing it first on every call and
    /// comparing against the stamp (stamping it first if unset). Any
    /// [`SharedBytes`] inside `T` comes back as a window of this
    /// checkpoint's buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::CrcMismatch`] when the bytes were corrupted
    /// and [`CheckpointError::Codec`] when they do not decode as `T`.
    pub fn decode<T: Codec>(&self) -> Result<T, CheckpointError> {
        let data = self.data();
        let actual = crc32(data);
        let expected = *self.crc.get_or_init(|| actual);
        if actual != expected {
            return Err(CheckpointError::CrcMismatch { expected, actual });
        }
        Ok(synergy_codec::from_shared(data)?)
    }

    /// The serialized state, encoding a deferred one on first call.
    fn data(&self) -> &SharedBytes {
        match &self.body {
            Body::Bytes(bytes) => bytes,
            Body::Deferred(cell) => cell.bytes(),
        }
    }

    /// The checkpoint sequence number (MDCD volatile counter or TB `Ndc`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True simulation instant at which the snapshot was taken; recovery
    /// metrics compute rollback distance from this.
    pub fn taken_at(&self) -> SimTime {
        SimTime::from_nanos(self.taken_at_nanos)
    }

    /// The label supplied at encode time (`"type1"`, `"pseudo"`, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Size of the serialized state in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data().len()
    }

    /// The CRC-32 of the serialized state as it was taken, hashed on the
    /// first call. Layers that chain or re-frame the image carry this value
    /// instead of re-hashing the bytes; if the bytes were corrupted since
    /// (see [`corrupt_bit`](Self::corrupt_bit)) it no longer matches them,
    /// and whoever verifies it against the bytes refuses the record.
    pub fn crc(&self) -> u32 {
        *self.crc.get_or_init(|| crc32(self.data()))
    }

    /// The CRC-32 of the bytes this record holds: set only by a pass over
    /// exactly these bytes (the disk store's frame pass), and cleared by
    /// [`corrupt_bit`](Self::corrupt_bit).
    pub fn held_crc(&self) -> Option<u32> {
        self.held
    }

    /// The serialized state, shared. Cloning the returned handle is a
    /// refcount bump.
    pub fn shared_data(&self) -> SharedBytes {
        self.data().clone()
    }

    /// Flips one bit of the stored state — fault injection for tests that
    /// verify corruption is detected. The CRC is stamped first, so it stays
    /// the CRC of the bytes as taken. The flipped copy is private to this
    /// record: other holders of the shared bytes are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint holds no data bytes.
    pub fn corrupt_bit(&mut self, bit: usize) {
        assert!(self.size_bytes() > 0, "cannot corrupt an empty checkpoint");
        self.crc();
        let mut bytes = self.data().to_vec();
        let i = (bit / 8) % bytes.len();
        bytes[i] ^= 1 << (bit % 8);
        self.body = Body::Bytes(bytes.into());
        self.held = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::LANES_MIN_LEN;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use synergy_codec::codec_struct;

    #[derive(PartialEq, Debug)]
    struct AppState {
        counter: u64,
        pending: Vec<String>,
    }

    codec_struct!(AppState { counter, pending });

    fn sample() -> AppState {
        AppState {
            counter: 99,
            pending: vec!["m1".into(), "m2".into()],
        }
    }

    #[test]
    fn roundtrip_preserves_state_and_metadata() {
        let t = SimTime::from_secs_f64(2.5);
        let ckpt = Checkpoint::encode(7, t, "pseudo", &sample()).unwrap();
        assert_eq!(ckpt.seq(), 7);
        assert_eq!(ckpt.taken_at(), t);
        assert_eq!(ckpt.label(), "pseudo");
        assert!(ckpt.size_bytes() > 0);
        let back: AppState = ckpt.decode().unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn corruption_is_detected() {
        // `encode` leaves the CRC unstamped; `corrupt_bit` stamps the CRC of
        // the bytes as taken before it flips one.
        let mut ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        let taken = crc32(ckpt.data());
        ckpt.corrupt_bit(13);
        match ckpt.decode::<AppState>() {
            Err(CheckpointError::CrcMismatch { expected, actual }) => {
                assert_eq!((expected, actual), (taken, crc32(ckpt.data())));
            }
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn double_corruption_restores() {
        let mut ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        ckpt.corrupt_bit(13);
        ckpt.corrupt_bit(13);
        assert!(ckpt.decode::<AppState>().is_ok());
    }

    #[test]
    fn verified_parts_rebuild_an_equal_record_and_a_wrong_crc_is_refused() {
        let ckpt = Checkpoint::encode(4, SimTime::from_secs_f64(1.0), "t", &sample()).unwrap();
        let parts = |crc| {
            Checkpoint::from_verified_parts(
                ckpt.seq(),
                ckpt.taken_at(),
                ckpt.label(),
                ckpt.shared_data(),
                crc,
            )
        };
        assert_eq!(parts(ckpt.crc()), ckpt);
        assert!(matches!(
            parts(ckpt.crc() ^ 1).decode::<AppState>(),
            Err(CheckpointError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn corruption_is_private_to_the_corrupted_record() {
        let ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        let mut shared = ckpt.clone();
        shared.corrupt_bit(13);
        assert!(shared.decode::<AppState>().is_err());
        assert_eq!(ckpt.decode::<AppState>().unwrap(), sample());
    }

    #[test]
    fn encode_hashes_nothing_and_the_first_read_stamps_the_crc_of_the_bytes() {
        let ckpt = Checkpoint::encode(4, SimTime::from_secs_f64(1.0), "t", &sample()).unwrap();
        let unstamped = ckpt.clone();
        assert_eq!(ckpt.crc.get(), None);
        assert_eq!(ckpt.crc(), crc32(ckpt.data()));
        // A clone taken before the stamp equals one taken after, in every
        // rendering.
        let stamped = ckpt.clone();
        assert_eq!(format!("{unstamped:?}"), format!("{stamped:?}"));
        let bytes = |c: &Checkpoint| synergy_codec::to_bytes(c).unwrap();
        assert_eq!(bytes(&unstamped), bytes(&stamped));
        assert_eq!(unstamped, stamped);
        for len in [0, 1, 1023, LANES_MIN_LEN, 256 * 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let ckpt = Checkpoint {
                body: Body::Bytes(data.as_slice().into()),
                crc: OnceLock::new(),
                ..ckpt.clone()
            };
            assert_eq!(ckpt.crc(), crc32(&data), "len {len}");
        }
    }

    /// `sample()` behind a count of its `Codec::encode` calls.
    struct Counted {
        state: AppState,
        encodes: Arc<AtomicUsize>,
    }

    impl Codec for Counted {
        fn encode(&self, out: &mut Vec<u8>) {
            self.encodes.fetch_add(1, Ordering::Relaxed);
            self.state.encode(out);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Counted {
                state: AppState::decode(r)?,
                encodes: Arc::default(),
            })
        }
    }

    /// A deferred record of `sample()` and its encode counter.
    fn deferred() -> (Checkpoint, Arc<AtomicUsize>) {
        let encodes = Arc::new(AtomicUsize::new(0));
        let state = Counted {
            state: sample(),
            encodes: Arc::clone(&encodes),
        };
        let t = SimTime::from_secs_f64(2.5);
        (Checkpoint::deferred(7, t, "pseudo", state), encodes)
    }

    fn eager() -> Checkpoint {
        Checkpoint::encode(7, SimTime::from_secs_f64(2.5), "pseudo", &sample()).unwrap()
    }

    #[test]
    fn a_deferred_record_is_encoded_once_on_first_read_and_drops_its_state() {
        let (ckpt, encodes) = deferred();
        let copies: Vec<Checkpoint> = (0..4).map(|_| ckpt.clone()).collect();
        assert_eq!(ckpt.seq(), 7);
        assert_eq!(ckpt.taken_at(), SimTime::from_secs_f64(2.5));
        assert_eq!(ckpt.label(), "pseudo");
        assert_eq!(encodes.load(Ordering::Relaxed), 0, "not at construction");
        assert_eq!(Arc::strong_count(&encodes), 2, "the cell holds the state");
        assert!(copies[0].size_bytes() > 0);
        assert_eq!(encodes.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&encodes), 1, "state dropped once encoded");
        assert_eq!(copies[1].decode::<AppState>().unwrap(), sample());
        assert_eq!(copies[2].shared_data(), ckpt.shared_data());
        let _ = (copies[3].crc(), format!("{ckpt:?}"), ckpt == copies[3]);
        let _ = synergy_codec::to_bytes(&ckpt.clone()).unwrap();
        assert_eq!(encodes.load(Ordering::Relaxed), 1, "clones share one cell");
        // Clones read from several threads at once still encode once.
        let (ckpt, encodes) = deferred();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let copy = ckpt.clone();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    copy.crc()
                });
            }
        });
        assert_eq!(encodes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_read_of_a_deferred_record_encodes_it_first() {
        let reads: [fn(&mut Checkpoint); 9] = [
            |c| _ = c.shared_data(),
            |c| _ = c.size_bytes(),
            |c| _ = c.crc(),
            |c| _ = c.decode::<AppState>(),
            |c| _ = synergy_codec::to_bytes(&*c),
            |c| _ = *c == eager(),
            |c| _ = eager() == *c,
            |c| _ = format!("{c:?}"),
            |c| c.corrupt_bit(13),
        ];
        for (i, read) in reads.iter().enumerate() {
            let (mut ckpt, encodes) = deferred();
            read(&mut ckpt);
            assert_eq!(encodes.load(Ordering::Relaxed), 1, "read {i}");
        }
    }

    #[test]
    fn a_deferred_record_equals_the_eager_record_of_the_same_state() {
        let want = eager();
        let bytes = |c: &Checkpoint| synergy_codec::to_bytes(c).unwrap();
        // Each rendering is checked on an unread record of its own.
        assert_eq!(bytes(&deferred().0), bytes(&want));
        assert_eq!(deferred().0.shared_data(), want.shared_data());
        assert_eq!(deferred().0.crc(), want.crc());
        assert_eq!(format!("{:?}", deferred().0), format!("{want:?}"));
        assert_eq!(deferred().0, want);
        assert_eq!(want, deferred().0);
        // A deferred state whose encoding reads another deferred record.
        let t = SimTime::from_secs_f64(1.0);
        let outer = Checkpoint::deferred(1, t, "outer", deferred().0);
        let nested = Checkpoint::encode(1, t, "outer", &want).unwrap();
        assert_eq!(outer, nested);
        assert_eq!(outer.decode::<Checkpoint>().unwrap(), want);
    }

    #[test]
    fn corrupting_an_unread_deferred_record_stamps_the_crc_as_taken() {
        let (mut ckpt, _) = deferred();
        let clean = ckpt.clone();
        ckpt.corrupt_bit(13);
        match ckpt.decode::<AppState>() {
            Err(CheckpointError::CrcMismatch { expected, actual }) => {
                assert_eq!(expected, eager().crc());
                assert_eq!(actual, crc32(ckpt.data()));
                assert_ne!(expected, actual);
            }
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        assert_eq!(clean.decode::<AppState>().unwrap(), sample());
    }

    #[test]
    fn decoding_with_wrong_shape_fails() {
        let ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &42u8).unwrap();
        // u8 is one byte; u64 needs eight — must error, not garbage.
        assert!(ckpt.decode::<u64>().is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::CrcMismatch {
            expected: 1,
            actual: 2,
        };
        let text = e.to_string();
        assert!(text.contains("crc mismatch"), "{text}");
    }
}
