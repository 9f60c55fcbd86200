//! Dirty-region delta patches between checkpoint images.
//!
//! A delta records only the byte regions of the new image that differ from
//! the base image, at a fixed [`REGION_SIZE`] granularity (adjacent dirty
//! regions are merged). Integrity is layered: the patch carries the CRC of
//! the base it was diffed against (applying to the wrong base is refused,
//! not silently wrong) and the CRC of the image it must reconstruct
//! (a bad apply is refused, not served).
//!
//! Who hashes what, once: the public [`DeltaPatch::diff`] and
//! [`DeltaPatch::apply`] serve callers that hold no CRC, so `diff` hashes
//! both images and `apply` hashes its base before and its result after.
//! The chain codec and walker hold CRCs they computed or verified
//! themselves and use the crate-private forms that carry them — the codec
//! diffs without hashing either image, the walker compares `base_crc` with
//! the CRC it already holds and applies without re-hashing the base. The
//! rebuilt-image CRC, the growth bound and the region bounds run on every
//! path.

use synergy_codec::codec_struct;
use synergy_storage::crc32;

use core::fmt;
use std::sync::Arc;

/// Dirty-region granularity in bytes. Small enough that a few mutated
/// counters do not drag whole kilobytes into the patch, large enough that
/// region bookkeeping (16 bytes per region) stays a fraction of the payload.
pub const REGION_SIZE: usize = 64;

/// One contiguous run of bytes that differs from the base image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyRegion {
    /// Byte offset into the new image.
    pub offset: u64,
    /// The new bytes at that offset.
    pub bytes: Vec<u8>,
}

codec_struct!(DirtyRegion { offset, bytes });

/// Why applying a [`DeltaPatch`] was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The base image is not the one the patch was diffed against.
    BaseMismatch {
        /// CRC of the base the patch expects.
        expected: u32,
        /// CRC of the base supplied.
        actual: u32,
    },
    /// The reconstructed image failed its CRC — the patch is corrupt.
    ImageMismatch {
        /// CRC the reconstructed image must have.
        expected: u32,
        /// CRC the reconstruction actually produced.
        actual: u32,
    },
    /// A region reaches past the declared image length (corrupt patch).
    RegionOutOfBounds {
        /// Offset of the offending region.
        offset: u64,
        /// Length of the offending region.
        len: u64,
        /// Declared length of the new image.
        image_len: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => write!(
                f,
                "delta base mismatch: patch expects base crc {expected:#010x}, got {actual:#010x}"
            ),
            DeltaError::ImageMismatch { expected, actual } => write!(
                f,
                "delta image mismatch: expected crc {expected:#010x}, rebuilt {actual:#010x}"
            ),
            DeltaError::RegionOutOfBounds {
                offset,
                len,
                image_len,
            } => write!(
                f,
                "delta region [{offset}, {offset}+{len}) exceeds image length {image_len}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A dirty-region delta from one checkpoint image to the next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPatch {
    /// CRC-32 of the base image this patch applies to.
    pub base_crc: u32,
    /// CRC-32 of the image the patch reconstructs.
    pub image_crc: u32,
    /// Length of the reconstructed image (images may grow or shrink).
    pub new_len: u64,
    /// The differing regions, ascending by offset, non-overlapping.
    pub regions: Vec<DirtyRegion>,
}

codec_struct!(DeltaPatch {
    base_crc,
    image_crc,
    new_len,
    regions
});

/// Walks the dirty spans between `base` and `new` at [`REGION_SIZE`]
/// granularity, calling `f(offset, len)` for each merged span of `new`.
/// Spans cover every byte of `new` that differs from `base` (including the
/// tail when `new` is longer), so `base → apply` reconstructs exactly.
pub(crate) fn dirty_spans(base: &[u8], new: &[u8], mut f: impl FnMut(usize, usize)) {
    let pages = new.len().div_ceil(REGION_SIZE);
    let mut span_start: Option<usize> = None;
    for page in 0..pages {
        let start = page * REGION_SIZE;
        let end = (start + REGION_SIZE).min(new.len());
        let dirty = base.get(start..end) != Some(&new[start..end]);
        match (dirty, span_start) {
            (true, None) => span_start = Some(start),
            (false, Some(s)) => {
                f(s, start - s);
                span_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = span_start {
        f(s, new.len() - s);
    }
}

impl DeltaPatch {
    /// Diffs `new` against `base`, hashing both images for the patch's CRCs.
    pub fn diff(base: &[u8], new: &[u8]) -> DeltaPatch {
        Self::diff_with_crcs(base, crc32(base), new, crc32(new))
    }

    /// Diffs `new` against `base` for a caller that already holds both image
    /// CRCs (the codec: its chain position and [`Checkpoint::crc`]). The
    /// CRCs are carried as given, not re-derived: a stale `image_crc` yields
    /// a patch whose own apply refuses it.
    ///
    /// [`Checkpoint::crc`]: synergy_storage::Checkpoint::crc
    pub(crate) fn diff_with_crcs(
        base: &[u8],
        base_crc: u32,
        new: &[u8],
        image_crc: u32,
    ) -> DeltaPatch {
        let mut regions = Vec::new();
        dirty_spans(base, new, |offset, len| {
            regions.push(DirtyRegion {
                offset: offset as u64,
                bytes: new[offset..offset + len].to_vec(),
            });
        });
        DeltaPatch {
            base_crc,
            image_crc,
            new_len: new.len() as u64,
            regions,
        }
    }

    /// Applies the patch to `base`, verifying the base CRC before and the
    /// image CRC after.
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] when the base is not the diffed-against
    /// image, a region is out of bounds, or the reconstruction fails its
    /// CRC — the caller must fall back rather than serve the result.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let actual = crc32(base);
        if actual != self.base_crc {
            return Err(DeltaError::BaseMismatch {
                expected: self.base_crc,
                actual,
            });
        }
        let new_len = self.checked_new_len(base.len())?;
        self.rebuild_resized(base, new_len)
    }

    /// [`apply`](Self::apply) for a caller that has itself hashed `base` and
    /// compared the result with [`base_crc`](Self::base_crc) (the chain
    /// walker): only the base re-hash is skipped. The image is built
    /// directly in its shared buffer — one allocation and one copy when the
    /// length is unchanged.
    pub(crate) fn apply_to_verified_base(&self, base: &[u8]) -> Result<Arc<[u8]>, DeltaError> {
        let new_len = self.checked_new_len(base.len())?;
        if new_len != base.len() {
            return self.rebuild_resized(base, new_len).map(Arc::from);
        }
        let mut image = Arc::<[u8]>::from(base);
        let bytes = Arc::get_mut(&mut image).expect("a freshly built Arc has one owner");
        self.patch_in_place(bytes)?;
        Ok(image)
    }

    /// The declared image length, once it passes the growth sanity bound:
    /// every byte past the base's length differs from the (absent) base, so
    /// a well-formed patch carries it in a region. A `new_len` exceeding
    /// base + region bytes is corrupt — refused before any allocation.
    fn checked_new_len(&self, base_len: usize) -> Result<usize, DeltaError> {
        let out_of_bounds = DeltaError::RegionOutOfBounds {
            offset: 0,
            len: 0,
            image_len: self.new_len,
        };
        if self.new_len > base_len as u64 + self.region_bytes() {
            return Err(out_of_bounds);
        }
        usize::try_from(self.new_len).map_err(|_| out_of_bounds)
    }

    /// The grow / shrink route: copies `base` into a vector of `new_len`
    /// bytes and patches that.
    fn rebuild_resized(&self, base: &[u8], new_len: usize) -> Result<Vec<u8>, DeltaError> {
        let mut image = base.to_vec();
        image.resize(new_len, 0);
        self.patch_in_place(&mut image)?;
        Ok(image)
    }

    /// Writes the regions over `image` (the base's bytes, already sized to
    /// `new_len`), bounds-checking each before the write, then verifies the
    /// rebuilt image against [`image_crc`](Self::image_crc).
    fn patch_in_place(&self, image: &mut [u8]) -> Result<(), DeltaError> {
        for region in &self.regions {
            let offset = region.offset as usize;
            let end = offset.checked_add(region.bytes.len());
            match end {
                Some(end) if end <= image.len() => {
                    image[offset..end].copy_from_slice(&region.bytes);
                }
                _ => {
                    return Err(DeltaError::RegionOutOfBounds {
                        offset: region.offset,
                        len: region.bytes.len() as u64,
                        image_len: self.new_len,
                    })
                }
            }
        }
        let rebuilt = crc32(image);
        if rebuilt != self.image_crc {
            return Err(DeltaError::ImageMismatch {
                expected: self.image_crc,
                actual: rebuilt,
            });
        }
        Ok(())
    }

    /// Total payload bytes carried by the regions.
    pub fn region_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes.len() as u64).sum()
    }
}

/// Seed value for the first link of a chain (a full image restarts the
/// chain from this constant rather than from a predecessor).
pub const CHAIN_SEED: u32 = 0x5943_4B43; // "CKCY"

/// Chains a record onto its predecessor: the link CRC binds the previous
/// link's CRC to this record's image CRC, so one flipped bit anywhere in a
/// chain breaks that link and every later link.
pub fn chain_link(prev_chain_crc: u32, image_crc: u32) -> u32 {
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&prev_chain_crc.to_le_bytes());
    buf[4..].copy_from_slice(&image_crc.to_le_bytes());
    crc32(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_of_identical_images_is_empty() {
        let img = vec![7u8; 1000];
        let patch = DeltaPatch::diff(&img, &img);
        assert!(patch.regions.is_empty());
        assert_eq!(patch.apply(&img).unwrap(), img);
    }

    #[test]
    fn single_byte_change_costs_one_region() {
        let base = vec![0u8; 4096];
        let mut new = base.clone();
        new[1000] = 0xFF;
        let patch = DeltaPatch::diff(&base, &new);
        assert_eq!(patch.regions.len(), 1);
        assert!(patch.region_bytes() as usize <= REGION_SIZE);
        assert_eq!(patch.apply(&base).unwrap(), new);
    }

    #[test]
    fn adjacent_dirty_pages_merge() {
        let base = vec![0u8; 4096];
        let mut new = base.clone();
        // Dirty a run crossing three page boundaries.
        for b in new.iter_mut().take(300).skip(100) {
            *b = 1;
        }
        let patch = DeltaPatch::diff(&base, &new);
        assert_eq!(patch.regions.len(), 1, "one merged region: {patch:?}");
        assert_eq!(patch.apply(&base).unwrap(), new);
    }

    #[test]
    fn growth_and_shrink_roundtrip() {
        let base = vec![3u8; 500];
        let grown = vec![4u8; 900];
        let patch = DeltaPatch::diff(&base, &grown);
        assert_eq!(patch.apply(&base).unwrap(), grown);
        let shrunk = base[..120].to_vec();
        let patch = DeltaPatch::diff(&base, &shrunk);
        assert_eq!(patch.apply(&base).unwrap(), shrunk);
        let empty: Vec<u8> = Vec::new();
        let patch = DeltaPatch::diff(&base, &empty);
        assert_eq!(patch.apply(&base).unwrap(), empty);
    }

    #[test]
    fn wrong_base_is_refused() {
        let base = vec![0u8; 256];
        let mut new = base.clone();
        new[0] = 1;
        let patch = DeltaPatch::diff(&base, &new);
        let other = vec![9u8; 256];
        assert!(matches!(
            patch.apply(&other),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_region_is_refused_by_image_crc() {
        let base = vec![0u8; 256];
        let mut new = base.clone();
        new[10] = 1;
        let mut patch = DeltaPatch::diff(&base, &new);
        patch.regions[0].bytes[0] ^= 0x80;
        assert!(matches!(
            patch.apply(&base),
            Err(DeltaError::ImageMismatch { .. })
        ));
    }

    #[test]
    fn out_of_bounds_region_is_refused() {
        let base = vec![0u8; 64];
        let mut new = base.clone();
        new[0] = 1;
        let mut patch = DeltaPatch::diff(&base, &new);
        patch.regions[0].offset = 1000;
        assert!(matches!(
            patch.apply(&base),
            Err(DeltaError::RegionOutOfBounds { .. })
        ));
    }

    #[test]
    fn crate_private_forms_agree_with_the_public_ones() {
        let base = vec![3u8; 500];
        let mut same_len = base.clone();
        same_len[77] = 9;
        for new in [same_len, vec![4u8; 900], base[..120].to_vec(), Vec::new()] {
            let patch = DeltaPatch::diff(&base, &new);
            assert_eq!(
                DeltaPatch::diff_with_crcs(&base, crc32(&base), &new, crc32(&new)),
                patch
            );
            let shared = patch.apply_to_verified_base(&base).unwrap();
            assert_eq!(shared.as_ref(), &patch.apply(&base).unwrap()[..]);
        }
    }

    #[test]
    fn verified_base_form_keeps_every_check_but_the_base_hash() {
        let base = vec![0u8; 256];
        let mut new = base.clone();
        new[10] = 1;
        let clean = DeltaPatch::diff(&base, &new);

        let mut flipped = clean.clone();
        flipped.regions[0].bytes[0] ^= 0x80;
        let mut stale = clean.clone();
        stale.image_crc ^= 1;
        for patch in [&flipped, &stale] {
            assert!(matches!(
                patch.apply_to_verified_base(&base),
                Err(DeltaError::ImageMismatch { .. })
            ));
        }

        let mut outside = clean.clone();
        outside.regions[0].offset = 1000;
        let mut overlong = clean.clone();
        overlong.new_len = u64::MAX;
        for patch in [&outside, &overlong] {
            assert_eq!(
                patch.apply_to_verified_base(&base),
                patch.apply(&base).map(Arc::from)
            );
            assert!(matches!(
                patch.apply(&base),
                Err(DeltaError::RegionOutOfBounds { .. })
            ));
        }
    }

    #[test]
    fn chain_link_is_order_sensitive() {
        let a = chain_link(CHAIN_SEED, 1);
        let b = chain_link(a, 2);
        let b_swapped = chain_link(chain_link(CHAIN_SEED, 2), 1);
        assert_ne!(b, b_swapped, "links must bind position, not just content");
    }
}
