//! CRC-32 (IEEE 802.3) for checkpoint integrity.

/// Computes the CRC-32/ISO-HDLC checksum of `data` (the one used by zip,
/// Ethernet, PNG).
///
/// The building block is slice-by-8: eight table lookups fold one 64-bit
/// chunk into the register per step. On its own that is one serial
/// `crc → 8 loads → xor` chain, which leaves the core's load ports mostly
/// idle. Inputs of 1 KiB or more (`LANES_MIN_LEN`) are therefore split into
/// four equal lanes, each a multiple of 8 bytes, whose registers advance
/// side by side in one loop: four independent chains in flight. The first
/// lane starts from the usual all-ones register, the others from zero. The
/// lanes are then joined front to back: the running register is multiplied
/// by `x^(8·lane_len) mod P` — what feeding it `lane_len` zero bytes would
/// do — and the next lane's register is xored in. The CRC register is
/// linear over GF(2) in (state, data), so the result is exactly the
/// register a single pass holds after the same bytes. The `len % 32` bytes
/// left over, and every shorter input whole, go through the single-lane
/// loop.
///
/// The checksum is bit-identical to the classic byte-at-a-time table loop
/// at every length, so checksums stored in existing checkpoints and chain
/// records stay valid. One implementation for every target: safe Rust, no
/// architecture-specific path.
///
/// # Example
///
/// ```rust
/// use synergy_storage::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    let mut rest = data;
    if data.len() >= LANES_MIN_LEN {
        let lane_len = data.len() / 32 * 8;
        let (l0, r) = data.split_at(lane_len);
        let (l1, r) = r.split_at(lane_len);
        let (l2, r) = r.split_at(lane_len);
        let (l3, tail) = r.split_at(lane_len);
        let (mut c1, mut c2, mut c3) = (0u32, 0u32, 0u32);
        let chunks = l0
            .chunks_exact(8)
            .zip(l1.chunks_exact(8))
            .zip(l2.chunks_exact(8).zip(l3.chunks_exact(8)));
        for ((a, b), (c, d)) in chunks {
            crc = fold8(crc, a);
            c1 = fold8(c1, b);
            c2 = fold8(c2, c);
            c3 = fold8(c3, d);
        }
        let shift = x8n_mod_p(lane_len);
        crc = mul_mod_p(shift, crc) ^ c1;
        crc = mul_mod_p(shift, crc) ^ c2;
        crc = mul_mod_p(shift, crc) ^ c3;
        rest = tail;
    }
    let mut chunks = rest.chunks_exact(8);
    for c in chunks.by_ref() {
        crc = fold8(crc, c);
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    !crc
}

/// The CRC-32 of `a‖b` from `crc32(a)`, `crc32(b)` and the length of `b`
/// (zlib's `crc32_combine`), without touching a byte of either: `crc_a` is
/// advanced over `len_b` zero bytes — multiplied by `x^(8·len_b) mod P` —
/// and `crc_b` xored in, the same two steps [`crc32`] joins its lanes with.
/// A record that embeds an already-hashed image after a short header is
/// checksummed this way: hash the header, combine.
///
/// It holds for raw registers as it does for finished checksums, given
/// that `b`'s register started from zero.
///
/// # Example
///
/// ```rust
/// use synergy_storage::{crc32, crc32_combine};
///
/// let (a, b) = (b"check".as_slice(), b"point".as_slice());
/// assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(b"checkpoint"));
/// ```
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    mul_mod_p(x8n_mod_p(len_b), crc_a) ^ crc_b
}

/// Inputs shorter than this take the single-lane loop only. Measured on
/// mixed lengths (so the joins' branches are not learnt): the lanes lose
/// under 512 bytes (the three joins are ≈ 0.12–0.25 µs, more when the lane
/// length has many set bits), win by 15–25 % from 512 to 1 KiB depending on
/// the lane length, and by ≥ 1.5× at every length from 1 KiB up.
const LANES_MIN_LEN: usize = 1024;

/// Folds the 8-byte chunk `c` into the register `crc` (slice-by-8 step).
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// The reflected CRC-32 polynomial `P` (bit 31 is the coefficient of `x^0`).
const POLY: u32 = 0xEDB8_8320;

/// `a(x) · b(x) mod P` over GF(2), operands and result bit-reflected like
/// the CRC register (zlib's `multmodp`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X8_POW2[k]` is `x^(8·2^k) mod P`: the operator that advances a register
/// over `2^k` zero bytes.
const X8_POW2: [u32; usize::BITS as usize] = {
    let mut t = [0u32; usize::BITS as usize];
    // x^8: bit 31 is x^0, so x^8 is bit 23.
    t[0] = 1 << 23;
    let mut k = 1;
    while k < t.len() {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8·n) mod P`, by square-and-multiply over the set bits of `n`
/// (zlib's `x2nmodp`).
fn x8n_mod_p(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 0;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X8_POW2[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// `TABLES[0]` is the classic CRC-32 table; `TABLES[n][i]` extends it with
/// `n` extra zero bytes, which is what lets eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    use synergy_des::DetRng;

    /// One step of the classic single-table loop, on the raw register.
    fn bytewise_step(reg: u32, byte: u8) -> u32 {
        (reg >> 8) ^ TABLES[0][((reg ^ u32::from(byte)) & 0xFF) as usize]
    }

    /// The reference byte-at-a-time implementation every path must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(0xFFFF_FFFF, |reg, &b| bytewise_step(reg, b))
    }

    fn random_bytes(label: &str, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        DetRng::new(17).stream(label).fill_bytes(&mut data);
        data
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length() {
        // Every chunk/remainder split of the single-lane loop, the
        // crossover itself, and every lane-length / tail split (the tail
        // cycles through 0..32) well into the four-lane path.
        let data = random_bytes("every-length", 4 * LANES_MIN_LEN + 64);
        // The reference register is carried from prefix to prefix, so the
        // sweep is linear in the reference and quadratic only in `crc32`.
        let mut reg = 0xFFFF_FFFF_u32;
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), !reg, "mismatch at length {len}");
            if let Some(&byte) = data.get(len) {
                reg = bytewise_step(reg, byte);
            }
        }
        assert_eq!(!reg, crc32_bytewise(&data));
    }

    #[test]
    fn matches_bytewise_on_unaligned_lanes() {
        let data = random_bytes("unaligned", 2 * LANES_MIN_LEN + 40);
        for offset in 1..8 {
            for trim in 0..33 {
                let sub = &data[offset..data.len() - trim];
                assert_eq!(
                    crc32(sub),
                    crc32_bytewise(sub),
                    "mismatch at offset {offset}, length {}",
                    sub.len()
                );
            }
        }
    }

    #[test]
    fn matches_bytewise_on_checkpoint_sized_buffers() {
        // The ckpt_* image and its wrapped record (16-byte header + 8).
        for len in [256 * 1024, 256 * 1024 + 24] {
            for (name, data) in [
                ("zeros", vec![0u8; len]),
                ("ones", vec![0xFFu8; len]),
                ("random", random_bytes("image", len)),
            ] {
                assert_eq!(crc32(&data), crc32_bytewise(&data), "{name} x {len}");
            }
        }
    }

    #[test]
    fn join_concatenates_checksums() {
        let data = random_bytes("join", 3 * LANES_MIN_LEN);
        let whole = crc32_bytewise(&data);
        let mut rng = DetRng::new(17).stream("splits");
        let random_splits = (0..64).map(|_| rng.gen_range(0..=data.len() as u64) as usize);
        // `b` empty, `a` empty, one byte either side, then random splits.
        for at in [data.len(), 0, 1, data.len() - 1]
            .into_iter()
            .chain(random_splits)
        {
            let (a, b) = data.split_at(at);
            assert_eq!(
                crc32_combine(crc32_bytewise(a), crc32_bytewise(b), b.len()),
                whole,
                "split at {at}"
            );
        }
    }

    #[test]
    fn shift_operator_is_zero_bytes() {
        // Combining the register holding x^0 with an empty `b` of length n
        // leaves the shift operator itself, x^(8n) mod P: what n zero bytes
        // through the byte table make of that register.
        const X0: u32 = 1 << 31;
        assert_eq!(crc32_combine(X0, 0, 0), X0);
        for n in [1usize, 2, 3, 8, 255, 256, 65_536, 65_542] {
            let reg = (0..n).fold(X0, |reg, _| bytewise_step(reg, 0));
            assert_eq!(crc32_combine(X0, 0, n), reg, "n = {n}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let original = b"checkpoint state bytes".to_vec();
        let base = crc32(&original);
        for bit in 0..original.len() * 8 {
            let mut corrupted = original.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), base, "undetected flip at bit {bit}");
        }
    }

    #[test]
    fn differs_for_reordered_bytes() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
