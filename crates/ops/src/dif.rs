//! T10 Data Integrity Field (DIF) operations.
//!
//! Storage stacks protect each logical block with an 8-byte protection
//! information (PI) tuple: a CRC16 *guard tag* over the block data, a
//! 2-byte *application tag*, and a 4-byte *reference tag* (typically the
//! lower bits of the LBA, incremented per block). DSA processes DIF at
//! stream rate for 512/520/4096/4104-byte blocks (paper Table 1); software
//! implementations run at a few GB/s, which is why DIF shows some of the
//! largest offload speedups.
//!
//! The guard uses CRC-16/T10-DIF: polynomial `0x8BB7`, no reflection, zero
//! init/xorout (check value `0xD0DB` over `"123456789"`).

/// Source-block sizes DSA supports for DIF operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DifBlockSize {
    /// 512-byte blocks (classic sector).
    B512,
    /// 520-byte blocks (sector + legacy 8-byte trailer kept as data).
    B520,
    /// 4096-byte blocks (4K-native sector).
    B4096,
    /// 4104-byte blocks.
    B4104,
}

impl DifBlockSize {
    /// Block size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            DifBlockSize::B512 => 512,
            DifBlockSize::B520 => 520,
            DifBlockSize::B4096 => 4096,
            DifBlockSize::B4104 => 4104,
        }
    }

    /// Stable 2-bit code for fixed-width encodings (descriptor wire
    /// format, compiled op-program instruction words).
    pub const fn code(self) -> u8 {
        match self {
            DifBlockSize::B512 => 0,
            DifBlockSize::B520 => 1,
            DifBlockSize::B4096 => 2,
            DifBlockSize::B4104 => 3,
        }
    }

    /// Inverse of [`code`](Self::code). Total: only the low 2 bits are
    /// significant, so every input decodes to a valid block size.
    pub const fn from_code(code: u8) -> DifBlockSize {
        match code & 3 {
            0 => DifBlockSize::B512,
            1 => DifBlockSize::B520,
            2 => DifBlockSize::B4096,
            _ => DifBlockSize::B4104,
        }
    }
}

/// The 8-byte protection-information tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifTuple {
    /// CRC-16/T10-DIF over the block data.
    pub guard: u16,
    /// Application tag (opaque to the device).
    pub app_tag: u16,
    /// Reference tag (usually low LBA bits; incremented per block).
    pub ref_tag: u32,
}

impl DifTuple {
    /// Serializes to the on-wire big-endian layout.
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..2].copy_from_slice(&self.guard.to_be_bytes());
        out[2..4].copy_from_slice(&self.app_tag.to_be_bytes());
        out[4..].copy_from_slice(&self.ref_tag.to_be_bytes());
        out
    }

    /// Parses from the on-wire layout.
    pub fn from_bytes(b: &[u8; 8]) -> DifTuple {
        DifTuple {
            guard: u16::from_be_bytes([b[0], b[1]]),
            app_tag: u16::from_be_bytes([b[2], b[3]]),
            ref_tag: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        }
    }
}

/// A DIF verification failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifError {
    /// Index of the offending block.
    pub block: usize,
    /// Which tag mismatched.
    pub kind: DifErrorKind,
}

/// The tag that failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DifErrorKind {
    /// Guard (CRC) mismatch — data corruption.
    Guard,
    /// Reference-tag mismatch — misplaced block.
    RefTag,
    /// Application-tag mismatch.
    AppTag,
}

impl std::fmt::Display for DifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DIF {:?} mismatch in block {}", self.kind, self.block)
    }
}

impl std::error::Error for DifError {}

/// CRC-16/T10-DIF (non-reflected, poly 0x8BB7, init 0).
///
/// On x86-64 hosts with `PCLMULQDQ` and SSSE3, inputs of two or more
/// 16-byte chunks are folded with carry-less multiplies; everything else,
/// and the test oracle for that path, is a slice-by-16 table.
pub fn crc16_t10(data: &[u8]) -> u16 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= 32
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: the CPU was just checked to support both features.
        return unsafe { crc16_t10_clmul(data) };
    }
    crc16_t10_update(0, data)
}

/// Slice-by-16 tables: `T10[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes, so sixteen lookups absorb a 16-byte chunk.
static T10: [[u16; 256]; 16] = build_t10_tables();

const fn build_t10_tables() -> [[u16; 256]; 16] {
    let mut t = [[0u16; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x8BB7 } else { crc << 1 };
            b += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Continues a CRC-16/T10-DIF over `data` from state `crc`.
fn crc16_t10_update(mut crc: u16, data: &[u8]) -> u16 {
    let (chunks, rest) = data.as_chunks::<16>();
    for c in chunks {
        let [hi, lo] = crc.to_be_bytes();
        let mut x = T10[15][(c[0] ^ hi) as usize] ^ T10[14][(c[1] ^ lo) as usize];
        for j in 2..16 {
            x ^= T10[15 - j][c[j] as usize];
        }
        crc = x;
    }
    for &b in rest {
        crc = (crc << 8) ^ T10[0][((crc >> 8) as u8 ^ b) as usize];
    }
    crc
}

/// `x^n mod P` for the T10-DIF polynomial, as a carry-less multiplier.
const fn xpow_mod_t10(n: u32) -> i64 {
    let mut r: u32 = 1;
    let mut i = 0;
    while i < n {
        r <<= 1;
        if r & 0x1_0000 != 0 {
            r ^= 0x1_8BB7;
        }
        i += 1;
    }
    r as i64
}

/// CRC-16/T10-DIF by carry-less folding (the `PCLMULQDQ` method of Intel's
/// "Fast CRC Computation for Generic Polynomials"), bit-identical to
/// `crc16_t10_update(0, ..)`.
///
/// Each 16-byte chunk is read big-endian as a 128-bit polynomial. An
/// accumulator `X = H·x^64 + L` moves `n` bits down the message as
/// `H·(x^(n+64) mod P) + L·(x^n mod P)`, which stays congruent to `X·x^n`
/// modulo `P` and fits in 80 bits. Four accumulators fold 64 bytes per step
/// to hide the multiply latency, then merge; the table finishes the last
/// residue and the tail.
///
/// # Safety
///
/// The CPU must support `PCLMULQDQ` and SSSE3.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn crc16_t10_clmul(data: &[u8]) -> u16 {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };
    let bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // SAFETY: `_mm_loadu_si128` has no alignment requirement and reads
    // exactly the 16 bytes of `c`.
    let load =
        |c: &[u8; 16]| _mm_shuffle_epi8(unsafe { _mm_loadu_si128(c.as_ptr().cast()) }, bswap);
    let fold = |x: __m128i, k: __m128i| {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x11>(x, k), _mm_clmulepi64_si128::<0x00>(x, k))
    };
    const K: [i64; 4] =
        [xpow_mod_t10(128), xpow_mod_t10(192), xpow_mod_t10(512), xpow_mod_t10(576)];
    let by128 = _mm_set_epi64x(K[1], K[0]);
    let by512 = _mm_set_epi64x(K[3], K[2]);

    let (chunks, rest) = data.as_chunks::<16>();
    let mut x = load(&chunks[0]);
    let mut next = 1;
    if chunks.len() >= 8 {
        let mut acc = [x, load(&chunks[1]), load(&chunks[2]), load(&chunks[3])];
        next = 4;
        while next + 4 <= chunks.len() {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = _mm_xor_si128(fold(*a, by512), load(&chunks[next + j]));
            }
            next += 4;
        }
        x = acc[0];
        for a in &acc[1..] {
            x = _mm_xor_si128(fold(x, by128), *a);
        }
    }
    for c in &chunks[next..] {
        x = _mm_xor_si128(fold(x, by128), load(c));
    }
    let mut residue = [0u8; 16];
    // SAFETY: `_mm_storeu_si128` has no alignment requirement and writes
    // exactly the 16 bytes of `residue`.
    unsafe { _mm_storeu_si128(residue.as_mut_ptr().cast(), _mm_shuffle_epi8(x, bswap)) };
    crc16_t10_update(crc16_t10_update(0, &residue), rest)
}

/// Seed tags for a DIF pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifConfig {
    /// Block size.
    pub block: DifBlockSize,
    /// Application tag written/expected on every block.
    pub app_tag: u16,
    /// Reference tag of the first block; increments per block.
    pub starting_ref_tag: u32,
}

impl DifConfig {
    /// A common default: 512-byte blocks, zero tags.
    pub fn new(block: DifBlockSize) -> DifConfig {
        DifConfig { block, app_tag: 0, starting_ref_tag: 0 }
    }

    /// Packs the config into one `u64` operand word for fixed-width
    /// instruction encodings: bits 0-7 block code, 16-31 app tag,
    /// 32-63 starting ref tag.
    pub const fn pack(self) -> u64 {
        (self.block.code() as u64)
            | ((self.app_tag as u64) << 16)
            | ((self.starting_ref_tag as u64) << 32)
    }

    /// Inverse of [`pack`](Self::pack). Total — every word decodes to a
    /// valid config — so compiled programs never need a fallible decode.
    pub const fn unpack(word: u64) -> DifConfig {
        DifConfig {
            block: DifBlockSize::from_code(word as u8),
            app_tag: (word >> 16) as u16,
            starting_ref_tag: (word >> 32) as u32,
        }
    }
}

/// Inserts DIF tuples: `src` must be whole blocks; returns blocks with an
/// 8-byte PI appended to each (the DIF Insert operation).
///
/// # Errors
///
/// Returns `Err` if `src` is not a multiple of the block size.
pub fn dif_insert(cfg: &DifConfig, src: &[u8]) -> Result<Vec<u8>, DifLayoutError> {
    let bs = cfg.block.bytes();
    let len = src.len() / bs * (bs + 8);
    // dsa-lint: allow(hot-alloc, the Vec-returning wrappers allocate their result by contract)
    let mut out = vec![0; len];
    dif_insert_into(cfg, src, &mut out)?;
    Ok(out)
}

/// [`dif_insert`] into a caller buffer: `dst` receives each block of `src`
/// followed by its 8-byte PI, so it must be exactly
/// `src.len() / block * (block + 8)` bytes.
///
/// # Errors
///
/// Returns `Err` if `src` is not a positive multiple of the block size, or
/// if `dst` is not exactly the protected length.
pub fn dif_insert_into(cfg: &DifConfig, src: &[u8], dst: &mut [u8]) -> Result<(), DifLayoutError> {
    let bs = cfg.block.bytes();
    if src.is_empty() || !src.len().is_multiple_of(bs) {
        return Err(DifLayoutError { len: src.len(), block: bs });
    }
    if dst.len() != src.len() / bs * (bs + 8) {
        return Err(DifLayoutError { len: dst.len(), block: bs + 8 });
    }
    for (i, (data, out)) in src.chunks_exact(bs).zip(dst.chunks_exact_mut(bs + 8)).enumerate() {
        let (body, pi) = out.split_at_mut(bs);
        body.copy_from_slice(data);
        let tuple = DifTuple {
            guard: crc16_t10(data),
            app_tag: cfg.app_tag,
            ref_tag: cfg.starting_ref_tag.wrapping_add(i as u32),
        };
        pi.copy_from_slice(&tuple.to_bytes());
    }
    Ok(())
}

/// Verifies DIF tuples in `protected` (the DIF Check operation).
///
/// # Errors
///
/// Returns the first [`DifError`] encountered, or a layout error if the
/// input is not a whole number of protected blocks.
pub fn dif_check(cfg: &DifConfig, protected: &[u8]) -> Result<(), DifCheckError> {
    let bs = cfg.block.bytes() + 8;
    if protected.is_empty() || !protected.len().is_multiple_of(bs) {
        return Err(DifCheckError::Layout(DifLayoutError { len: protected.len(), block: bs }));
    }
    for (i, chunk) in protected.chunks_exact(bs).enumerate() {
        let (data, pi) = chunk.split_at(cfg.block.bytes());
        // dsa-lint: allow(unwrap, split_at of a (block + 8)-byte chunk leaves exactly 8 PI bytes)
        let tuple = DifTuple::from_bytes(pi.try_into().expect("8-byte PI"));
        if tuple.guard != crc16_t10(data) {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::Guard }));
        }
        if tuple.ref_tag != cfg.starting_ref_tag.wrapping_add(i as u32) {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::RefTag }));
        }
        if tuple.app_tag != cfg.app_tag {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::AppTag }));
        }
    }
    Ok(())
}

/// Strips DIF tuples, returning the raw data (the DIF Strip operation).
/// Verification is performed first, as the hardware does.
///
/// # Errors
///
/// Propagates verification/layout failures.
pub fn dif_strip(cfg: &DifConfig, protected: &[u8]) -> Result<Vec<u8>, DifCheckError> {
    let bs = cfg.block.bytes();
    let len = protected.len() / (bs + 8) * bs;
    // dsa-lint: allow(hot-alloc, the Vec-returning wrappers allocate their result by contract)
    let mut out = vec![0; len];
    dif_strip_into(cfg, protected, &mut out)?;
    Ok(out)
}

/// [`dif_strip`] into a caller buffer of exactly the unprotected length.
/// Nothing is written unless every block verifies.
///
/// # Errors
///
/// Propagates verification/layout failures; a `dst` of the wrong length is
/// a layout error.
pub fn dif_strip_into(
    cfg: &DifConfig,
    protected: &[u8],
    dst: &mut [u8],
) -> Result<(), DifCheckError> {
    dif_check(cfg, protected)?;
    let bs = cfg.block.bytes();
    if dst.len() != protected.len() / (bs + 8) * bs {
        return Err(DifCheckError::Layout(DifLayoutError { len: dst.len(), block: bs }));
    }
    for (chunk, out) in protected.chunks_exact(bs + 8).zip(dst.chunks_exact_mut(bs)) {
        out.copy_from_slice(&chunk[..bs]);
    }
    Ok(())
}

/// Re-tags protected data: verifies against `src_cfg`, then rewrites the
/// tuples for `dst_cfg` (the DIF Update operation, used when blocks move to
/// a new LBA range).
///
/// # Errors
///
/// Propagates verification/layout failures against `src_cfg`.
pub fn dif_update(
    src_cfg: &DifConfig,
    dst_cfg: &DifConfig,
    protected: &[u8],
) -> Result<Vec<u8>, DifCheckError> {
    // dsa-lint: allow(hot-alloc, the Vec-returning wrappers allocate their result by contract)
    let mut out = vec![0; protected.len()];
    dif_update_into(src_cfg, dst_cfg, protected, &mut out)?;
    Ok(out)
}

/// [`dif_update`] into a caller buffer of exactly `protected.len()` bytes.
/// Blocks keep `src_cfg`'s size. Nothing is written unless every block
/// verifies.
///
/// # Errors
///
/// Propagates verification/layout failures against `src_cfg`; a `dst` of
/// the wrong length is a layout error.
pub fn dif_update_into(
    src_cfg: &DifConfig,
    dst_cfg: &DifConfig,
    protected: &[u8],
    dst: &mut [u8],
) -> Result<(), DifCheckError> {
    dif_check(src_cfg, protected)?;
    let bs = src_cfg.block.bytes();
    if dst.len() != protected.len() {
        return Err(DifCheckError::Layout(DifLayoutError { len: dst.len(), block: bs + 8 }));
    }
    for (i, (chunk, out)) in
        protected.chunks_exact(bs + 8).zip(dst.chunks_exact_mut(bs + 8)).enumerate()
    {
        let (data, pi) = chunk.split_at(bs);
        let (body, out_pi) = out.split_at_mut(bs);
        body.copy_from_slice(data);
        // The check above proved each stored guard equals the block's CRC.
        let guard = u16::from_be_bytes([pi[0], pi[1]]);
        let tuple = DifTuple {
            guard,
            app_tag: dst_cfg.app_tag,
            ref_tag: dst_cfg.starting_ref_tag.wrapping_add(i as u32),
        };
        out_pi.copy_from_slice(&tuple.to_bytes());
    }
    Ok(())
}

/// Input length is not a whole number of blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifLayoutError {
    /// Offending input length.
    pub len: usize,
    /// Required block granularity.
    pub block: usize,
}

impl std::fmt::Display for DifLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input length {} is not a positive multiple of {}", self.len, self.block)
    }
}

impl std::error::Error for DifLayoutError {}

/// Failure modes of DIF verification passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DifCheckError {
    /// The input shape was wrong.
    Layout(DifLayoutError),
    /// A tag failed to verify.
    Dif(DifError),
}

impl std::fmt::Display for DifCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DifCheckError::Layout(e) => write!(f, "{e}"),
            DifCheckError::Dif(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DifCheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_t10_check_value() {
        assert_eq!(crc16_t10(b"123456789"), 0xD0DB);
    }

    #[test]
    fn dif_config_pack_roundtrips() {
        for block in
            [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096, DifBlockSize::B4104]
        {
            for (app, rtag) in [(0u16, 0u32), (0xBEEF, 1), (7, u32::MAX), (u16::MAX, 0xDEAD_00FF)] {
                let cfg = DifConfig { block, app_tag: app, starting_ref_tag: rtag };
                assert_eq!(DifConfig::unpack(cfg.pack()), cfg);
                assert_eq!(DifBlockSize::from_code(block.code()), block);
            }
        }
    }

    #[test]
    fn dif_config_unpack_is_total() {
        // Arbitrary garbage decodes to *some* valid config: the block code
        // is masked to 2 bits and the tags take the word bits verbatim.
        let cfg = DifConfig::unpack(u64::MAX);
        assert_eq!(cfg.block, DifBlockSize::B4104);
        assert_eq!(cfg.app_tag, u16::MAX);
        assert_eq!(cfg.starting_ref_tag, u32::MAX);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn clmul_path_matches_table_path() {
        if !(std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3"))
        {
            return;
        }
        let data: Vec<u8> =
            (0..4200u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in (32..300).chain([512, 520, 1024, 4096, 4104]) {
            for start in [0, 1, 7] {
                let d = &data[start..start + len];
                // SAFETY: both features were checked above.
                let fast = unsafe { crc16_t10_clmul(d) };
                assert_eq!(fast, crc16_t10_update(0, d), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn crc16_zero_block() {
        // CRC of zeros with zero init is zero (non-reflected, no xorout).
        assert_eq!(crc16_t10(&[0u8; 512]), 0);
    }

    #[test]
    fn insert_check_strip_roundtrip() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 0xBEEF, starting_ref_tag: 7 };
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31) as u8).collect();
        let protected = dif_insert(&cfg, &data).unwrap();
        assert_eq!(protected.len(), 1024 + 2 * 8);
        dif_check(&cfg, &protected).unwrap();
        let stripped = dif_strip(&cfg, &protected).unwrap();
        assert_eq!(stripped, data);
    }

    #[test]
    fn corruption_detected_as_guard_error() {
        let cfg = DifConfig::new(DifBlockSize::B512);
        let data = vec![0xA5u8; 512];
        let mut protected = dif_insert(&cfg, &data).unwrap();
        protected[100] ^= 0x01;
        match dif_check(&cfg, &protected) {
            Err(DifCheckError::Dif(e)) => {
                assert_eq!(e.kind, DifErrorKind::Guard);
                assert_eq!(e.block, 0);
            }
            other => panic!("expected guard error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_ref_tag_detected() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 0, starting_ref_tag: 0 };
        let data = vec![1u8; 512];
        let protected = dif_insert(&cfg, &data).unwrap();
        let wrong = DifConfig { starting_ref_tag: 5, ..cfg };
        match dif_check(&wrong, &protected) {
            Err(DifCheckError::Dif(e)) => assert_eq!(e.kind, DifErrorKind::RefTag),
            other => panic!("expected ref tag error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_app_tag_detected() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 1, starting_ref_tag: 0 };
        let protected = dif_insert(&cfg, &vec![1u8; 512]).unwrap();
        let wrong = DifConfig { app_tag: 2, ..cfg };
        match dif_check(&wrong, &protected) {
            Err(DifCheckError::Dif(e)) => assert_eq!(e.kind, DifErrorKind::AppTag),
            other => panic!("expected app tag error, got {other:?}"),
        }
    }

    #[test]
    fn update_retags_blocks() {
        let src = DifConfig { block: DifBlockSize::B4096, app_tag: 1, starting_ref_tag: 100 };
        let dst = DifConfig { block: DifBlockSize::B4096, app_tag: 2, starting_ref_tag: 900 };
        let data = vec![0x5Au8; 8192];
        let protected = dif_insert(&src, &data).unwrap();
        let updated = dif_update(&src, &dst, &protected).unwrap();
        dif_check(&dst, &updated).unwrap();
        assert!(dif_check(&src, &updated).is_err());
    }

    #[test]
    fn bad_layout_rejected() {
        let cfg = DifConfig::new(DifBlockSize::B512);
        assert!(dif_insert(&cfg, &[0u8; 100]).is_err());
        assert!(dif_insert(&cfg, &[]).is_err());
        assert!(matches!(dif_check(&cfg, &[0u8; 100]), Err(DifCheckError::Layout(_))));
    }

    #[test]
    fn all_block_sizes_roundtrip() {
        for bs in [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096, DifBlockSize::B4104]
        {
            let cfg = DifConfig::new(bs);
            let data: Vec<u8> = (0..bs.bytes() * 3).map(|i| (i % 251) as u8).collect();
            let protected = dif_insert(&cfg, &data).unwrap();
            assert_eq!(dif_strip(&cfg, &protected).unwrap(), data);
        }
    }

    #[test]
    fn tuple_serialization_roundtrip() {
        let t = DifTuple { guard: 0x1234, app_tag: 0xABCD, ref_tag: 0xDEAD_BEEF };
        assert_eq!(DifTuple::from_bytes(&t.to_bytes()), t);
    }
}
