//! Move/fill/compare operations (paper Table 1).
//!
//! These mirror the semantics of the DSA Memory Copy, Dualcast, Memory
//! Fill, Memory Compare and Compare Pattern operations, operating on plain
//! byte slices. The device model calls them when processing descriptors;
//! the CPU baselines call them directly.

/// Copies `src` into `dst` (Memory Copy).
///
/// # Panics
///
/// Panics if lengths differ — descriptors carry one transfer size.
pub fn copy(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    dst.copy_from_slice(src);
}

/// Copies `src` into both destinations (Dualcast).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dualcast(src: &[u8], dst1: &mut [u8], dst2: &mut [u8]) {
    assert_eq!(src.len(), dst1.len(), "dualcast dst1 length mismatch");
    assert_eq!(src.len(), dst2.len(), "dualcast dst2 length mismatch");
    dst1.copy_from_slice(src);
    dst2.copy_from_slice(src);
}

/// Fills `dst` with a repeating 8-byte little-endian `pattern`
/// (Memory Fill). The pattern repeats from the start of the buffer; a
/// trailing partial pattern is written for non-multiple lengths.
pub fn fill(dst: &mut [u8], pattern: u64) {
    let bytes = pattern.to_le_bytes();
    let mut chunks = dst.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&bytes);
    }
    let rem = chunks.into_remainder();
    let n = rem.len();
    rem.copy_from_slice(&bytes[..n]);
}

/// Compares two buffers (Memory Compare); returns the byte offset of the
/// first difference, or `None` if equal.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn compare(a: &[u8], b: &[u8]) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "compare length mismatch");
    let (ca, ra) = a.as_chunks::<CHUNK>();
    let (cb, rb) = b.as_chunks::<CHUNK>();
    // Whole 64-byte chunks compare as arrays; only a mismatching chunk is
    // searched for its first differing byte.
    for (i, (x, y)) in ca.iter().zip(cb).enumerate() {
        if x != y {
            return Some(i * CHUNK + first_diff(x, y));
        }
    }
    let tail = ca.len() * CHUNK;
    ra.iter().zip(rb).position(|(x, y)| x != y).map(|p| tail + p)
}

/// Compares `buf` against a repeating 8-byte pattern (Compare Pattern);
/// returns the byte offset of the first mismatch, or `None` if it matches
/// throughout.
pub fn compare_pattern(buf: &[u8], pattern: u64) -> Option<usize> {
    let bytes = pattern.to_le_bytes();
    // Chunks start at multiples of 8, so every chunk sees the pattern in
    // the same phase.
    let mut expect = [0u8; CHUNK];
    fill(&mut expect, pattern);
    let (chunks, rest) = buf.as_chunks::<CHUNK>();
    for (i, c) in chunks.iter().enumerate() {
        if *c != expect {
            return Some(i * CHUNK + first_diff(c, &expect));
        }
    }
    let tail = chunks.len() * CHUNK;
    rest.iter().enumerate().position(|(i, &b)| b != bytes[i % 8]).map(|p| tail + p)
}

/// Width of the block [`compare`] and [`compare_pattern`] test at once.
const CHUNK: usize = 64;

/// Offset of the first differing byte of two chunks known to differ.
fn first_diff(x: &[u8; CHUNK], y: &[u8; CHUNK]) -> usize {
    let (wx, _) = x.as_chunks::<8>();
    let (wy, _) = y.as_chunks::<8>();
    for (w, (p, q)) in wx.iter().zip(wy).enumerate() {
        let d = u64::from_le_bytes(*p) ^ u64::from_le_bytes(*q);
        if d != 0 {
            // Little-endian: the lowest set byte is the earliest in memory.
            return w * 8 + (d.trailing_zeros() / 8) as usize;
        }
    }
    CHUNK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_copies() {
        let src = [1u8, 2, 3, 4];
        let mut dst = [0u8; 4];
        copy(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_length_checked() {
        copy(&[1, 2], &mut [0u8; 3]);
    }

    #[test]
    fn dualcast_writes_both() {
        let src = [9u8; 16];
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        dualcast(&src, &mut a, &mut b);
        assert_eq!(a, src);
        assert_eq!(b, src);
    }

    #[test]
    fn fill_repeats_pattern() {
        let mut buf = [0u8; 20];
        fill(&mut buf, 0x0807_0605_0403_0201);
        assert_eq!(&buf[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&buf[8..16], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&buf[16..], &[1, 2, 3, 4]); // partial tail
    }

    #[test]
    fn compare_finds_first_difference() {
        let a = [0u8, 1, 2, 3];
        let b = [0u8, 1, 9, 3];
        assert_eq!(compare(&a, &b), Some(2));
        assert_eq!(compare(&a, &a), None);
    }

    #[test]
    fn compare_pattern_positions() {
        let mut buf = [0u8; 24];
        fill(&mut buf, 0xABCD);
        assert_eq!(compare_pattern(&buf, 0xABCD), None);
        buf[17] ^= 1;
        assert_eq!(compare_pattern(&buf, 0xABCD), Some(17));
    }

    #[test]
    fn empty_buffers_are_trivially_equal() {
        assert_eq!(compare(&[], &[]), None);
        assert_eq!(compare_pattern(&[], 0), None);
        let mut empty: [u8; 0] = [];
        fill(&mut empty, 0xFF);
    }
}
