//! The fast byte kernels of `dsa-ops` and `dsa-mem` against plain
//! definitions.
//!
//! CRC-16/T10-DIF and CRC32-C run on carry-less multiply and `crc32`
//! instructions where the host has them and on lookup tables elsewhere;
//! compare and compare-pattern test 64-byte chunks at once; DIF and
//! `Memory::copy` write straight into their destination. Each is checked
//! here against the simplest correct version kept in this file: bitwise
//! CRCs, iterator scans, and copies staged through a `Vec`. Lengths cover
//! 0–300 bytes (every tail shape of every chunk width) plus the four DIF
//! block sizes, at shifting start offsets so alignment varies too.
//!
//! A thread-local counting allocator pins the kernels as allocation-free
//! once warm; being per-thread, it lets the tests here run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsa_mem::buffer::Location;
use dsa_mem::memory::{MemError, Memory};
use dsa_ops::crc32::Crc32c;
use dsa_ops::dif::{self, DifBlockSize, DifConfig, DifTuple};
use dsa_ops::memops;
use dsa_sim::rng::SplitMix64;

struct CountingAlloc;

thread_local! {
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = HEAP_OPS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap operations this thread performs inside `f`.
fn heap_ops(f: impl FnOnce()) -> u64 {
    let before = HEAP_OPS.with(Cell::get);
    f();
    HEAP_OPS.with(Cell::get) - before
}

/// Every tail shape below 300 bytes, plus the DIF block sizes.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=300).chain([512, 520, 4096, 4104])
}

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// CRC-16/T10-DIF one bit at a time: poly 0x8BB7, MSB first, init 0.
fn crc16_t10_bitwise(data: &[u8]) -> u16 {
    let mut crc = 0u16;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x8BB7 } else { crc << 1 };
        }
    }
    crc
}

/// CRC32-C one bit at a time: reflected poly 0x82F63B78, register
/// `!seed` in and inverted out, as `Crc32c::with_seed` defines.
fn crc32c_bitwise(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn crc16_t10_matches_bitwise_oracle() {
    let mut rng = SplitMix64::new(0x7101);
    let pool = random_bytes(&mut rng, 4104 + 64);
    let mut cases = 0;
    for len in lengths() {
        let start = rng.next_below(64) as usize;
        let data = &pool[start..start + len];
        assert_eq!(dif::crc16_t10(data), crc16_t10_bitwise(data), "len {len} start {start}");
        cases += 1;
    }
    assert!(cases >= 200);
    assert_eq!(dif::crc16_t10(b"123456789"), 0xD0DB);
}

#[test]
fn crc32c_matches_bitwise_oracle_seeded_and_unseeded() {
    let mut rng = SplitMix64::new(0x3232);
    let pool = random_bytes(&mut rng, 4104 + 64);
    for len in lengths() {
        let start = rng.next_below(64) as usize;
        let data = &pool[start..start + len];
        assert_eq!(Crc32c::checksum(data), crc32c_bitwise(0, data), "len {len}");
        let seed = rng.next_u64() as u32;
        let mut c = Crc32c::with_seed(seed);
        c.update(data);
        assert_eq!(c.finish(), crc32c_bitwise(seed, data), "len {len} seed {seed:#x}");
        // Split anywhere: streaming state carries across updates.
        let cut = rng.next_below(len as u64 + 1) as usize;
        let mut c = Crc32c::new();
        c.update(&data[..cut]);
        c.update(&data[cut..]);
        assert_eq!(c.finish(), crc32c_bitwise(0, data), "len {len} cut {cut}");
    }
}

#[test]
fn compare_and_compare_pattern_match_iterator_oracles() {
    let mut rng = SplitMix64::new(0xC0C0);
    let pattern = rng.next_u64();
    let bytes = pattern.to_le_bytes();
    for len in lengths() {
        let a = random_bytes(&mut rng, len);
        let mut b = a.clone();
        let mut filled = vec![0u8; len];
        memops::fill(&mut filled, pattern);
        // Equal inputs, then up to two random flips (the first must win).
        for flips in 0..3 {
            if len > 0 && flips > 0 {
                let at = rng.next_below(len as u64) as usize;
                b[at] ^= 1 << rng.next_below(8);
                filled[at] ^= 1 << rng.next_below(8);
            }
            let want = a.iter().zip(&b).position(|(x, y)| x != y);
            assert_eq!(memops::compare(&a, &b), want, "len {len}");
            let want = filled.iter().enumerate().position(|(i, &x)| x != bytes[i % 8]);
            assert_eq!(memops::compare_pattern(&filled, pattern), want, "len {len}");
        }
    }
}

#[test]
fn dif_kernels_match_bitwise_layout_and_wrappers() {
    let mut rng = SplitMix64::new(0xD1F);
    let sizes = [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096, DifBlockSize::B4104];
    for case in 0..200 {
        let block = sizes[case % 4];
        let cfg = DifConfig {
            block,
            app_tag: rng.next_u64() as u16,
            starting_ref_tag: rng.next_u64() as u32,
        };
        let bs = block.bytes();
        let blocks = 1 + rng.next_below(3) as usize;
        let data = random_bytes(&mut rng, bs * blocks);

        // The protected layout from its definition: block, then PI tuple.
        let mut want = Vec::new();
        for (i, chunk) in data.chunks(bs).enumerate() {
            want.extend_from_slice(chunk);
            let tuple = DifTuple {
                guard: crc16_t10_bitwise(chunk),
                app_tag: cfg.app_tag,
                ref_tag: cfg.starting_ref_tag.wrapping_add(i as u32),
            };
            want.extend_from_slice(&tuple.to_bytes());
        }
        let mut into = vec![0xEEu8; want.len()];
        dif::dif_insert_into(&cfg, &data, &mut into).unwrap();
        assert_eq!(into, want, "case {case}");
        assert_eq!(dif::dif_insert(&cfg, &data).unwrap(), want, "case {case}");
        assert!(dif::dif_insert_into(&cfg, &data, &mut into[1..]).is_err());

        dif::dif_check(&cfg, &want).unwrap();
        let mut stripped = vec![0u8; data.len()];
        dif::dif_strip_into(&cfg, &want, &mut stripped).unwrap();
        assert_eq!(stripped, data);
        let next = DifConfig { starting_ref_tag: cfg.starting_ref_tag ^ 0x55, ..cfg };
        let mut retagged = vec![0u8; want.len()];
        dif::dif_update_into(&cfg, &next, &want, &mut retagged).unwrap();
        assert_eq!(retagged, dif::dif_insert(&next, &data).unwrap());

        // One flipped data bit is a guard error in its block, and the
        // writers leave their destination untouched.
        let at = rng.next_below(data.len() as u64) as usize;
        let mut bad = want.clone();
        bad[at / bs * (bs + 8) + at % bs] ^= 1;
        let err = dif::DifCheckError::Dif(dif::DifError {
            block: at / bs,
            kind: dif::DifErrorKind::Guard,
        });
        assert_eq!(dif::dif_check(&cfg, &bad), Err(err));
        let mut out = vec![0u8; data.len()];
        assert_eq!(dif::dif_strip_into(&cfg, &bad, &mut out), Err(err));
        assert!(out.iter().all(|&b| b == 0));
    }
}

/// A memory with two 4 KiB allocations filled with random bytes.
fn two_allocations(rng: &mut SplitMix64) -> (Memory, u64, u64) {
    let mut mem = Memory::new();
    let a = mem.alloc(4096, Location::local_dram()).addr();
    let b = mem.alloc(4096, Location::Cxl).addr();
    for base in [a, b] {
        rng.fill_bytes(mem.read_mut(base, 4096).unwrap());
    }
    (mem, a, b)
}

#[test]
fn memory_copy_matches_a_staged_copy() {
    let mut rng = SplitMix64::new(0xC097);
    let (mut mem, a, b) = two_allocations(&mut rng);
    for case in 0..300 {
        let len = if case % 10 == 0 { 0 } else { 1 + rng.next_below(1500) };
        let src = a + rng.next_below(4096 - len);
        // Alternate: other allocation, then same allocation (overlapping
        // forward and backward, as the random offsets fall).
        let dst_base = if case % 2 == 0 { b } else { a };
        let dst = if dst_base == a && case % 4 == 1 {
            // Force an overlap within a 64-byte shift either way.
            let shift = rng.next_below(129) as i64 - 64;
            (src as i64 + shift).clamp(a as i64, (a + 4096 - len) as i64) as u64
        } else {
            dst_base + rng.next_below(4096 - len)
        };
        let staged = mem.read(src, len).unwrap().to_vec();
        let mut want = mem.read(dst_base, 4096).unwrap().to_vec();
        let off = (dst - dst_base) as usize;
        want[off..off + len as usize].copy_from_slice(&staged);
        mem.copy(src, dst, len).unwrap();
        assert_eq!(mem.read(dst_base, 4096).unwrap(), &want[..], "case {case}");
    }
}

#[test]
fn split_mut_views_and_errors() {
    let mut rng = SplitMix64::new(0x5911);
    let (mut mem, a, b) = two_allocations(&mut rng);
    let want_src = mem.read(b + 100, 64).unwrap().to_vec();
    // Either order of allocations: the views are the requested ranges.
    for (src, dst) in [(b + 100, a + 7), (a + 7, b + 100)] {
        let (s, d) = mem.split_mut(src, 64, dst, 32).unwrap();
        assert_eq!(s.len(), 64);
        assert_eq!(d.len(), 32);
        d.fill(0x11);
        assert_eq!(mem.read(dst, 32).unwrap(), &[0x11; 32]);
    }
    assert_eq!(mem.read(a + 7, 64).unwrap()[..32], [0x11; 32]);
    assert_ne!(mem.read(b + 100, 64).unwrap(), &want_src[..]);

    assert_eq!(mem.split_mut(a, 8, a + 64, 8), Err(MemError::SameAllocation { addr: a + 64 }));
    assert_eq!(mem.split_mut(0x40, 8, b, 8), Err(MemError::Unmapped { addr: 0x40 }));
    assert_eq!(mem.split_mut(a, 8, 0x40, 8), Err(MemError::Unmapped { addr: 0x40 }));
    assert_eq!(
        mem.split_mut(a + 4000, 200, b, 8),
        Err(MemError::CrossesSegments { addr: a + 4000 })
    );
    assert_eq!(mem.split_mut(a, 8, b + 4090, 8), Err(MemError::CrossesSegments { addr: b + 4090 }));
    // The source is checked first, as `copy` reports it.
    assert_eq!(mem.copy(0x40, 0x80, 8), Err(MemError::Unmapped { addr: 0x40 }));
}

#[test]
fn warm_kernels_do_not_allocate() {
    let mut rng = SplitMix64::new(0xA110C);
    let (mut mem, a, b) = two_allocations(&mut rng);
    let cfg = DifConfig::new(DifBlockSize::B512);
    let data = random_bytes(&mut rng, 4096);
    let protected = dif::dif_insert(&cfg, &data).unwrap();
    let mut out = vec![0u8; protected.len()];
    let twin = data.clone();
    let run = |mem: &mut Memory, out: &mut [u8]| {
        mem.copy(a, b, 4096).unwrap();
        mem.copy(a, a + 100, 2000).unwrap();
        mem.copy(a + 100, a, 2000).unwrap();
        let (s, d) = mem.split_mut(a, 512, b, 512).unwrap();
        d.copy_from_slice(s);
        dif::dif_insert_into(&cfg, &data, out).unwrap();
        dif::dif_check(&cfg, &protected).unwrap();
        let mut crc = Crc32c::new();
        crc.update(&data);
        std::hint::black_box(crc.finish());
        std::hint::black_box(memops::compare(&data, &twin));
        std::hint::black_box(memops::compare_pattern(&data, 7));
    };
    // Warm-up: first-use feature detection and lazy statics.
    run(&mut mem, &mut out);
    assert_eq!(heap_ops(|| run(&mut mem, &mut out)), 0);
}
