//! Micro-benchmarks of the functional operation kernels (Table 1's
//! operation set), reported deterministically.
//!
//! Each kernel is executed once functionally (so the real Rust
//! implementation runs and its output is checked), but the reported
//! per-call time comes from the calibrated software-cost model
//! (`DsaRuntime::cpu_time`, the same `SwCost` the simulator charges) —
//! not from the host's wall clock. Results are therefore identical on
//! every machine and every run; run with `cargo bench --bench ops_micro`.

use dsa_bench::table;
use dsa_core::prelude::*;
use dsa_mem::buffer::Location;
use dsa_ops::crc32::Crc32c;
use dsa_ops::delta::{delta_apply, delta_create};
use dsa_ops::dif::{dif_check, dif_insert, dif_insert_into, DifBlockSize, DifConfig};
use dsa_ops::{memops, OpKind};

/// Modeled per-call time in nanoseconds for `op` over `bytes` of
/// DRAM-resident data on the default SPR platform.
fn modeled_ns(rt: &DsaRuntime, op: OpKind, bytes: usize) -> f64 {
    rt.cpu_time(op, bytes as u64, Location::local_dram(), Location::local_dram()).as_ns_f64()
}

fn report(group: &str, name: &str, bytes: usize, ns: f64) {
    let gbps = bytes as f64 / ns.max(f64::MIN_POSITIVE);
    table::row(&[group.to_string(), name.to_string(), format!("{ns:.0}"), table::f2(gbps)]);
}

fn bench_crc32(rt: &DsaRuntime) {
    for size in [4096usize, 65536] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31) as u8).collect();
        // Functional check: CRC32-C is self-consistent across splits.
        let whole = Crc32c::checksum(&data);
        let mut crc = Crc32c::new();
        let (a, b) = data.split_at(size / 2);
        crc.update(a);
        crc.update(b);
        assert_eq!(crc.finish(), whole, "streaming CRC must match one-shot");
        // Uneven pieces run both the 8-byte instruction (or table) loop and
        // the byte tail; the bitwise definition pins the result.
        let mut crc = Crc32c::new();
        for piece in [&data[..1], &data[1..8], &data[8..size - 3], &data[size - 3..]] {
            crc.update(piece);
        }
        assert_eq!(crc.finish(), whole, "uneven streaming CRC must match one-shot");
        assert_eq!(whole, crc32c_bitwise(&data), "CRC32-C must match its bitwise definition");
        report("crc32c", &format!("{size}B"), size, modeled_ns(rt, OpKind::Crc32, size));
    }
}

/// CRC32-C one bit at a time (reflected poly 0x82F63B78).
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
        }
    }
    !crc
}

fn bench_memops(rt: &DsaRuntime) {
    let size = 65536usize;
    let src = vec![0xA5u8; size];
    let mut dst = vec![0u8; size];

    memops::copy(&src, &mut dst);
    assert_eq!(src, dst, "copy must reproduce the source");
    report("memops", "copy_64K", size, modeled_ns(rt, OpKind::Memcpy, size));

    assert!(memops::compare(&src, &dst).is_none(), "equal buffers must compare equal");
    report("memops", "compare_64K", size, modeled_ns(rt, OpKind::Compare, size));

    memops::fill(&mut dst, 0xDEAD_BEEF_0000_0000);
    assert_ne!(src, dst, "fill must overwrite the copy");
    report("memops", "fill_64K", size, modeled_ns(rt, OpKind::Fill, size));
}

fn bench_dif(rt: &DsaRuntime) {
    let cfg = DifConfig::new(DifBlockSize::B512);
    let data = vec![0x5Au8; 16 * 512];
    let protected = dif_insert(&cfg, &data).expect("whole blocks");
    let mut into = vec![0u8; protected.len()];
    dif_insert_into(&cfg, &data, &mut into).expect("whole blocks, exact destination");
    assert_eq!(into, protected, "in-place DIF insert must match the allocating one");
    report("dif", "insert_8K", data.len(), modeled_ns(rt, OpKind::DifInsert, data.len()));
    dif_check(&cfg, &protected).expect("freshly protected data must verify");
    report("dif", "check_8K", data.len(), modeled_ns(rt, OpKind::DifCheck, data.len()));
}

fn bench_delta(rt: &DsaRuntime) {
    let original = vec![0u8; 65536];
    let mut modified = original.clone();
    for i in (0..modified.len()).step_by(1024) {
        modified[i] = 1;
    }
    let record = delta_create(&original, &modified, 1 << 20).expect("record fits");
    report(
        "delta",
        "create_64K_sparse",
        original.len(),
        modeled_ns(rt, OpKind::DeltaCreate, original.len()),
    );
    let mut target = original.clone();
    delta_apply(&record, &mut target).expect("record applies");
    assert_eq!(target, modified, "apply(create(a, b)) must reproduce b");
    report(
        "delta",
        "apply_64K_sparse",
        original.len(),
        modeled_ns(rt, OpKind::DeltaApply, original.len()),
    );
}

fn main() {
    table::banner("ops-micro", "modeled software kernel throughput (deterministic)");
    table::header(&["group", "bench", "ns/call", "GB/s"]);
    let rt = DsaRuntime::spr_default();
    bench_crc32(&rt);
    bench_memops(&rt);
    bench_dif(&rt);
    bench_delta(&rt);
}
