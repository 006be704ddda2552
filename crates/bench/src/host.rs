//! Host fingerprint for the tracked `BENCH_*.json` perf artifacts.
//!
//! Throughput lanes are only comparable on the same host and toolchain;
//! every artifact records both so `scripts/perfgate` can flag a
//! cross-host diff next to its numbers. Digests stay comparable anywhere.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `"host"` object of a `BENCH_*.json` artifact: CPU count and the
/// `rustc --version` the bench was compiled with.
pub fn fingerprint_json() -> String {
    format!("{{\"nproc\": {}, \"rustc\": \"{}\"}}", nproc(), env!("DSA_BENCH_RUSTC"))
}
