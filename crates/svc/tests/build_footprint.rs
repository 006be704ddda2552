//! Heap footprint of building a memory system and a service.
//!
//! Every `DsaService` — each fleet shard and each digital-twin replay the
//! governor scores — builds its own `MemSystem`. The line-granular LLC
//! inside it (≈24 MB for the SPR platform) is only read by cache-occupancy
//! experiments, so it is allocated on first use. This binary installs a
//! counting global allocator and pins both constructions well under 1 MiB
//! of heap, so an eager allocation creeping back in fails here rather
//! than as a slower fleet.
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_mem::memsys::MemSystem;
use dsa_mem::topology::Platform;
use dsa_svc::prelude::*;

/// Wraps the system allocator, summing the bytes of every heap
/// acquisition (alloc/alloc_zeroed, and the new size of a realloc).
struct CountingAlloc;

static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes acquired while running `f`.
fn heap_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = HEAP_BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, HEAP_BYTES.load(Ordering::Relaxed) - before)
}

const BUDGET: u64 = 1 << 20;

/// Eight tenants on the shared plan: four small open-loop latency
/// tenants beside four 16–64 KiB closed-loop throughput tenants.
fn config() -> ServiceConfig {
    let mut specs = Vec::new();
    for (i, xfer) in [256u64, 1 << 10, 2 << 10, 4 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), xfer, 100)
                .with_class(QosClass::Latency)
                .with_arrival(Arrival::open(SimDuration::from_us(4))),
        );
    }
    for (i, xfer) in [16u64 << 10, 32 << 10, 64 << 10, 64 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("thr{i}"), xfer, 100)
                .with_outstanding(4)
                .with_arrival(Arrival::closed(SimDuration::from_us(2))),
        );
    }
    ServiceConfig::builder().plan(PlanSpec::Shared).seed(7).tenants(specs).build().unwrap()
}

#[test]
fn memory_system_and_service_build_without_the_llc_array() {
    let (memsys, memsys_bytes) = heap_bytes(|| MemSystem::new(Platform::spr()));
    assert!(
        memsys_bytes < BUDGET,
        "MemSystem::new acquired {memsys_bytes} B of heap (budget {BUDGET} B)"
    );
    assert_eq!(memsys.llc().total_occupancy_bytes(), 0);

    let cfg = config();
    let (mut svc, svc_bytes) = heap_bytes(|| DsaService::from_config(cfg.clone()).unwrap());
    assert!(
        svc_bytes < BUDGET,
        "DsaService::from_config acquired {svc_bytes} B of heap (budget {BUDGET} B)"
    );

    // The service still runs, and a second build (a twin fork replays the
    // live service's config this way) stays inside the same budget.
    let (mut twin, twin_bytes) = heap_bytes(|| DsaService::from_config(cfg).unwrap());
    assert!(twin_bytes < BUDGET, "second build acquired {twin_bytes} B (budget {BUDGET} B)");
    let (a, b) = (svc.run(), twin.run());
    assert_eq!(a.digest(), b.digest());
    assert!(a.tenants.iter().all(|t| t.dsa_completed > 0));
}
