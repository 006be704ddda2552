//! Heap footprint of reading a telemetry window every control epoch.
//!
//! The governor's loop reads `Observation::from_window` and re-anchors
//! its `HubWindow` once per 20 µs epoch. A window used to clone the whole
//! registry at every mark, unbounded utilization series included, so an
//! epoch cost more the longer the run had gone. This binary installs a
//! counting global allocator, drives an eight-tenant service with a hub
//! attached, and pins two things:
//!
//! * once every metric has been written once, `HubWindow::mark` acquires
//!   no heap at all (it copies in place);
//! * one `mark` plus one `from_window` acquires the same bytes at job 1k
//!   as at job 25k, so a window costs O(metrics), not O(jobs).
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_ctl::prelude::Observation;
use dsa_svc::prelude::*;
use dsa_telemetry::HubWindow;

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

const EPOCH: SimDuration = SimDuration::from_us(20);
/// Jobs offered before the window counts as warm.
const WARM_JOBS: u64 = 1_000;
const LATE_JOBS: u64 = 25_000;

/// Four open-loop latency tenants (256 B–4 KiB, 4.5 µs deadline) beside
/// four closed-loop throughput tenants (16–64 KiB, depth 4) on the shared
/// plan: 30k jobs in all.
fn config() -> ServiceConfig {
    let mut specs = Vec::new();
    for (i, xfer) in [256u64, 1 << 10, 2 << 10, 4 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), xfer, 5_000)
                .with_class(QosClass::Latency)
                .with_deadline(SimDuration::from_ns(4_500))
                .with_arrival(Arrival::open(SimDuration::from_us(4))),
        );
    }
    for (i, xfer) in [16u64 << 10, 32 << 10, 64 << 10, 64 << 10].into_iter().enumerate() {
        specs.push(
            TenantSpec::new(&format!("thr{i}"), xfer, 2_500)
                .with_outstanding(4)
                .with_arrival(Arrival::closed(SimDuration::from_us(2))),
        );
    }
    ServiceConfig::builder().plan(PlanSpec::Shared).seed(7).tenants(specs).build().unwrap()
}

fn offered(svc: &DsaService) -> u64 {
    (0..svc.tenant_count()).map(|i| svc.stats(i).offered).sum()
}

#[test]
fn window_epochs_cost_the_same_heap_early_and_late() {
    let mut svc = DsaService::from_config(config()).unwrap();
    let mut window = HubWindow::new(svc.trace());
    let mut until = svc.next_ready().unwrap() + EPOCH;
    let (mut early, mut late) = (None, None);
    let mut warm_marks = 0;
    loop {
        svc.run_until(until);
        let jobs = offered(&svc);
        let (obs, read_bytes) = heap_bytes(|| Observation::from_window(&window, &svc));
        std::hint::black_box(obs);
        let ((), mark_bytes) = heap_bytes(|| window.mark());
        if jobs >= WARM_JOBS {
            assert_eq!(mark_bytes, 0, "HubWindow::mark acquired {mark_bytes} B at job {jobs}");
            warm_marks += 1;
            early.get_or_insert((jobs, read_bytes + mark_bytes));
        }
        if jobs >= LATE_JOBS {
            late = Some((jobs, read_bytes + mark_bytes));
            break;
        }
        match svc.next_ready() {
            Some(t) => until = t.max(until) + EPOCH,
            None => break,
        }
    }
    let (early, late) = (early.unwrap(), late.expect("the roster offers 30k jobs"));
    assert!(warm_marks > 100, "only {warm_marks} warm epochs");
    assert_eq!(
        early.1, late.1,
        "mark + from_window: {} B at job {} but {} B at job {}",
        early.1, early.0, late.1, late.0
    );
}
