//! Steady-state allocation audit of compiled op-program replay.
//!
//! The `prepare()`/`step()` split exists so that everything allocation-
//! heavy — instruction compilation, descriptor validation, buffer setup —
//! happens once, and replay runs out of fixed storage. This binary
//! installs a counting global allocator and asserts the replay-side hot
//! path is allocation-free: fetching instructions, rebuilding the pooled
//! descriptor slot, re-validating against device caps, and the
//! `OpInstr` → `Job` → `OpInstr` round trip.
//!
//! Full device execution is deliberately out of scope: the device model
//! keeps its own analytic records per submission and is not part of the
//! software hot path this PR pins down.
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::prelude::*;
use dsa_mem::buffer::Location;

struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn program_replay_hot_path_is_allocation_free() {
    // One-time setup: runtime, buffers, compiled program. All allocation
    // lives here, before the audit window opens.
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    rt.fill_pattern(&src, 0x3C);
    let mut prog = ProgramBuilder::new()
        .push(Job::memcpy(&src, &dst))
        .push(Job::fill(&dst, 0xABAB_ABAB_ABAB_ABAB))
        .push(Job::compare(&src, &dst))
        .push(Job::crc32(&src))
        .push(Job::copy_crc(&src, &dst).cache_control())
        .prepare(&rt)
        .expect("program compiles");
    let caps = *rt.device(0).caps();

    let replay = |prog: &mut OpProgram, rounds: u64| -> u64 {
        let mut steps = 0;
        for _ in 0..rounds {
            prog.rewind();
            while let Some(i) = prog.fetch() {
                // The pooled slot was rebuilt in place by fetch(); the
                // prepare-time validation guarantee must re-check clean.
                assert_eq!(prog.slot().validate(&caps), Ok(()));
                // Descriptor-prep hot path: stack job and its instruction.
                let job = black_box(Job::from_instr(&i));
                black_box(job.instr());
                steps += 1;
            }
        }
        steps
    };

    // Warm-up, then audit.
    replay(&mut prog, 16);
    let before = HEAP_OPS.load(Ordering::SeqCst);
    let steps = replay(&mut prog, 4_000);
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(steps, 4_000 * prog.len() as u64);
    assert_eq!(
        after - before,
        0,
        "{} heap allocation(s) during {steps} op-program replay steps",
        after - before
    );
}
