//! First-fit backfill of `BwResource` against a brute-force oracle — the
//! short root-level mirror of `crates/sim/tests/timeline_backfill.rs`
//! (one seed, just past the gap cap).
//!
//! The pipe finds its backfill gap with a binary search over the sorted
//! gap ends and consumes the hit gap in place. The oracle below is the
//! plain definition: scan every remembered gap from the oldest, take the
//! first that holds the whole transfer at or after its ready time, split
//! it into its remainders, and forget the oldest gaps once a tail gap
//! takes the list past `MAX_GAPS`. Every interval must match.
//!
//! Times sit on a 64 ns grid and most sizes are 64-byte multiples on a
//! 1 GB/s pipe, so transfers that end exactly at a gap's end — and fill a
//! gap exactly — are common rather than rare.

use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{transfer_time_mgbps, SimTime};
use dsa_sim::timeline::{BwResource, Interval, MAX_GAPS};

const MGBPS: u64 = 1_000;
const GRID_PS: u64 = 64_000;

/// Linear first fit over every remembered gap, times in picoseconds.
struct Oracle {
    free_at: u64,
    gaps: Vec<(u64, u64)>,
    /// Gaps forgotten by the cap so far.
    evicted: usize,
}

impl Oracle {
    fn transfer(&mut self, ready: u64, bytes: u64) -> (u64, u64) {
        let dur = transfer_time_mgbps(bytes, MGBPS).as_ps();
        for i in 0..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            let start = gs.max(ready);
            if start + dur <= ge {
                self.gaps.remove(i);
                let mut at = i;
                if start > gs {
                    self.gaps.insert(at, (gs, start));
                    at += 1;
                }
                if start + dur < ge {
                    self.gaps.insert(at, (start + dur, ge));
                }
                return (start, start + dur);
            }
        }
        let start = ready.max(self.free_at);
        if start > self.free_at {
            self.gaps.push((self.free_at, start));
            while self.gaps.len() > MAX_GAPS {
                self.gaps.remove(0);
                self.evicted += 1;
            }
        }
        self.free_at = start + dur;
        (start, self.free_at)
    }
}

/// One seeded request: a ready time relative to the current tail and a
/// size. Early requests reach back across many remembered gaps, late ones
/// open small gaps at the tail, far-future ones open one huge gap.
fn request(rng: &mut SplitMix64, free_at: u64, phase_fill: bool) -> (u64, u64) {
    let r = rng.next_below(100);
    let early = if phase_fill { 20 } else { 55 };
    let ready = if r < early {
        free_at.saturating_sub(GRID_PS * rng.next_below(4_000))
    } else if r < early + 8 {
        0
    } else if r < 97 {
        free_at + GRID_PS * (1 + rng.next_below(3))
    } else {
        free_at + GRID_PS * (1_000 + rng.next_below(50_000))
    };
    let s = rng.next_below(100);
    let bytes = if s < 85 {
        64 * (1 + rng.next_below(6))
    } else if s < 97 {
        1 + rng.next_below(700)
    } else {
        0
    };
    (ready, bytes)
}

/// Drives pipe and oracle through `steps` requests, alternating phases
/// that grow the gap list with phases that mostly backfill it. Returns
/// the number of gaps the cap evicted and the number of transfers that
/// were backfilled (started before the tail).
fn run(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = SplitMix64::new(seed);
    let mut pipe = BwResource::new(MGBPS);
    let mut oracle = Oracle { free_at: 0, gaps: Vec::new(), evicted: 0 };
    let mut backfilled = 0;
    for step in 0..steps {
        let phase_fill = (step / 3_000) % 2 == 0;
        let (ready, bytes) = request(&mut rng, oracle.free_at, phase_fill);
        let tail = oracle.free_at;
        let (start, end) = oracle.transfer(ready, bytes);
        let got = pipe.transfer(SimTime::from_ps(ready), bytes);
        let want = Interval { start: SimTime::from_ps(start), end: SimTime::from_ps(end) };
        assert_eq!(got, want, "seed {seed:#x} step {step}: ready {ready} ps, {bytes} B");
        assert_eq!(pipe.remembered_gaps(), oracle.gaps.len(), "seed {seed:#x} step {step}");
        assert_eq!(pipe.next_free().as_ps(), oracle.free_at);
        backfilled += usize::from(start < tail);
    }
    (oracle.evicted, backfilled)
}

#[test]
fn bw_backfill_matches_linear_first_fit() {
    // The list reaches the cap after about 4,600 requests.
    let (evicted, backfilled) = run(0xF1257, 7_000);
    assert!(evicted > 200, "the cap evicted only {evicted} gaps");
    assert!(backfilled > 2_000, "only {backfilled} transfers backfilled");
}
