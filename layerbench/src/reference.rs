//! The reference kernel: fixed host work, independent of the simulator,
//! that the timed passes are calibrated against.
//!
//! On a host shared with other tenants, a pass's host time swings by up
//! to 2× in phases that can outlast a whole run, and every core slows at
//! once: neighbours contend for the shared last-level cache and memory.
//! The kernel runs between timed passes; the ratio of a pass's time to
//! the kernel's time beside it moves far less than either. Two thirds of
//! the kernel are hash lookups over a table several times one core's L2,
//! which slow under contention about as much as the simulator does; the
//! rest is ordered-map churn and a branchy sort, as in the simulator's
//! queues. None of it is simulator code, so no change to the simulator
//! changes its work.

use std::collections::{BTreeMap, HashMap};

/// Entries of the lookup table (about 8 MiB, beyond one core's L2).
const HASH_KEYS: u64 = 256 << 10;
/// Elements sorted per sort.
const SORTED: usize = 64 << 10;

/// Inputs built once per process, so a run pays their allocation once.
pub struct Reference {
    map: HashMap<u64, u64>,
    unsorted: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn spread(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x1234_5678_9ABC_DEF1;
        Reference {
            map: (0..HASH_KEYS).map(|i| (spread(i), i)).collect(),
            unsorted: (0..SORTED).map(|_| xorshift(&mut x)).collect(),
        }
    }

    /// One round of the kernel (about 50 ms on a 2-core Xeon VM); returns
    /// a value that depends on all of it.
    pub fn run(&self) -> u64 {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut churn = BTreeMap::new();
        for i in 0..150_000u64 {
            let k = xorshift(&mut x) % 65_536;
            if i % 3 == 0 {
                churn.remove(&k);
            } else {
                *churn.entry(k).or_insert(0u64) += i;
            }
        }
        let mut acc = churn.len() as u64;
        for _ in 0..640_000 {
            let k = spread(xorshift(&mut x) % HASH_KEYS);
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(1));
        }
        for r in 0..2 {
            let mut v = self.unsorted.clone();
            v.sort_by_key(|k| k.rotate_left(r * 16));
            acc = acc.wrapping_add(v[SORTED / 2]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_round() {
        let r = Reference::new();
        assert_eq!(r.run(), r.run());
        assert_eq!(r.run(), Reference::new().run());
    }
}
