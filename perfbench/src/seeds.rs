//! Seed derivation and deterministic handling of generator rejections.
//!
//! Every input of a run derives from `--seed`. `capirca_acl_pair` rejects
//! some seeds by panicking (too few probe-reachable rules to place the
//! requested differences — about 3.5% of seeds, size-independent for some
//! offsets), so candidate seeds are tried in ascending order and a
//! rejected one is stepped past. The same `--seed` therefore always lands
//! on the same accepted seeds, and every seed tried is recorded.

use std::panic::{self, AssertUnwindSafe};

/// splitmix64: spreads a user seed and a stream tag into a 64-bit base.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds a run used: accepted ones, in use order, and rejected ones.
#[derive(Debug, Clone, Default)]
pub struct SeedLog {
    pub used: Vec<u64>,
    pub rejected: Vec<u64>,
}

impl SeedLog {
    /// Run `generate` on candidate seeds `next, next + 1, …` until one is
    /// accepted (does not panic). `next` advances past every candidate
    /// tried, so consecutive calls never reuse a seed.
    pub fn generate<T>(&mut self, next: &mut u64, generate: impl Fn(u64) -> T) -> T {
        loop {
            let seed = *next;
            *next = next.wrapping_add(1);
            match quietly(|| generate(seed)) {
                Some(v) => {
                    self.used.push(seed);
                    return v;
                }
                None => self.rejected.push(seed),
            }
        }
    }
}

/// Run `f`, turning a panic into `None` without printing the panic
/// message (a rejection is an expected, recorded event, not an error).
fn quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = panic::catch_unwind(AssertUnwindSafe(f)).ok();
    panic::set_hook(hook);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_seeds_are_stepped_past_deterministically() {
        let run = || {
            let mut log = SeedLog::default();
            let mut next = 10;
            let got: Vec<u64> = (0..3)
                .map(|_| {
                    log.generate(&mut next, |s| {
                        assert!(s % 3 != 0, "rejected");
                        s
                    })
                })
                .collect();
            (got, log.used, log.rejected)
        };
        let (got, used, rejected) = run();
        assert_eq!(got, vec![10, 11, 13]);
        assert_eq!(used, vec![10, 11, 13]);
        assert_eq!(rejected, vec![12]);
        assert_eq!(run().0, got);
    }

    #[test]
    fn known_capirca_rejection_is_skipped() {
        // Offset 12 from 0xF1EE7 is rejected at every size.
        let mut log = SeedLog::default();
        let mut next = 0xF1EE7 + 12;
        let _ = log.generate(&mut next, |s| campion_gen::capirca_acl_pair(40, 10, s));
        assert_eq!(log.rejected, vec![0xF1EE7 + 12]);
        assert_eq!(log.used, vec![0xF1EE7 + 13]);
    }
}
