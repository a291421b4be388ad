//! Deployment and traffic generation.
//!
//! A *deployment* is the set of long-lived processor keys a workload runs
//! against. Its key seed is fixed configuration, not the workload seed, so
//! key generation costs the same on every run. The workload seed only
//! draws bids, behaviours and the order of a fixed multiset of session
//! sizes; `tests` below pins both properties.

use dls::crypto::pki::{KeyPair, Registry};
use dls::crypto::sha256::Sha256;
use dls::protocol::blocks::USER_IDENTITY;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// splitmix64 (Steele, Lea & Flood 2014): a frozen generator, so a
/// workload never changes when a dependency does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rates live on the dyadic grid `k / RATE_DENOM` in `[1, 8)`: exact in
/// binary and in the exact-rational oracle, and fine enough that a run
/// never has to repeat a (processor, bid) pair.
pub const RATE_DENOM: f64 = 4096.0;
const RATE_STEPS: usize = 7 * 4096;

pub fn grid_rate(rng: &mut Rng) -> f64 {
    (4096 + rng.below(RATE_STEPS)) as f64 / RATE_DENOM
}

/// Draws rate vectors for processors `0..m`, never repeating a
/// (processor, rate) pair already in `used`.
pub fn fresh_rates(rng: &mut Rng, m: usize, used: &mut BTreeSet<(usize, u64)>) -> Vec<f64> {
    (0..m)
        .map(|i| loop {
            let w = grid_rate(rng);
            if used.insert((i, w.to_bits())) {
                break w;
            }
        })
        .collect()
}

/// Moves a grid rate off the grid (by 2⁻²⁰), so warm-up and replay
/// sessions can never share a signed bid with measured traffic.
pub fn off_grid(w: f64) -> f64 {
    w + 1.0 / 1_048_576.0
}

/// The keys one deployment registers: `P1..Pm` plus the user.
pub struct Deployment {
    pub keys: Vec<KeyPair>,
    pub user: KeyPair,
    pub registry: Registry,
}

impl Deployment {
    /// Generates the deployment's keys serially. The derivation mirrors
    /// the protocol's deterministic key registration (one SHA-256-derived
    /// stream per identity and seed), so these are the very keys its
    /// sessions sign with, and the ledger replays their signatures.
    pub fn generate(key_seed: u64, bits: usize, m: usize) -> Result<Self, String> {
        let keypair = |id: String| {
            let mut h = Sha256::new();
            h.update(&key_seed.to_le_bytes());
            h.update(id.as_bytes());
            let digest = h.finalize();
            let sub_seed = digest
                .iter()
                .take(8)
                .rev()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
            let mut rng = StdRng::seed_from_u64(sub_seed);
            KeyPair::generate(id, bits, &mut rng).map_err(|e| format!("keygen failed: {e}"))
        };
        let keys = (1..=m)
            .map(|i| keypair(format!("P{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let user = keypair(USER_IDENTITY.to_string())?;
        let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
        Ok(Deployment {
            keys,
            user,
            registry,
        })
    }
}

/// `fresh-sessions`: one entry per session, `(rates, blocks)`. The block
/// counts are a seeded permutation of `base..base + n`, so no count
/// repeats within a run and the multiset is the same for every seed. The
/// permutation is stratified into `rounds` consecutive rounds (count `c`
/// falls in round `(c - base) % rounds`), so every round carries almost
/// the same work.
pub fn fresh_plan(
    seed: u64,
    n: usize,
    m: usize,
    base: usize,
    rounds: usize,
) -> Vec<(Vec<f64>, usize)> {
    let mut rng = Rng::new(seed);
    let rounds = rounds.max(1);
    let mut blocks = Vec::with_capacity(n);
    for r in 0..rounds {
        let mut round: Vec<usize> = (base..base + n)
            .filter(|c| (c - base) % rounds == r)
            .collect();
        rng.shuffle(&mut round);
        blocks.extend(round);
    }
    let mut used = BTreeSet::new();
    blocks
        .into_iter()
        .map(|b| (fresh_rates(&mut rng, m, &mut used), b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_plan_fixes_sizes_and_never_repeats_a_bid_or_block_count() {
        let a = fresh_plan(1, 120, 8, 8, 5);
        let b = fresh_plan(2, 120, 8, 8, 5);
        let sizes = |p: &[(Vec<f64>, usize)]| {
            let mut s: Vec<(usize, usize)> = p.iter().map(|(w, b)| (w.len(), *b)).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes(&a), sizes(&b), "size multiset depends on the seed");
        assert_ne!(a, b, "the seed must change bids and order");
        let counts: BTreeSet<usize> = a.iter().map(|(_, b)| *b).collect();
        assert_eq!(counts.len(), a.len(), "a block count repeats");
        let mut pairs = BTreeSet::new();
        for (rates, _) in &a {
            for (i, w) in rates.iter().enumerate() {
                assert!((1.0..8.0).contains(w));
                assert_eq!((w * RATE_DENOM).fract(), 0.0, "rate off the dyadic grid");
                assert!(pairs.insert((i, w.to_bits())), "(P{i}, {w}) repeats");
            }
        }
        assert_eq!(a, fresh_plan(1, 120, 8, 8, 5), "plan is not deterministic");
        // Round r holds the counts 8 + r, 8 + r + 5, 8 + r + 10, ...: the
        // same work in every round, up to a few blocks per session.
        for (r, round) in a.chunks(24).enumerate() {
            let mut c: Vec<usize> = round.iter().map(|(_, b)| b - 8).collect();
            c.sort_unstable();
            assert_eq!(c, (0..24).map(|s| s * 5 + r).collect::<Vec<_>>());
        }
    }

    #[test]
    fn off_grid_rates_never_meet_grid_rates() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            let w = grid_rate(&mut rng);
            assert_ne!((off_grid(w) * RATE_DENOM).fract(), 0.0);
        }
    }
}
