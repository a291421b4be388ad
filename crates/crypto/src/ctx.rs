//! Per-key Montgomery contexts and the per-session verification cache.
//!
//! Every RSA operation is a modular exponentiation over a fixed per-key
//! modulus, and every key performs many of them (a session verifies Θ(m²)
//! envelopes under m keys). The contexts here hoist everything that depends
//! only on the key out of the per-call path:
//!
//! * [`ExpCtx`] — a [`MontgomeryCtx`] for one modulus plus the
//!   fixed-window schedule for one exponent, built once at key
//!   construction in [`crate::rsa::generate`]. A public key holds one
//!   ([`VerifyCtx`]: mod `n`, exponent `e`); a secret key holds two, one
//!   per prime (mod `p` with `dP`, mod `q` with `dQ`), for CRT signing.
//! * [`VerifyCache`] — a session-scoped memo of envelope-verification
//!   verdicts keyed by a digest of (signer, body bytes, signature), so the
//!   all-to-all broadcast verifies each envelope once instead of once per
//!   receiver. Sound because verification is deterministic: the same bytes
//!   under the same registry always yield the same verdict.

use crate::sha256;
use dls_num::{BigUint, ExpWindows, MontgomeryCtx};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Precomputed state for modular exponentiation under one fixed exponent.
///
/// Holds the modulus's Montgomery context and the window schedule of the
/// exponent. Building one costs a handful of Montgomery multiplies; every
/// subsequent [`pow`](ExpCtx::pow) saves a Knuth-D division per multiply
/// relative to `modmath::pow_mod`.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    mont: MontgomeryCtx,
    windows: ExpWindows,
}

impl ExpCtx {
    /// Builds a context for `exp` under the (odd, > 1) modulus in `mont`.
    pub fn new(mont: MontgomeryCtx, exp: &BigUint) -> Self {
        ExpCtx {
            windows: ExpWindows::new(exp),
            mont,
        }
    }

    /// `base^exp mod n` — bit-identical to `modmath::pow_mod` on the same
    /// inputs (the Montgomery differential suites pin this down).
    pub fn pow(&self, base: &BigUint) -> BigUint {
        self.mont.pow_windows(base, &self.windows)
    }

    /// The Montgomery context for the modulus.
    pub fn montgomery(&self) -> &MontgomeryCtx {
        &self.mont
    }
}

/// Per-key verification context: the public exponent's [`ExpCtx`].
pub type VerifyCtx = ExpCtx;

/// Cache key: a SHA-256 digest binding signer identity, canonical body
/// bytes, and signature bytes (length-prefixed, so field boundaries cannot
/// be confused).
pub type VerdictKey = [u8; 32];

/// Computes the [`VerdictKey`] for an envelope's constituent bytes.
pub fn verdict_key(signer: &str, body_bytes: &[u8], signature: &[u8]) -> VerdictKey {
    let mut h = sha256::Sha256::new();
    h.update(&(signer.len() as u64).to_be_bytes());
    h.update(signer.as_bytes());
    h.update(&(body_bytes.len() as u64).to_be_bytes());
    h.update(body_bytes);
    h.update(&(signature.len() as u64).to_be_bytes());
    h.update(signature);
    h.finalize()
}

/// A session-scoped memo of envelope-verification verdicts.
///
/// Cheap to clone (shared map) so every processor role in a session can
/// hold one; whoever verifies an envelope first pays the modexp and every
/// later receiver of the same bytes gets the memoized verdict. Verdicts are
/// only valid under the registry the session was built with, so the cache
/// must not outlive its session.
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    verdicts: Arc<Mutex<BTreeMap<VerdictKey, bool>>>,
}

impl VerifyCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized verdict for `key`, if any receiver has verified these
    /// bytes before.
    pub fn get(&self, key: &VerdictKey) -> Option<bool> {
        self.verdicts.lock().expect("verdict cache poisoned").get(key).copied()
    }

    /// Records the verdict for `key`.
    pub fn insert(&self, key: VerdictKey, verdict: bool) {
        self.verdicts.lock().expect("verdict cache poisoned").insert(key, verdict);
    }

    /// Number of distinct envelopes verified so far.
    pub fn len(&self) -> usize {
        self.verdicts.lock().expect("verdict cache poisoned").len()
    }

    /// `true` iff no verdicts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_num::modmath;

    #[test]
    fn exp_ctx_matches_pow_mod() {
        let n = BigUint::from_dec_str("1000000000000000003").unwrap(); // prime
        let mont = MontgomeryCtx::new(&n).unwrap();
        let e = BigUint::from(65_537u32);
        let ctx = ExpCtx::new(mont, &e);
        for base in [2u64, 17, 999_999_999_999_999_999] {
            let b = BigUint::from(base);
            assert_eq!(ctx.pow(&b), modmath::pow_mod(&b, &e, &n), "base {base}");
        }
    }

    #[test]
    fn verdict_keys_separate_fields() {
        // Moving a byte across a field boundary must change the key.
        let a = verdict_key("P1", b"ab", b"c");
        let b = verdict_key("P1", b"a", b"bc");
        let c = verdict_key("P1a", b"b", b"c");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, verdict_key("P1", b"ab", b"c"));
    }

    #[test]
    fn cache_memoizes() {
        let cache = VerifyCache::new();
        let k = verdict_key("P1", b"body", b"sig");
        assert!(cache.is_empty());
        assert_eq!(cache.get(&k), None);
        cache.insert(k, true);
        assert_eq!(cache.get(&k), Some(true));
        assert_eq!(cache.len(), 1);
        // Clones share the same verdict map.
        let clone = cache.clone();
        let k2 = verdict_key("P2", b"body", b"sig");
        clone.insert(k2, false);
        assert_eq!(cache.get(&k2), Some(false));
        assert_eq!(cache.len(), 2);
    }
}
