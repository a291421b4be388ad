//! Property tests for the crypto substrate.
//!
//! Key generation is expensive, so a handful of cached key pairs are shared
//! across cases and the per-case iteration count is reduced.
//!
//! **Fidelity note:** in this offline workspace these properties run
//! against the vendored proptest stand-in (`vendor/proptest`): a
//! deterministic per-test seed, a fixed case count, no shrinking, and no
//! run-to-run variation. A green run is a frozen regression sweep (256
//! cases by default), not real fuzzing — re-run the suite against
//! upstream proptest whenever registry access is available (see
//! `vendor/README.md`).

use dls_crypto::canon;
use dls_crypto::pki::{is_equivocation, KeyPair, Registry};
use dls_crypto::rsa::{self, PublicKey, SecretKey};
use dls_crypto::sha256;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::OnceLock;

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Payload {
    id: String,
    bid: f64,
    round: u32,
    flags: Vec<bool>,
}

fn fixtures() -> &'static (KeyPair, KeyPair, Registry) {
    static CELL: OnceLock<(KeyPair, KeyPair, Registry)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        let a = KeyPair::generate("A", 384, &mut rng).unwrap();
        let b = KeyPair::generate("B", 384, &mut rng).unwrap();
        let reg = Registry::from_keypairs([&a, &b]);
        (a, b, reg)
    })
}

/// Raw RSA keys for the CRT differential: a balanced 384-bit modulus and
/// an unbalanced 385-bit one (primes of 192 and 193 bits).
fn raw_keys() -> &'static [(PublicKey, SecretKey)] {
    static CELL: OnceLock<Vec<(PublicKey, SecretKey)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2025);
        [384, 385]
            .into_iter()
            .map(|bits| rsa::generate(bits, &mut rng).unwrap())
            .collect()
    })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        "[a-z]{0,12}",
        prop::num::f64::NORMAL | prop::num::f64::ZERO,
        any::<u32>(),
        prop::collection::vec(any::<bool>(), 0..8),
    )
        .prop_map(|(id, bid, round, flags)| Payload {
            id,
            bid,
            round,
            flags,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_payload_roundtrips(p in arb_payload()) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p.clone()).unwrap();
        prop_assert_eq!(signed.verify(reg).unwrap(), &p);
    }

    #[test]
    fn wrong_signer_always_rejected(p in arb_payload()) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p).unwrap();
        // Claiming B's identity with A's signature must fail.
        let relabeled = dls_crypto::Signed::forge(
            signed.body_unverified().clone(),
            "B",
            signed.signature().0.clone(),
        );
        prop_assert!(relabeled.verify(reg).is_err());
    }

    #[test]
    fn tampering_any_field_detected(p in arb_payload(), delta in 1u32..1000) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p).unwrap();
        let tampered = signed.tamper(|mut b| { b.round = b.round.wrapping_add(delta); b });
        prop_assert!(tampered.verify(reg).is_err());
    }

    #[test]
    fn equivocation_iff_bodies_differ(p in arb_payload(), q in arb_payload()) {
        let (a, _, reg) = fixtures();
        let s1 = a.sign(p.clone()).unwrap();
        let s2 = a.sign(q.clone()).unwrap();
        prop_assert_eq!(is_equivocation(&s1, &s2, reg), p != q);
    }

    #[test]
    fn crt_signature_matches_naive_oracle(p in arb_payload()) {
        let digest = sha256::digest(&canon::to_bytes(&p).unwrap());
        for (pk, sk) in raw_keys() {
            let fast = sk.sign_digest(&digest);
            prop_assert_eq!(&fast, &sk.sign_digest_naive(&digest));
            prop_assert!(pk.verify_digest(&digest, &fast));
            prop_assert!(pk.verify_digest_naive(&digest, &fast));
        }
    }

    #[test]
    fn canon_deterministic(p in arb_payload()) {
        prop_assert_eq!(canon::to_bytes(&p).unwrap(), canon::to_bytes(&p).unwrap());
    }

    #[test]
    fn canon_injective_on_samples(p in arb_payload(), q in arb_payload()) {
        let bp = canon::to_bytes(&p).unwrap();
        let bq = canon::to_bytes(&q).unwrap();
        if p != q {
            prop_assert_ne!(bp, bq);
        } else {
            prop_assert_eq!(bp, bq);
        }
    }
}
