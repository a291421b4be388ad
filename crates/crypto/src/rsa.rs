//! Textbook RSA signatures over SHA-256 digests.
//!
//! **Simulation-grade.** The mechanism needs signatures that are unforgeable
//! *within the simulation* and verifiable by third parties (the referee uses
//! them as evidence of equivocation, Lemma 5.2). It does not need resistance
//! to real-world adversaries, so we use small default moduli for speed and a
//! simplified EMSA-PKCS#1-v1.5 padding (no ASN.1 `DigestInfo` prefix).
//!
//! Signing runs in CRT form (Quisquater & Couvreur, 1982): two half-width
//! exponentiations mod `p` and `q`, recombined with Garner's formula. The
//! result is the unique residue `m^d mod n`, so the bytes equal those of the
//! full-width [`SecretKey::sign_digest_naive`] oracle.

use crate::ctx::{ExpCtx, VerifyCtx};
use crate::sha256::{self, Digest};
use dls_num::{gcd, modmath, BigUint, MontgomeryCtx};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Default modulus size in bits. Small on purpose: sessions create one key
/// pair per processor and property tests create many.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Smallest supported modulus: padding needs `3 + 8 + 32` bytes minimum.
pub const MIN_MODULUS_BITS: usize = 384;

/// Fixed public exponent (F4).
const PUBLIC_EXPONENT: u32 = 65_537;

/// Errors from key generation and signing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Requested modulus below [`MIN_MODULUS_BITS`].
    ModulusTooSmall {
        /// Requested bit size.
        requested: usize,
    },
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::ModulusTooSmall { requested } => write!(
                f,
                "modulus of {requested} bits is below the minimum of {MIN_MODULUS_BITS}"
            ),
        }
    }
}

impl std::error::Error for RsaError {}

/// RSA public key `(n, e)` with its prebuilt [`VerifyCtx`].
///
/// The context (Montgomery constants for `n`, window schedule for `e`) is
/// derived data: identity, equality, and hashing consider only `(n, e)`.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    ctx: Arc<VerifyCtx>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Skip the derived Montgomery constants; (n, e) is the identity.
        f.debug_struct("PublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// RSA secret key `(n, d)` with its CRT form.
///
/// `d` feeds only the full-width [`sign_digest_naive`] oracle; the fast path
/// signs from the CRT parameters.
///
/// [`sign_digest_naive`]: SecretKey::sign_digest_naive
#[derive(Clone)]
pub struct SecretKey {
    n: BigUint,
    d: BigUint,
    crt: Arc<Crt>,
}

/// The CRT form of a private exponent: the primes `p` and `q`,
/// `dP = d mod (p−1)`, `dQ = d mod (q−1)` and `qInv = q⁻¹ mod p`, plus one
/// Montgomery context per prime with its half-width exponent's window
/// schedule, built once at key generation.
struct Crt {
    p: BigUint,
    q: BigUint,
    // Signing reads dP and dQ through their window schedules in `ctx_p` and
    // `ctx_q`; the values themselves complete the PKCS #1 private-key form.
    #[allow(dead_code)]
    dp: BigUint,
    #[allow(dead_code)]
    dq: BigUint,
    q_inv: BigUint,
    /// `x ↦ x^dP mod p`.
    ctx_p: ExpCtx,
    /// `x ↦ x^dQ mod q`.
    ctx_q: ExpCtx,
}

impl Crt {
    /// `m^d mod n` from the two half-width exponentiations, recombined with
    /// Garner's formula `s = s_q + q·(qInv·(s_p − s_q) mod p)`.
    ///
    /// `s_q < q` and the bracket is below `p`, so `s < q·p = n`: the result
    /// is the canonical residue, not merely a congruent value.
    fn pow(&self, m: &BigUint) -> BigUint {
        let s_p = self.ctx_p.pow(m);
        let s_q = self.ctx_q.pow(m);
        // (s_p − s_q) mod p, kept non-negative: s_p + p > s_q mod p. Nothing
        // orders the primes (and unbalanced keys give q more bits), so s_q
        // can exceed p and is reduced first.
        let diff = &(&s_p + &self.p) - &(&s_q % &self.p);
        let h = modmath::mul_mod(&self.q_inv, &diff, &self.p);
        &s_q + &(&self.q * &h)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private exponent or any CRT parameter.
        write!(f, "SecretKey(n={} bits)", self.n.bits())
    }
}

/// A detached signature (big-endian bytes of `s = m^d mod n`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawSignature(pub Vec<u8>);

impl PublicKey {
    /// Modulus size in bytes (`k` in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Verifies `sig` over `message` (hashed internally with SHA-256).
    pub fn verify(&self, message: &[u8], sig: &RawSignature) -> bool {
        self.verify_digest(&sha256::digest(message), sig)
    }

    /// Verifies `sig` over `message` via plain `pow_mod` (see
    /// [`verify_digest_naive`]): the pre-Montgomery reference path used as
    /// the per-receiver cost baseline in benchmarks.
    ///
    /// [`verify_digest_naive`]: PublicKey::verify_digest_naive
    pub fn verify_naive(&self, message: &[u8], sig: &RawSignature) -> bool {
        self.verify_digest_naive(&sha256::digest(message), sig)
    }

    /// Verifies `sig` over a precomputed digest using the prebuilt
    /// Montgomery context (the fast path).
    pub fn verify_digest(&self, digest: &Digest, sig: &RawSignature) -> bool {
        let s = BigUint::from_bytes_be(&sig.0);
        if s >= self.n {
            return false;
        }
        let m = self.ctx.pow(&s);
        let expected = pad_digest(digest, self.modulus_len());
        m == BigUint::from_bytes_be(&expected)
    }

    /// Verifies `sig` via plain `pow_mod` — the pre-Montgomery reference
    /// path, kept public as the differential oracle and the benchmark
    /// baseline. Verdicts are bit-identical to [`verify_digest`]
    /// (deterministic hash-then-modexp over the same unique residues).
    ///
    /// [`verify_digest`]: PublicKey::verify_digest
    pub fn verify_digest_naive(&self, digest: &Digest, sig: &RawSignature) -> bool {
        let s = BigUint::from_bytes_be(&sig.0);
        if s >= self.n {
            return false;
        }
        let m = modmath::pow_mod(&s, &self.e, &self.n);
        let expected = pad_digest(digest, self.modulus_len());
        m == BigUint::from_bytes_be(&expected)
    }

    /// The prebuilt verification context.
    pub fn verify_ctx(&self) -> &Arc<VerifyCtx> {
        &self.ctx
    }
}

impl SecretKey {
    /// Signs `message` (hashed internally with SHA-256).
    pub fn sign(&self, message: &[u8]) -> RawSignature {
        self.sign_digest(&sha256::digest(message))
    }

    /// Signs a precomputed digest in CRT form with the prebuilt per-prime
    /// Montgomery contexts (the fast path).
    pub fn sign_digest(&self, digest: &Digest) -> RawSignature {
        let k = self.n.bits().div_ceil(8);
        let m = BigUint::from_bytes_be(&pad_digest(digest, k));
        debug_assert!(m < self.n);
        RawSignature(self.crt.pow(&m).to_bytes_be())
    }

    /// Signs via plain full-width `pow_mod` with `d` — the reference path,
    /// kept public as the differential oracle. Signature bytes are identical
    /// to [`sign_digest`]'s.
    ///
    /// [`sign_digest`]: SecretKey::sign_digest
    pub fn sign_digest_naive(&self, digest: &Digest) -> RawSignature {
        let k = self.n.bits().div_ceil(8);
        let m = BigUint::from_bytes_be(&pad_digest(digest, k));
        debug_assert!(m < self.n);
        let s = modmath::pow_mod(&m, &self.d, &self.n);
        RawSignature(s.to_bytes_be())
    }
}

/// Simplified EMSA-PKCS#1-v1.5: `0x00 0x01 FF…FF 0x00 || digest`,
/// `k` bytes total.
fn pad_digest(digest: &Digest, k: usize) -> Vec<u8> {
    // Holds for every generated key: MIN_MODULUS_BITS gives k >= 48 > 32 + 11.
    assert!(k >= digest.len() + 11, "modulus too small for padding");
    let mut out = Vec::with_capacity(k);
    out.push(0x00);
    out.push(0x01);
    out.resize(k - digest.len() - 1, 0xff);
    out.push(0x00);
    out.extend_from_slice(digest);
    out
}

/// Generates an RSA key pair with an `bits`-bit modulus.
pub fn generate(bits: usize, rng: &mut impl Rng) -> Result<(PublicKey, SecretKey), RsaError> {
    if bits < MIN_MODULUS_BITS {
        return Err(RsaError::ModulusTooSmall { requested: bits });
    }
    let e = BigUint::from(PUBLIC_EXPONENT);
    loop {
        let p = crate::prime::gen_prime(bits / 2, rng);
        let q = crate::prime::gen_prime(bits - bits / 2, rng);
        if p == q {
            continue;
        }
        let n = &p * &q;
        let (p1, q1) = (&p - &BigUint::one(), &q - &BigUint::one());
        let phi = &p1 * &q1;
        if !gcd(&e, &phi).is_one() {
            continue;
        }
        // dls-lint: allow(no-panic-in-protocol) -- gcd(e, phi) = 1 was checked just above
        let d = modmath::inv_mod(&e, &phi).expect("coprime by check above");
        // The CRT form is derived arithmetic only: it draws nothing from
        // `rng`, so seeded keys are unchanged by it.
        let dp = &d % &p1;
        let dq = &d % &q1;
        // dls-lint: allow(no-panic-in-protocol) -- p != q are primes, hence coprime
        let q_inv = modmath::inv_mod(&q, &p).expect("distinct primes are coprime");
        let prime_ctx = |prime: &BigUint, exp: &BigUint| {
            // dls-lint: allow(no-panic-in-protocol) -- primes of >= MIN_MODULUS_BITS/2 bits are odd and > 1
            let mont = MontgomeryCtx::new(prime).expect("RSA prime is odd and > 1");
            ExpCtx::new(mont, exp)
        };
        let crt = Crt {
            ctx_p: prime_ctx(&p, &dp),
            ctx_q: prime_ctx(&q, &dq),
            p,
            q,
            dp,
            dq,
            q_inv,
        };
        // dls-lint: allow(no-panic-in-protocol) -- n = p*q is a product of odd primes, so odd and > 1
        let mont = MontgomeryCtx::new(&n).expect("RSA modulus is an odd semiprime > 1");
        let verify_ctx = Arc::new(ExpCtx::new(mont, &e));
        return Ok((
            PublicKey {
                n: n.clone(),
                e,
                ctx: verify_ctx,
            },
            SecretKey {
                n,
                d,
                crt: Arc::new(crt),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (PublicKey, SecretKey) {
        let mut rng = StdRng::seed_from_u64(7);
        generate(MIN_MODULUS_BITS, &mut rng).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (pk, sk) = keypair();
        let msg = b"bid: P3 offers w=2.25";
        let sig = sk.sign(msg);
        assert!(pk.verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let (pk, sk) = keypair();
        let sig = sk.sign(b"alpha = 0.25");
        assert!(!pk.verify(b"alpha = 0.26", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (pk, sk) = keypair();
        let mut sig = sk.sign(b"payload");
        sig.0[0] ^= 0x40;
        assert!(!pk.verify(b"payload", &sig));
    }

    #[test]
    fn signature_from_wrong_key_rejected() {
        let (pk, _) = keypair();
        let mut rng = StdRng::seed_from_u64(99);
        let (_, other_sk) = generate(MIN_MODULUS_BITS, &mut rng).unwrap();
        let sig = other_sk.sign(b"payload");
        assert!(!pk.verify(b"payload", &sig));
    }

    #[test]
    fn oversized_signature_value_rejected() {
        let (pk, _) = keypair();
        // s >= n must be rejected without panicking.
        let huge = RawSignature(vec![0xff; pk.modulus_len() + 4]);
        assert!(!pk.verify(b"x", &huge));
    }

    #[test]
    fn too_small_modulus_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            generate(128, &mut rng),
            Err(RsaError::ModulusTooSmall { requested: 128 })
        ));
    }

    #[test]
    fn padding_shape() {
        let d = sha256::digest(b"abc");
        let padded = pad_digest(&d, 48);
        assert_eq!(padded.len(), 48);
        assert_eq!(&padded[..2], &[0x00, 0x01]);
        assert_eq!(padded[48 - 33], 0x00);
        assert_eq!(&padded[48 - 32..], &d);
        assert!(padded[2..48 - 33].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn deterministic_signatures() {
        let (_, sk) = keypair();
        assert_eq!(sk.sign(b"same"), sk.sign(b"same"));
    }

    #[test]
    fn secret_key_debug_redacts() {
        let (_, sk) = keypair();
        let dbg = format!("{sk:?}");
        let crt = &sk.crt;
        for secret in [&sk.d, &crt.p, &crt.q, &crt.dp, &crt.dq, &crt.q_inv] {
            assert!(!dbg.contains(&secret.to_string()), "decimal leak: {dbg}");
            assert!(!dbg.contains(&format!("{secret:x}")), "hex leak: {dbg}");
        }
    }

    #[test]
    fn seeded_keygen_stream_is_pinned() {
        // The CRT bookkeeping must draw nothing from the RNG: every seeded
        // session, the key cache and the committed BENCH scenarios depend on
        // this stream producing the same primes.
        let (pk, _) = keypair();
        assert_eq!(format!("{:x}", pk.n), PINNED_N_SEED7_384);
    }

    /// Modulus of `generate(384, seed 7)` as keygen drew it before the CRT
    /// form existed; a mismatch means keygen's RNG draws changed.
    const PINNED_N_SEED7_384: &str = "a451563537f7e76cf3203e3022dfacf7dc06f698\
                                      9df632c2e0c206d42e869e7a619a848211b56aa8\
                                      59edfa7c555fb765";

    #[test]
    fn montgomery_and_naive_paths_are_byte_identical() {
        // Fixed-vector round trip: the CRT fast path must produce the same
        // signature bytes and the same verdicts as the full-width `pow_mod`
        // path on identical inputs, including unbalanced prime halves
        // (385 and 513 bits split into primes of different widths).
        for (seed, bits) in [(7, 384), (11, 385), (13, 513), (17, 1024)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pk, sk) = generate(bits, &mut rng).unwrap();
            assert_eq!(pk.n.bits(), bits);
            for msg in [
                &b"bid: P3 offers w=2.25"[..],
                b"",
                b"payment vector Q = (1/3, 1/3, 1/3)",
            ] {
                let digest = sha256::digest(msg);
                let fast = sk.sign_digest(&digest);
                let naive = sk.sign_digest_naive(&digest);
                assert_eq!(fast, naive, "{bits}-bit signature bytes diverge on {msg:?}");
                assert!(pk.verify_digest(&digest, &fast));
                assert!(pk.verify_digest_naive(&digest, &fast));
                // A tampered signature is rejected identically by both paths.
                let mut bad = fast.clone();
                bad.0[0] ^= 0x01;
                assert_eq!(
                    pk.verify_digest(&digest, &bad),
                    pk.verify_digest_naive(&digest, &bad)
                );
                assert!(!pk.verify_digest(&digest, &bad));
            }
        }
    }

    #[test]
    fn public_key_holds_modulus_context_and_secret_key_the_prime_contexts() {
        let (pk, sk) = keypair();
        assert_eq!(pk.verify_ctx().montgomery().modulus(), &pk.n);
        let crt = &sk.crt;
        assert_eq!(crt.ctx_p.montgomery().modulus(), &crt.p);
        assert_eq!(crt.ctx_q.montgomery().modulus(), &crt.q);
        assert_eq!(&(&crt.p * &crt.q), &sk.n);
        // qInv really is q's inverse mod p.
        assert!(modmath::mul_mod(&crt.q, &crt.q_inv, &crt.p).is_one());
    }
}
