//! Bit-identity parity suite: every optimized kernel against its retained
//! strict oracle.
//!
//! The lazy-reduction NTT, the `u128`-MAC external product, and the
//! restructured CMux are *exact* rewrites — same canonical output, not
//! just the same phase up to noise. This suite pins that claim on random
//! inputs: lazy external products vs [`external_product_reference`], and
//! the restructured [`BlindRotateKey::blind_rotate`] (plus the key-major
//! batch schedule) vs [`BlindRotateKey::blind_rotate_reference`],
//! including the `a_i = 0` skip and `a_i = N` negacyclic-wrap edges.
//!
//! Every property runs on two bases: 30-bit limbs, whose products take the
//! narrow `u64` MAC, and 36-bit limbs, which keep the Shoup (SIMD) or
//! `u128` (scalar) MAC — so both MAC classes stay under the oracle. The
//! gate-boundary tests at the end pin the shapes on either side of the
//! narrow MAC's term limit.

use heap_math::prime::ntt_primes;
use heap_math::{RnsContext, RnsPoly};
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::rlwe::{RingSecretKey, RlweCiphertext};
use heap_tfhe::{
    external_product, external_product_prepared_into, external_product_reference,
    test_polynomial_from_fn, BlindRotateKey, ExternalProductScratch, LweCiphertext, PreparedRgsw,
    RgswCiphertext, RgswParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 64;
const LIMBS: usize = 2;
const N_T: usize = 8;
/// Limb widths every property runs on: narrow MAC, then Shoup/`u128` MAC.
const BITS: [u32; 2] = [30, 36];

fn ctx(bits: u32) -> RnsContext {
    RnsContext::new(N, &ntt_primes(N as u64, bits, LIMBS))
}

/// Two digits covering a `bits`-bit limb.
fn params(bits: u32) -> RgswParams {
    RgswParams {
        base_bits: bits.div_ceil(2),
        digits: 2,
    }
}

fn assert_bit_identical(a: &RlweCiphertext, b: &RlweCiphertext, what: &str) {
    assert!(a.a == b.a && a.b == b.b, "{what} diverged from oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lazy u128-MAC external product == strict reference, on a fresh
    /// encryption of a random message against RGSW(m) for m ∈ {0, 1, -1}
    /// (the ternary blind-rotate key alphabet).
    #[test]
    fn external_product_matches_reference(seed in any::<u64>(), scalar in -1i64..=1) {
        for bits in BITS {
            let c = ctx(bits);
            let p = params(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
            let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, LIMBS), &mut rng);
            let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, scalar, LIMBS, &p, &mut rng);
            let lazy = external_product(&ct, &rgsw, &c, &p);
            let strict = external_product_reference(&ct, &rgsw, &c, &p);
            assert_bit_identical(&lazy, &strict, "external_product");
        }
    }

    /// Restructured CMux blind rotation == one-product Algorithm 1 over
    /// strict kernels, on a random ternary key and random mask elements —
    /// with `a_0` forced through the `{0, N}` edge cases (the trivial-skip
    /// branch and the negacyclic wrap `X^N = -1`).
    #[test]
    fn blind_rotate_matches_reference(seed in any::<u64>(), edge in 0usize..3) {
        for bits in BITS {
            let c = ctx(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
            let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
            let two_n = 2 * N as u64;
            let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
            let mut a: Vec<u64> = (0..N_T).map(|_| rng.gen_range(0..two_n)).collect();
            a[0] = match edge {
                0 => 0,            // (X^0 − 1) terms vanish: the skip branch
                1 => N as u64,     // X^N = −1: negacyclic wrap
                _ => a[0],         // generic element
            };
            let lwe = LweCiphertext { a, b: rng.gen_range(0..two_n), modulus: two_n };
            let hot = brk.blind_rotate(&c, &f, &lwe);
            let oracle = brk.blind_rotate_reference(&c, &f, &lwe);
            assert_bit_identical(&hot, &oracle, "blind_rotate");
        }
    }

    /// Prepared-key (u64-accumulator) external product == strict
    /// reference: the narrow MAC (30-bit limbs, no quotients) and the SIMD
    /// Shoup MAC with key-load-time quotients (36-bit limbs) must produce
    /// the same canonical residues as the u128 lazy MAC.
    #[test]
    fn prepared_external_product_matches_reference(seed in any::<u64>(), scalar in -1i64..=1) {
        for bits in BITS {
            let c = ctx(bits);
            let p = params(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
            let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, LIMBS), &mut rng);
            let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, scalar, LIMBS, &p, &mut rng);
            let prep = PreparedRgsw::new(&rgsw, &c);
            prop_assert_eq!(prep.holds_quotients(), bits > 30);
            let mut scratch = ExternalProductScratch::default();
            let mut prepared = RlweCiphertext::zero(&c, LIMBS);
            external_product_prepared_into(&ct, &rgsw, &prep, &c, &p, &mut scratch, &mut prepared);
            let strict = external_product_reference(&ct, &rgsw, &c, &p);
            assert_bit_identical(&prepared, &strict, "external_product_prepared");
        }
    }

    /// The key-major batch schedule is bit-identical to rotating each LWE
    /// through the strict reference independently (scratch reuse across
    /// interleaved accumulators leaks no state).
    #[test]
    fn key_major_batch_matches_reference(seed in any::<u64>()) {
        for bits in BITS {
            let c = ctx(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
            let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
            let two_n = 2 * N as u64;
            let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
            let lwes: Vec<LweCiphertext> = (0..3)
                .map(|i| LweCiphertext {
                    // Give one ciphertext a zero element so the skip branch
                    // interleaves with active steps inside the batch.
                    a: (0..N_T).map(|j| if i == 1 && j == 0 { 0 } else { rng.gen_range(0..two_n) }).collect(),
                    b: rng.gen_range(0..two_n),
                    modulus: two_n,
                })
                .collect();
            let (batched, fetches) = brk.blind_rotate_batch_key_major(&c, &f, &lwes);
            prop_assert_eq!(fetches, N_T as u64);
            for (got, lwe) in batched.iter().zip(&lwes) {
                let oracle = brk.blind_rotate_reference(&c, &f, lwe);
                assert_bit_identical(got, &oracle, "blind_rotate_batch_key_major");
            }
        }
    }
}

/// Full blind rotation with SIMD force-disabled == the same rotation on
/// whatever backend the host dispatches (on a vector host this pins the
/// whole AVX2/NEON + Shoup datapath against the scalar kernels; on a
/// scalar host it is a no-op identity). `force_scalar` is restored even on
/// panic so concurrent tests keep their native dispatch — which is safe
/// either way, precisely because the paths are bit-identical.
#[test]
fn blind_rotate_forced_scalar_is_bit_identical() {
    struct RestoreSimd;
    impl Drop for RestoreSimd {
        fn drop(&mut self) {
            heap_math::simd::force_scalar(false);
        }
    }

    let _restore = RestoreSimd;
    for bits in BITS {
        let c = ctx(bits);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
        let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
        let two_n = 2 * N as u64;
        let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
        let lwe = LweCiphertext {
            a: (0..N_T).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        };

        heap_math::simd::force_scalar(false);
        let native = brk.blind_rotate(&c, &f, &lwe);

        heap_math::simd::force_scalar(true);
        assert_eq!(heap_math::simd::active(), heap_math::simd::Backend::Scalar);
        let scalar = brk.blind_rotate(&c, &f, &lwe);

        assert_bit_identical(&native, &scalar, "blind_rotate (forced scalar)");
    }
}

/// Prepared external product over `(bits, limbs, params)` == the strict
/// oracle; returns whether the prepared key built Shoup quotients (i.e.
/// the shape fell back from the narrow MAC).
fn prepared_matches_reference_at(bits: u32, limbs: usize, p: RgswParams, seed: u64) -> bool {
    let c = RnsContext::new(N, &ntt_primes(N as u64, bits, limbs));
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = RingSecretKey::generate(&c, limbs, &mut rng);
    let msg: Vec<i64> = (0..N).map(|_| rng.gen_range(-500..500)).collect();
    let ct = RlweCiphertext::encrypt(&c, &sk, &RnsPoly::from_signed(&c, &msg, limbs), &mut rng);
    let rgsw = RgswCiphertext::encrypt_scalar(&c, &sk, -1, limbs, &p, &mut rng);
    let prep = PreparedRgsw::new(&rgsw, &c);
    let mut scratch = ExternalProductScratch::default();
    let mut out = RlweCiphertext::zero(&c, limbs);
    external_product_prepared_into(&ct, &rgsw, &prep, &c, &p, &mut scratch, &mut out);
    let strict = external_product_reference(&ct, &rgsw, &c, &p);
    assert_bit_identical(&out, &strict, "external_product_prepared (gate boundary)");
    // The gate condition itself, stated independently of the crate.
    let terms = 2 * p.rows(limbs) as u64;
    let fits = (0..limbs).all(|j| terms <= c.ntt(j).narrow_mac_term_limit());
    assert_eq!(prep.holds_quotients(), !fits, "{bits}-bit, {terms} terms");
    prep.holds_quotients()
}

/// The narrow MAC's gate boundaries, each bit-identical to the oracle:
/// exactly at the term limit (four 30-bit limbs, `d = 2`: 16 terms) stays
/// narrow; one limb more, or 31-bit limbs at the same shape, fall back to
/// the previous Shoup/`u128` MACs.
#[test]
fn narrow_mac_gate_boundaries_are_bit_identical() {
    let d2 = RgswParams {
        base_bits: 15,
        digits: 2,
    };
    assert!(!prepared_matches_reference_at(30, 4, d2, 1), "16 terms fit");
    assert!(
        prepared_matches_reference_at(30, 5, d2, 2),
        "20 terms exceed the limit"
    );
    let d2_31 = RgswParams {
        base_bits: 16,
        digits: 2,
    };
    assert!(
        prepared_matches_reference_at(31, 2, d2_31, 3),
        "31-bit limbs"
    );
    assert!(
        prepared_matches_reference_at(31, 4, d2_31, 4),
        "31-bit limbs"
    );
}
