//! Cross-backend parity suite: the automorphism blind rotation against
//! the strict CMUX oracle.
//!
//! The two backends run *different* operation schedules (per-element
//! CMUX ladder vs dlog-bucketed automorphism walk), so their outputs are
//! noise-equivalent rather than bit-identical — the contract pinned here
//! is that both decrypt to the same rotated test polynomial. Random
//! ternary keys and masks, with the known edges forced in: the all-zero
//! mask (no EP fires at all on the CMUX side; every class still walks on
//! the auto side), `a_i = 0` (the skip branch) and `a_i = N` (the
//! negacyclic wrap `X^N = -1`, an *even* rotation the dlog grouping must
//! route through the `-1` coset). The auto path itself must be
//! deterministic and SIMD-dispatch-independent: same key, same input,
//! bit-identical output with the vector kernels force-disabled.
//!
//! Every property runs on 30-bit limbs (narrow MAC in the external
//! products and Galois key switches) and on 36-bit limbs (Shoup/`u128`
//! MAC).

use heap_math::prime::ntt_primes;
use heap_math::RnsContext;
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::rlwe::RingSecretKey;
use heap_tfhe::{
    test_polynomial_from_fn, AutoBlindRotateKey, AutoRotateScratch, BlindRotateKey, LweCiphertext,
    RgswParams,
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

/// Builds the mask for one proptest case: `edge` selects which known
/// hazard gets forced in alongside otherwise-random elements.
fn mask_for(edge: usize, rng: &mut StdRng) -> Vec<u64> {
    let n = N as u64;
    let two_n = 2 * n;
    match edge {
        0 => vec![0; N_T], // all-zero mask
        1 => vec![n; N_T], // all negacyclic wraps
        _ => {
            let mut a: Vec<u64> = (0..N_T).map(|_| rng.gen_range(0..two_n)).collect();
            match edge {
                2 => a[0] = 0, // skip branch interleaved with live steps
                3 => a[0] = n, // single X^N = -1 wrap
                _ => {}        // fully generic
            }
            a
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Automorphism blind rotation decrypts identically (within the
    /// rotation noise budget) to the strict CMUX reference on a random
    /// ternary key, across the edge-mask taxonomy above.
    #[test]
    fn auto_decrypts_identically_to_cmux_reference(seed in any::<u64>(), edge in 0usize..5) {
        for bits in BITS {
            let c = ctx(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
            let brk = BlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
            let abk = AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
            let two_n = 2 * N as u64;
            let scale = 1i64 << 45;
            let f = test_polynomial_from_fn(&c, LIMBS, |u| scale * u);
            let lwe = LweCiphertext {
                a: mask_for(edge, &mut rng),
                b: rng.gen_range(0..two_n),
                modulus: two_n,
            };
            let auto_out = abk.blind_rotate(&c, &f, &lwe);
            let oracle = brk.blind_rotate_reference(&c, &f, &lwe);
            let pa = auto_out.phase(&c, &ring_sk).to_centered_f64(&c);
            let po = oracle.phase(&c, &ring_sk).to_centered_f64(&c);
            for (i, (x, y)) in pa.iter().zip(&po).enumerate() {
                prop_assert!(
                    (x - y).abs() < (1u64 << 37) as f64,
                    "decrypt divergence at coeff {}: {} vs {} (mask {:?})",
                    i, x, y, lwe.a
                );
            }
        }
    }

    /// The auto path is deterministic and scratch-reuse-safe: repeated
    /// rotations through one shared scratch are bit-identical to fresh
    /// ones, in any interleaving order.
    #[test]
    fn auto_rotation_is_deterministic_under_scratch_reuse(seed in any::<u64>()) {
        for bits in BITS {
            let c = ctx(bits);
            let mut rng = StdRng::seed_from_u64(seed);
            let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
            let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
            let abk = AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
            let two_n = 2 * N as u64;
            let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
            let lwes: Vec<LweCiphertext> = (0..3)
                .map(|i| LweCiphertext {
                    a: mask_for(i + 2, &mut rng),
                    b: rng.gen_range(0..two_n),
                    modulus: two_n,
                })
                .collect();
            let fresh: Vec<_> = lwes.iter().map(|l| abk.blind_rotate(&c, &f, l)).collect();
            let mut scratch = AutoRotateScratch::default();
            for (lwe, want) in lwes.iter().zip(&fresh) {
                let got = abk.blind_rotate_with(&c, &f, lwe, &mut scratch);
                prop_assert!(
                    got.a == want.a && got.b == want.b,
                    "scratch reuse changed the rotation output"
                );
            }
        }
    }
}

/// Auto rotation with SIMD force-disabled == the same rotation on the
/// native dispatch, bit for bit (the hoisted Shoup datapath and the
/// scalar kernels are exact rewrites of each other). Restores native
/// dispatch even on panic.
#[test]
fn auto_rotation_forced_scalar_is_bit_identical() {
    struct RestoreSimd;
    impl Drop for RestoreSimd {
        fn drop(&mut self) {
            heap_math::simd::force_scalar(false);
        }
    }

    let _restore = RestoreSimd;
    for bits in BITS {
        let c = ctx(bits);
        let mut rng = StdRng::seed_from_u64(0xA07_5EED);
        let ring_sk = RingSecretKey::generate(&c, LIMBS, &mut rng);
        let lwe_sk = LweSecretKey::generate(&mut rng, N_T);
        let abk =
            AutoBlindRotateKey::generate(&c, &lwe_sk, &ring_sk, LIMBS, params(bits), &mut rng);
        let two_n = 2 * N as u64;
        let f = test_polynomial_from_fn(&c, LIMBS, |u| u << 40);
        let lwe = LweCiphertext {
            a: (0..N_T).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        };

        heap_math::simd::force_scalar(false);
        let native = abk.blind_rotate(&c, &f, &lwe);

        heap_math::simd::force_scalar(true);
        assert_eq!(heap_math::simd::active(), heap_math::simd::Backend::Scalar);
        let scalar = abk.blind_rotate(&c, &f, &lwe);

        assert!(
            native.a == scalar.a && native.b == scalar.b,
            "auto blind rotate diverged between native and forced-scalar dispatch ({bits}-bit)"
        );
    }
}
