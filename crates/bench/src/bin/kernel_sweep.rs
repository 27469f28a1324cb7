//! Reference-vs-optimized sweep of the three hot kernels, emitting
//! `BENCH_kernels.json` (machine-readable) plus a human-readable table.
//!
//! Measures single-threaded ns/op of each kernel at three datapath tiers:
//!
//! - `reference` — the strict seed kernels retained as oracles
//!   (`forward/inverse_reference`, `external_product_reference`,
//!   `blind_rotate_reference`);
//! - `scalar` — the Harvey lazy-reduction scalar kernels
//!   ([`heap_math::NttTable::forward_lazy_scalar`], the `u128`-MAC
//!   external product, the restructured CMux with SIMD force-disabled);
//! - `simd` — the dispatching kernels on the active vector backend
//!   (AVX2/NEON lazy butterflies; the prepared-key external product, which
//!   takes the narrow u64 MAC for limbs below `2^30` and the
//!   Shoup-precomputed u64 MAC above). On a host without a vector unit the
//!   NTT columns are equal and the reported backend is `scalar`.
//!
//! Rows, for two shapes (`limb_bits` tells them apart):
//!
//! - the paper's raised basis — `ntt_forward` / `ntt_inverse` at
//!   `n ∈ {2^10, 2^13}` over a 36-bit prime, `external_product` at
//!   `n = 2^13` over two 36-bit limbs and the paper's gadget (`d = 2`,
//!   base `2^18`), `blind_rotate` swept over the LWE mask length
//!   `n_mask ∈ {4, 8, 16, 32}` on **both** blind-rotate backends (`cmux`
//!   and `auto`), each row carrying the seed-expandable wire size of its
//!   backend's rotation key, plus the key-major batch schedule;
//! - the Tiny preset the repository benchmark rotates over — `N = 128`,
//!   four 28-bit limbs, `d = 2` / base `2^15`, `n_mask = 32`: the NTTs,
//!   the external product and both blind-rotate backends (narrow class).
//!
//! Every pair of tiers is also asserted bit-identical here, so a speedup
//! row can never come from a divergent datapath (the exhaustive parity
//! arguments live in `tests/kernel_parity.rs` and the `heap-math`
//! property suite).
//!
//! ```sh
//! cargo run --release -p heap-bench --bin kernel_sweep
//! ```

use std::time::Instant;

use heap_math::ntt::NttTable;
use heap_math::prime::ntt_primes;
use heap_math::{Modulus, RnsContext};
use heap_tfhe::lwe::LweSecretKey;
use heap_tfhe::rlwe::{RingSecretKey, RlweCiphertext};
use heap_tfhe::{
    abk_wire_size, brk_wire_size, external_product_into, external_product_prepared_into,
    external_product_reference, test_polynomial_from_fn, AutoBlindRotateKey, BlindRotateKey,
    ExternalProductScratch, LweCiphertext, PreparedRgsw, RgswCiphertext, RgswParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kernel row: strict oracle vs scalar lazy vs SIMD dispatch.
struct Row {
    kernel: &'static str,
    n: usize,
    /// Bit width of every RNS limb (the operand class the kernels run).
    limb_bits: u32,
    /// LWE mask length for the blind-rotate rows (0 elsewhere).
    n_mask: usize,
    /// Blind-rotate datapath for the rotation rows (`"-"` elsewhere).
    backend: &'static str,
    /// Seed-expandable wire size of the backend's rotation key (0 when
    /// the row has no key).
    key_bytes: usize,
    ops: usize,
    reference_ns: f64,
    scalar_ns: f64,
    simd_ns: f64,
}

impl Row {
    /// End-to-end win of the dispatching kernel over the strict oracle.
    fn speedup(&self) -> f64 {
        self.reference_ns / self.simd_ns
    }

    /// Win of the vector datapath over the scalar lazy kernel alone.
    fn simd_speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }
}

/// Best-of-3 ns per op of `iters` back-to-back calls (one warm-up first).
fn measure_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / iters as f64
}

fn print_row(r: &Row) {
    println!(
        "{:<28} {:>6} {:>4} {:>6} {:>7} {:>9} {:>5} {:>13.0} {:>13.0} {:>13.0} {:>8.2}x {:>8.2}x",
        r.kernel,
        r.n,
        r.limb_bits,
        r.n_mask,
        r.backend,
        r.key_bytes,
        r.ops,
        r.reference_ns,
        r.scalar_ns,
        r.simd_ns,
        r.simd_speedup(),
        r.speedup()
    );
}

/// NTT rows for one ring size and limb width: forward and inverse, three
/// tiers each.
fn ntt_rows(n: usize, limb_bits: u32, rows: &mut Vec<Row>) {
    let q = Modulus::new(ntt_primes(n as u64, limb_bits, 1)[0]).expect("valid NTT prime");
    let table = NttTable::new(n, q);
    let mut rng = StdRng::seed_from_u64(n as u64);
    let base: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();

    // Bit-identity sanity: both lazy kernels produce canonical residues.
    let mut simd = base.clone();
    let mut scalar = base.clone();
    let mut strict = base.clone();
    table.forward_lazy(&mut simd);
    table.forward_lazy_scalar(&mut scalar);
    table.forward_reference(&mut strict);
    assert_eq!(simd, strict, "forward_lazy diverged at n = {n}");
    assert_eq!(scalar, strict, "forward_lazy_scalar diverged at n = {n}");
    table.inverse_lazy(&mut simd);
    table.inverse_lazy_scalar(&mut scalar);
    table.inverse_reference(&mut strict);
    assert_eq!(simd, strict, "inverse_lazy diverged at n = {n}");
    assert_eq!(scalar, strict, "inverse_lazy_scalar diverged at n = {n}");

    let iters = (1 << 21) / n; // ~2M butterflies' worth per timing loop
    let mut buf = base.clone();
    let reference_ns = measure_ns(iters, || table.forward_reference(&mut buf));
    let scalar_ns = measure_ns(iters, || table.forward_lazy_scalar(&mut buf));
    let simd_ns = measure_ns(iters, || table.forward_lazy(&mut buf));
    rows.push(Row {
        kernel: "ntt_forward",
        n,
        limb_bits,
        n_mask: 0,
        backend: "-",
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });
    let reference_ns = measure_ns(iters, || table.inverse_reference(&mut buf));
    let scalar_ns = measure_ns(iters, || table.inverse_lazy_scalar(&mut buf));
    let simd_ns = measure_ns(iters, || table.inverse_lazy(&mut buf));
    rows.push(Row {
        kernel: "ntt_inverse",
        n,
        limb_bits,
        n_mask: 0,
        backend: "-",
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });
}

/// One TFHE kernel shape: ring, RNS basis, gadget, the LWE mask lengths
/// swept by the blind-rotate rows, and how many back-to-back calls each
/// timing loop runs (small rings need more to rise above timer noise).
struct Shape {
    n: usize,
    limb_bits: u32,
    limbs: usize,
    params: RgswParams,
    masks: &'static [usize],
    ep_iters: usize,
    rotate_iters: usize,
    /// Whether to emit the key-major batch row for this shape.
    batch: bool,
    seed: u64,
}

/// The raised-basis shape of the paper's parameters: `n = 2^13`, two
/// 36-bit limbs, paper gadget `d = 2` / `2^18`.
const PAPER: Shape = Shape {
    n: 1 << 13,
    limb_bits: 36,
    limbs: 2,
    params: RgswParams {
        base_bits: 18,
        digits: 2,
    },
    masks: &[4, 8, 16, 32],
    ep_iters: 2,
    rotate_iters: 1,
    batch: true,
    seed: 2024,
};

/// The shape the repository benchmark's `refresh` workload rotates over
/// (Tiny preset): `N = 128`, four 28-bit limbs, `d = 2` / `2^15`,
/// `n_mask = 32`.
const TINY: Shape = Shape {
    n: 128,
    limb_bits: 28,
    limbs: 4,
    params: RgswParams {
        base_bits: 15,
        digits: 2,
    },
    masks: &[32],
    ep_iters: 400,
    rotate_iters: 20,
    batch: false,
    seed: 128,
};

/// External-product, blind-rotate (both backends) and optional key-major
/// batch rows for one shape.
fn tfhe_rows(shape: &Shape, rows: &mut Vec<Row>) {
    let Shape {
        n,
        limb_bits,
        limbs,
        params,
        ep_iters,
        rotate_iters,
        ..
    } = *shape;
    let ctx = RnsContext::new(n, &ntt_primes(n as u64, limb_bits, limbs));
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let ring_sk = RingSecretKey::generate(&ctx, limbs, &mut rng);

    // External product row: strict oracle vs u128-MAC scalar path vs the
    // prepared-key dispatching path (narrow u64 MAC for limbs below 2^30,
    // Shoup-precomputed SIMD MAC above).
    let msg: Vec<i64> = (0..n).map(|i| ((i % 97) as i64) - 48).collect();
    let ct = RlweCiphertext::encrypt(
        &ctx,
        &ring_sk,
        &heap_math::RnsPoly::from_signed(&ctx, &msg, limbs),
        &mut rng,
    );
    let rgsw = RgswCiphertext::encrypt_scalar(&ctx, &ring_sk, 1, limbs, &params, &mut rng);
    let prep = PreparedRgsw::new(&rgsw, &ctx);
    let mut scratch = ExternalProductScratch::default();
    let mut out = RlweCiphertext::zero(&ctx, limbs);
    external_product_prepared_into(&ct, &rgsw, &prep, &ctx, &params, &mut scratch, &mut out);
    let oracle = external_product_reference(&ct, &rgsw, &ctx, &params);
    assert!(
        out.a == oracle.a && out.b == oracle.b,
        "prepared external product diverged"
    );
    external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    assert!(
        out.a == oracle.a && out.b == oracle.b,
        "lazy external product diverged"
    );
    let reference_ns = measure_ns(ep_iters, || {
        std::hint::black_box(external_product_reference(&ct, &rgsw, &ctx, &params));
    });
    heap_math::simd::force_scalar(true);
    let scalar_ns = measure_ns(ep_iters, || {
        external_product_into(&ct, &rgsw, &ctx, &params, &mut scratch, &mut out);
    });
    heap_math::simd::force_scalar(false);
    let simd_ns = measure_ns(ep_iters, || {
        external_product_prepared_into(&ct, &rgsw, &prep, &ctx, &params, &mut scratch, &mut out);
    });
    rows.push(Row {
        kernel: "external_product",
        n,
        limb_bits,
        n_mask: 0,
        backend: "-",
        key_bytes: 0,
        ops: 1,
        reference_ns,
        scalar_ns,
        simd_ns,
    });

    // Blind-rotate backend rows: the mask length is swept and both
    // datapaths (per-element CMUX ladder vs dlog-bucketed automorphism
    // walk) run the same rotations, each with the seed-expandable wire
    // size of its own key. The strict CMUX rotation is the shared
    // `reference` tier — the auto backend is decrypt-equivalent, not
    // bit-identical, so its parity is asserted against itself (native vs
    // forced-scalar) and proven against the oracle in
    // `tests/auto_parity.rs`. SIMD is toggled around the whole rotation,
    // so the scalar tier runs the scalar kernels end to end.
    let two_n = 2 * n as u64;
    let f = test_polynomial_from_fn(&ctx, limbs, |u| u << 40);
    let moduli: Vec<u64> = (0..limbs).map(|j| ctx.modulus(j).value()).collect();
    for &n_mask in shape.masks {
        let lwe_sk = LweSecretKey::generate(&mut rng, n_mask);
        let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, limbs, params, &mut rng);
        let abk = AutoBlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, limbs, params, &mut rng);
        let lwe = LweCiphertext {
            a: (0..n_mask).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        };

        let opt_single = brk.blind_rotate(&ctx, &f, &lwe);
        let ref_single = brk.blind_rotate_reference(&ctx, &f, &lwe);
        assert!(
            opt_single.a == ref_single.a && opt_single.b == ref_single.b,
            "restructured CMux diverged at n_mask = {n_mask}"
        );
        let reference_ns = measure_ns(rotate_iters, || {
            std::hint::black_box(brk.blind_rotate_reference(&ctx, &f, &lwe));
        });
        heap_math::simd::force_scalar(true);
        let scalar_ns = measure_ns(rotate_iters, || {
            std::hint::black_box(brk.blind_rotate(&ctx, &f, &lwe));
        });
        heap_math::simd::force_scalar(false);
        let simd_ns = measure_ns(rotate_iters, || {
            std::hint::black_box(brk.blind_rotate(&ctx, &f, &lwe));
        });
        rows.push(Row {
            kernel: "blind_rotate",
            n,
            limb_bits,
            n_mask,
            backend: "cmux",
            key_bytes: brk_wire_size(n_mask, n, params.digits, &moduli, true),
            ops: 1,
            reference_ns,
            scalar_ns,
            simd_ns,
        });

        let auto_native = abk.blind_rotate(&ctx, &f, &lwe);
        heap_math::simd::force_scalar(true);
        let auto_scalar_out = abk.blind_rotate(&ctx, &f, &lwe);
        let auto_scalar_ns = measure_ns(rotate_iters, || {
            std::hint::black_box(abk.blind_rotate(&ctx, &f, &lwe));
        });
        heap_math::simd::force_scalar(false);
        assert!(
            auto_native.a == auto_scalar_out.a && auto_native.b == auto_scalar_out.b,
            "auto rotation diverged between SIMD dispatches at n_mask = {n_mask}"
        );
        let auto_simd_ns = measure_ns(rotate_iters, || {
            std::hint::black_box(abk.blind_rotate(&ctx, &f, &lwe));
        });
        rows.push(Row {
            kernel: "blind_rotate",
            n,
            limb_bits,
            n_mask,
            backend: "auto",
            key_bytes: abk_wire_size(n_mask, n, params.digits, &moduli, true),
            ops: 1,
            reference_ns,
            scalar_ns: auto_scalar_ns,
            simd_ns: auto_simd_ns,
        });
    }

    if !shape.batch {
        return;
    }
    // Key-major batch row: the CMUX batch schedule, 8 mask elements,
    // 4 LWEs per call.
    let n_t = 8;
    let batch = 4;
    let lwe_sk = LweSecretKey::generate(&mut rng, n_t);
    let brk = BlindRotateKey::generate(&ctx, &lwe_sk, &ring_sk, limbs, params, &mut rng);
    let lwes: Vec<LweCiphertext> = (0..batch)
        .map(|_| LweCiphertext {
            a: (0..n_t).map(|_| rng.gen_range(0..two_n)).collect(),
            b: rng.gen_range(0..two_n),
            modulus: two_n,
        })
        .collect();
    let (opt_batch, _) = brk.blind_rotate_batch_key_major(&ctx, &f, &lwes);
    for (o, lwe) in opt_batch.iter().zip(&lwes) {
        let r = brk.blind_rotate_reference(&ctx, &f, lwe);
        assert!(o.a == r.a && o.b == r.b, "key-major batch diverged");
    }
    let reference_ns = measure_ns(rotate_iters, || {
        for lwe in &lwes {
            std::hint::black_box(brk.blind_rotate_reference(&ctx, &f, lwe));
        }
    });
    heap_math::simd::force_scalar(true);
    let scalar_ns = measure_ns(rotate_iters, || {
        std::hint::black_box(brk.blind_rotate_batch_key_major(&ctx, &f, &lwes));
    });
    heap_math::simd::force_scalar(false);
    let simd_ns = measure_ns(rotate_iters, || {
        std::hint::black_box(brk.blind_rotate_batch_key_major(&ctx, &f, &lwes));
    });
    rows.push(Row {
        kernel: "blind_rotate_batch_key_major",
        n,
        limb_bits,
        n_mask: n_t,
        backend: "cmux",
        key_bytes: brk_wire_size(n_t, n, params.digits, &moduli, true),
        ops: batch,
        reference_ns,
        scalar_ns,
        simd_ns,
    });
}

fn main() {
    // Single-thread on purpose: the sweep isolates datapath wins from
    // scheduling wins (BENCH_parallel.json covers the latter).
    heap_parallel::set_global_threads(1);
    let host_cores = heap_parallel::available_threads();
    let backend = heap_math::simd::active().name();
    println!("kernel_sweep: single-threaded, host cores = {host_cores}, simd backend = {backend}");
    println!();
    println!(
        "{:<28} {:>6} {:>4} {:>6} {:>7} {:>9} {:>5} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "kernel",
        "n",
        "bits",
        "n_mask",
        "backend",
        "key B",
        "ops",
        "reference ns",
        "scalar ns",
        "simd ns",
        "simd x",
        "total x"
    );

    let mut rows = Vec::new();
    for n in [1usize << 10, 1 << 13] {
        ntt_rows(n, 36, &mut rows);
    }
    tfhe_rows(&PAPER, &mut rows);
    ntt_rows(TINY.n, TINY.limb_bits, &mut rows);
    tfhe_rows(&TINY, &mut rows);

    for r in &rows {
        print_row(r);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"limb_bits\": {}, \"n_mask\": {}, \
                 \"backend\": \"{}\", \"key_bytes\": {}, \"ops\": {}, \"reference_ns\": {:.0}, \
                 \"scalar_ns\": {:.0}, \"simd_ns\": {:.0}, \"simd_speedup\": {:.3}, \
                 \"speedup\": {:.3}}}",
                r.kernel,
                r.n,
                r.limb_bits,
                r.n_mask,
                r.backend,
                r.key_bytes,
                r.ops,
                r.reference_ns,
                r.scalar_ns,
                r.simd_ns,
                r.simd_speedup(),
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"threads\": 1,\n  \
         \"simd_backend\": \"{backend}\",\n  \
         \"note\": \"ns per call (best of 3, single thread); reference = strict seed \
         kernels retained as oracles, scalar = Harvey lazy scalar kernels (u128-MAC \
         external product, SIMD force-disabled), simd = dispatching kernels on the \
         listed backend (prepared-key external product: narrow u64 MAC for limbs \
         below 2^30, Shoup-precomputed u64 MAC above); limb_bits 36 = paper shape, \
         limb_bits 28 = Tiny shape (N = 128, four limbs, d = 2), whose forced-scalar \
         blind_rotate tier runs the scalar narrow MAC; blind_rotate \
         rows sweep the LWE mask length n_mask over both blind-rotate backends \
         (cmux = per-element CMUX ladder, auto = dlog-bucketed automorphism walk \
         with hoisted Galois key-switching), sharing the strict CMUX rotation as \
         the reference tier; key_bytes = seed-expandable wire size of that \
         backend's rotation key; cmux tiers asserted bit-identical to the oracle \
         before timing, auto asserted dispatch-deterministic here and \
         decrypt-equivalent in tests/auto_parity.rs; batch row rotates 4 LWEs per \
         call; simd_speedup = scalar/simd, speedup = reference/simd\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
}
