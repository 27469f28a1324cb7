//! Thread-scaling sweep of the parallel execution engine, emitting
//! `BENCH_parallel.json` (machine-readable) plus a human-readable table.
//!
//! Sweeps worker counts {1, 2, 4, 8, all} over the two hot pipelines:
//!
//! - `blind_rotate_all` — the ciphertext-level blind-rotation batch at one
//!   node's thread budget (`blind_rotate_batch_par`), the loop the paper
//!   spreads over eight FPGAs (§V);
//! - `bootstrap` — the full scheme-switching pipeline end to end.
//!
//! Every configuration produces bit-identical ciphertexts (asserted here
//! against the serial run), so the sweep measures pure scheduling effect.
//! The JSON records `host_cores`: on a single-core host every thread count
//! necessarily measures the same work plus spawn overhead — interpret
//! speedups only relative to the recorded core count.
//!
//! ```sh
//! cargo run --release -p heap-bench --bin parallel_sweep
//! ```

use std::time::Instant;

use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{BootstrapConfig, Bootstrapper, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured configuration.
struct Sample {
    threads: usize,
    secs: f64,
    ops_per_sec: f64,
}

fn measure<F: FnMut() -> R, R>(mut f: F, ops_per_run: usize) -> (f64, f64) {
    // One warm-up, then best-of-3 (least-noise estimator on a busy host).
    let _ = f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let _ = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, ops_per_run as f64 / best)
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8, heap_parallel::available_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn json_samples(samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"threads\": {}, \"secs\": {:.6}, \"ops_per_sec\": {:.3}}}",
                s.threads, s.secs, s.ops_per_sec
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn main() {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    let delta = ctx.fresh_scale();
    let n = ctx.n();
    let coeffs: Vec<i64> = (0..n)
        .map(|i| ((((i % 7) as f64 - 3.0) / 40.0) * delta).round() as i64)
        .collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    // Blind-rotate inputs prepared once; reference outputs from the serial
    // run for the bit-identity check.
    let indices: Vec<usize> = (0..n).collect();
    let lwes = boot.extract_lwes(&ctx, &ct, &indices);
    let switched = boot.modulus_switch(&ctx, &lwes);
    let reference_rot = boot.blind_rotate_batch_par(&ctx, &switched, Parallelism::serial());
    let reference_boot = boot.bootstrap(&ctx, &ct);

    let host_cores = heap_parallel::available_threads();
    println!(
        "parallel_sweep: N = {n}, batch = {} LWEs, host cores = {host_cores}",
        switched.len()
    );
    println!();
    println!(
        "{:<24} {:>8} {:>12} {:>14}",
        "pipeline", "threads", "secs", "ops/sec"
    );

    let mut rot_samples = Vec::new();
    for threads in thread_counts() {
        let par = Parallelism::with_threads(threads);
        let (secs, ops) = measure(
            || boot.blind_rotate_batch_par(&ctx, &switched, par),
            switched.len(),
        );
        // Determinism gate: any thread count must match the serial result.
        let got = boot.blind_rotate_batch_par(&ctx, &switched, par);
        for (g, r) in got.iter().zip(&reference_rot) {
            assert!(g.a == r.a && g.b == r.b, "parallel result diverged");
        }
        println!(
            "{:<24} {:>8} {:>12.4} {:>14.2}",
            "blind_rotate_all", threads, secs, ops
        );
        rot_samples.push(Sample {
            threads,
            secs,
            ops_per_sec: ops,
        });
    }

    let mut boot_samples = Vec::new();
    for threads in thread_counts() {
        let config =
            BootstrapConfig::test_small().with_parallelism(Parallelism::with_threads(threads));
        let mut rng = StdRng::seed_from_u64(42);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let boot_t = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
        let ct_t = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let (secs, ops) = measure(|| boot_t.bootstrap(&ctx, &ct_t), 1);
        let got = boot_t.bootstrap(&ctx, &ct_t);
        assert!(
            got.c0() == reference_boot.c0() && got.c1() == reference_boot.c1(),
            "parallel bootstrap diverged"
        );
        println!(
            "{:<24} {:>8} {:>12.4} {:>14.2}",
            "bootstrap", threads, secs, ops
        );
        boot_samples.push(Sample {
            threads,
            secs,
            ops_per_sec: ops,
        });
    }

    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"ring_n\": {n},\n  \"batch_lwes\": {},\n  \
         \"note\": \"bit-identical outputs verified for every thread count; speedups are \
         bounded by host_cores\",\n  \"blind_rotate_all\": {},\n  \"bootstrap\": {}\n}}\n",
        switched.len(),
        json_samples(&rot_samples),
        json_samples(&boot_samples),
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("\nwrote BENCH_parallel.json");
}
