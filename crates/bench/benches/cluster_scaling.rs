//! Cluster scaling of the parallel bootstrap (functional execution — on a
//! multi-core host the scaling follows node count; the accelerator model
//! provides the full-scale numbers).
//!
//! Each configuration is the runtime's `Scheduler` over in-process
//! `LocalServiceNode`s sharing the host's threads evenly.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{BootstrapConfig, Bootstrapper, Parallelism};
use heap_runtime::{LocalServiceNode, Scheduler, ServiceNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()));
    let mut rng = StdRng::seed_from_u64(5);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Arc::new(Bootstrapper::generate(
        &ctx,
        &sk,
        BootstrapConfig::test_small(),
        &mut rng,
    ));
    let delta = ctx.fresh_scale();
    let coeffs = vec![(0.05 * delta) as i64; ctx.n()];
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    // Sparse bootstrap, n_br = 16: the stride-N/16 comb.
    let indices: Vec<usize> = (0..ctx.n()).step_by(ctx.n() / 16).collect();

    let mut g = c.benchmark_group("cluster_bootstrap_nbr16");
    g.sample_size(10);
    for nodes in [1usize, 2, 4] {
        let per_node = Parallelism::with_threads(Parallelism::max().threads / nodes);
        let cluster: Vec<Box<dyn ServiceNode>> = (0..nodes)
            .map(|i| Box::new(LocalServiceNode::new(i, per_node)) as Box<dyn ServiceNode>)
            .collect();
        let sched = Scheduler::new(cluster).expect("scheduler");
        g.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
            b.iter(|| {
                let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
                let rotated = sched.execute(&ctx, &boot, &lwes).expect("blind rotation");
                let leaves = boot.to_leaves(&ctx, &rotated, &indices);
                black_box(boot.finish(&ctx, leaves, ct.scale()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
