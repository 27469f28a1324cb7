//! Cross-crate integration: the full HEAP story in one test file —
//! encrypt, compute to exhaustion, scheme-switch bootstrap (single node
//! and clustered), keep computing, decrypt; plus the functional-bootstrap
//! and consistency checks between the functional stack and the hardware
//! model.

use std::net::TcpListener;
use std::sync::Arc;

use heap::ckks::{CkksContext, CkksParams, RelinearizationKey, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper, ErrorStats, Parallelism, TransferLedger};
use heap::hw::perf::BootstrapModel;
use heap::runtime::{
    serve, BatchPolicy, BootstrapService, JobRequest, LocalServiceNode, NodeTimeouts, Priority,
    RemoteNode, RuntimeConfig, Scheduler, ServeOptions, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (
    CkksContext,
    SecretKey,
    RelinearizationKey,
    Bootstrapper,
    StdRng,
) {
    let ctx = CkksContext::new(CkksParams::test_tiny());
    let mut rng = StdRng::seed_from_u64(4242);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let rlk = RelinearizationKey::generate(&ctx, &sk, &mut rng);
    let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
    (ctx, sk, rlk, boot, rng)
}

#[test]
fn unbounded_depth_computation() {
    // The paper's raison d'être: with the scheme-switched bootstrap, CKKS
    // evaluates circuits deeper than the parameter budget.
    let (ctx, sk, rlk, boot, mut rng) = setup();
    let m = 0.21f64;
    let mut ct = ctx.encrypt_real_sk(&[m; 8], &sk, &mut rng);
    let mut expect = m;
    let mut boots = 0;
    // 6 squarings with only L = 3 (2 levels per refresh cycle).
    for _ in 0..6 {
        if ct.limbs() == 1 {
            ct = boot.bootstrap(&ctx, &ct);
            boots += 1;
            assert_eq!(ct.limbs(), ctx.max_limbs());
        }
        ct = ctx.rescale(&ctx.square(&ct, &rlk));
        expect *= expect;
    }
    assert!(boots >= 2, "should have bootstrapped at least twice");
    let got = ctx.decrypt_real(&ct, &sk)[0];
    assert!(
        (got - expect).abs() < 0.05,
        "after depth 6: got {got}, want {expect}"
    );
}

#[test]
fn cluster_and_single_node_agree() {
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let msg: Vec<f64> = (0..ctx.n())
        .map(|i| ((i % 5) as f64 - 2.0) / 30.0)
        .collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    let single = boot.bootstrap(&ctx, &ct);
    let nodes: Vec<Box<dyn ServiceNode>> = (0..3)
        .map(|i| Box::new(LocalServiceNode::new(i, Parallelism::default())) as Box<dyn ServiceNode>)
        .collect();
    let ctx = Arc::new(ctx);
    let svc = BootstrapService::start_with_nodes(
        Arc::clone(&ctx),
        Arc::new(boot),
        nodes,
        RuntimeConfig {
            batch: BatchPolicy::immediate(),
            ..RuntimeConfig::default()
        },
    )
    .expect("start service");
    let multi = svc
        .submit(JobRequest::Bootstrap { ct }, Priority::Normal)
        .expect("submit")
        .wait()
        .expect("clustered bootstrap")
        .into_ciphertext();
    let shards = svc.stats().scheduler.shards;
    svc.shutdown();

    // Deterministic pipeline: identical results regardless of node count.
    assert!(
        multi.c0() == single.c0() && multi.c1() == single.c1(),
        "cluster execution must be bit-identical"
    );
    assert_eq!(shards, 3, "the batch was spread over all three nodes");
}

#[test]
fn functional_bootstrap_applies_nonlinearity() {
    // §III-A: f inside BlindRotate evaluates sigmoid/ReLU during refresh.
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let n = ctx.n();
    let msg: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 40.0).collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    let indices: Vec<usize> = (0..n).collect();

    let sigmoid = |x: f64| 1.0 / (1.0 + (-8.0 * x).exp()) - 0.5;
    let out = boot.bootstrap_eval(&ctx, &ct, &indices, sigmoid);
    let dec = ctx.decrypt_coeffs(&out, &sk);
    let got: Vec<f64> = dec.iter().map(|d| d / out.scale()).collect();
    let want: Vec<f64> = msg.iter().map(|&m| sigmoid(m)).collect();
    let stats = ErrorStats::from_pairs(&got, &want);
    assert!(
        stats.max_abs < 0.03,
        "sigmoid-in-bootstrap error {:?}",
        stats
    );
}

#[test]
fn precision_survives_repeated_bootstrapping() {
    // Bootstrap noise must not accumulate catastrophically: refresh the
    // same ciphertext several times and watch the drift stay bounded.
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let msg = 0.11f64;
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| if i == 0 { (msg * delta) as i64 } else { 0 })
        .collect();
    let mut ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    for round in 0..3 {
        let fresh = boot.bootstrap_indices(&ctx, &ct, &[0]);
        let got = ctx.decrypt_coeffs(&fresh, &sk)[0] / fresh.scale();
        assert!((got - msg).abs() < 0.02, "round {round}: drift to {got}");
        ct = ctx.mod_drop_to(&fresh, 1);
    }
}

#[test]
fn hardware_model_consistent_with_functional_ledger() {
    // The accelerator model and the functional cluster agree on the
    // communication pattern: per-secondary LWE counts match what the
    // model's overlap schedule prices.
    let (ctx, sk, _rlk, boot, mut rng) = setup();
    let delta = ctx.fresh_scale();
    let coeffs = vec![(0.05 * delta) as i64; ctx.n()];
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

    // The primary computes in-process; three secondaries are loopback
    // `serve` nodes whose sockets all record into one ledger.
    let nodes = 4usize;
    let (ctx, boot) = (Arc::new(ctx), Arc::new(boot));
    let ledger = Arc::new(TransferLedger::default());
    let mut cluster: Vec<Box<dyn ServiceNode>> =
        vec![Box::new(LocalServiceNode::new(0, Parallelism::default()))];
    for _ in 1..nodes {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        {
            let (ctx, boot) = (Arc::clone(&ctx), Arc::clone(&boot));
            std::thread::spawn(move || serve(listener, ctx, boot, ServeOptions::default()));
        }
        let remote = RemoteNode::connect_with_ledger(
            &addr,
            &ctx,
            NodeTimeouts::default(),
            Arc::clone(&ledger),
        )
        .expect("connect");
        cluster.push(Box::new(remote));
    }
    let sched = Scheduler::new(cluster).expect("scheduler");
    let indices: Vec<usize> = (0..ctx.n()).collect();
    let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
    let rotated = sched
        .execute(&ctx, &boot, &lwes)
        .expect("clustered blind rotation");
    let fresh = boot.finish(&ctx, boot.to_leaves(&ctx, &rotated, &indices), ct.scale());
    assert_eq!(fresh.c0(), boot.bootstrap(&ctx, &ct).c0());
    let scattered = ledger.lwe_sent() as usize;
    let per_node = ctx.n().div_ceil(nodes);
    assert_eq!(scattered, ctx.n() - per_node, "all but the primary's chunk");
    assert_eq!(ledger.rlwe_received(), ledger.lwe_sent());

    // Model side: a schedule exists and communication is overlapped.
    let model = BootstrapModel::paper();
    let sched = model.step3_schedule(4096, nodes);
    assert!(sched.communication_hidden());
    assert!(model.total_ms(4096, nodes) > model.total_ms(4096, 8));
}
