//! Multi-node parallel bootstrapping (paper §V): the same bootstrap
//! distributed over 1, 2, 4, and 8 compute nodes, with the transfer
//! ledger mirroring the primary/secondary FPGA traffic, plus the
//! accelerator model's predicted times at the paper's full scale.
//!
//! Node 0 is the primary and computes in-process; every other node is a
//! loopback `serve` secondary whose socket traffic lands in the ledger.
//!
//! ```sh
//! cargo run --release --example multi_node_cluster
//! ```

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use heap::ckks::{CkksContext, CkksParams, SecretKey};
use heap::core::{BootstrapConfig, Bootstrapper, Parallelism, TransferLedger};
use heap::hw::perf::BootstrapModel;
use heap::runtime::{
    serve, LocalServiceNode, NodeTimeouts, RemoteNode, Scheduler, ServeOptions, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ctx = Arc::new(CkksContext::new(CkksParams::test_tiny()));
    let mut rng = StdRng::seed_from_u64(99);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let boot = Arc::new(Bootstrapper::generate(
        &ctx,
        &sk,
        BootstrapConfig::test_small(),
        &mut rng,
    ));

    let delta = ctx.fresh_scale();
    let msg: Vec<f64> = (0..ctx.n())
        .map(|i| ((i % 9) as f64 - 4.0) / 40.0)
        .collect();
    let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
    let indices: Vec<usize> = (0..ctx.n()).collect();

    println!(
        "== functional cluster execution (N = {} blind rotations) ==",
        ctx.n()
    );
    println!("(wall-clock speedup requires multiple cores; the point here is");
    println!(" the primary/secondary schedule, transfer ledger, and identical results)");
    for nodes in [1usize, 2, 4, 8] {
        let per_node = Parallelism::with_threads(Parallelism::max().threads / nodes);
        let ledger = Arc::new(TransferLedger::default());
        let mut cluster: Vec<Box<dyn ServiceNode>> =
            vec![Box::new(LocalServiceNode::new(0, per_node))];
        for _ in 1..nodes {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr").to_string();
            let opts = ServeOptions {
                parallelism: per_node,
                ..ServeOptions::default()
            };
            {
                let (ctx, boot) = (Arc::clone(&ctx), Arc::clone(&boot));
                std::thread::spawn(move || serve(listener, ctx, boot, opts));
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
        let t = Instant::now();
        let lwes = boot.modulus_switch(&ctx, &boot.extract_lwes(&ctx, &ct, &indices));
        let rotated = sched.execute(&ctx, &boot, &lwes).expect("blind rotation");
        let fresh = boot.finish(&ctx, boot.to_leaves(&ctx, &rotated, &indices), ct.scale());
        let dt = t.elapsed().as_secs_f64();
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        let err = dec
            .iter()
            .zip(&msg)
            .map(|(d, m)| (d / fresh.scale() - m).abs())
            .fold(0.0f64, f64::max);
        println!(
            "  {nodes} node(s): {dt:.2}s, scattered {} LWEs ({} B), gathered {} results ({} B), max err {err:.4}",
            ledger.lwe_sent(),
            ledger.lwe_bytes_sent(),
            ledger.rlwe_received(),
            ledger.rlwe_bytes_received(),
        );
    }

    println!("\n== accelerator model at paper scale (N = 2^13, fully packed) ==");
    let model = BootstrapModel::paper();
    for nodes in [1usize, 2, 4, 8] {
        let ms = model.total_ms(4096, nodes);
        let sched = model.step3_schedule(4096, nodes);
        println!(
            "  {nodes} FPGA(s): {:.3} ms  (communication hidden: {})",
            ms,
            sched.communication_hidden()
        );
    }
    println!(
        "  paper reports ~1.5 ms for 8 FPGAs; model: {:.3} ms",
        model.paper_full_ms()
    );
}
