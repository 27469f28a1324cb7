//! Mixed-key multi-process E2E: two keyless `heap-node-serve` processes
//! on 127.0.0.1 serving a CMUX-keyed and an automorphism-keyed batch
//! stream through one cluster.
//!
//! Every node runs both blind-rotate datapaths; the backend byte of each
//! uploaded `EKS1` key container selects the one a batch uses. The test
//! asserts that:
//!
//! - key containers for *both* variants cross the wire (the ledger's key
//!   frames carry the full container bytes of each);
//! - each stream completes **bit-identical** to the client's local
//!   reference.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use heap_core::TransferLedger;
use heap_runtime::{
    keyed_setup_backend, BatchPolicy, BootstrapService, BrBackend, JobRequest, KeyedSetup,
    NodeTimeouts, ParamPreset, Priority, RemoteNode, RuntimeConfig, ServiceNode,
};

struct NodeProc {
    child: Child,
    addr: String,
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a keyless node and waits for its `LISTENING` readiness line.
fn spawn_keyless_node() -> NodeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_heap-node-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--preset",
            "tiny",
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn heap-node-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let listening = BufReader::new(stdout)
        .lines()
        .next()
        .expect("server exited before readiness")
        .expect("read readiness line");
    let addr = listening
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("first line must be LISTENING, got: {listening}"))
        .to_string();
    NodeProc { child, addr }
}

/// Drives one keyed batch stream through the two-process cluster, every
/// socket recording into `ledger`, and asserts bit-identity against the
/// local reference.
fn run_stream_through_mixed_cluster(
    setup: &KeyedSetup,
    procs: &[NodeProc],
    ledger: &Arc<TransferLedger>,
    rounds: usize,
) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let delta = setup.ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..setup.ctx.n())
        .map(|i| (((i % 6) as f64 - 2.5) / 40.0 * delta).round() as i64)
        .collect();
    let ct = setup
        .ctx
        .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);
    let reference = setup.boot.bootstrap(&setup.ctx, &ct);

    let nodes: Vec<Box<dyn ServiceNode>> = procs
        .iter()
        .map(|p| {
            Box::new(
                RemoteNode::connect_with_ledger(
                    &p.addr,
                    &setup.ctx,
                    NodeTimeouts::default(),
                    Arc::clone(ledger),
                )
                .expect("connect")
                .with_key(Arc::clone(&setup.key)),
            ) as Box<dyn ServiceNode>
        })
        .collect();
    let svc = BootstrapService::start_with_nodes(
        Arc::clone(&setup.ctx),
        Arc::clone(&setup.boot),
        nodes,
        RuntimeConfig {
            queue_capacity: 8,
            batch: BatchPolicy::immediate(),
            ..RuntimeConfig::default()
        },
    )
    .expect("start service");
    for round in 0..rounds {
        let fresh = svc
            .submit(JobRequest::Bootstrap { ct: ct.clone() }, Priority::Normal)
            .expect("submit")
            .wait()
            .expect("bootstrap through mixed cluster")
            .into_ciphertext();
        assert_eq!(fresh.c0(), reference.c0(), "round {round}");
        assert_eq!(fresh.c1(), reference.c1(), "round {round}");
    }
    assert_eq!(svc.stats().completed, rounds as u64);
    svc.shutdown();
}

#[test]
fn both_backend_streams_complete_bit_identically_on_the_mixed_cluster() {
    let procs = [spawn_keyless_node(), spawn_keyless_node()];
    let ledger = Arc::new(TransferLedger::default());
    let setup_cmux = keyed_setup_backend(ParamPreset::Tiny, 71, BrBackend::Cmux);
    run_stream_through_mixed_cluster(&setup_cmux, &procs, &ledger, 2);
    let setup_auto = keyed_setup_backend(ParamPreset::Tiny, 72, BrBackend::Auto);
    run_stream_through_mixed_cluster(&setup_auto, &procs, &ledger, 2);

    // Both containers were uploaded: the key frames carry at least the
    // full bytes of each variant.
    let containers = (setup_cmux.key.bytes.len() + setup_auto.key.bytes.len()) as u64;
    assert!(
        ledger.key_bytes_sent() >= containers,
        "key frames carried {} bytes, the two containers are {containers}",
        ledger.key_bytes_sent()
    );
}
