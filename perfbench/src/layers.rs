//! The traced run: per-layer numbers. Two kinds of measurement:
//!
//! - *isolated*: the benchmark times calls into each layer's public
//!   functions itself (NTT, one blind rotation, the LWE key switch, the
//!   Bootstrapper step API, a direct node shard, a session round trip);
//! - *in-window*: exact count/sum deltas of the counters the program
//!   already exports (primary service, stage and session registries, its
//!   transfer ledger, and each node's `StatsReq` counters), read at the
//!   edges of a traced window.
//!
//! Every call the benchmark makes here is kept as a span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use heap_core::{Bootstrapper, TransferLedger};
use heap_parallel::Parallelism;
use heap_runtime::{
    keyed_setup_backend, BootstrapService, BrBackend, EvalKeySet, JobOutput, JobRequest,
    KeyedSetup, NodeTimeouts, Priority, RemoteNode, RuntimeConfig, ServiceNode, SubmitOptions,
};
use heap_tfhe::LweCiphertext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{self, Deployment, Stats};
use crate::report::{median, quantile, ratio, Metrics, Tracer};
use crate::workload::{self, Window, Workload};
use crate::Args;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in ms, each call a span.
fn timed_ms(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(name, t, end, parent, None);
        v.push(ms(end - t));
    }
    median(&v)
}

/// Counter delta between two snapshots.
fn delta(a: &Stats, b: &Stats, key: &str) -> f64 {
    b.get(key).copied().unwrap_or(0) as f64 - a.get(key).copied().unwrap_or(0) as f64
}

/// Exact in-window mean of a histogram exported as `_count`/`_sum`.
fn hist_mean(a: &Stats, b: &Stats, key: &str) -> f64 {
    ratio(
        delta(a, b, &format!("{key}_sum")),
        delta(a, b, &format!("{key}_count")),
    )
}

/// A one-thread bootstrapper over the same keys (isolated step timing).
fn single_threaded(keyed: &KeyedSetup) -> Result<Bootstrapper, String> {
    let set = EvalKeySet::from_wire(&keyed.ctx, &keyed.key.bytes)
        .map_err(|e| format!("key package: {e:?}"))?;
    let config = set.config().with_parallelism(Parallelism::with_threads(1));
    Ok(Bootstrapper::from_keys(&keyed.ctx, config, set.into_keys()))
}

/// Isolated timings of the math, tfhe and core layers.
fn isolated(
    keyed: &KeyedSetup,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let ctx = &keyed.ctx;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61_7965_7273);

    // math: one forward / inverse transform of one limb at the preset ring.
    let span = tracer.open("math");
    let table = ctx.rns().ntt(0);
    let q = table.modulus().value();
    let mut poly: Vec<u64> = (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect();
    const NTT_BATCH: usize = 200;
    let fwd = timed_ms(tracer, "math.ntt_forward_x200", span, 25, || {
        for _ in 0..NTT_BATCH {
            table.forward(&mut poly);
        }
    });
    let inv = timed_ms(tracer, "math.ntt_inverse_x200", span, 25, || {
        for _ in 0..NTT_BATCH {
            table.inverse(&mut poly);
        }
    });
    tracer.close(span);
    m.add("math.ntt_fwd_ns", fwd * 1e6 / NTT_BATCH as f64, "ns");
    m.add("math.ntt_inv_ns", inv * 1e6 / NTT_BATCH as f64, "ns");

    // tfhe: one blind rotation of a uniformly random mask, per backend.
    // The deployment runs CMUX keys; the automorphism datapath is timed
    // on keys generated here for it.
    let span = tracer.open("tfhe");
    let two_n = 2 * ctx.n() as u64;
    let auto_keys = tracer.time("keys.keygen_auto_backend", span, || {
        keyed_setup_backend(deploy::PRESET, seed, BrBackend::Auto)
    });
    for (backend, boot) in [
        (BrBackend::Cmux, &keyed.boot),
        (BrBackend::Auto, &auto_keys.boot),
    ] {
        let lwes: Vec<LweCiphertext> = (0..40)
            .map(|_| workload::random_lwe(&mut rng, boot.config().n_t, two_n))
            .collect();
        let mut it = lwes.iter().cycle();
        let per = timed_ms(tracer, "tfhe.blind_rotate_one", span, lwes.len(), || {
            let _ = boot.blind_rotate_one(ctx, it.next().expect("cycle"));
        });
        let name = match backend {
            BrBackend::Cmux => "tfhe.rotate_us.cmux",
            BrBackend::Auto => "tfhe.rotate_us.auto",
        };
        m.add(name, per * 1e3, "us");
    }
    let q0 = ctx.q_modulus(0);
    let big = LweCiphertext {
        a: (0..ctx.n()).map(|_| rng.gen_range(0..q0.value())).collect(),
        b: rng.gen_range(0..q0.value()),
        modulus: q0.value(),
    };
    let ks = timed_ms(tracer, "tfhe.lwe_key_switch_x20", span, 25, || {
        for _ in 0..20 {
            let _ = keyed.boot.ksk().switch(&big, q0);
        }
    });
    tracer.close(span);
    m.add("tfhe.lwe_ks_us", ks * 1e3 / 20.0, "us");

    // core: the Fig. 1b step API over one packed job, one thread.
    let span = tracer.open("core");
    let boot = single_threaded(keyed)?;
    let one = Parallelism::with_threads(1);
    let input = workload::refresh_input(keyed, &mut rng);
    let JobRequest::Bootstrap { ct } = &input.request else {
        unreachable!("refresh inputs are bootstraps")
    };
    let indices: Vec<usize> = (0..ctx.n()).collect();
    let (mut s12, mut s3, mut s45) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        let switched = boot.modulus_switch(ctx, &boot.extract_lwes(ctx, ct, &indices));
        let t1 = Instant::now();
        let rotated = boot.blind_rotate_batch_par(ctx, &switched, one);
        let t2 = Instant::now();
        let fresh = boot.finish(ctx, boot.to_leaves(ctx, &rotated, &indices), ct.scale());
        let t3 = Instant::now();
        tracer.record("core.step12", t0, t1, span, None);
        tracer.record("core.step3", t1, t2, span, None);
        tracer.record("core.step45", t2, t3, span, None);
        s12.push(ms(t1 - t0));
        s3.push(ms(t2 - t1));
        s45.push(ms(t3 - t2));
        let bits =
            heap_core::measure_coeff_error(ctx, &fresh, &keyed.sk, &input.message).precision_bits;
        if bits < workload::REFRESH_MIN_BITS {
            return Err(format!(
                "isolated step-API refresh kept only {bits:.2} bits"
            ));
        }
    }
    tracer.close(span);
    m.add("core.step12_ms", median(&s12), "ms");
    m.add("core.step3_ms", median(&s3), "ms");
    m.add("core.step45_ms", median(&s45), "ms");
    Ok(())
}

/// Direct 1-LWE `RemoteNode` shards against a fresh node process. The
/// key upload is the first, cold RTT minus the warm median. The
/// per-shard overhead is the warm RTT minus the same LWE rotated
/// in-process on one thread, alternating the two so host drift hits
/// both alike. On a 64-LWE shard the rotation noise (tens of ms) swamped
/// the overhead and turned the difference negative; on one LWE it is a
/// fraction of a ms. Returns `(cold_upload_ms, overhead_ms)`.
fn remote_probe(
    args: &Args,
    keyed: &KeyedSetup,
    lwe: &LweCiphertext,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let span = tracer.open("remote");
    let ctx = &keyed.ctx;
    let (_node, addr) = deploy::spawn_node(&args.node_bin, 0)?;
    let ledger = Arc::new(TransferLedger::default());
    let remote = RemoteNode::connect_with_ledger(&addr, ctx, NodeTimeouts::default(), ledger)
        .map_err(|e| format!("probe connect: {e}"))?
        .with_key(Arc::clone(&keyed.key));
    let shard = std::slice::from_ref(lwe);
    let call = |tracer: &mut Tracer, name: &'static str| {
        let t = Instant::now();
        let accs = remote
            .try_blind_rotate_batch(ctx, &keyed.boot, shard)
            .map_err(|e| format!("probe shard: {e}"))?;
        let end = Instant::now();
        tracer.record(name, t, end, span, None);
        if accs.len() != 1 {
            return Err("probe shard came back short".to_string());
        }
        Ok(ms(end - t))
    };
    let cold = call(tracer, "remote.shard_cold")?;
    let boot = single_threaded(keyed)?;
    let serial = Parallelism::with_threads(1);
    let (mut warm, mut local) = (Vec::new(), Vec::new());
    for _ in 0..31 {
        warm.push(call(tracer, "remote.shard_warm")?);
        let t = Instant::now();
        let _ = boot.blind_rotate_batch_par(ctx, shard, serial);
        let end = Instant::now();
        tracer.record("core.blind_rotate_shard", t, end, span, None);
        local.push(ms(end - t));
    }
    remote.shutdown();
    tracer.close(span);
    Ok((cold - median(&warm), median(&warm) - median(&local)))
}

/// Session round trip versus in-process `BootstrapService::submit` for
/// the same job over the deployment's nodes: sequential, alternating
/// the two paths so host drift hits both alike.
fn session_overhead(
    dep: &Deployment,
    keyed: &KeyedSetup,
    request: &JobRequest,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let span = tracer.open("session");
    let mut nodes: Vec<Box<dyn ServiceNode>> = Vec::new();
    for addr in dep.node_addrs() {
        let node = RemoteNode::connect(&addr, &keyed.ctx)
            .map_err(|e| format!("in-process service node {addr}: {e}"))?
            .with_key(Arc::clone(&keyed.key));
        nodes.push(Box::new(node));
    }
    let service = BootstrapService::start_with_nodes(
        Arc::clone(&keyed.ctx),
        Arc::clone(&keyed.boot),
        nodes,
        RuntimeConfig::default(),
    )
    .map_err(|e| format!("in-process service: {e}"))?;
    let (mut via_session, mut in_process) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        dep.client
            .submit(request, SubmitOptions::default())
            .and_then(|j| j.wait())
            .map_err(|e| format!("session round trip: {e}"))?;
        let mid = Instant::now();
        service
            .submit(request.clone(), Priority::Normal)
            .and_then(|h| h.wait())
            .map_err(|e| format!("in-process round trip: {e}"))?;
        let end = Instant::now();
        tracer.record("session.round_trip", t, mid, span, None);
        tracer.record("service.round_trip", mid, end, span, None);
        via_session.push(ms(mid - t));
        in_process.push(ms(end - mid));
    }
    service.shutdown();
    tracer.close(span);
    Ok(median(&via_session) - median(&in_process))
}

/// Moves a window's submit/wait spans into the tracer under `parent`.
fn adopt_spans(tracer: &mut Tracer, window: &Window, parent: Option<usize>) {
    for s in &window.spans {
        tracer.record(s.name, s.start, s.end, parent, s.job);
    }
}

/// The primary's steps 1–2 and 4–5 per job, from its stage histograms.
fn add_stage_means(p0: &Stats, p1: &Stats, note: &str, m: &mut Metrics) {
    let stage = |s: &str| hist_mean(p0, p1, &format!("core_heap_stage_{s}_ns")) / 1e6;
    let prep = stage("extract") + stage("mod_switch");
    m.add_note("core.prep_ms", prep, "ms", note.to_string());
    m.add_note(
        "core.finish_ms",
        stage("repack") + stage("rescale"),
        "ms",
        note.to_string(),
    );
}

/// `pbs_open` jobs bypass prep and finish, so the primary's own cost of
/// those stages is read around one refresh probe after the window.
fn refresh_probe(
    dep: &mut Deployment,
    keyed: &KeyedSetup,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let probe = workload::refresh_input(keyed, &mut StdRng::seed_from_u64(seed ^ 0x7072_6f62));
    let before = dep.primary.stats()?;
    let t = Instant::now();
    let out = dep
        .client
        .submit(&probe.request, SubmitOptions::default())
        .and_then(|j| j.wait())
        .map_err(|e| format!("refresh probe: {e}"))?;
    tracer.record("session.refresh_probe", t, Instant::now(), None, None);
    let after = dep.primary.stats()?;
    let JobOutput::Bootstrapped(ct) = out else {
        return Err("refresh probe returned accumulators".into());
    };
    let bits =
        heap_core::measure_coeff_error(&keyed.ctx, &ct, &keyed.sk, &probe.message).precision_bits;
    if bits < workload::REFRESH_MIN_BITS {
        return Err(format!("refresh probe kept only {bits:.2} bits"));
    }
    add_stage_means(&before, &after, "one refresh probe after the window", m);
    Ok(())
}

/// In-window layer metrics from exported counter deltas.
fn in_window(
    w: Workload,
    win: &Window,
    p0: &Stats,
    p1: &Stats,
    nodes0: &[Stats],
    nodes1: &[Stats],
    m: &mut Metrics,
) {
    let jobs = delta(p0, p1, "service_heap_jobs_completed_total");
    let ntts = delta(p0, p1, "core_heap_stage_ntt_forward_ns_count")
        + delta(p0, p1, "core_heap_stage_ntt_inverse_ns_count");
    m.add_note(
        "math.ntt_per_refresh",
        ratio(ntts, jobs),
        "count",
        format!("primary-side, per {} job", w.name()),
    );

    let node_sum = |key: &str| -> f64 {
        nodes0
            .iter()
            .zip(nodes1)
            .map(|(a, b)| delta(a, b, key))
            .sum()
    };
    let hits = node_sum("keycache_heap_keycache_hits_total");
    let misses = node_sum("keycache_heap_keycache_misses_total");
    m.add("keys.cache_hit_ratio", ratio(hits, hits + misses), "ratio");

    let lwes = delta(p0, p1, "ledger_lwe_sent");
    let data_bytes =
        delta(p0, p1, "ledger_lwe_bytes_sent") + delta(p0, p1, "ledger_rlwe_bytes_received");
    m.add("remote.bytes_per_lwe", ratio(data_bytes, lwes), "B");
    let per_node: Vec<f64> = nodes0
        .iter()
        .zip(nodes1)
        .map(|(a, b)| delta(a, b, "node_heap_node_lwes_total"))
        .collect();
    let (lo, hi) = per_node
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    m.add_note(
        "remote.node_lwe_balance",
        ratio(lo, hi),
        "ratio",
        format!("LWEs per node {per_node:?}"),
    );

    let batches = delta(p0, p1, "service_heap_scheduler_batches_total");
    // The shipped pipeline has one rotate worker, which holds a batch
    // until its slowest shard returns; batches × mean shard RTT is a
    // lower bound on the share of the window that worker was busy.
    // Latency climbs steeply as this nears 1.
    m.add(
        "service.rotate_load",
        batches * hist_mean(p0, p1, "service_heap_shard_round_trip_ns") / 1e9 / win.seconds(),
        "ratio",
    );
    m.add(
        "scheduler.shards_per_batch",
        ratio(
            delta(p0, p1, "service_heap_scheduler_shards_total"),
            batches,
        ),
        "count",
    );
    m.add(
        "scheduler.hedge_waste",
        ratio(
            delta(p0, p1, "service_heap_hedges_wasted_total"),
            delta(p0, p1, "service_heap_hedges_issued_total"),
        ),
        "ratio",
    );
    // Exact in-window histogram means (ns histograms reported in ms).
    for (name, key, scale, unit) in [
        (
            "scheduler.shard_rtt_mean_ms",
            "service_heap_shard_round_trip_ns",
            1e-6,
            "ms",
        ),
        (
            "service.queue_wait_mean_ms",
            "service_heap_queue_wait_ns",
            1e-6,
            "ms",
        ),
        (
            "service.batch_linger_mean_ms",
            "service_heap_batch_linger_ns",
            1e-6,
            "ms",
        ),
        (
            "service.batch_size_mean_lwes",
            "service_heap_batch_size_lwes",
            1.0,
            "count",
        ),
    ] {
        m.add(name, hist_mean(p0, p1, key) * scale, unit);
    }
    // Plain counter deltas.
    for (name, key) in [
        (
            "scheduler.reassignments",
            "service_heap_scheduler_reassignments_total",
        ),
        ("service.rejected", "service_heap_jobs_rejected_total"),
        ("session.jobs", "session_heap_session_jobs_total"),
        (
            "session.completions",
            "session_heap_session_completions_total",
        ),
    ] {
        m.add(name, delta(p0, p1, key), "count");
    }
    m.add("gen.late_p90_ms", quantile(&win.late_ms, 0.9), "ms");
    m.add("gen.backlog_end", win.backlog_end as f64, "count");
}

fn all_node_stats(dep: &Deployment, keyed: &KeyedSetup) -> Result<Vec<Stats>, String> {
    dep.node_addrs()
        .iter()
        .map(|a| deploy::node_stats(a, &keyed.ctx))
        .collect()
}

/// The traced run: a plain half window, a traced half window with
/// counters read at its edges, then the isolated probes. Returns the
/// per-layer metrics and the correctness tallies of both windows.
pub fn traced_run(
    args: &Args,
    dep: &mut Deployment,
    keyed: &KeyedSetup,
    keygen_s: f64,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(Metrics, usize, usize, bool), String> {
    let w = args.workload;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let inputs = workload::make_inputs(w, keyed, args.seed, half);
    let pids = dep.server_pids();
    let plain = workload::run_window(
        &dep.client,
        &inputs,
        crate::pacing(w, &inputs),
        half,
        &pids,
        false,
    )?;

    let span = tracer.open("window.traced");
    let p0 = dep.primary.stats()?;
    let n0 = all_node_stats(dep, keyed)?;
    let traced = workload::run_window(
        &dep.client,
        &inputs,
        crate::pacing(w, &inputs),
        half,
        &pids,
        true,
    )?;
    let p1 = dep.primary.stats()?;
    let n1 = all_node_stats(dep, keyed)?;
    tracer.close(span);
    adopt_spans(tracer, &traced, span);

    let mut m = Metrics::default();
    in_window(w, &traced, &p0, &p1, &n0, &n1, &mut m);
    if w.open_loop() {
        refresh_probe(dep, keyed, args.seed, tracer, &mut m)?;
    } else {
        add_stage_means(&p0, &p1, "in window", &mut m);
    }
    let p50 = |win: &Window| median(&win.latencies_ms());
    m.add(
        "trace.overhead_ratio",
        ratio(p50(&traced), p50(&plain)),
        "ratio",
    );

    let reps = if w.open_loop() { 40 } else { 9 };
    let overhead = session_overhead(dep, keyed, &inputs.jobs[0].request, reps, tracer)?;
    m.add("session.overhead_ms", overhead, "ms");

    let mut attempted = 0;
    let mut failed = 0;
    let mut ok = true;
    for win in [&plain, &traced] {
        let verdict = workload::verify(w, keyed, &inputs, &win.samples, args.seed);
        attempted += verdict.attempted;
        failed += verdict.failed;
        ok &= crate::gate(w, win, &verdict, problems);
    }

    isolated(keyed, args.seed, tracer, &mut m)?;
    m.add("keys.keygen_s", keygen_s, "s");
    m.add("keys.package_bytes", keyed.key.bytes.len() as f64, "B");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let lwe = workload::random_lwe(&mut rng, keyed.boot.config().n_t, 2 * keyed.ctx.n() as u64);
    let (cold, shard_overhead) = remote_probe(args, keyed, &lwe, tracer)?;
    m.add("keys.cold_upload_ms", cold, "ms");
    m.add_note(
        "remote.shard_overhead_ms",
        shard_overhead,
        "ms",
        "1-LWE shard".to_string(),
    );
    Ok((m, attempted, failed, ok))
}
