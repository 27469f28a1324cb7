//! The workloads: seeded inputs, the timed window driven through
//! one session by a submitter and a completion collector, and the
//! correctness gate applied to every output afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::measure_coeff_error;
use heap_runtime::{
    JobOutput, JobRequest, KeyedSetup, RuntimeError, SessionClient, SessionJob, SubmitOptions,
};
use heap_tfhe::{LweCiphertext, RingSecretKey, RlweCiphertext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{quantile, Span};

/// Jobs kept outstanding by the closed-loop workloads.
pub const CLOSED_OUTSTANDING: usize = 2;
/// `pbs_open` arrival rate in jobs per second: a constant, never derived
/// at run time. The shipped pipeline has one rotate worker, so every
/// batch waits for the previous batch's slowest shard. At 60 jobs/s that
/// worker was busy about 40% of the time; when a node's shards slowed
/// (both nodes on one CPU doubled the round trip) it reached 72% and the
/// median latency doubled. 30 jobs/s is a quarter of the highest rate
/// held without a growing backlog (120 jobs/s held, 150 did not).
pub const PBS_RATE: f64 = 30.0;
/// `pbs_open` job sizes are uniform over `1..=PBS_MAX_LWES`.
pub const PBS_MAX_LWES: usize = 4;
/// Distinct ciphertexts the closed loops cycle through.
const REFRESH_POOL: usize = 32;
/// Message magnitude bound; keeps every phase inside `q_0 / 4`.
const MSG_BOUND: f64 = 0.15;
/// A refreshed job whose worst coefficient keeps fewer bits than this
/// is counted wrong. Healthy Tiny refreshes keep about 3 bits.
pub const REFRESH_MIN_BITS: f64 = 1.0;
/// A blind-rotation accumulator whose noise leaves fewer bits than this
/// below the test polynomial's step (`q_0`) is counted wrong.
pub const PBS_MIN_BITS: f64 = 1.0;
/// `pbs_open` jobs whose accumulators are recomputed bit for bit.
const PBS_AUDIT_JOBS: usize = 24;
/// Open-loop validity: generator lateness p90 above this invalidates.
pub const MAX_LATE_P90_MS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Refresh,
    PbsOpen,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "refresh" => Ok(Self::Refresh),
            "pbs_open" => Ok(Self::PbsOpen),
            other => Err(format!("unknown workload '{other}' (refresh|pbs_open)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Refresh => "refresh",
            Self::PbsOpen => "pbs_open",
        }
    }

    pub fn open_loop(self) -> bool {
        self == Self::PbsOpen
    }
}

/// One generated job and what its output must decrypt to.
pub struct Input {
    pub request: JobRequest,
    /// Coefficient messages of a refresh input (empty for blind rotates).
    pub message: Vec<f64>,
}

/// Everything a window submits, generated before it starts.
pub struct Inputs {
    pub jobs: Vec<Input>,
    /// Open loop: due offsets from the window start (Poisson arrivals).
    pub schedule: Vec<Duration>,
}

/// Uniformly random LWE masks and bodies mod `2N` (what a TFHE-PBS
/// client sends after its own modulus switch).
pub fn random_lwe(rng: &mut StdRng, n_t: usize, two_n: u64) -> LweCiphertext {
    LweCiphertext {
        a: (0..n_t).map(|_| rng.gen_range(0..two_n)).collect(),
        b: rng.gen_range(0..two_n),
        modulus: two_n,
    }
}

/// A fully packed, exhausted (single-limb) CKKS ciphertext of a random
/// coefficient message, encrypted under the client's secret key.
pub fn refresh_input(keyed: &KeyedSetup, rng: &mut StdRng) -> Input {
    let ctx = &keyed.ctx;
    let delta = ctx.fresh_scale();
    let message: Vec<f64> = (0..ctx.n())
        .map(|_| rng.gen_range(-MSG_BOUND..MSG_BOUND))
        .collect();
    let coeffs: Vec<i64> = message.iter().map(|m| (m * delta).round() as i64).collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &keyed.sk, rng);
    Input {
        request: JobRequest::Bootstrap { ct },
        message,
    }
}

/// Generates a window's inputs from `seed`.
pub fn make_inputs(w: Workload, keyed: &KeyedSetup, seed: u64, window: Duration) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7075_6e63_6863_6172);
    if !w.open_loop() {
        let jobs = (0..REFRESH_POOL)
            .map(|_| refresh_input(keyed, &mut rng))
            .collect();
        return Inputs {
            jobs,
            schedule: Vec::new(),
        };
    }
    let two_n = 2 * keyed.ctx.n() as u64;
    let n_t = keyed.boot.config().n_t;
    // Poisson arrivals conditioned on their count: RATE × window arrival
    // times drawn uniformly and sorted, so every seed offers the same
    // load and only the arrival pattern varies.
    let count = (PBS_RATE * window.as_secs_f64()).round() as usize;
    let mut offsets: Vec<f64> = (0..count)
        .map(|_| rng.gen::<f64>() * window.as_secs_f64())
        .collect();
    offsets.sort_by(f64::total_cmp);
    let schedule = offsets.into_iter().map(Duration::from_secs_f64).collect();
    let jobs = (0..count)
        .map(|_| {
            let size = rng.gen_range(1..=PBS_MAX_LWES);
            Input {
                request: JobRequest::BlindRotate {
                    lwes: (0..size)
                        .map(|_| random_lwe(&mut rng, n_t, two_n))
                        .collect(),
                },
                message: Vec::new(),
            }
        })
        .collect();
    Inputs { jobs, schedule }
}

/// One submitted job's record.
pub struct Sample {
    pub input: usize,
    /// When the job was due (closed loop: when it was submitted).
    pub due: Instant,
    pub done: Instant,
    pub result: Result<JobOutput, RuntimeError>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// What a window produced.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub samples: Vec<Sample>,
    /// Submit time minus due time (closed loop: minus the time the slot
    /// freed), per job, in ms.
    pub late_ms: Vec<f64>,
    /// Jobs outstanding at each submission, with its offset in seconds.
    pub backlog: Vec<(f64, usize)>,
    /// Jobs outstanding when the window closed.
    pub backlog_end: usize,
    /// Server CPU milliseconds consumed inside the window.
    pub cpu_ms: f64,
    /// What the whole host's CPUs did in the window.
    pub host: HostCpu,
    /// Per-call spans (submit, wait) when tracing.
    pub spans: Vec<Span>,
}

impl Window {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Completion rate inside the window, jobs per second: successful
    /// completions after the first, over the time from the first to the
    /// last. Unlike `count / window` it is not quantized by the count.
    pub fn jobs_per_s(&self) -> f64 {
        let mut done: Vec<Instant> = self
            .samples
            .iter()
            .filter(|s| s.result.is_ok() && s.done <= self.end)
            .map(|s| s.done)
            .collect();
        done.sort();
        match (done.first(), done.last()) {
            (Some(first), Some(last)) if last > first => {
                (done.len() - 1) as f64 / (*last - *first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Latencies of every job submitted in the window, drained ones too.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.result.is_ok())
            .map(Sample::latency_ms)
            .collect()
    }

    /// Open-loop validity: the generator kept to its schedule and the
    /// backlog was not still growing at the end of the window.
    pub fn validity(&self) -> Result<(), String> {
        let late_p90 = quantile(&self.late_ms, 0.9);
        if late_p90 > MAX_LATE_P90_MS {
            return Err(format!(
                "generator fell behind: lateness p90 {late_p90:.2} ms > {MAX_LATE_P90_MS} ms"
            ));
        }
        let t = self.seconds();
        let mean_in = |lo: f64, hi: f64| {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|(at, _)| *at >= lo * t && *at < hi * t)
                .map(|&(_, b)| b as f64)
                .collect();
            crate::report::ratio(v.iter().sum(), v.len() as f64)
        };
        let (second, last) = (mean_in(0.25, 0.5), mean_in(0.75, 1.0));
        if last > 2.0 * second + 3.0 {
            return Err(format!(
                "backlog still growing: mean {second:.1} jobs in the second quarter, \
                 {last:.1} in the last"
            ));
        }
        Ok(())
    }
}

/// Host-wide CPU use in a window, as shares of all CPU time. Not a
/// metric: context for reading a slow run on a shared host.
pub struct HostCpu {
    /// Busy (neither idle nor waiting on I/O), %.
    pub busy_pct: f64,
    /// Of that, what the benchmark's own processes used, %.
    pub bench_pct: f64,
    /// Time the hypervisor ran something else while a CPU wanted to run, %.
    pub steal_pct: f64,
}

impl HostCpu {
    fn between(a: crate::report::HostTicks, b: crate::report::HostTicks, bench_ms: f64) -> Self {
        let total = (b.total - a.total) as f64;
        let pct = |ticks: f64| 100.0 * crate::report::ratio(ticks, total);
        let total_ms = total * 1000.0 / crate::report::USER_HZ;
        Self {
            busy_pct: pct((b.total - b.idle - (a.total - a.idle)) as f64),
            bench_pct: 100.0 * crate::report::ratio(bench_ms, total_ms),
            steal_pct: pct((b.steal - a.steal) as f64),
        }
    }
}

/// How a window paces its submissions.
pub enum Pacing<'a> {
    /// Keep this many jobs outstanding.
    Closed(usize),
    /// Submit each job at its due offset.
    Open(&'a [Duration]),
}

/// Drives one timed window through `client` with two threads: this one
/// submits, a scoped collector waits on completions in submission order
/// (the staged pipeline completes batches in order). Server CPU time is
/// read from `/proc` at the window's edges.
pub fn run_window(
    client: &SessionClient,
    inputs: &Inputs,
    pacing: Pacing<'_>,
    window: Duration,
    server_pids: &[u32],
    trace: bool,
) -> Result<Window, String> {
    type InFlight = (usize, Instant, Result<SessionJob, RuntimeError>);
    let (job_tx, job_rx) = mpsc::channel::<InFlight>();
    // Closed loop: each token is a free slot, stamped when it freed.
    let (free_tx, free_rx) = mpsc::channel::<Instant>();
    let prime_tx = free_tx.clone();
    let completed = AtomicUsize::new(0);
    let completed = &completed;
    let closed = matches!(pacing, Pacing::Closed(_));
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut samples = Vec::new();
            let mut spans = Vec::new();
            for (input, due, job) in job_rx {
                let waited = Instant::now();
                let result = job.and_then(SessionJob::wait);
                let done = Instant::now();
                completed.fetch_add(1, Ordering::SeqCst);
                if closed {
                    let _ = free_tx.send(done);
                }
                if trace {
                    spans.push(Span {
                        name: "session.wait",
                        start: waited,
                        end: done,
                        parent: None,
                        job: Some(samples.len() as u64),
                    });
                }
                samples.push(Sample {
                    input,
                    due,
                    done,
                    result,
                });
            }
            (samples, spans)
        });

        let cpu0 = crate::report::cpu_ms_total(server_pids)?;
        let self0 = crate::report::cpu_ms(std::process::id())?;
        let host0 = crate::report::host_ticks()?;
        let start = Instant::now();
        let end = start + window;
        let mut late_ms = Vec::new();
        let mut backlog = Vec::new();
        let mut spans = Vec::new();
        let mut submitted = 0usize;
        let mut submit = |input: usize, due: Instant| {
            let now = Instant::now();
            let job = client.submit(&inputs.jobs[input].request, SubmitOptions::default());
            if trace {
                spans.push(Span {
                    name: "session.submit",
                    start: now,
                    end: Instant::now(),
                    parent: None,
                    job: Some(submitted as u64),
                });
            }
            submitted += 1;
            backlog.push((
                (now - start).as_secs_f64(),
                submitted - completed.load(Ordering::SeqCst),
            ));
            let _ = job_tx.send((input, due, job));
        };
        match pacing {
            Pacing::Closed(k) => {
                for _ in 0..k {
                    prime_tx.send(start).expect("receiver alive");
                }
                drop(prime_tx);
                let mut next = 0usize;
                while let Ok(freed) =
                    free_rx.recv_timeout(end.saturating_duration_since(Instant::now()))
                {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    // The generator's lateness here is its reaction time
                    // from a slot freeing to the next submission.
                    late_ms.push(now.saturating_duration_since(freed).as_secs_f64() * 1e3);
                    submit(next % inputs.jobs.len(), now);
                    next += 1;
                }
            }
            Pacing::Open(schedule) => {
                for (i, offset) in schedule.iter().enumerate() {
                    let due = start + *offset;
                    if due >= end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    submit(i, due);
                }
            }
        }
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        let cpu1 = crate::report::cpu_ms_total(server_pids)?;
        let self1 = crate::report::cpu_ms(std::process::id())?;
        let host1 = crate::report::host_ticks()?;
        let backlog_end = submitted - completed.load(Ordering::SeqCst);
        drop(job_tx);
        let (samples, wait_spans) = collector.join().map_err(|_| "collector panicked")?;
        spans.extend(wait_spans);
        Ok(Window {
            start,
            end,
            samples,
            late_ms,
            backlog,
            backlog_end,
            cpu_ms: cpu1 - cpu0,
            host: HostCpu::between(host0, host1, cpu1 - cpu0 + self1 - self0),
            spans,
        })
    })
}

/// Outcome of the correctness gate over one window.
pub struct Verdict {
    pub attempted: usize,
    /// Failed, rejected, or wrong outputs.
    pub failed: usize,
    /// Worst precision over every checked output, in bits.
    pub precision_bits: f64,
    /// Human-readable reasons for the first few failures.
    pub problems: Vec<String>,
}

/// Bits of the accumulator's noise below the test polynomial's step:
/// the ideal rotated test polynomial has every coefficient a multiple of
/// `q_0`, so the decrypted phase's distance to the nearest multiple is
/// the rotation noise.
fn accumulator_bits(acc: &RlweCiphertext, ctx: &CkksContext, ring_sk: &RingSecretKey) -> f64 {
    let q0 = ctx.q_modulus(0).value() as f64;
    let phase = acc.phase(ctx.rns(), ring_sk).to_centered_f64(ctx.rns());
    let worst = phase
        .iter()
        .map(|c| (c - q0 * (c / q0).round()).abs())
        .fold(0.0f64, f64::max)
        .max(1.0);
    (q0 / worst).log2()
}

/// Checks every output: refreshes are decrypted and their precision
/// bounded; blind-rotate accumulators are decrypted for their noise, and
/// a seeded sample of jobs is recomputed with the client's own
/// bootstrapper and compared bit for bit.
pub fn verify(
    w: Workload,
    keyed: &KeyedSetup,
    inputs: &Inputs,
    samples: &[Sample],
    seed: u64,
) -> Verdict {
    let ctx = &keyed.ctx;
    let mut v = Verdict {
        attempted: samples.len(),
        failed: 0,
        precision_bits: f64::INFINITY,
        problems: Vec::new(),
    };
    let fail = |v: &mut Verdict, why: String| {
        v.failed += 1;
        if v.problems.len() < 4 {
            v.problems.push(why);
        }
    };
    let ring_sk =
        RingSecretKey::from_coeffs(ctx.rns(), ctx.boot_limbs(), keyed.sk.coeffs().to_vec());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6175_6469_7421);
    let audit_every = (samples.len() / PBS_AUDIT_JOBS).max(1);
    let audit_phase = rng.gen_range(0..audit_every);
    for (i, s) in samples.iter().enumerate() {
        let input = &inputs.jobs[s.input];
        let output = match &s.result {
            Ok(out) => out,
            Err(e) => {
                fail(&mut v, format!("job {i}: {e}"));
                continue;
            }
        };
        match (w.open_loop(), output, &input.request) {
            (false, JobOutput::Bootstrapped(ct), _) => {
                let bits = measure_coeff_error(ctx, ct, &keyed.sk, &input.message).precision_bits;
                v.precision_bits = v.precision_bits.min(bits);
                if bits < REFRESH_MIN_BITS {
                    fail(&mut v, format!("job {i}: refreshed to {bits:.2} bits"));
                }
            }
            (true, JobOutput::Accumulators(accs), JobRequest::BlindRotate { lwes }) => {
                if accs.len() != lwes.len() {
                    fail(
                        &mut v,
                        format!(
                            "job {i}: {} accumulators for {} LWEs",
                            accs.len(),
                            lwes.len()
                        ),
                    );
                    continue;
                }
                let bits = accs
                    .iter()
                    .map(|a| accumulator_bits(a, ctx, &ring_sk))
                    .fold(f64::INFINITY, f64::min);
                v.precision_bits = v.precision_bits.min(bits);
                if bits < PBS_MIN_BITS {
                    fail(
                        &mut v,
                        format!("job {i}: accumulator noise leaves {bits:.2} bits"),
                    );
                } else if i % audit_every == audit_phase {
                    let exact = lwes.iter().zip(accs).all(|(lwe, acc)| {
                        let want = keyed.boot.blind_rotate_one(ctx, lwe);
                        want.a == acc.a && want.b == acc.b
                    });
                    if !exact {
                        fail(
                            &mut v,
                            format!("job {i}: accumulators differ from the client's recomputation"),
                        );
                    }
                }
            }
            _ => fail(&mut v, format!("job {i}: output of the wrong kind")),
        }
    }
    if !v.precision_bits.is_finite() {
        v.precision_bits = 0.0;
    }
    v
}
