//! `perfbench` — the repository benchmark: HEAP's bootstrapping service
//! measured end to end through its session front door, and layer by
//! layer in a separate traced run. See README.md for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! perfbench --workload refresh|pbs_open --seed N --seconds S
//!           --trace 0|1 --node-bin PATH [--source ID] [--out DIR]
//! ```
//!
//! The last stdout line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod deploy;
mod layers;
mod report;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use deploy::{Deployment, SetupTimes};
use heap_runtime::KeyedSetup;
use report::{median, ratio, tail, Metrics, Stamp, Tracer};
use workload::{Pacing, Verdict, Window, Workload};

/// Set-ups per run; `setup_s` and `keys.keygen_s` report the median.
const SETUPS: usize = 5;
/// The tail percentile keeps at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// Jobs per open-loop tail slice at the fixed arrival rate, so the slice
/// tail is about p92.
const OPEN_TAIL_SLICE_JOBS: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    node_bin: PathBuf,
    source: String,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut node_bin = None;
    let mut source = "unknown".to_string();
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--node-bin" => node_bin = Some(PathBuf::from(value()?)),
            "--source" => source = value()?,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        node_bin: node_bin.ok_or("--node-bin is required")?,
        source,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("primary") => match argv.get(1..3) {
            Some([flag, nodes]) if flag == "--nodes" => deploy::run_primary(nodes).map(|()| true),
            _ => Err("usage: perfbench primary --nodes HOST:PORT,HOST:PORT".into()),
        },
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets up `SETUPS` times from nothing (tearing each previous deployment
/// down outside the timed part) and keeps the last deployment.
fn set_up(args: &Args) -> Result<(Deployment, KeyedSetup, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (dep, keyed, t) = deploy::setup(&args.node_bin, args.seed)?;
        times.push(t);
        last = Some((dep, keyed));
    }
    let (dep, keyed) = last.expect("at least one set-up");
    Ok((dep, keyed, times))
}

fn pacing(w: Workload, inputs: &workload::Inputs) -> Pacing<'_> {
    if w.open_loop() {
        Pacing::Open(&inputs.schedule)
    } else {
        Pacing::Closed(workload::CLOSED_OUTSTANDING)
    }
}

/// Folds window verdicts and (open loop) validity into the gate.
fn gate(w: Workload, window: &Window, verdict: &Verdict, problems: &mut Vec<String>) -> bool {
    problems.extend(verdict.problems.iter().cloned());
    let mut ok = verdict.failed == 0;
    if w.open_loop() {
        if let Err(why) = window.validity() {
            problems.push(format!("run invalid: {why}"));
            ok = false;
        }
    }
    ok
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let stamp = Stamp {
        workload: w.name().to_string(),
        trace: args.trace,
        seconds: args.seconds,
        seed: args.seed,
        nproc: heap_parallel::available_threads(),
        simd: heap_math::simd::active().name(),
        preset: deploy::PRESET.name(),
        node_threads: deploy::NODE_THREADS,
        nodes: deploy::NODES,
        source: args.source.clone(),
    };
    println!("STAMP {}", stamp.to_json());
    let (mut dep, keyed, setups) = set_up(args)?;
    let setup_s = median(&setups.iter().map(|t| t.setup_s).collect::<Vec<_>>());
    let keygen_s = median(&setups.iter().map(|t| t.keygen_s).collect::<Vec<_>>());
    let mut problems = Vec::new();
    let (metrics, attempted, failed, correct) = if args.trace {
        let mut tracer = Tracer::new();
        let (metrics, attempted, failed, ok) =
            layers::traced_run(args, &mut dep, &keyed, keygen_s, &mut tracer, &mut problems)?;
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args
            .out
            .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.len(),
            path.display()
        );
        (metrics, attempted, failed, ok)
    } else {
        let window = Duration::from_secs(args.seconds);
        let inputs = workload::make_inputs(w, &keyed, args.seed, window);
        let pids = dep.server_pids();
        let win = workload::run_window(
            &dep.client,
            &inputs,
            pacing(w, &inputs),
            window,
            &pids,
            false,
        )?;
        let rss: f64 = pids
            .iter()
            .map(|&p| report::peak_rss_mb(p))
            .sum::<Result<f64, String>>()?;
        drop(dep);
        let verdict = workload::verify(w, &keyed, &inputs, &win.samples, args.seed);
        let ok = gate(w, &win, &verdict, &mut problems);
        // Not a metric: context for reading a noisy run on a shared host.
        println!(
            "host CPU during the window: {:.1}% busy, {:.1}% of it this benchmark's; {:.2}% stolen",
            win.host.busy_pct, win.host.bench_pct, win.host.steal_pct
        );
        let metrics = end_to_end(w, &win, &verdict, setup_s, rss);
        (metrics, verdict.attempted, verdict.failed, ok)
    };
    for m in &metrics.0 {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{:<8} {:<28} {:>14.4} {}{note}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    // Printed, not reported: the gate holds it at 0, and a metric that
    // is always 0 has no spread to bound.
    println!(
        "{:<8} {:<28} {:>14.4} ratio  ({failed} of {attempted} attempted)",
        w.name(),
        "fail_ratio",
        ratio(failed as f64, attempted as f64)
    );
    for p in &problems {
        println!("problem: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(correct)
}

/// The tail latency: the highest percentile with at least
/// `TAIL_BEYOND` samples beyond it. Closed loops take it over the whole
/// window. The open loop takes it per slice of `OPEN_TAIL_SLICE_JOBS`
/// jobs' due times and reports the median slice: its tail is set by a
/// few queueing bursts, and one burst in a whole window would otherwise
/// decide the run (measured spread over seeds: 34–38% whole-window,
/// 14–15% in slices).
fn latency_tail(w: Workload, win: &Window) -> (f64, String) {
    let lat = win.latencies_ms();
    if !w.open_loop() {
        let (v, pct, beyond) = tail(&lat, TAIL_BEYOND);
        return (
            v,
            format!("p{pct:.2}, {beyond} of {} samples beyond", lat.len()),
        );
    }
    let slice = OPEN_TAIL_SLICE_JOBS / workload::PBS_RATE;
    let slices = (win.seconds() / slice).floor().max(1.0) as usize;
    let mut tails = Vec::with_capacity(slices);
    let mut pcts = Vec::with_capacity(slices);
    for k in 0..slices {
        let (lo, hi) = (k as f64 * slice, (k + 1) as f64 * slice);
        let v: Vec<f64> = win
            .samples
            .iter()
            .filter(|s| s.result.is_ok())
            .filter(|s| (lo..hi).contains(&(s.due - win.start).as_secs_f64()))
            .map(workload::Sample::latency_ms)
            .collect();
        let (t, pct, _) = tail(&v, TAIL_BEYOND);
        tails.push(t);
        pcts.push(pct);
    }
    let note = format!(
        "median over {slices} slices of {slice} s of each slice's p{:.2}, {TAIL_BEYOND} samples beyond",
        median(&pcts)
    );
    (median(&tails), note)
}

/// The end-to-end metrics of one untraced window.
fn end_to_end(w: Workload, win: &Window, verdict: &Verdict, setup_s: f64, rss_mb: f64) -> Metrics {
    let lat = win.latencies_ms();
    let jobs_per_s = win.jobs_per_s();
    let (tail_ms, tail_note) = latency_tail(w, win);
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("jobs_per_s", jobs_per_s, "1/s");
    m.add_note(
        "latency_p50_ms",
        median(&lat),
        "ms",
        format!("{} samples", lat.len()),
    );
    m.add_note("latency_tail_ms", tail_ms, "ms", tail_note);
    // CPU rate over job rate, so neither is quantized by the job count.
    m.add(
        "cpu_ms_per_job",
        ratio(win.cpu_ms / win.seconds(), jobs_per_s),
        "ms",
    );
    m.add("peak_rss_mb", rss_mb, "MiB");
    m.add("precision_bits", verdict.precision_bits, "bits");
    m
}
