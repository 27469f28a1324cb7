//! Exact statistics, process accounting, the environment stamp, span
//! recording and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated `q`-quantile of the samples themselves; 0 when
/// empty. No bucketing: every reported percentile is exact.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail statistic: the highest percentile that still has at least
/// `beyond` samples above it, i.e. the `(beyond + 1)`-th largest sample.
/// Returns `(value, percentile, samples_beyond)`; with too few samples
/// it falls back to the median.
pub fn tail(v: &[f64], beyond: usize) -> (f64, f64, usize) {
    if v.len() <= beyond {
        return (median(v), 50.0, v.len() / 2);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = s.len() - 1 - beyond;
    let pct = 100.0 * (s.len() - beyond) as f64 / s.len() as f64;
    (s[rank], pct, beyond)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
pub const USER_HZ: f64 = 100.0;

/// utime + stime of `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Host-wide CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostTicks {
    /// user, nice, system, idle, iowait, irq, softirq and steal (guest
    /// time is already inside user).
    pub total: u64,
    /// idle + iowait.
    pub idle: u64,
    pub steal: u64,
}

pub fn host_ticks() -> Result<HostTicks, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat has no cpu line")?
        .split_whitespace()
        .map(|f| f.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    let field = |i: usize| ticks.get(i).copied().unwrap_or(0);
    Ok(HostTicks {
        total: (0..8).map(field).sum(),
        idle: field(3) + field(4),
        steal: field(7),
    })
}

/// Summed CPU milliseconds of a set of processes.
pub fn cpu_ms_total(pids: &[u32]) -> Result<f64, String> {
    pids.iter().map(|&p| cpu_ms(p)).sum()
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form context printed beside the value (never in the JSON).
    pub note: String,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add_note(name, value, unit, String::new());
    }

    pub fn add_note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The conditions a result was measured under. Two results are
/// comparable only when everything but `seed` and `source` matches.
pub struct Stamp {
    pub workload: String,
    pub trace: bool,
    pub seconds: u64,
    pub seed: u64,
    pub nproc: usize,
    pub simd: &'static str,
    pub preset: &'static str,
    pub node_threads: usize,
    pub nodes: usize,
    /// Git commit, or `none` outside a git checkout; supplied by the launcher.
    pub source: String,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"seconds\": {}, \"seed\": {}, \"nproc\": {}, \
             \"simd\": {}, \"preset\": {}, \"node_threads\": {}, \"nodes\": {}, \"source\": {}}}",
            json_str(&self.workload),
            self.trace,
            self.seconds,
            self.seed,
            self.nproc,
            json_str(self.simd),
            json_str(self.preset),
            self.node_threads,
            self.nodes,
            json_str(&self.source)
        )
    }
}

/// One recorded call: what, when, under which parent span, for which job.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

/// In-memory span log, written out once at the end of a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span; returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let now = Instant::now();
        Some(self.record(name, now, now, None, None))
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = Instant::now();
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans as a JSON array (times in ns from the tracer's creation).
    pub fn to_json(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}{}",
                json_str(s.name),
                ns(s.start),
                ns(s.end),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
