//! The deployment under test, and the primary process's role.
//!
//! Shape: the generator (this process) owns the client secret key and
//! talks to the system only through one [`SessionClient`]. A primary
//! process (this binary, `primary` subcommand) runs a [`SessionServer`]
//! over a [`BootstrapService`] started with `RuntimeConfig::default()`,
//! dispatching to two keyless `heap-node-serve --preset tiny --threads 1`
//! processes. The primary receives the client's *public* key package on
//! stdin and ships it to the nodes over the wire (`RemoteNode::with_key`);
//! no process but the generator ever holds the secret key.
//!
//! Each node process is pinned to a CPU of its own (node `i` to the
//! `i`-th CPU this process may use), as separate machines would be.
//! Unpinned, the kernel at times left both nodes on one CPU for tens of
//! seconds at low load, so a batch's two shards ran one after the other
//! and latency switched between two levels within a run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use heap_ckks::CkksContext;
use heap_core::TransferLedger;
use heap_runtime::{
    keyed_setup_backend, BootstrapService, BrBackend, EvalKeySet, JobRequest, KeyId, KeyPackage,
    KeyedSetup, NodeTimeouts, ParamPreset, RemoteNode, RuntimeConfig, ServiceNode, SessionClient,
    SessionServer, SubmitOptions,
};
use heap_telemetry::{MetricValue, Snapshot};
use heap_tfhe::LweCiphertext;

/// The parameter preset every process of the deployment runs.
pub const PRESET: ParamPreset = ParamPreset::Tiny;
/// Blind-rotation threads per node process (`heap-node-serve --threads`).
pub const NODE_THREADS: usize = 1;
/// Node processes behind the primary.
pub const NODES: usize = 2;

/// Flat `name → value` counters, as `RemoteNode::fetch_stats` returns them.
pub type Stats = BTreeMap<String, u64>;

/// A child process that is killed and reaped however its owner ends.
pub struct Proc {
    child: Child,
    // Held open so a late write by the child never hits a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads stdout lines until one starts with `tag`; returns the rest.
fn read_tagged(out: &mut BufReader<ChildStdout>, tag: &str) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match out.read_line(&mut line) {
            Ok(0) => return Err(format!("child exited before printing {tag}")),
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix(tag) {
                    return Ok(rest.trim().to_string());
                }
            }
            Err(e) => return Err(format!("reading child stdout: {e}")),
        }
    }
}

/// A CPU mask as `sched_{get,set}affinity` take it: 1024 bits, the
/// size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPU node `slot` runs on: the `slot`-th CPU this process may use,
/// cycling when there are fewer CPUs than nodes.
fn node_cpu(slot: usize) -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("no CPU in this process's affinity mask".into());
    }
    Ok(cpus[slot % cpus.len()])
}

/// Spawns one keyless `heap-node-serve`, pinned to the CPU of node
/// `slot`, and returns it with its address.
pub fn spawn_node(bin: &Path, slot: usize) -> Result<(Proc, String), String> {
    let cpu = node_cpu(slot)?;
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    let mut cmd = Command::new(bin);
    // SAFETY: the hook runs in the forked child before exec and makes one
    // async-signal-safe system call on a mask it owns. The node's threads
    // inherit the mask.
    unsafe {
        cmd.pre_exec(move || {
            if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut child = cmd
        .args([
            "--preset",
            PRESET.name(),
            "--threads",
            &NODE_THREADS.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut proc = Proc {
        child,
        _stdout: None,
    };
    let addr = read_tagged(&mut out, "LISTENING")?;
    proc._stdout = Some(out);
    Ok((proc, addr))
}

/// Counters a node exports over the wire (`StatsReq`), read on a
/// connection of the generator's own so the primary's dispatch path is
/// untouched.
pub fn node_stats(addr: &str, ctx: &CkksContext) -> Result<Stats, String> {
    let node = RemoteNode::connect(addr, ctx).map_err(|e| format!("stats connect {addr}: {e}"))?;
    let stats = node
        .fetch_stats()
        .map_err(|e| format!("fetch_stats {addr}: {e}"))?;
    node.shutdown();
    Ok(stats.into_iter().collect())
}

/// The primary process as seen from the generator.
pub struct Primary {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    proc: Proc,
    pub addr: String,
}

impl Primary {
    fn spawn(exe: &Path, nodes: &[String], key: &KeyPackage) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .args(["primary", "--nodes", &nodes.join(",")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn primary: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let proc = Proc {
            child,
            _stdout: None,
        };
        // Cold key upload to the primary: header line, then the package.
        writeln!(
            stdin,
            "KEY {} {} {}",
            key.id.0,
            key.strict_len,
            key.bytes.len()
        )
        .and_then(|_| stdin.write_all(&key.bytes))
        .and_then(|_| stdin.flush())
        .map_err(|e| format!("key upload to primary: {e}"))?;
        let addr = read_tagged(&mut stdout, "SESSIONS")?;
        Ok(Self {
            stdin,
            stdout,
            proc,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// The primary's exported counters: service, stage, session
    /// registries and its transfer ledger.
    pub fn stats(&mut self) -> Result<Stats, String> {
        writeln!(self.stdin, "STATS")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("primary stats request: {e}"))?;
        let mut stats = Stats::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("primary stats: {e}"))?
                == 0
            {
                return Err("primary exited during stats".into());
            }
            let line = line.trim();
            if line == "END" {
                return Ok(stats);
            }
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad stats line '{line}'"))?;
            let value = value
                .parse()
                .map_err(|e| format!("bad stats value '{line}': {e}"))?;
            stats.insert(name.to_string(), value);
        }
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        // Ask for a clean drain first; `Proc` kills whatever remains.
        if writeln!(self.stdin, "QUIT").is_ok() && self.stdin.flush().is_ok() {
            let deadline = Instant::now() + Duration::from_secs(3);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.proc.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A running deployment. Field order is drop order: the session closes
/// first, then the primary drains, then the nodes stop.
pub struct Deployment {
    pub client: SessionClient,
    pub primary: Primary,
    pub nodes: Vec<(Proc, String)>,
}

impl Deployment {
    /// PIDs of every process whose CPU time and memory a job costs.
    pub fn server_pids(&self) -> Vec<u32> {
        let mut pids = vec![self.primary.pid()];
        pids.extend(self.nodes.iter().map(|(p, _)| p.pid()));
        pids
    }

    pub fn node_addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|(_, a)| a.clone()).collect()
    }
}

/// What one set-up cost.
pub struct SetupTimes {
    /// Workload start → key resident on every node and the warm-up job
    /// completed.
    pub setup_s: f64,
    /// Client key generation (secret key, seed-expandable eval keys).
    pub keygen_s: f64,
}

/// Builds the whole deployment from nothing: keygen, node spawn, primary
/// spawn with cold key upload, session handshake, and a warm-up job that
/// leaves the key resident on both nodes.
pub fn setup(
    node_bin: &Path,
    key_seed: u64,
) -> Result<(Deployment, KeyedSetup, SetupTimes), String> {
    let t0 = Instant::now();
    let keyed = keyed_setup_backend(PRESET, key_seed, BrBackend::Cmux);
    let keygen_s = t0.elapsed().as_secs_f64();
    let mut nodes = Vec::with_capacity(NODES);
    for slot in 0..NODES {
        nodes.push(spawn_node(node_bin, slot)?);
    }
    let addrs: Vec<String> = nodes.iter().map(|(_, a)| a.clone()).collect();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let primary = Primary::spawn(&exe, &addrs, &keyed.key)?;
    let client = SessionClient::connect(primary.addr.as_str(), &keyed.ctx)
        .map_err(|e| format!("session connect: {e}"))?;
    let deployment = Deployment {
        client,
        primary,
        nodes,
    };
    // The scheduler ranks key holders first, so a 1-LWE job would only
    // ever warm one node; a 2-LWE job shards one LWE onto each.
    for attempt in 0.. {
        let lwes = vec![warmup_lwe(&keyed, attempt); NODES];
        deployment
            .client
            .submit(&JobRequest::BlindRotate { lwes }, SubmitOptions::default())
            .and_then(|job| job.wait())
            .map_err(|e| format!("warm-up job: {e}"))?;
        let mut resident = 0;
        for addr in &addrs {
            let stats = node_stats(addr, &keyed.ctx)?;
            if stats.get("keycache_heap_keycache_resident_keys").copied() >= Some(1) {
                resident += 1;
            }
        }
        if resident == NODES {
            break;
        }
        if attempt >= 8 {
            return Err("key never became resident on every node".into());
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((deployment, keyed, SetupTimes { setup_s, keygen_s }))
}

fn warmup_lwe(keyed: &KeyedSetup, salt: u64) -> LweCiphertext {
    let two_n = 2 * keyed.ctx.n() as u64;
    LweCiphertext {
        a: (0..keyed.boot.config().n_t as u64)
            .map(|i| (i * 7 + salt) % two_n)
            .collect(),
        b: salt % two_n,
        modulus: two_n,
    }
}

// ----------------------------------------------------------------------
// The primary process
// ----------------------------------------------------------------------

/// Appends a registry snapshot as flat `scope_name` entries: counters and
/// gauges verbatim, histograms as exact `_count` and `_sum` only (bucket
/// bounds are never reported as quantiles).
fn flatten(snap: &Snapshot, out: &mut Stats) {
    for e in &snap.entries {
        let mut name = format!("{}_{}", snap.scope, e.name);
        for (_, v) in &e.labels {
            name.push('_');
            name.push_str(v);
        }
        match &e.value {
            MetricValue::Counter(v) => {
                out.insert(name, *v);
            }
            MetricValue::Gauge(v) => {
                out.insert(name, (*v).max(0) as u64);
            }
            MetricValue::Histogram(h) => {
                out.insert(format!("{name}_count"), h.count);
                out.insert(format!("{name}_sum"), h.sum);
            }
        }
    }
}

fn ledger_stats(ledger: &TransferLedger, out: &mut Stats) {
    out.insert("ledger_lwe_sent".into(), ledger.lwe_sent());
    out.insert("ledger_lwe_bytes_sent".into(), ledger.lwe_bytes_sent());
    out.insert("ledger_rlwe_received".into(), ledger.rlwe_received());
    out.insert(
        "ledger_rlwe_bytes_received".into(),
        ledger.rlwe_bytes_received(),
    );
    out.insert("ledger_key_bytes_sent".into(), ledger.key_bytes_sent());
    out.insert(
        "ledger_control_bytes_sent".into(),
        ledger.control_bytes_sent(),
    );
}

/// `perfbench primary --nodes A,B`: reads the key package from stdin,
/// serves sessions, answers `STATS` on stdin, exits on `QUIT` or EOF.
pub fn run_primary(nodes: &str) -> Result<(), String> {
    let ctx = Arc::new(CkksContext::new(PRESET.ckks_params()));
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut header = String::new();
    input
        .read_line(&mut header)
        .map_err(|e| format!("key header: {e}"))?;
    let fields: Vec<u64> = header
        .trim()
        .strip_prefix("KEY ")
        .ok_or("expected a KEY header on stdin")?
        .split(' ')
        .map(|f| f.parse::<u64>().map_err(|e| format!("key header: {e}")))
        .collect::<Result<_, _>>()?;
    let [id, strict_len, len] = fields[..] else {
        return Err("KEY header needs id, strict length and length".into());
    };
    let mut bytes = vec![0u8; len as usize];
    input
        .read_exact(&mut bytes)
        .map_err(|e| format!("key bytes: {e}"))?;
    let set = EvalKeySet::from_wire(&ctx, &bytes).map_err(|e| format!("key package: {e:?}"))?;
    if set.id() != KeyId(id) {
        return Err("key package does not match its id".into());
    }
    let boot = Arc::new(set.into_bootstrapper(&ctx));
    let key = Arc::new(KeyPackage {
        id: KeyId(id),
        bytes,
        strict_len: strict_len as usize,
    });
    let ledger = Arc::new(TransferLedger::default());
    let mut remotes: Vec<Box<dyn ServiceNode>> = Vec::new();
    for addr in nodes.split(',') {
        let node =
            RemoteNode::connect_with_ledger(addr, &ctx, NodeTimeouts::default(), ledger.clone())
                .map_err(|e| format!("connect node {addr}: {e}"))?
                .with_key(Arc::clone(&key));
        remotes.push(Box::new(node));
    }
    let service = Arc::new(
        BootstrapService::start_with_nodes(
            Arc::clone(&ctx),
            Arc::clone(&boot),
            remotes,
            RuntimeConfig::default(),
        )
        .map_err(|e| format!("start service: {e}"))?,
    );
    let server = SessionServer::serve("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind sessions: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "SESSIONS {}", server.addr())
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).unwrap_or(0) == 0 || line.trim() != "STATS" {
            break;
        }
        let mut stats = Stats::new();
        flatten(&service.metrics().snapshot(), &mut stats);
        flatten(&boot.stage_metrics().registry().snapshot(), &mut stats);
        flatten(&server.metrics().snapshot(), &mut stats);
        ledger_stats(&ledger, &mut stats);
        for (name, value) in &stats {
            writeln!(out, "{name} {value}").map_err(|e| e.to_string())?;
        }
        writeln!(out, "END")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    drop(server);
    service.shutdown();
    Ok(())
}
