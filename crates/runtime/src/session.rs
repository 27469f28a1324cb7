//! Session multiplexing over HRT1: one socket, many in-flight jobs.
//!
//! The per-shard [`crate::RemoteNode`] protocol is strictly one request
//! in flight per connection — fine between primary and secondaries, but
//! wasteful for *clients* of the service, which would otherwise need a
//! socket (and a parked thread) per outstanding job. A session fixes
//! that with three more HRT1 frame kinds:
//!
//! ```text
//! SubmitReq (10)  tag u64 | tenant u64 | priority u8 | kind u8 | body
//! SubmitAck (11)  tag u64 | status u8 | detail            (refusal only)
//! JobDone   (12)  tag u64 | status u8 | result-or-error
//! ```
//!
//! The client tags every submission; the server answers `SubmitAck`
//! *only on refusal* (SLO rejection with the retry hint, validation
//! failure, shutdown) and otherwise streams `JobDone` frames back **in
//! completion order**, not submission order — a multiplexed session
//! never head-of-line-blocks a fast job behind a slow one. The session
//! handshake is the same `Hello`/`HelloAck` ring-shape check the node
//! protocol uses, so mismatched parameter sets fail before any
//! ciphertext moves.
//!
//! Server side, a connection costs two threads (a reader that decodes
//! and submits, a writer that drains a completion outbox fed by each
//! job's completion notifier) regardless of how many jobs are in
//! flight. Client side, [`SessionClient`] is `Sync`: any number of
//! application threads submit concurrently and block on their own
//! [`SessionJob`] handles while one reader thread routes completions by
//! tag. Accepted jobs are never dropped: on shutdown or a broken peer
//! the service still completes them, and an unreachable client simply
//! stops receiving the results.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_telemetry::{Counter, Gauge, Registry};
use heap_tfhe::{lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire, rlwe_batch_to_wire};

use crate::channel::Channel;
use crate::job::{JobOutput, JobRequest, JobState, Priority, TenantId};
use crate::remote::{accept_hello, check_hello, hello_payload, read_frame, write_frame, FrameKind};
use crate::service::{BootstrapService, SubmitOptions};
use crate::RuntimeError;

/// `SubmitAck` status bytes (refusals; acceptance sends nothing).
const ACK_REJECTED_SLO: u8 = 1;
const ACK_INVALID: u8 = 2;
const ACK_SHUTDOWN: u8 = 3;

/// `JobDone` status bytes.
const DONE_OK: u8 = 0;
const DONE_ERR: u8 = 1;

/// `JobDone` error codes.
const ERR_ALL_NODES_FAILED: u8 = 1;
const ERR_SHUTDOWN: u8 = 2;

/// Request kind bytes inside `SubmitReq` / `JobDone` payloads.
const KIND_BOOTSTRAP: u8 = 0;
const KIND_BLIND_ROTATE: u8 = 1;

/// Completion tags a connection's writer can buffer before completing
/// pipeline threads block on the notifier (per-connection backpressure).
const OUTBOX_DEPTH: usize = 1024;

fn transport(why: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport(why.to_string())
}

fn priority_to_wire(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

fn priority_from_wire(b: u8) -> Option<Priority> {
    match b {
        0 => Some(Priority::Low),
        1 => Some(Priority::Normal),
        2 => Some(Priority::High),
        _ => None,
    }
}

/// Per-session-server telemetry (one registry shared by every session).
struct SessionTelemetry {
    registry: Arc<Registry>,
    open: Arc<Gauge>,
    jobs: Arc<Counter>,
    rejections: Arc<Counter>,
    completions: Arc<Counter>,
}

impl SessionTelemetry {
    fn new() -> Self {
        let registry = Arc::new(Registry::new("session"));
        Self {
            open: registry.gauge("heap_sessions_open", "live multiplexed sessions"),
            jobs: registry.counter(
                "heap_session_jobs_total",
                "jobs accepted over multiplexed sessions",
            ),
            rejections: registry.counter(
                "heap_session_rejections_total",
                "session submissions refused (SLO, invalid, shutdown)",
            ),
            completions: registry.counter(
                "heap_session_completions_total",
                "JobDone frames streamed back to session clients",
            ),
            registry,
        }
    }
}

/// State shared between a connection's reader and writer threads.
struct ConnShared {
    /// Completion tags, fed by each job's completion notifier.
    outbox: Channel<u64>,
    /// Accepted-and-undelivered jobs by tag.
    pending: Mutex<HashMap<u64, Arc<JobState>>>,
    /// Set when the reader stops accepting (EOF, `Shutdown`, error);
    /// the writer closes the outbox once the last pending job delivers.
    draining: AtomicBool,
    /// All frame writes (reader's refusals, writer's completions) are
    /// serialized here so they never interleave on the wire.
    stream: Mutex<TcpStream>,
}

impl ConnShared {
    /// Ends the writer once nothing can arrive anymore. Safe to call
    /// from either thread; `Channel::close` is idempotent.
    fn close_if_drained(&self) {
        if self.draining.load(Ordering::SeqCst)
            && self.pending.lock().expect("session pending").is_empty()
        {
            self.outbox.close();
        }
    }

    fn write(&self, kind: FrameKind, payload: &[u8]) -> std::io::Result<u64> {
        write_frame(
            &mut *self.stream.lock().expect("session stream"),
            kind,
            payload,
        )
    }
}

/// A listener accepting multiplexed job-submission sessions for one
/// [`BootstrapService`].
pub struct SessionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    telemetry: Arc<SessionTelemetry>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl SessionServer {
    /// Binds `addr` (port 0 for ephemeral) and serves sessions against
    /// `service` until [`SessionServer::stop`] or drop. Each accepted
    /// connection runs its own reader/writer thread pair.
    pub fn serve(addr: &str, service: Arc<BootstrapService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(SessionTelemetry::new());
        let accept_thread = {
            let (stop, telemetry) = (Arc::clone(&stop), Arc::clone(&telemetry));
            std::thread::Builder::new()
                .name("heap-session-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let (service, telemetry) = (Arc::clone(&service), Arc::clone(&telemetry));
                        std::thread::spawn(move || {
                            let _ = run_session(stream, service, telemetry);
                        });
                    }
                })
                .expect("spawn session acceptor")
        };
        Ok(Self {
            addr,
            stop,
            telemetry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session metric registry (`heap_sessions_open`,
    /// `heap_session_jobs_total`, rejections, completions).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// Stops accepting new sessions. Established sessions drain
    /// normally — their jobs are already accepted and will complete.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decrements the open-sessions gauge however the session ends.
struct OpenSession(Arc<Gauge>);

impl Drop for OpenSession {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// One accepted connection: handshake, then reader loop (this thread)
/// plus a writer thread draining the completion outbox.
fn run_session(
    mut stream: TcpStream,
    service: Arc<BootstrapService>,
    telemetry: Arc<SessionTelemetry>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let ctx = Arc::clone(service.context());
    let local_hello = hello_payload(&ctx);
    if accept_hello(&mut stream, &local_hello).is_err() {
        return Ok(());
    }
    write_frame(&mut stream, FrameKind::HelloAck, &local_hello)?;
    telemetry.open.add(1);
    let _open = OpenSession(Arc::clone(&telemetry.open));

    let moduli: Vec<u64> = (0..ctx.boot_limbs())
        .map(|j| ctx.rns().modulus(j).value())
        .collect();
    let shared = Arc::new(ConnShared {
        outbox: Channel::new(OUTBOX_DEPTH),
        pending: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        stream: Mutex::new(stream.try_clone()?),
    });
    let writer = {
        let (shared, ctx, telemetry) = (
            Arc::clone(&shared),
            Arc::clone(&ctx),
            Arc::clone(&telemetry),
        );
        std::thread::Builder::new()
            .name("heap-session-writer".into())
            .spawn(move || {
                while let Some(tag) = shared.outbox.recv() {
                    let state = shared.pending.lock().expect("session pending").remove(&tag);
                    if let Some(result) = state.and_then(|s| s.take_result()) {
                        let frame = encode_job_done(tag, &result, &ctx, &moduli);
                        // A broken peer doesn't stop the drain: keep
                        // consuming completions so the session always
                        // terminates once its accepted jobs finish.
                        if shared.write(FrameKind::JobDone, &frame).is_ok() {
                            telemetry.completions.inc();
                        }
                    }
                    shared.close_if_drained();
                }
            })
            .expect("spawn session writer")
    };

    // Reader loop: decode SubmitReqs and feed the service.
    while let Ok((kind, payload, _)) = read_frame(&mut stream) {
        match kind {
            FrameKind::SubmitReq => handle_submit(&service, &ctx, &shared, &telemetry, &payload),
            FrameKind::Ping => {
                let _ = shared.write(FrameKind::Pong, &[]);
            }
            FrameKind::Shutdown => break,
            other => {
                let why = format!("unexpected session frame {other:?}");
                let _ = shared.write(FrameKind::Error, why.as_bytes());
                break;
            }
        }
    }
    shared.draining.store(true, Ordering::SeqCst);
    shared.close_if_drained();
    let _ = writer.join();
    Ok(())
}

/// Decodes one `SubmitReq` and submits it; refusals are answered with a
/// `SubmitAck`, acceptance is answered only by the eventual `JobDone`.
fn handle_submit(
    service: &BootstrapService,
    ctx: &CkksContext,
    shared: &Arc<ConnShared>,
    telemetry: &SessionTelemetry,
    payload: &[u8],
) {
    let refuse = |tag: u64, status: u8, detail: &[u8]| {
        telemetry.rejections.inc();
        let mut p = Vec::with_capacity(9 + detail.len());
        p.extend_from_slice(&tag.to_le_bytes());
        p.push(status);
        p.extend_from_slice(detail);
        let _ = shared.write(FrameKind::SubmitAck, &p);
    };
    if payload.len() < 18 {
        // No tag to address a refusal to; drop the malformed frame.
        return;
    }
    let tag = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let tenant = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let Some(priority) = priority_from_wire(payload[16]) else {
        refuse(tag, ACK_INVALID, b"bad priority byte");
        return;
    };
    let request = match (payload[17], &payload[18..]) {
        (KIND_BOOTSTRAP, body) => match ctx.ciphertext_from_wire(body) {
            Ok(ct) => JobRequest::Bootstrap { ct },
            Err(e) => {
                refuse(
                    tag,
                    ACK_INVALID,
                    format!("bad ciphertext: {e:?}").as_bytes(),
                );
                return;
            }
        },
        (KIND_BLIND_ROTATE, body) => match lwe_batch_from_wire(body) {
            Ok(lwes) => JobRequest::BlindRotate { lwes },
            Err(e) => {
                refuse(tag, ACK_INVALID, format!("bad LWE batch: {e:?}").as_bytes());
                return;
            }
        },
        (other, _) => {
            refuse(
                tag,
                ACK_INVALID,
                format!("bad request kind {other}").as_bytes(),
            );
            return;
        }
    };
    if shared
        .pending
        .lock()
        .expect("session pending")
        .contains_key(&tag)
    {
        refuse(tag, ACK_INVALID, b"duplicate tag");
        return;
    }
    let opts = SubmitOptions {
        priority,
        tenant: TenantId(tenant),
    };
    // Register inserts the pending entry and installs the completion
    // notifier *before* the job can reach the pipeline, so a completion
    // can never race past an un-indexed tag.
    let registered = service.submit_registered(request, opts, |_, state| {
        shared
            .pending
            .lock()
            .expect("session pending")
            .insert(tag, Arc::clone(state));
        let outbox = Arc::clone(shared);
        state.set_notifier(Box::new(move || {
            // Err means the outbox closed (connection torn down); the
            // job still completed service-side, it just has no reader.
            let _ = outbox.outbox.send(tag);
        }));
    });
    match registered {
        Ok(_) => telemetry.jobs.inc(),
        Err(e) => {
            // The job never entered the queue; un-index the tag.
            shared.pending.lock().expect("session pending").remove(&tag);
            match e {
                RuntimeError::Rejected { retry_after } => {
                    let ns = u64::try_from(retry_after.as_nanos()).unwrap_or(u64::MAX);
                    refuse(tag, ACK_REJECTED_SLO, &ns.to_le_bytes());
                }
                RuntimeError::Invalid(why) => refuse(tag, ACK_INVALID, why.as_bytes()),
                RuntimeError::Shutdown => refuse(tag, ACK_SHUTDOWN, &[]),
                other => refuse(tag, ACK_INVALID, other.to_string().as_bytes()),
            }
        }
    }
}

/// `JobDone` payload for a finished job.
fn encode_job_done(
    tag: u64,
    result: &Result<JobOutput, RuntimeError>,
    ctx: &CkksContext,
    moduli: &[u64],
) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    p.extend_from_slice(&tag.to_le_bytes());
    match result {
        Ok(JobOutput::Bootstrapped(ct)) => {
            p.push(DONE_OK);
            p.push(KIND_BOOTSTRAP);
            p.extend_from_slice(&ctx.ciphertext_to_wire(ct));
        }
        Ok(JobOutput::Accumulators(accs)) => {
            p.push(DONE_OK);
            p.push(KIND_BLIND_ROTATE);
            p.extend_from_slice(&rlwe_batch_to_wire(accs, moduli));
        }
        Err(e) => {
            p.push(DONE_ERR);
            let (code, msg) = match e {
                RuntimeError::AllNodesFailed(last) => (ERR_ALL_NODES_FAILED, last.clone()),
                RuntimeError::Shutdown => (ERR_SHUTDOWN, String::new()),
                other => (0, other.to_string()),
            };
            p.push(code);
            p.extend_from_slice(msg.as_bytes());
        }
    }
    p
}

/// One submission's completion slot on the client.
struct SessionSlot {
    slot: Mutex<Option<Result<JobOutput, RuntimeError>>>,
    done: Condvar,
}

impl SessionSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<JobOutput, RuntimeError>) {
        let mut slot = self.slot.lock().expect("session slot");
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }
}

/// A client's handle to one in-flight session submission.
pub struct SessionJob {
    tag: u64,
    slot: Arc<SessionSlot>,
}

impl SessionJob {
    /// The wire tag identifying this job on its session.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Blocks until the server streams this job's completion (or the
    /// session dies, which fails every outstanding job with
    /// [`RuntimeError::Transport`]).
    pub fn wait(self) -> Result<JobOutput, RuntimeError> {
        let mut slot = self.slot.slot.lock().expect("session slot");
        loop {
            if let Some(done) = slot.take() {
                return done;
            }
            slot = self.slot.done.wait(slot).expect("session slot");
        }
    }
}

/// Client state shared with the completion-routing reader thread.
struct ClientShared {
    ctx: Arc<CkksContext>,
    pending: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    dead: AtomicBool,
}

impl ClientShared {
    /// Fails every outstanding job; the session is unusable.
    fn poison(&self, why: &str) {
        self.dead.store(true, Ordering::SeqCst);
        for (_, slot) in self.pending.lock().expect("client pending").drain() {
            slot.fill(Err(transport(why)));
        }
    }
}

/// A multiplexed job-submission session to a [`SessionServer`].
///
/// `Sync`: many application threads may submit concurrently; one socket
/// carries all of their jobs and completions stream back out of order,
/// routed to each [`SessionJob`] by tag.
pub struct SessionClient {
    writer: Mutex<TcpStream>,
    shared: Arc<ClientShared>,
    next_tag: AtomicU64,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl SessionClient {
    /// Connects and runs the ring-shape handshake. `ctx` must match the
    /// server's parameter set.
    pub fn connect(addr: impl ToSocketAddrs, ctx: &Arc<CkksContext>) -> Result<Self, RuntimeError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(transport)?
            .next()
            .ok_or_else(|| transport("no address"))?;
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(transport)?;
        stream.set_nodelay(true).map_err(transport)?;
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(transport)?;
        let local_hello = hello_payload(ctx);
        write_frame(&mut stream, FrameKind::Hello, &local_hello).map_err(transport)?;
        match read_frame(&mut stream).map_err(|e| e.into_node("handshake", Duration::ZERO)) {
            Ok((FrameKind::HelloAck, payload, _)) => {
                check_hello(&local_hello, &payload).map_err(RuntimeError::Transport)?;
            }
            Ok((FrameKind::Error, payload, _)) => {
                return Err(transport(String::from_utf8_lossy(&payload)));
            }
            Ok((kind, ..)) => return Err(transport(format!("unexpected handshake {kind:?}"))),
            Err(e) => return Err(transport(e)),
        }
        let shared = Arc::new(ClientShared {
            ctx: Arc::clone(ctx),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let mut stream = stream.try_clone().map_err(transport)?;
            std::thread::Builder::new()
                .name("heap-session-reader".into())
                .spawn(move || client_reader(&mut stream, &shared))
                .expect("spawn session reader")
        };
        Ok(Self {
            writer: Mutex::new(stream),
            shared,
            next_tag: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// Submits a job over the session; completion streams back whenever
    /// the service finishes it. Refusals surface on the returned
    /// handle's `wait` (typed [`RuntimeError::Rejected`] for SLO
    /// refusals), not here — the submit itself only fails when the
    /// session transport does.
    pub fn submit(
        &self,
        request: &JobRequest,
        opts: SubmitOptions,
    ) -> Result<SessionJob, RuntimeError> {
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(transport("session connection lost"));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let mut p = Vec::with_capacity(64);
        p.extend_from_slice(&tag.to_le_bytes());
        p.extend_from_slice(&opts.tenant.0.to_le_bytes());
        p.push(priority_to_wire(opts.priority));
        match request {
            JobRequest::Bootstrap { ct } => {
                p.push(KIND_BOOTSTRAP);
                p.extend_from_slice(&self.shared.ctx.ciphertext_to_wire(ct));
            }
            JobRequest::BlindRotate { lwes } => {
                p.push(KIND_BLIND_ROTATE);
                p.extend_from_slice(&lwe_batch_to_wire(lwes));
            }
        }
        let slot = SessionSlot::new();
        // Index the tag before the frame can travel: the completion may
        // come back before the write call even returns.
        self.shared
            .pending
            .lock()
            .expect("client pending")
            .insert(tag, Arc::clone(&slot));
        let written = write_frame(
            &mut *self.writer.lock().expect("client writer"),
            FrameKind::SubmitReq,
            &p,
        );
        if let Err(e) = written {
            self.shared
                .pending
                .lock()
                .expect("client pending")
                .remove(&tag);
            return Err(transport(e));
        }
        Ok(SessionJob { tag, slot })
    }

    /// Number of submissions still awaiting completion.
    pub fn in_flight(&self) -> usize {
        self.shared.pending.lock().expect("client pending").len()
    }
}

impl Drop for SessionClient {
    fn drop(&mut self) {
        // Clean end: the server drains our accepted jobs, streams the
        // remaining JobDones, and closes; the reader exits on EOF.
        {
            let mut w = self.writer.lock().expect("client writer");
            let _ = write_frame(&mut *w, FrameKind::Shutdown, &[]);
            let _ = w.flush();
        }
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// Routes completion frames to their slots until the session ends.
fn client_reader(stream: &mut TcpStream, shared: &ClientShared) {
    loop {
        let (kind, payload, _) = match read_frame(stream) {
            Ok(frame) => frame,
            Err(_) => {
                shared.poison("session connection lost");
                return;
            }
        };
        match kind {
            FrameKind::SubmitAck if payload.len() >= 9 => {
                let tag = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                let detail = &payload[9..];
                let result = match payload[8] {
                    ACK_REJECTED_SLO => {
                        let ns = detail
                            .get(..8)
                            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                            .unwrap_or(0);
                        Err(RuntimeError::Rejected {
                            retry_after: Duration::from_nanos(ns),
                        })
                    }
                    ACK_SHUTDOWN => Err(RuntimeError::Shutdown),
                    _ => Err(transport(format!(
                        "refused: {}",
                        String::from_utf8_lossy(detail)
                    ))),
                };
                fill(shared, tag, result);
            }
            FrameKind::JobDone if payload.len() >= 9 => {
                let tag = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                fill(shared, tag, decode_job_done(&payload[8..], &shared.ctx));
            }
            FrameKind::Pong => {}
            FrameKind::Error => {
                shared.poison(&format!(
                    "server error: {}",
                    String::from_utf8_lossy(&payload)
                ));
                return;
            }
            _ => {
                shared.poison("unexpected frame on session");
                return;
            }
        }
    }
}

fn fill(shared: &ClientShared, tag: u64, result: Result<JobOutput, RuntimeError>) {
    if let Some(slot) = shared.pending.lock().expect("client pending").remove(&tag) {
        slot.fill(result);
    }
}

/// Decodes the post-tag part of a `JobDone` payload.
fn decode_job_done(body: &[u8], ctx: &CkksContext) -> Result<JobOutput, RuntimeError> {
    match (body[0], &body[1..]) {
        (DONE_OK, rest) if !rest.is_empty() && rest[0] == KIND_BLIND_ROTATE => {
            rlwe_batch_from_wire(&rest[1..])
                .map(JobOutput::Accumulators)
                .map_err(|e| transport(format!("bad accumulator batch: {e:?}")))
        }
        (DONE_OK, rest) if !rest.is_empty() && rest[0] == KIND_BOOTSTRAP => ctx
            .ciphertext_from_wire(&rest[1..])
            .map(JobOutput::Bootstrapped)
            .map_err(|e| transport(format!("bad ciphertext: {e:?}"))),
        (DONE_ERR, rest) if !rest.is_empty() => {
            let msg = String::from_utf8_lossy(&rest[1..]).into_owned();
            Err(match rest[0] {
                ERR_ALL_NODES_FAILED => RuntimeError::AllNodesFailed(msg),
                ERR_SHUTDOWN => RuntimeError::Shutdown,
                _ => transport(msg),
            })
        }
        _ => Err(transport("malformed JobDone frame")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::{insecure_deterministic_setup, ParamPreset};
    use crate::remote::probe_oversized_hello;
    use crate::service::RuntimeConfig;

    #[test]
    fn oversized_hello_header_is_refused_before_the_handshake() {
        let setup = insecure_deterministic_setup(ParamPreset::Tiny, 5);
        let service = Arc::new(
            BootstrapService::start(setup.ctx, setup.boot, RuntimeConfig::default())
                .expect("start service"),
        );
        let server = SessionServer::serve("127.0.0.1:0", Arc::clone(&service)).expect("serve");
        probe_oversized_hello(server.addr()).expect("server must refuse the 1 GiB Hello");
        drop(server);
        service.shutdown();
    }
}
