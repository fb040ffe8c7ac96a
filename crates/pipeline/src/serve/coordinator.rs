//! The campaign coordinator: the transport-free service core
//! ([`ServeState`]) and the thin TCP accept loop around it
//! ([`Coordinator`]).
//!
//! The split is deliberate. Everything that decides — leasing, revocation,
//! idempotent discards, journaling-before-acknowledgement, the merge — is
//! in [`ServeState::handle`] and takes `now: Instant` as an argument, so
//! the determinism proptests can drive the *actual* service logic through
//! random kill/restart/late-submit schedules without sockets or sleeps.
//! The TCP layer only moves lines and never makes a scheduling decision.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use holes_core::json::Json;

use super::cache::{serve_cache_connection, CACHE_RPC_FORMAT};
use super::journal::Journal;
use super::lease::{Assignment, LeaseConfig, LeaseTable, Revocation, Submission};
use super::protocol::{read_message, write_message, Reply, Request};
use super::ServeError;
use crate::chaos::{self, CacheMode, Counted};
use crate::shard::{CampaignShard, CampaignSpec};
use crate::store::ArtifactStore;
use crate::stream::{write_merged_stream, StreamRun};

/// Coordinator configuration: how to decompose the campaign and where to
/// journal accepted work.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How many shard leases to cut the campaign into.
    pub lease_shards: u64,
    /// Heartbeat cadence and retry budget for leases.
    pub lease: LeaseConfig,
    /// Path of the `holes.serve-journal/v1` crash journal.
    pub journal: PathBuf,
    /// The artifact store served to the fleet over `holes.cache-rpc/v1`;
    /// `None` disables the shared cache (cache requests get a clean
    /// error reply and workers degrade to local-only caching).
    pub cache: Option<Arc<ArtifactStore>>,
    /// Cache-reply chaos override for in-process tests; when `None` the
    /// installed [`chaos::ChaosPlan`]'s cache event applies.
    pub cache_chaos: Option<Arc<Counted<CacheMode>>>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// The coordinator's in-memory service state: lease table, accepted
/// results, and the crash journal, with every decision point parameterized
/// on the clock.
#[derive(Debug)]
pub struct ServeState {
    table: LeaseTable,
    results: Vec<Option<CampaignShard>>,
    journal: Journal,
    heartbeat_ms: u64,
    recovered: usize,
    quiet: bool,
}

/// The end state of a serve run: every accepted shard (by index), the
/// quarantined holes, and whether the run was cut short by a drain.
#[derive(Debug)]
pub struct ServeReport {
    /// Accepted shard results, indexed by shard; `None` where the campaign
    /// was drained or quarantined before the shard resolved.
    pub shards: Vec<Option<CampaignShard>>,
    /// Shards excluded after exhausting their lease attempts, with causes.
    pub quarantined: Vec<(usize, String)>,
    /// Whether the run ended in a drain with work still unassigned or
    /// unfinished (as opposed to resolving every shard).
    pub drained: bool,
}

impl ServeReport {
    /// Whether every shard of the decomposition was evaluated and accepted.
    pub fn complete(&self) -> bool {
        self.shards.iter().all(Option::is_some)
    }

    /// Accepted violation records across all shards.
    pub fn records(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|s| s.result.records.len())
            .sum()
    }

    /// Contained subject faults carried by the accepted shards.
    pub fn faulted(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|s| s.result.faults.len())
            .sum()
    }

    /// Write the merged campaign stream — byte-identical to a
    /// single-process unsharded run of the same spec. Only meaningful when
    /// [`ServeReport::complete`]; an incomplete merge is refused by the
    /// shard validators rather than silently emitting a partial campaign.
    pub fn write_merged<W: Write>(&self, out: W) -> Result<StreamRun, ServeError> {
        let shards: Vec<CampaignShard> = self.shards.iter().flatten().cloned().collect();
        Ok(write_merged_stream(shards, out)?)
    }
}

impl ServeState {
    /// Decompose `spec` into the configured lease shards and recover any
    /// previously journaled completions. `spec` must be the whole campaign
    /// (an unsharded spec): the coordinator owns the sharding.
    pub fn open(spec: &CampaignSpec, config: &ServeConfig) -> Result<ServeState, ServeError> {
        spec.validate()?;
        if spec.shards != 1 {
            return Err(ServeError::Protocol(
                "serve takes the whole campaign (an unsharded spec); \
                 the coordinator does its own sharding"
                    .into(),
            ));
        }
        let k = config.lease_shards.max(1);
        let specs: Vec<CampaignSpec> = (0..k).map(|i| spec.clone().with_shard(k, i)).collect();
        let (journal, entries) = Journal::open(&config.journal, spec, k)?;
        let mut table = LeaseTable::new(specs, config.lease);
        let mut results: Vec<Option<CampaignShard>> = vec![None; k as usize];
        let recovered = entries.len();
        for (index, shard) in entries {
            table.mark_done(index);
            results[index] = Some(shard);
        }
        Ok(ServeState {
            table,
            results,
            journal,
            heartbeat_ms: config.lease.heartbeat.as_millis().max(1) as u64,
            recovered,
            quiet: config.quiet,
        })
    }

    /// Serve one request at time `now`. Infallible decisions come back as
    /// replies (including discards); an `Err` means the coordinator itself
    /// is broken (journal write failure) and the run must abort — losing
    /// durability silently would betray the resume guarantee.
    pub fn handle(&mut self, request: &Request, now: Instant) -> Result<Reply, ServeError> {
        match request {
            Request::Lease { worker } => Ok(match self.table.assign(now) {
                Assignment::Lease { lease, index, spec } => {
                    self.log(&format!(
                        "lease {lease}: shard {index} of {} -> {worker}",
                        self.table.shards()
                    ));
                    Reply::Lease {
                        lease,
                        spec,
                        heartbeat_ms: self.heartbeat_ms,
                    }
                }
                Assignment::Wait => Reply::Wait {
                    backoff_ms: (self.heartbeat_ms / 2).max(10),
                },
                Assignment::Shutdown => Reply::Shutdown,
            }),
            Request::Heartbeat { lease } => Ok(Reply::Heartbeat {
                active: self.table.heartbeat(*lease, now),
            }),
            Request::Result { lease, shard } => {
                let Some(index) = self.table.lease_index(*lease) else {
                    return Ok(Reply::Discarded {
                        reason: format!(
                            "lease {lease} is not active (revoked, already completed, or unknown)"
                        ),
                    });
                };
                if *self.table.shard_spec(index) != shard.spec {
                    return Ok(Reply::Discarded {
                        reason: format!(
                            "result spec does not match the shard leased under {lease}"
                        ),
                    });
                }
                // Durability precedes acknowledgement: journal first, so a
                // coordinator that crashes after replying `accepted` can
                // never forget the shard.
                self.journal.record(index, shard)?;
                match self.table.submit(*lease, &shard.spec) {
                    Submission::Accepted { index } => {
                        self.results[index] = Some((**shard).clone());
                        self.log(&format!(
                            "lease {lease}: shard {index} accepted ({} records, {} faults)",
                            shard.result.records.len(),
                            shard.result.faults.len()
                        ));
                        Ok(Reply::Accepted)
                    }
                    Submission::Discarded { reason } => Ok(Reply::Discarded { reason }),
                }
            }
        }
    }

    /// Revoke every lease whose deadline has passed (see
    /// [`LeaseTable::revoke_expired`]), logging each loss.
    pub fn reap(&mut self, now: Instant) -> Vec<Revocation> {
        let revoked = self.table.revoke_expired(now);
        for revocation in &revoked {
            self.log(&format!(
                "lease {}: shard {} {} after missed heartbeats (attempt {})",
                revocation.lease,
                revocation.index,
                if revocation.quarantined {
                    "quarantined"
                } else {
                    "requeued"
                },
                revocation.attempts,
            ));
        }
        revoked
    }

    /// Stop granting leases; in-flight ones may still complete.
    pub fn drain(&mut self) {
        self.table.drain();
    }

    /// Whether [`ServeState::drain`] was called.
    pub fn draining(&self) -> bool {
        self.table.draining()
    }

    /// Whether every shard is resolved (accepted or quarantined).
    pub fn complete(&self) -> bool {
        self.table.complete()
    }

    /// Whether no lease is in flight.
    pub fn idle(&self) -> bool {
        self.table.idle()
    }

    /// Shards recovered from the journal at open, never re-leased.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Number of shards in the decomposition.
    pub fn shards(&self) -> usize {
        self.table.shards()
    }

    /// Consume the state into the run's end report.
    pub fn into_report(self) -> ServeReport {
        let drained = !self.table.complete();
        ServeReport {
            quarantined: self.table.quarantined(),
            shards: self.results,
            drained,
        }
    }

    fn log(&self, message: &str) {
        if !self.quiet {
            eprintln!("serve: {message}");
        }
    }
}

/// The TCP front of the service: accepts one-request connections and feeds
/// them to a [`ServeState`].
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
}

/// How long a single connection may take to deliver its request line or
/// absorb its reply before the coordinator abandons it. Generous — a
/// result line for a large shard takes real time — but finite, so one
/// wedged socket cannot stall every other worker's heartbeats forever.
const PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounds on the post-completion linger window (twice the heartbeat,
/// clamped): long enough that every worker's next poll lands inside it,
/// short enough that `holes serve` never dawdles after the merge is ready.
const LINGER_FLOOR: Duration = Duration::from_millis(200);

/// See [`LINGER_FLOOR`].
const LINGER_CEILING: Duration = Duration::from_secs(2);

/// Cap on concurrently live per-connection threads (request readers and
/// cache servers). Far above what a healthy fleet needs, but finite: a
/// connection burst — or many chaos-stalled cache replies at
/// [`super::cache`]'s 6 s apiece — piles up threads only to this depth,
/// after which excess connections get a clean busy error instead.
pub const MAX_CONNECTION_THREADS: usize = 64;

/// A held slot in the coordinator's connection-thread budget, released on
/// drop (including panic unwinds inside a connection thread).
struct ThreadSlot(Arc<AtomicUsize>);

impl ThreadSlot {
    /// Claim a slot, or `None` when `MAX_CONNECTION_THREADS` are live.
    fn acquire(live: &Arc<AtomicUsize>) -> Option<ThreadSlot> {
        let mut current = live.load(Ordering::SeqCst);
        loop {
            if current >= MAX_CONNECTION_THREADS {
                return None;
            }
            match live.compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Some(ThreadSlot(Arc::clone(live))),
                Err(actual) => current = actual,
            }
        }
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Coordinator {
    /// Bind the coordinator's listening socket (nonblocking, so the accept
    /// loop can interleave lease reaping and drain checks).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Coordinator, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Coordinator { listener })
    }

    /// The bound address — useful when binding port 0.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Run the campaign to resolution. Returns when every shard is
    /// accepted or quarantined, or — once `drain` becomes `true` (the
    /// SIGTERM flag) — when the last in-flight lease resolves or expires.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        config: &ServeConfig,
        drain: &AtomicBool,
    ) -> Result<ServeReport, ServeError> {
        let mut state = ServeState::open(spec, config)?;
        let cache_chaos = config
            .cache_chaos
            .clone()
            .or_else(|| chaos::installed().cache.clone());
        // Connection threads read the request line off the accept loop and
        // forward parsed `holes.rpc/v1` messages (with the socket to answer
        // on) back over this channel; the lease state stays single-threaded.
        let (rpc_tx, rpc_rx) = std::sync::mpsc::channel::<(Json, TcpStream)>();
        let live_threads = Arc::new(AtomicUsize::new(0));
        if !config.quiet && state.recovered() > 0 {
            eprintln!(
                "serve: resumed {} of {} shards from journal {}",
                state.recovered(),
                state.shards(),
                config.journal.display()
            );
        }
        loop {
            if drain.load(Ordering::SeqCst) && !state.draining() {
                state.drain();
                if !config.quiet {
                    eprintln!("serve: draining — no new leases, waiting for in-flight work");
                }
            }
            // Answer forwarded requests before reaping, so a heartbeat
            // already delivered to the channel can never lose its lease to
            // the reaper in the same tick.
            Self::drain_rpc(&rpc_rx, &mut state, config)?;
            state.reap(Instant::now());
            if state.complete() || (state.draining() && state.idle()) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.serve_connection(stream, config, &cache_chaos, &rpc_tx, &live_threads)?
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Completion linger: fleet members poll again within a heartbeat
        // or two, and answering that next request with `Shutdown` lets
        // them exit immediately. Without it a worker's request can land in
        // the backlog of a listener nobody will ever accept from again and
        // block there until its read timeout expires.
        let linger = (config.lease.heartbeat * 2).clamp(LINGER_FLOOR, LINGER_CEILING);
        let deadline = Instant::now() + linger;
        while Instant::now() < deadline {
            Self::drain_rpc(&rpc_rx, &mut state, config)?;
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.serve_connection(stream, config, &cache_chaos, &rpc_tx, &live_threads)?
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Self::drain_rpc(&rpc_rx, &mut state, config)?;
        Ok(state.into_report())
    }

    /// Answer every `holes.rpc/v1` message the connection threads have
    /// forwarded so far. Runs on the accept loop — the only place that may
    /// touch `state` — and never blocks on peer reads (those happened on
    /// the forwarding thread); reply writes go to sockets whose buffers
    /// are empty, bounded by the peer write timeout in the worst case.
    fn drain_rpc(
        rpc: &Receiver<(Json, TcpStream)>,
        state: &mut ServeState,
        config: &ServeConfig,
    ) -> Result<(), ServeError> {
        while let Ok((message, mut writer)) = rpc.try_recv() {
            let reply = match Request::from_json(&message) {
                Ok(request) => state.handle(&request, Instant::now())?,
                Err(error) => Reply::Error {
                    message: error.to_string(),
                },
            };
            if let Err(error) = write_message(&mut writer, &reply.to_json()) {
                if !config.quiet {
                    eprintln!("serve: peer vanished before the reply: {error}");
                }
            }
        }
        Ok(())
    }

    /// Serve one connection: one request line, one reply line. Peer
    /// misbehavior (torn lines, timeouts, sockets dead before the reply) is
    /// logged and dropped — a killed worker must never take the
    /// coordinator down with it. Only coordinator-side failures (the
    /// journal) propagate.
    ///
    /// The request line is read on a bounded per-connection thread — never
    /// on the accept loop, where one slow-loris peer (or a worker
    /// streaming a large submit over a congested link) could stall every
    /// other worker's heartbeats past the grace window. The thread then
    /// dispatches on the `rpc` version tag: `holes.cache-rpc/v1` is served
    /// right there (a slow store read or chaos-stalled reply blocks only
    /// its own thread), while `holes.rpc/v1` is forwarded to the accept
    /// loop, the sole owner of the lease state.
    fn serve_connection(
        &self,
        stream: TcpStream,
        config: &ServeConfig,
        cache_chaos: &Option<Arc<Counted<CacheMode>>>,
        rpc: &Sender<(Json, TcpStream)>,
        live_threads: &Arc<AtomicUsize>,
    ) -> Result<(), ServeError> {
        let quiet = config.quiet;
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(PEER_TIMEOUT))?;
        stream.set_write_timeout(Some(PEER_TIMEOUT))?;
        let Some(slot) = ThreadSlot::acquire(live_threads) else {
            // Saturated: refuse cleanly. The reply goes to a socket whose
            // send buffer is empty, so this write cannot stall the loop.
            let mut writer = stream;
            let busy = Reply::Error {
                message: "coordinator is saturated; retry shortly".into(),
            };
            let _ = write_message(&mut writer, &busy.to_json());
            return Ok(());
        };
        let store = config.cache.clone();
        let chaos = cache_chaos.clone();
        let rpc = rpc.clone();
        std::thread::spawn(move || {
            let _slot = slot;
            let writer = match stream.try_clone() {
                Ok(writer) => writer,
                Err(error) => {
                    if !quiet {
                        eprintln!("serve: dropped connection: {error}");
                    }
                    return;
                }
            };
            let mut reader = BufReader::new(stream);
            let message = match read_message(&mut reader) {
                Ok(message) => message,
                Err(error) => {
                    if !quiet {
                        eprintln!("serve: dropped connection: {error}");
                    }
                    return;
                }
            };
            if message.get("rpc").and_then(Json::as_str) == Some(CACHE_RPC_FORMAT) {
                serve_cache_connection(writer, store, message, chaos, quiet);
            } else {
                // The accept loop answers on its next tick; a send only
                // fails when the run is already over, and then the peer's
                // read timeout is the intended outcome.
                let _ = rpc.send((message, writer));
            }
        });
        Ok(())
    }
}
