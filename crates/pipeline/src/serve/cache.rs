//! The `holes.cache-rpc/v1` fleet-wide artifact cache protocol.
//!
//! A worker that misses its in-memory cache and its local disk store can
//! ask the coordinator for the artifact before falling back to a compile:
//! the lookup ladder becomes memory → local store → **remote fetch** →
//! recompute, and every artifact a worker derives itself is written
//! through to the coordinator so the next cold worker finds it warm.
//!
//! The protocol rides the same line-delimited JSON transport as
//! `holes.rpc/v1` — one TCP connection, one request line, one reply line —
//! and is served by the same coordinator listener, dispatched on the `rpc`
//! version tag. Two requests exist:
//!
//! * [`CacheRequest::Fetch`] — look up `(subject, fingerprint, kind)`;
//!   the coordinator revalidates the stored envelope before shipping it.
//! * [`CacheRequest::Put`] — offer a complete `holes.artifact/v1`
//!   envelope; the coordinator revalidates it before a byte touches disk.
//!
//! The client side, [`RemoteStore`], is deliberately paranoid:
//!
//! * every exchange has connect/read/write timeouts and bounded retry
//!   with exponential backoff;
//! * a fetched envelope is **untrusted** — the worker's [`ArtifactStore`]
//!   runs it through the same checksum/version/tamper gates as a disk
//!   load, and a failed gate quarantines the bytes and recomputes;
//! * after a configurable run of consecutive transport failures a circuit
//!   breaker trips: the fleet degrades to local-only caching with a single
//!   warning, and a half-open probe re-checks the server periodically.
//!
//! Nothing on this path can change campaign bytes — a cache that is slow,
//! absent, lying, or corrupt only ever costs a recompute.
//!
//! [`ArtifactStore`]: crate::store::ArtifactStore

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use holes_compiler::Fingerprint;
use holes_core::json::Json;

use super::protocol::{connect_with_timeout, missing, read_message, str_field, write_message};
use super::ServeError;
use crate::chaos::{CacheMode, Counted};
use crate::store::{valid_kind, ArtifactStore, RemoteFetch, RemoteSource, SubjectKey};

/// Version tag every `holes.cache-rpc/v1` message carries in its `rpc`
/// field; the coordinator listener dispatches on it, and mismatched
/// peers are rejected before any payload is interpreted.
pub const CACHE_RPC_FORMAT: &str = "holes.cache-rpc/v1";

/// A worker-to-coordinator cache message (one per connection).
#[derive(Debug)]
pub enum CacheRequest {
    /// Look up one artifact by its full content address.
    Fetch {
        /// The subject the artifact belongs to.
        subject: SubjectKey,
        /// The compiler configuration fingerprint it was derived under.
        fingerprint: Fingerprint,
        /// The artifact kind (`exe`, `trace-gdb`, `viol-o2`, ...).
        kind: String,
    },
    /// Write one complete `holes.artifact/v1` envelope through to the
    /// coordinator's store (revalidated server-side before it lands).
    Put {
        /// The envelope exactly as the worker's store would write it.
        envelope: Json,
    },
}

/// A coordinator-to-worker cache message (one per connection).
#[derive(Debug)]
pub enum CacheReply {
    /// The artifact exists; here is its envelope, revalidated at read
    /// time. The client must revalidate again — the wire is untrusted.
    Hit {
        /// The stored `holes.artifact/v1` envelope.
        envelope: Json,
    },
    /// The artifact is not in the coordinator's store.
    Miss,
    /// The offered envelope passed validation and was stored.
    Accepted,
    /// The request was unintelligible, the envelope failed validation,
    /// or the coordinator is not serving a cache at all.
    Error {
        /// What the coordinator objected to.
        message: String,
    },
}

impl CacheRequest {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("rpc".to_owned(), Json::str(CACHE_RPC_FORMAT))];
        match self {
            CacheRequest::Fetch {
                subject,
                fingerprint,
                kind,
            } => {
                pairs.push(("req".to_owned(), Json::str("fetch")));
                pairs.push(("subject".to_owned(), Json::str(subject.to_string())));
                pairs.push(("fingerprint".to_owned(), Json::str(fingerprint.to_string())));
                pairs.push(("kind".to_owned(), Json::str(kind)));
            }
            CacheRequest::Put { envelope } => {
                pairs.push(("req".to_owned(), Json::str("put")));
                pairs.push(("envelope".to_owned(), envelope.clone()));
            }
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a request. Only addressing fields are checked
    /// here; an embedded envelope is validated by the store before any
    /// byte of it is trusted.
    pub fn from_json(json: &Json) -> Result<CacheRequest, ServeError> {
        check_cache_version(json)?;
        match str_field(json, "req")? {
            "fetch" => {
                let subject = str_field(json, "subject")?
                    .parse::<SubjectKey>()
                    .map_err(|error| ServeError::Protocol(format!("bad subject: {error}")))?;
                let fingerprint = str_field(json, "fingerprint")?
                    .parse::<Fingerprint>()
                    .map_err(|error| ServeError::Protocol(format!("bad fingerprint: {error}")))?;
                let kind = str_field(json, "kind")?;
                // Same gate as `ArtifactStore::put_envelope`: the kind
                // becomes an on-disk file name, so a wire value carrying
                // path separators or `..` must die here, before it can
                // address anything outside the store root.
                if !valid_kind(kind) {
                    return Err(ServeError::Protocol(format!(
                        "`{kind}` is not a valid artifact kind"
                    )));
                }
                Ok(CacheRequest::Fetch {
                    subject,
                    fingerprint,
                    kind: kind.to_owned(),
                })
            }
            "put" => Ok(CacheRequest::Put {
                envelope: json
                    .get("envelope")
                    .ok_or_else(|| missing("envelope"))?
                    .clone(),
            }),
            other => Err(ServeError::Protocol(format!(
                "unknown cache request `{other}`"
            ))),
        }
    }
}

impl CacheReply {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("rpc".to_owned(), Json::str(CACHE_RPC_FORMAT))];
        match self {
            CacheReply::Hit { envelope } => {
                pairs.push(("reply".to_owned(), Json::str("hit")));
                pairs.push(("envelope".to_owned(), envelope.clone()));
            }
            CacheReply::Miss => pairs.push(("reply".to_owned(), Json::str("miss"))),
            CacheReply::Accepted => pairs.push(("reply".to_owned(), Json::str("accepted"))),
            CacheReply::Error { message } => {
                pairs.push(("reply".to_owned(), Json::str("error")));
                pairs.push(("message".to_owned(), Json::str(message)));
            }
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a reply. A `hit` envelope is passed through
    /// untouched — the store's validation gates, not the parser, decide
    /// whether it can be trusted.
    pub fn from_json(json: &Json) -> Result<CacheReply, ServeError> {
        check_cache_version(json)?;
        match str_field(json, "reply")? {
            "hit" => Ok(CacheReply::Hit {
                envelope: json
                    .get("envelope")
                    .ok_or_else(|| missing("envelope"))?
                    .clone(),
            }),
            "miss" => Ok(CacheReply::Miss),
            "accepted" => Ok(CacheReply::Accepted),
            "error" => Ok(CacheReply::Error {
                message: str_field(json, "message")?.to_owned(),
            }),
            other => Err(ServeError::Protocol(format!(
                "unknown cache reply `{other}`"
            ))),
        }
    }
}

fn check_cache_version(json: &Json) -> Result<(), ServeError> {
    match json.get("rpc").and_then(Json::as_str) {
        Some(CACHE_RPC_FORMAT) => Ok(()),
        Some(other) => Err(ServeError::Protocol(format!(
            "unsupported rpc version `{other}` (expected `{CACHE_RPC_FORMAT}`)"
        ))),
        None => Err(missing("rpc")),
    }
}

/// Evaluate one parsed cache message against the coordinator's store and
/// produce the reply JSON. `None` for the store means the coordinator was
/// started without `--cache-dir`; every request then gets a clean error
/// reply rather than a hang or a connection reset.
pub fn handle_request(store: Option<&Arc<ArtifactStore>>, message: &Json) -> Json {
    let reply = match CacheRequest::from_json(message) {
        Err(error) => CacheReply::Error {
            message: error.to_string(),
        },
        Ok(_) if store.is_none() => CacheReply::Error {
            message: "coordinator is not serving a cache (start `holes serve` with --cache-dir)"
                .to_owned(),
        },
        Ok(CacheRequest::Fetch {
            subject,
            fingerprint,
            kind,
        }) => match store
            .expect("checked above")
            .fetch_envelope(subject, fingerprint, &kind)
        {
            Some(envelope) => CacheReply::Hit { envelope },
            None => CacheReply::Miss,
        },
        Ok(CacheRequest::Put { envelope }) => {
            match store.expect("checked above").put_envelope(&envelope) {
                Ok(()) => CacheReply::Accepted,
                Err(message) => CacheReply::Error { message },
            }
        }
    };
    reply.to_json()
}

/// How long a `delay:N` chaos schedule stalls the victim reply. Longer
/// than any client read timeout in the tests and the CLI default, so a
/// stalled reply always manifests as a client-side timeout.
const CHAOS_STALL: Duration = Duration::from_secs(6);

/// Serve one already-parsed cache message on its own (detached) thread:
/// evaluate it against the store, apply any pending chaos mutation, and
/// write the reply line. Peer-side write failures are logged and dropped —
/// a vanished worker must not disturb the coordinator.
pub(crate) fn serve_cache_connection(
    mut writer: TcpStream,
    store: Option<Arc<ArtifactStore>>,
    message: Json,
    chaos: Option<Arc<Counted<CacheMode>>>,
    quiet: bool,
) {
    let reply = handle_request(store.as_ref(), &message);
    let outcome = match chaos.as_deref().and_then(Counted::fire) {
        Some(CacheMode::Drop) => {
            if !quiet {
                eprintln!("serve: cache chaos: dropping a reply");
            }
            Ok(())
        }
        Some(CacheMode::Delay) => {
            if !quiet {
                eprintln!("serve: cache chaos: stalling a reply for {CHAOS_STALL:?}");
            }
            std::thread::sleep(CHAOS_STALL);
            write_message(&mut writer, &reply)
        }
        Some(CacheMode::Corrupt) => {
            if !quiet {
                eprintln!("serve: cache chaos: bit-flipping a reply");
            }
            let mut bytes = reply.to_compact().into_bytes();
            let middle = bytes.len() / 2;
            if let Some(byte) = bytes.get_mut(middle) {
                *byte ^= 0x01;
            }
            bytes.push(b'\n');
            std::io::Write::write_all(&mut writer, &bytes)
                .and_then(|()| std::io::Write::flush(&mut writer))
                .map_err(ServeError::Io)
        }
        None => write_message(&mut writer, &reply),
    };
    if let Err(error) = outcome {
        if !quiet {
            eprintln!("serve: cache peer dropped: {error}");
        }
    }
}

/// Default per-exchange connect/read/write timeout for the cache client.
pub const DEFAULT_CACHE_TIMEOUT: Duration = Duration::from_secs(2);

/// Default consecutive-failure threshold before the circuit breaker
/// trips (overridable with `--cache-failures N`).
pub const DEFAULT_CACHE_FAILURES: u32 = 3;

/// How long the breaker stays open before a half-open probe is admitted.
const PROBE_AFTER: Duration = Duration::from_secs(2);

/// Attempts per exchange (first try plus bounded retries).
const RPC_ATTEMPTS: u32 = 3;

/// Initial retry backoff; doubles per attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// The worker-side `holes.cache-rpc/v1` client: a [`RemoteSource`] the
/// local [`ArtifactStore`] consults between a disk miss and a recompute,
/// with write-through puts on every save.
///
/// Failure posture: every exchange is bounded by timeouts and retried
/// with exponential backoff; a run of `threshold` consecutive failed
/// exchanges trips a circuit breaker that degrades the worker to
/// local-only caching (one warning), after which a single half-open probe
/// per cooldown window checks whether the server came back.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    timeout: Duration,
    threshold: u32,
    probe_after: Duration,
    /// Consecutive failed exchanges since the last success.
    consecutive: AtomicU32,
    /// `Some(t)` while the breaker is open: no exchange until `t`, then
    /// exactly one half-open probe per cooldown window.
    open_until: Mutex<Option<Instant>>,
    warned: AtomicBool,
    quiet: bool,
}

impl RemoteStore {
    /// A client for the cache served at `addr` (same address as the
    /// coordinator's `holes.rpc/v1` listener), with default timeouts and
    /// breaker threshold.
    pub fn new(addr: impl Into<String>) -> RemoteStore {
        RemoteStore {
            addr: addr.into(),
            timeout: DEFAULT_CACHE_TIMEOUT,
            threshold: DEFAULT_CACHE_FAILURES,
            probe_after: PROBE_AFTER,
            consecutive: AtomicU32::new(0),
            open_until: Mutex::new(None),
            warned: AtomicBool::new(false),
            quiet: false,
        }
    }

    /// Override the per-exchange connect/read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteStore {
        self.timeout = timeout;
        self
    }

    /// Override the consecutive-failure threshold (`--cache-failures N`;
    /// clamped to at least 1).
    pub fn with_failure_threshold(mut self, threshold: u32) -> RemoteStore {
        self.threshold = threshold.max(1);
        self
    }

    /// Override the open-breaker cooldown before a half-open probe.
    pub fn with_probe_after(mut self, probe_after: Duration) -> RemoteStore {
        self.probe_after = probe_after;
        self
    }

    /// Suppress the degradation warning (tests).
    pub fn with_quiet(mut self, quiet: bool) -> RemoteStore {
        self.quiet = quiet;
        self
    }

    /// Whether the circuit breaker is currently open (the client is in
    /// local-only degradation, modulo half-open probes).
    pub fn degraded(&self) -> bool {
        self.open_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Breaker gate: `true` admits an exchange. While open, admits
    /// exactly one probe per `probe_after` window.
    fn admit(&self) -> bool {
        let mut open = self
            .open_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match *open {
            None => true,
            Some(until) if Instant::now() < until => false,
            Some(_) => {
                // Half-open: let this caller probe, and push the window
                // forward so concurrent callers stay degraded meanwhile.
                *open = Some(Instant::now() + self.probe_after);
                true
            }
        }
    }

    fn note_success(&self) {
        self.consecutive.store(0, Ordering::SeqCst);
        let mut open = self
            .open_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if open.take().is_some() {
            // Re-arm the degradation warning: each degrade episode should
            // announce itself once, so a recovery line is never followed by
            // a silent re-degradation.
            self.warned.store(false, Ordering::SeqCst);
            if !self.quiet {
                eprintln!(
                    "work: cache server {} recovered; resuming remote caching",
                    self.addr
                );
            }
        }
    }

    fn note_failure(&self) {
        let run = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if run >= self.threshold {
            *self
                .open_until
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now() + self.probe_after);
            if !self.warned.swap(true, Ordering::SeqCst) && !self.quiet {
                eprintln!(
                    "work: warning: cache server {} failed {run} consecutive exchange(s); \
                     degrading to local-only caching (half-open re-probe every {:?})",
                    self.addr, self.probe_after
                );
            }
        }
    }

    /// One request/reply exchange with bounded retry and exponential
    /// backoff. Retries absorb transient faults (a dropped or corrupted
    /// reply line, a timeout); only the final verdict feeds the breaker.
    fn exchange(&self, request: &Json) -> Result<Json, ServeError> {
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.try_exchange(request) {
                Ok(reply) => return Ok(reply),
                Err(error) if attempt >= RPC_ATTEMPTS => return Err(error),
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    fn try_exchange(&self, request: &Json) -> Result<Json, ServeError> {
        let stream = connect_with_timeout(&self.addr, self.timeout)?;
        let mut writer = stream.try_clone().map_err(ServeError::Io)?;
        write_message(&mut writer, request)?;
        let mut reader = BufReader::new(stream);
        read_message(&mut reader)
    }
}

impl RemoteSource for RemoteStore {
    fn fetch(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> RemoteFetch {
        if !self.admit() {
            return RemoteFetch::Unavailable;
        }
        let request = CacheRequest::Fetch {
            subject,
            fingerprint,
            kind: kind.to_owned(),
        }
        .to_json();
        match self
            .exchange(&request)
            .and_then(|reply| CacheReply::from_json(&reply))
        {
            Ok(CacheReply::Hit { envelope }) => {
                self.note_success();
                RemoteFetch::Hit(envelope)
            }
            Ok(CacheReply::Miss) => {
                self.note_success();
                RemoteFetch::Miss
            }
            // An error reply (or a reply that makes no sense for a fetch)
            // means the server cannot serve this cache; count it toward
            // the breaker so a misconfigured coordinator degrades quickly
            // instead of taxing every lookup with a doomed round-trip.
            Ok(CacheReply::Error { .. } | CacheReply::Accepted) | Err(_) => {
                self.note_failure();
                RemoteFetch::Unavailable
            }
        }
    }

    fn put(&self, envelope: &Json) -> bool {
        if !self.admit() {
            return false;
        }
        let request = CacheRequest::Put {
            envelope: envelope.clone(),
        }
        .to_json();
        match self
            .exchange(&request)
            .and_then(|reply| CacheReply::from_json(&reply))
        {
            Ok(CacheReply::Accepted) => {
                self.note_success();
                true
            }
            // The server answered but rejected the envelope: transport is
            // healthy (no breaker debit), the write-through just failed.
            Ok(CacheReply::Error { .. }) => {
                self.note_success();
                false
            }
            Ok(CacheReply::Hit { .. } | CacheReply::Miss) | Err(_) => {
                self.note_failure();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: &CacheRequest) -> CacheRequest {
        let json = Json::parse(&request.to_json().to_compact()).expect("wire line parses");
        CacheRequest::from_json(&json).expect("request round-trips")
    }

    #[test]
    fn cache_requests_and_replies_round_trip_the_wire() {
        let fetch = round_trip_request(&CacheRequest::Fetch {
            subject: SubjectKey(0xdead_beef_0000_0001),
            fingerprint: Fingerprint(0x0123_4567_89ab_cdef),
            kind: "trace-gdb".to_owned(),
        });
        match fetch {
            CacheRequest::Fetch {
                subject,
                fingerprint,
                kind,
            } => {
                assert_eq!(subject, SubjectKey(0xdead_beef_0000_0001));
                assert_eq!(fingerprint.0, 0x0123_4567_89ab_cdef);
                assert_eq!(kind, "trace-gdb");
            }
            other => panic!("wrong request: {other:?}"),
        }

        let envelope = Json::Obj(vec![("format".to_owned(), Json::str("holes.artifact/v1"))]);
        let put = round_trip_request(&CacheRequest::Put {
            envelope: envelope.clone(),
        });
        match put {
            CacheRequest::Put { envelope: sent } => {
                assert_eq!(sent.to_compact(), envelope.to_compact());
            }
            other => panic!("wrong request: {other:?}"),
        }

        for reply in [
            CacheReply::Hit { envelope },
            CacheReply::Miss,
            CacheReply::Accepted,
            CacheReply::Error {
                message: "no".to_owned(),
            },
        ] {
            let json = Json::parse(&reply.to_json().to_compact()).expect("wire line parses");
            let parsed = CacheReply::from_json(&json).expect("reply round-trips");
            assert_eq!(parsed.to_json().to_compact(), reply.to_json().to_compact());
        }
    }

    #[test]
    fn version_mismatch_and_unknown_requests_are_rejected() {
        let wrong = Json::Obj(vec![
            ("rpc".to_owned(), Json::str("holes.rpc/v1")),
            ("req".to_owned(), Json::str("fetch")),
        ]);
        assert!(CacheRequest::from_json(&wrong).is_err(), "wrong rpc tag");

        let unknown = Json::Obj(vec![
            ("rpc".to_owned(), Json::str(CACHE_RPC_FORMAT)),
            ("req".to_owned(), Json::str("steal")),
        ]);
        let error = CacheRequest::from_json(&unknown).expect_err("unknown request");
        assert!(error.to_string().contains("steal"), "{error}");

        let bad_subject = Json::Obj(vec![
            ("rpc".to_owned(), Json::str(CACHE_RPC_FORMAT)),
            ("req".to_owned(), Json::str("fetch")),
            ("subject".to_owned(), Json::str("not-hex")),
            ("fingerprint".to_owned(), Json::str("0000000000000000")),
            ("kind".to_owned(), Json::str("exe")),
        ]);
        assert!(CacheRequest::from_json(&bad_subject).is_err());
    }

    #[test]
    fn path_escaping_fetch_kinds_are_rejected_at_the_wire() {
        for kind in ["x/../../../../journal", "../x", "a\\b", "a.b", "", "/etc"] {
            let request = Json::Obj(vec![
                ("rpc".to_owned(), Json::str(CACHE_RPC_FORMAT)),
                ("req".to_owned(), Json::str("fetch")),
                ("subject".to_owned(), Json::str(SubjectKey(1).to_string())),
                (
                    "fingerprint".to_owned(),
                    Json::str(Fingerprint(2).to_string()),
                ),
                ("kind".to_owned(), Json::str(kind)),
            ]);
            let error = CacheRequest::from_json(&request)
                .expect_err("a kind that cannot name an artifact file must die at parse");
            assert!(
                error.to_string().contains("artifact kind"),
                "kind `{kind}`: {error}"
            );
        }
    }

    #[test]
    fn recovery_rearms_the_degradation_warning() {
        let remote = RemoteStore::new("127.0.0.1:1")
            .with_failure_threshold(1)
            .with_quiet(true);
        remote.note_failure();
        assert!(remote.degraded(), "breaker tripped");
        assert!(
            remote.warned.load(Ordering::SeqCst),
            "tripping records the (suppressed) warning"
        );
        remote.note_success();
        assert!(!remote.degraded(), "breaker closed on success");
        assert!(
            !remote.warned.load(Ordering::SeqCst),
            "recovery re-arms the warning for the next degradation episode"
        );
    }

    #[test]
    fn a_coordinator_without_a_store_replies_with_a_clean_error() {
        let request = CacheRequest::Fetch {
            subject: SubjectKey(1),
            fingerprint: Fingerprint(2),
            kind: "exe".to_owned(),
        }
        .to_json();
        let reply = handle_request(None, &request);
        match CacheReply::from_json(&reply).expect("reply parses") {
            CacheReply::Error { message } => {
                assert!(message.contains("--cache-dir"), "actionable: {message}")
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn the_breaker_trips_after_consecutive_failures_and_half_opens() {
        // Nothing listens on this address: every exchange fails fast.
        let remote = RemoteStore::new("127.0.0.1:1")
            .with_timeout(Duration::from_millis(50))
            .with_failure_threshold(2)
            .with_probe_after(Duration::from_millis(40))
            .with_quiet(true);

        assert!(!remote.degraded(), "breaker starts closed");
        assert_eq!(
            remote.fetch(SubjectKey(1), Fingerprint(2), "exe"),
            RemoteFetch::Unavailable
        );
        assert!(!remote.degraded(), "one failure is below the threshold");
        assert_eq!(
            remote.fetch(SubjectKey(1), Fingerprint(2), "exe"),
            RemoteFetch::Unavailable
        );
        assert!(remote.degraded(), "second consecutive failure trips it");

        // While open, exchanges are refused without touching the network.
        let before = Instant::now();
        assert!(!remote.put(&Json::Obj(vec![])), "degraded put is refused");
        assert!(
            before.elapsed() < Duration::from_millis(30),
            "an open breaker answers instantly"
        );

        // After the cooldown a half-open probe is admitted (and fails
        // again here, leaving the breaker open).
        std::thread::sleep(Duration::from_millis(60));
        assert!(remote.admit(), "half-open probe admitted after cooldown");
        assert!(!remote.admit(), "only one probe per window");
    }
}
