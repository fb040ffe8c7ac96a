//! The persistent on-disk artifact store: the cross-process second level of
//! the artifact cache.
//!
//! [`crate::ArtifactCache`] makes every *revisit* of a compiler
//! configuration free — but only within one process. The natural CLI
//! workflow (`holes campaign` → `triage` → `reduce` over the same seed
//! range) spans several processes, and without persistence each one
//! recompiles and re-traces everything from scratch. This module spills the
//! three cached artifact kinds — [`Executable`]s, [`DebugTrace`]s, and full
//! violation sets — to a cache directory and loads them back in any later
//! process, so a range campaigned once is free forever after. Beside them
//! it keeps two kinds of *answers*: the culprit lists triage searches
//! returned for one configuration's violation sites
//! ([`ArtifactStore::load_triage_answers`]), so a warm triage loads one
//! small envelope per configuration instead of replaying the searches'
//! probes, and distilled corpus entries.
//!
//! # Keys and layout
//!
//! Artifacts are keyed by the pair of a [`SubjectKey`] (a stable digest of
//! the subject's seed *and* rendered source text, so generator changes or
//! reduced program variants can never alias) and the configuration's stable
//! [`Fingerprint`], plus the debugger personality for traces and violation
//! sets. Each artifact is one file:
//!
//! ```text
//! <root>/<subject-key>/<fingerprint>.<kind>.json
//! ```
//!
//! where `<kind>` is one of:
//!
//! * `exe` — an unbudgeted executable;
//! * `trace-gdb`, `trace-lldb` — a debug trace. Only unbudgeted
//!   configurations' traces are written; pass-budget traces written by
//!   earlier builds still load;
//! * `viol-gdb`, `viol-lldb` — a full violation set;
//! * `triage-gdb`, `triage-lldb` — the configuration's triage answer set:
//!   one entry per triaged violation site, in site order;
//! * `triage-<debugger>-<conjecture>-F<function>-L<line>-<variable>` — a
//!   triage answer for one violation site, for example
//!   `triage-lldb-C1-F3-L25-c10`. Earlier builds wrote these; they are
//!   still read, never written;
//! * `corpus-<conjecture>-L<line>-<variable>` — a distilled corpus entry.
//!
//! # Format, integrity, and concurrency
//!
//! Every file is a [`ARTIFACT_FORMAT`] (`holes.artifact/v1`) envelope built
//! on `holes_core::json`: format tag, kind, subject key, fingerprint, an
//! FNV-1a checksum of the compact payload text, and the payload itself.
//! Loads are **corruption-tolerant by construction**: any parse, envelope,
//! checksum, or decode failure — including bytes that are not UTF-8, a
//! decoded executable whose embedded configuration is not *exactly* the
//! requested one, a triage answer recorded for another violation site or
//! search method, and an answer set whose sites repeat or are out of order
//! — is counted in [`StoreStats::rejected`] and reported as a
//! miss, so the artifact is recomputed (and the file rewritten) rather than
//! trusted. A load checks and decodes an envelope in one pass over its text,
//! without building it as a tree: traces, violation sets and answer sets
//! decode straight from the reader's events while the checksum is taken
//! alongside.
//! Writes go to a unique temporary file in the destination directory and
//! are published with an atomic rename, so concurrent shard processes
//! sharing one cache directory can never observe a half-written artifact;
//! two processes racing on the same key both write identical bytes and
//! either rename wins. The one exception is an answer set, which grows: two
//! processes triaging one configuration may each publish a set without the
//! other's newest answer, and a later triage that misses it searches again.
//!
//! # Enabling the store
//!
//! The store engages automatically when the `HOLES_CACHE_DIR` environment
//! variable names a directory (the `holes` CLI's `--cache-dir` flag sets it
//! for its own process), or explicitly via
//! [`crate::Subject::attach_store`].

mod codec;
mod gate;
pub mod io;

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use codec::DecodeError;
use gate::{gate, Gated, Payload};
use io::{FailingIo, OsIo, StoreIo};

use holes_compiler::{CompilerConfig, Executable, Fingerprint};
use holes_core::json::Json;
use holes_core::{Conjecture, Violation};
use holes_debugger::{DebugTrace, DebuggerKind};

use crate::stats::{Counters, StoreStats};
use crate::triage::{TriageAnswers, TriageMethod, TriageOutcome};

/// The identifying `format` value of every artifact file.
pub const ARTIFACT_FORMAT: &str = "holes.artifact/v1";

/// The environment variable that names the cache directory and thereby
/// enables the store for every subject created by this process.
pub const CACHE_DIR_ENV: &str = "HOLES_CACHE_DIR";

/// What a [`RemoteSource`] lookup produced: a full artifact envelope, a
/// definitive "the remote has no such artifact", or "the remote could not
/// be asked" (transport failure or an open circuit breaker). The store
/// treats `Unavailable` exactly like a miss — the artifact is recomputed —
/// but counts it in [`RemoteStats::degraded`](crate::RemoteStats::degraded) so degradation is
/// observable.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteFetch {
    /// The remote returned a `holes.artifact/v1` envelope. It is
    /// **untrusted**: the store revalidates it through the same gates as a
    /// disk load before a single payload byte is used.
    Hit(Json),
    /// The remote answered and has no such artifact.
    Miss,
    /// The remote could not be reached (or its circuit breaker is open).
    Unavailable,
}

/// A fleet-wide artifact source a store may be layered over (see
/// [`ArtifactStore::attach_remote`]): typically
/// `holes_pipeline::serve::cache::RemoteStore`, the `holes.cache-rpc/v1`
/// TCP client, but any fallible key-value fetch/put will do (the tests use
/// an in-memory fake). Implementations own their own availability policy
/// (timeouts, retries, circuit breaking); the store never blocks
/// correctness on them.
pub trait RemoteSource: Send + Sync + std::fmt::Debug {
    /// Fetch the envelope for `(subject, fingerprint, kind)`.
    fn fetch(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> RemoteFetch;

    /// Offer a freshly written envelope to the remote (write-through).
    /// Returns `false` when the remote was unavailable; the put is
    /// best-effort either way.
    fn put(&self, envelope: &Json) -> bool;
}

/// How many times a transient (non-`NotFound`) store I/O failure is retried
/// before the operation is abandoned and counted in
/// [`StoreStats::store_errors`].
const IO_RETRIES: u32 = 2;

/// Base sleep between store I/O retries, multiplied by the attempt number.
const IO_BACKOFF: std::time::Duration = std::time::Duration::from_millis(2);

/// Stable identity of a test subject on disk: a 64-bit FNV-1a digest of the
/// generator seed and the rendered source text.
///
/// Including the source text means a changed generator, a hand-written
/// program (seed 0), or a reduction variant each get their own key instead
/// of silently aliasing a stale cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubjectKey(pub u64);

impl SubjectKey {
    /// Derive the key for a subject from its seed and rendered source.
    pub fn derive(seed: u64, source_text: &str) -> SubjectKey {
        let hash = fnv1a_with(FNV_OFFSET, &seed.to_le_bytes());
        SubjectKey(fnv1a_with(hash, source_text.as_bytes()))
    }
}

impl std::fmt::Display for SubjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for SubjectKey {
    type Err = String;

    /// Parse the 16-digit hex spelling `Display` emits — the round-trip
    /// the cache RPC uses to carry subject keys on the wire.
    fn from_str(text: &str) -> Result<SubjectKey, String> {
        if text.len() != 16 {
            return Err(format!("`{text}` is not a 16-digit subject key"));
        }
        u64::from_str_radix(text, 16)
            .map(SubjectKey)
            .map_err(|e| format!("`{text}` is not a subject key: {e}"))
    }
}

/// Outcome of one [`ArtifactStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Total artifact bytes found before the sweep.
    pub scanned_bytes: u64,
    /// Whole `(subject, fingerprint)` artifact families evicted.
    pub evicted_fingerprints: usize,
    /// Files deleted.
    pub deleted_files: usize,
    /// Bytes deleted.
    pub deleted_bytes: u64,
    /// Artifact bytes remaining after the sweep (≤ the budget unless a
    /// concurrent writer raced the sweep).
    pub remaining_bytes: u64,
}

/// A persistent artifact store rooted at a cache directory. See the module
/// docs for the format and guarantees.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    io: Box<dyn StoreIo>,
    remote: OnceLock<Arc<dyn RemoteSource>>,
    counters: Counters<StoreStats>,
}

/// Per-process source of unique temporary file names.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The lazily initialized process-wide store named by [`CACHE_DIR_ENV`].
static ENV_STORE: OnceLock<Option<Arc<ArtifactStore>>> = OnceLock::new();

/// An explicitly installed process-wide store, consulted by
/// [`ArtifactStore::from_env`] *before* the environment lookup. Unlike
/// `ENV_STORE` it is replaceable, which is what lets a `holes work` process
/// bind its remote-layered store for every subject it creates, and lets
/// in-process fleet tests rebind between scenarios.
static PROCESS_STORE: RwLock<Option<Arc<ArtifactStore>>> = RwLock::new(None);

/// Install (or, with `None`, remove) the store every subsequently created
/// subject binds to, overriding the [`CACHE_DIR_ENV`] lookup. Subjects
/// already created keep whatever store they were bound to.
pub fn install_process_store(store: Option<Arc<ArtifactStore>>) {
    *PROCESS_STORE
        .write()
        .unwrap_or_else(PoisonError::into_inner) = store;
}

/// FNV-1a offset basis — the shared starting state of every digest in this
/// module (subject keys and payload checksums).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an in-progress FNV-1a digest.
fn fnv1a_with(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a digest of `bytes` from the standard offset basis.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(FNV_OFFSET, bytes)
}

fn debugger_tag(kind: DebuggerKind) -> &'static str {
    match kind {
        DebuggerKind::GdbLike => "gdb",
        DebuggerKind::LldbLike => "lldb",
    }
}

impl ArtifactStore {
    /// Open (creating if necessary) a store rooted at `root`, on the real
    /// filesystem.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        ArtifactStore::open_with_io(root, Box::new(OsIo))
    }

    /// Open the store rooted at `root` without creating it: for commands
    /// that maintain an existing store, such as `holes cache gc`, a missing
    /// directory is a mistyped path, not an empty store.
    ///
    /// # Errors
    ///
    /// Returns a `NotFound` error when `root` is not a directory.
    pub fn open_existing(root: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let root = root.into();
        if !root.is_dir() {
            return Err(std::io::Error::new(
                ErrorKind::NotFound,
                format!("no artifact store at {}", root.display()),
            ));
        }
        Ok(ArtifactStore::at(root, Box::new(OsIo)))
    }

    /// [`ArtifactStore::open`] over an explicit [`StoreIo`] implementation —
    /// the seam the chaos tests use to inject transient failures into the
    /// load/save path. Transient failures while creating the root are
    /// retried like any other store operation.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created after the
    /// retry budget.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        io: Box<dyn StoreIo>,
    ) -> std::io::Result<ArtifactStore> {
        let root = root.into();
        let mut attempt = 0u32;
        loop {
            match io.create_dir_all(&root) {
                Ok(()) => break,
                Err(error) if attempt >= IO_RETRIES => return Err(error),
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(IO_BACKOFF * attempt);
                }
            }
        }
        Ok(ArtifactStore::at(root, io))
    }

    /// A store over `io` rooted at the directory `root`.
    fn at(root: PathBuf, io: Box<dyn StoreIo>) -> ArtifactStore {
        ArtifactStore {
            root,
            io,
            remote: OnceLock::new(),
            counters: Counters::default(),
        }
    }

    /// Layer this store over a fleet-wide [`RemoteSource`] as its third
    /// cache level: local misses fall through to a remote fetch (validated,
    /// then written through to local disk) and every local save is also
    /// offered to the remote. At most one remote takes effect per store;
    /// later calls are no-ops.
    pub fn attach_remote(&self, remote: Arc<dyn RemoteSource>) {
        let _ = self.remote.set(remote);
    }

    /// The process-wide store named by the [`CACHE_DIR_ENV`] environment
    /// variable, if set when first consulted (all subjects share this one
    /// instance, so its [`stats`](ArtifactStore::stats) aggregate the whole
    /// process). An unusable cache directory degrades the process to
    /// memory-only caching with a single warning rather than failing the
    /// run; the installed [`crate::chaos::ChaosPlan`]'s store period wraps
    /// the store in a periodic failure schedule ([`FailingIo::every`]),
    /// which may change the retry/error counters but never a result. A
    /// store installed via [`install_process_store`] takes precedence over
    /// the environment lookup.
    pub fn from_env() -> Option<Arc<ArtifactStore>> {
        if let Some(installed) = PROCESS_STORE
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return Some(Arc::clone(installed));
        }
        ENV_STORE
            .get_or_init(|| {
                let dir = std::env::var(CACHE_DIR_ENV)
                    .ok()
                    .filter(|dir| !dir.is_empty())?;
                let io: Box<dyn StoreIo> = match crate::chaos::installed().store_period {
                    Some(period) => Box::new(FailingIo::every(period)),
                    None => Box::new(OsIo),
                };
                match ArtifactStore::open_with_io(&dir, io) {
                    Ok(store) => Some(Arc::new(store)),
                    Err(error) => {
                        eprintln!(
                            "warning: cache directory `{dir}` is unusable ({error}); \
                             continuing with in-memory caching only"
                        );
                        None
                    }
                }
            })
            .clone()
    }

    /// Run one store I/O operation with bounded retry: transient
    /// (non-`NotFound`) failures sleep briefly and retry, counting each
    /// retry; a failure that survives the budget is counted in
    /// [`StoreStats::store_errors`] and returned.
    fn with_retry<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(error) if error.kind() == ErrorKind::NotFound => return Err(error),
                Err(error) => {
                    if attempt >= IO_RETRIES {
                        self.counters.bump(|s| &mut s.store_errors);
                        return Err(error);
                    }
                    attempt += 1;
                    self.counters.bump(|s| &mut s.retries);
                    std::thread::sleep(IO_BACKOFF * attempt);
                }
            }
        }
    }

    /// Count one content-level rejection and move the offending file into
    /// `<root>/quarantine/<subject>/` for post-mortem inspection. The move
    /// is best-effort: if it fails the file stays put and the recompute
    /// overwrites it in place, exactly as before quarantining existed.
    /// Quarantined files are invisible to loads and to [`ArtifactStore::gc`]
    /// (which only sweeps direct subject directories).
    fn reject(&self, path: &Path) {
        self.counters.bump(|s| &mut s.rejected);
        let Some(file) = path.file_name() else { return };
        let Some(subject) = path.parent().and_then(Path::file_name) else {
            return;
        };
        let dir = self.root.join("quarantine").join(subject);
        if self.with_retry(|| self.io.create_dir_all(&dir)).is_err() {
            return;
        }
        if self
            .with_retry(|| self.io.rename(path, &dir.join(file)))
            .is_ok()
        {
            self.counters.bump(|s| &mut s.quarantined);
        }
    }

    /// The cache directory this store reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> StoreStats {
        self.counters.get()
    }

    fn path_for(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> PathBuf {
        self.root
            .join(subject.to_string())
            .join(format!("{fingerprint}.{kind}.json"))
    }

    /// Load, check, and decode one artifact envelope; a content-level
    /// failure counts as rejected (and quarantines the file), an absent file
    /// as missed (falling through to the attached [`RemoteSource`], if any),
    /// and a persistent I/O failure as a store error — all yield `None`, so
    /// the artifact is recomputed rather than trusted.
    fn load<T>(
        &self,
        subject: SubjectKey,
        fingerprint: Fingerprint,
        kind: &str,
        decode: impl FnOnce(&mut Payload<'_, '_>) -> Result<T, DecodeError>,
    ) -> Option<T> {
        let path = self.path_for(subject, fingerprint, kind);
        let bytes = match self.with_retry(|| self.io.read(&path)) {
            Ok(bytes) => bytes,
            Err(error) => {
                if error.kind() == ErrorKind::NotFound {
                    self.counters.bump(|s| &mut s.misses);
                    return self.load_remote(subject, fingerprint, kind, &path, decode);
                }
                return None;
            }
        };
        let gated = match std::str::from_utf8(&bytes) {
            Ok(text) => gate(text, subject, fingerprint, kind, decode),
            Err(_) => Gated::Invalid,
        };
        self.settle(gated, &path)
    }

    /// Count a gated artifact read from `path`: a valid envelope whose
    /// payload decoded is loaded; anything else is rejected.
    fn settle<T>(&self, gated: Gated<T>, path: &Path) -> Option<T> {
        match gated {
            Gated::Valid(Ok(artifact)) => {
                self.counters.bump(|s| &mut s.loads);
                Some(artifact)
            }
            _ => {
                self.reject(path);
                None
            }
        }
    }

    /// The remote leg of a local miss: fetch the envelope from the attached
    /// [`RemoteSource`], render it once, pass that text through exactly the
    /// gate a disk load passes, quarantine it on any failure (the recompute
    /// heals the cache), and write the same text through to `path` so the
    /// next process pays nothing.
    fn load_remote<T>(
        &self,
        subject: SubjectKey,
        fingerprint: Fingerprint,
        kind: &str,
        path: &Path,
        decode: impl FnOnce(&mut Payload<'_, '_>) -> Result<T, DecodeError>,
    ) -> Option<T> {
        let remote = self.remote.get()?;
        match remote.fetch(subject, fingerprint, kind) {
            RemoteFetch::Hit(envelope) => {
                let line = envelope_line(&envelope);
                match gate(&line, subject, fingerprint, kind, decode) {
                    Gated::Invalid => {
                        self.counters.bump(|s| &mut s.remote.rejected);
                        self.quarantine_remote(subject, fingerprint, kind, &line);
                        None
                    }
                    valid => {
                        self.counters.bump(|s| &mut s.remote.hits);
                        self.write_envelope(path, &line);
                        self.settle(valid, path)
                    }
                }
            }
            RemoteFetch::Miss => {
                self.counters.bump(|s| &mut s.remote.misses);
                None
            }
            RemoteFetch::Unavailable => {
                self.counters.bump(|s| &mut s.remote.degraded);
                None
            }
        }
    }

    /// Preserve a rejected remote envelope under
    /// `<root>/quarantine/<subject>/<fingerprint>.<kind>.remote.json` for
    /// post-mortem inspection, mirroring [`ArtifactStore::reject`] for
    /// bytes that never reached the artifact tree. Best-effort.
    fn quarantine_remote(
        &self,
        subject: SubjectKey,
        fingerprint: Fingerprint,
        kind: &str,
        line: &str,
    ) {
        let dir = self.root.join("quarantine").join(subject.to_string());
        if self.with_retry(|| self.io.create_dir_all(&dir)).is_err() {
            return;
        }
        let path = dir.join(format!("{fingerprint}.{kind}.remote.json"));
        if self
            .with_retry(|| self.io.write(&path, line.as_bytes()))
            .is_ok()
        {
            self.counters.bump(|s| &mut s.quarantined);
        }
    }

    /// Write one artifact envelope with the atomic-rename protocol.
    /// Transient failures are retried; a write the retry budget cannot
    /// complete is abandoned and counted — the store is an accelerator,
    /// never a correctness dependency.
    fn save(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str, payload: Json) {
        let path = self.path_for(subject, fingerprint, kind);
        let envelope = build_envelope(subject, fingerprint, kind, payload);
        self.write_envelope(&path, &envelope_line(&envelope));
        if let Some(remote) = self.remote.get() {
            if !remote.put(&envelope) {
                self.counters.bump(|s| &mut s.remote.degraded);
            }
        }
    }

    /// Publish an envelope's file text at `path` via a unique temporary file
    /// and an atomic rename (the shared engine of [`ArtifactStore::save`],
    /// remote write-through, and [`ArtifactStore::put_envelope`]). Returns
    /// whether the artifact landed.
    fn write_envelope(&self, path: &Path, line: &str) -> bool {
        let Some(dir) = path.parent() else {
            return false;
        };
        if self.with_retry(|| self.io.create_dir_all(dir)).is_err() {
            return false;
        }
        let Some(file) = path.file_name().and_then(|name| name.to_str()) else {
            return false;
        };
        let tmp = dir.join(format!(
            ".{file}.{}-{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        if self
            .with_retry(|| self.io.write(&tmp, line.as_bytes()))
            .is_ok()
        {
            if self.with_retry(|| self.io.rename(&tmp, path)).is_ok() {
                self.counters.bump(|s| &mut s.writes);
                return true;
            }
            let _ = self.io.remove_file(&tmp);
        } else {
            // A partially written temporary (a real disk running dry, not an
            // injected fault) must not linger for gc to trip over.
            let _ = self.io.remove_file(&tmp);
        }
        false
    }

    /// Read the raw envelope for `(subject, fingerprint, kind)` for serving
    /// over the cache RPC. The envelope is fully revalidated before it
    /// ships — a coordinator must never forward a corrupted disk artifact
    /// to the fleet — and an invalid file is quarantined exactly like a
    /// failed local load.
    pub fn fetch_envelope(
        &self,
        subject: SubjectKey,
        fingerprint: Fingerprint,
        kind: &str,
    ) -> Option<Json> {
        // The kind arrives off the wire: gate it before it touches a path.
        // Without this a fetch for `x/../../etc` would read — and, on a
        // failed validation, quarantine (rename away) — files outside the
        // store root.
        if !valid_kind(kind) {
            return None;
        }
        let path = self.path_for(subject, fingerprint, kind);
        let bytes = match self.with_retry(|| self.io.read(&path)) {
            Ok(bytes) => bytes,
            Err(error) => {
                if error.kind() == ErrorKind::NotFound {
                    self.counters.bump(|s| &mut s.misses);
                }
                return None;
            }
        };
        let envelope = std::str::from_utf8(&bytes)
            .ok()
            .filter(|text| gate::is_valid(text, subject, fingerprint, kind))
            .and_then(|text| Json::parse(text).ok());
        if envelope.is_some() {
            self.counters.bump(|s| &mut s.loads);
        } else {
            self.reject(&path);
        }
        envelope
    }

    /// Validate and store an envelope pushed by a remote peer (the
    /// `Put` half of the cache RPC). The envelope's own identity fields
    /// name its location; every gate — format, parseable subject and
    /// fingerprint, a path-safe kind, and the payload checksum — must pass
    /// before a byte is written, so a malicious or corrupted put can
    /// neither poison the tree nor escape it.
    ///
    /// # Errors
    ///
    /// Returns what the envelope failed (identity fields, validation, or
    /// the store write).
    pub fn put_envelope(&self, envelope: &Json) -> Result<(), String> {
        let subject = envelope
            .get("subject")
            .and_then(Json::as_str)
            .and_then(|text| text.parse::<SubjectKey>().ok())
            .ok_or("envelope carries no valid `subject`")?;
        let fingerprint = envelope
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|text| text.parse::<Fingerprint>().ok())
            .ok_or("envelope carries no valid `fingerprint`")?;
        let kind = envelope
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("envelope carries no `kind`")?;
        if !valid_kind(kind) {
            return Err(format!("`{kind}` is not a valid artifact kind"));
        }
        let kind = kind.to_owned();
        let line = envelope_line(envelope);
        if !gate::is_valid(&line, subject, fingerprint, &kind) {
            return Err("envelope failed validation (format or checksum)".into());
        }
        let path = self.path_for(subject, fingerprint, &kind);
        if self.write_envelope(&path, &line) {
            Ok(())
        } else {
            Err("store write failed".into())
        }
    }

    /// Load the executable cached for `(subject, config)`, if present,
    /// intact, and compiled from *exactly* this configuration.
    pub fn load_executable(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
    ) -> Option<Executable> {
        self.load(subject, config.fingerprint(), "exe", |payload| {
            let executable = codec::executable_from_json(&payload.tree()?)?;
            if &executable.config == config {
                Ok(executable)
            } else {
                Err("compiled from another configuration".into())
            }
        })
    }

    /// Persist the executable for `(subject, its configuration)`.
    pub fn save_executable(&self, subject: SubjectKey, executable: &Executable) {
        self.save(
            subject,
            executable.config.fingerprint(),
            "exe",
            codec::executable_to_json(executable),
        );
    }

    /// Load the debug trace cached for `(subject, config, debugger)`.
    pub fn load_trace(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        kind: DebuggerKind,
    ) -> Option<DebugTrace> {
        let tag = format!("trace-{}", debugger_tag(kind));
        self.load(subject, config.fingerprint(), &tag, codec::read_trace)
    }

    /// Persist the debug trace for `(subject, config, debugger)`.
    pub fn save_trace(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        kind: DebuggerKind,
        trace: &DebugTrace,
    ) {
        let tag = format!("trace-{}", debugger_tag(kind));
        self.save(
            subject,
            config.fingerprint(),
            &tag,
            codec::trace_to_json(trace),
        );
    }

    /// Load the violation set cached for `(subject, config, debugger)`.
    pub fn load_violations(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        kind: DebuggerKind,
    ) -> Option<Vec<Violation>> {
        let tag = format!("viol-{}", debugger_tag(kind));
        self.load(subject, config.fingerprint(), &tag, codec::read_violations)
    }

    /// The artifact kind of a triage answer set: one per debugger, so a
    /// configuration's answers for every violation site share one file.
    fn answers_kind(config: &CompilerConfig) -> String {
        let kind = DebuggerKind::native_for(config.personality);
        format!("triage-{}", debugger_tag(kind))
    }

    /// Load the triage answer set cached for `subject` under `config` (with
    /// its native debugger): the culprits earlier [`crate::triage::bisect`]
    /// or flag searches returned, per violation site. An intact envelope
    /// is still rejected like a corrupted one when an entry is malformed, a
    /// site repeats, the entries are out of site order, or an entry was
    /// found by another method than the configuration's (bisection for
    /// lcc, flag search for ccg).
    pub fn load_triage_answers(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
    ) -> Option<TriageAnswers> {
        let method = TriageMethod::of(config.personality);
        self.load(
            subject,
            config.fingerprint(),
            &ArtifactStore::answers_kind(config),
            |payload| codec::read_answers(payload, method),
        )
    }

    /// Persist the triage answer set for `subject` under `config`,
    /// replacing the stored one.
    pub fn save_triage_answers(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        answers: &TriageAnswers,
    ) {
        let method = TriageMethod::of(config.personality);
        self.save(
            subject,
            config.fingerprint(),
            &ArtifactStore::answers_kind(config),
            codec::answers_to_json(answers, method),
        );
    }

    /// The artifact kind of the per-site triage answer earlier builds
    /// wrote: one kind per debugger and violation site — the conjecture,
    /// function, line and variable that [`crate::Subject::violation_occurs`]
    /// queries — for example `triage-lldb-C1-F3-L25-c10`.
    fn site_answer_kind(kind: DebuggerKind, violation: &Violation) -> String {
        format!(
            "triage-{}-{}-F{}-L{}-{}",
            debugger_tag(kind),
            violation.conjecture,
            violation.function.0,
            violation.line,
            violation.variable
        )
    }

    /// Load the per-site triage answer an earlier build stored for
    /// `violation` on `subject` under `config`. Nothing writes these any
    /// more; they are read so that such stores stay warm. An intact
    /// envelope whose payload names another site or another `method` is
    /// rejected like a corrupted one.
    pub(crate) fn load_site_answer(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        violation: &Violation,
        method: TriageMethod,
    ) -> Option<TriageOutcome> {
        let kind = DebuggerKind::native_for(config.personality);
        let tag = ArtifactStore::site_answer_kind(kind, violation);
        self.load(subject, config.fingerprint(), &tag, |payload| {
            codec::answer_from_json(&payload.tree()?, violation, method)
        })
    }

    /// The artifact kind of a corpus entry at a violation site: one kind
    /// per `(conjecture, line, variable)`, so several distilled violations
    /// of the same `(subject, configuration)` coexist side by side.
    fn corpus_kind(conjecture: Conjecture, line: u32, variable: &str) -> String {
        format!("corpus-{conjecture}-L{line}-{variable}")
    }

    /// Load the distilled corpus entry cached for `(subject, config,
    /// site)`, if present and intact. The payload is the entry object of
    /// the `holes.corpus/v1` format.
    pub fn load_corpus_entry(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        conjecture: Conjecture,
        line: u32,
        variable: &str,
    ) -> Option<Json> {
        let kind = ArtifactStore::corpus_kind(conjecture, line, variable);
        self.load(subject, config.fingerprint(), &kind, |payload| {
            payload.tree()
        })
    }

    /// Persist a distilled corpus entry beside the subject's compiled
    /// artifacts, under the same envelope, retry, and quarantine protocol
    /// (the write is atomic-rename; a corrupted file is quarantined and
    /// recomputed on the next `corpus add`, never trusted).
    pub fn save_corpus_entry(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        conjecture: Conjecture,
        line: u32,
        variable: &str,
        payload: Json,
    ) {
        let kind = ArtifactStore::corpus_kind(conjecture, line, variable);
        self.save(subject, config.fingerprint(), &kind, payload);
    }

    /// Garbage-collect the store down to at most `max_bytes` of artifact
    /// data, evicting **whole fingerprints** (every artifact kind of one
    /// `(subject, fingerprint)` pair together) oldest-first by modification
    /// time.
    ///
    /// Eviction at fingerprint granularity keeps the store consistent: a
    /// fingerprint either has its full executable/trace/violation family or
    /// none of it, so a warm run never loads a trace whose executable was
    /// evicted moments earlier. The sweep is safe under concurrent shard
    /// writes: in-flight temporary files are ignored, already-deleted files
    /// are skipped, and a concurrent writer at worst re-creates an evicted
    /// artifact (making the store momentarily exceed the budget, exactly as
    /// any write after the sweep would).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store's directory tree cannot be
    /// enumerated; deletion failures are tolerated (the file may have been
    /// removed by a concurrent sweep).
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcStats> {
        // Group artifact files by (subject directory, fingerprint prefix).
        struct Group {
            newest: std::time::SystemTime,
            bytes: u64,
            /// Member files with their sizes.
            files: Vec<(PathBuf, u64)>,
        }
        let mut groups: std::collections::BTreeMap<(String, String), Group> =
            std::collections::BTreeMap::new();
        let mut scanned_bytes = 0u64;
        let sweep_started = std::time::SystemTime::now();
        for subject_entry in std::fs::read_dir(&self.root)? {
            let subject_entry = match subject_entry {
                Ok(entry) => entry,
                Err(_) => continue,
            };
            let subject_path = subject_entry.path();
            if !subject_path.is_dir() {
                continue;
            }
            let subject_name = subject_entry.file_name().to_string_lossy().into_owned();
            // The quarantine area holds rejected files moved aside for
            // post-mortem inspection, not subject artifacts; evicting them
            // to meet the budget would destroy the evidence.
            if subject_name == "quarantine" {
                continue;
            }
            let Ok(artifacts) = std::fs::read_dir(&subject_path) else {
                continue;
            };
            for artifact in artifacts.flatten() {
                let name = artifact.file_name().to_string_lossy().into_owned();
                // Skip in-flight temporaries of concurrent writers.
                if name.starts_with('.') {
                    continue;
                }
                let Ok(metadata) = artifact.metadata() else {
                    continue;
                };
                if !metadata.is_file() {
                    continue;
                }
                let fingerprint = name.split('.').next().unwrap_or(&name).to_owned();
                let modified = observed_mtime(metadata.modified(), sweep_started);
                scanned_bytes += metadata.len();
                let group = groups
                    .entry((subject_name.clone(), fingerprint))
                    .or_insert(Group {
                        newest: modified,
                        bytes: 0,
                        files: Vec::new(),
                    });
                group.newest = group.newest.max(modified);
                group.bytes += metadata.len();
                group.files.push((artifact.path(), metadata.len()));
            }
        }
        // Oldest groups first; ties broken by the (deterministic) key.
        let mut order: Vec<(&(String, String), &Group)> = groups.iter().collect();
        order.sort_by(|a, b| a.1.newest.cmp(&b.1.newest).then_with(|| a.0.cmp(b.0)));
        let mut stats = GcStats {
            scanned_bytes,
            remaining_bytes: scanned_bytes,
            ..GcStats::default()
        };
        for (_, group) in order {
            if stats.remaining_bytes <= max_bytes {
                break;
            }
            // Only count what actually left the disk: a file a concurrent
            // sweep removed first is gone either way, but a deletion that
            // *failed* (permissions, I/O error) must keep counting against
            // the budget — otherwise the sweep would report success while
            // the store still exceeds it.
            let mut group_deleted = 0u64;
            let mut group_files = 0usize;
            for (file, bytes) in &group.files {
                match std::fs::remove_file(file) {
                    Ok(()) => {
                        group_files += 1;
                        group_deleted += bytes;
                    }
                    Err(error) if error.kind() == ErrorKind::NotFound => {
                        group_deleted += bytes;
                    }
                    Err(_) => {}
                }
            }
            stats.deleted_files += group_files;
            stats.deleted_bytes += group_deleted;
            stats.remaining_bytes = stats.remaining_bytes.saturating_sub(group_deleted);
            if group_deleted == group.bytes {
                stats.evicted_fingerprints += 1;
            }
        }
        // Best-effort cleanup of now-empty subject directories (fails
        // harmlessly when a concurrent writer repopulates one).
        if let Ok(subjects) = std::fs::read_dir(&self.root) {
            for subject in subjects.flatten() {
                let _ = std::fs::remove_dir(subject.path());
            }
        }
        Ok(stats)
    }

    /// Persist the violation set for `(subject, config, debugger)`.
    pub fn save_violations(
        &self,
        subject: SubjectKey,
        config: &CompilerConfig,
        kind: DebuggerKind,
        violations: &[Violation],
    ) {
        let tag = format!("viol-{}", debugger_tag(kind));
        self.save(
            subject,
            config.fingerprint(),
            &tag,
            codec::violations_to_json(violations),
        );
    }
}

/// Whether `kind` may be embedded in an on-disk artifact file name:
/// non-empty, ASCII alphanumerics plus `-` and `_` only. Both halves of
/// the cache RPC gate on this before a wire-supplied kind reaches
/// [`ArtifactStore::path_for`] — anything looser would let a remote peer
/// smuggle path separators or `..` and address files outside the store
/// root.
pub(crate) fn valid_kind(kind: &str) -> bool {
    !kind.is_empty()
        && kind
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Validate a parsed `holes.artifact/v1` envelope against the identity it
/// is supposed to carry, returning the payload only when every check
/// passes: the format tag, the artifact kind, the subject key, the
/// fingerprint (round-tripped through [`Fingerprint`]'s canonical hex
/// spelling rather than raw string equality, so the check survives
/// cosmetic re-spellings of the same identity), and the FNV-1a checksum of
/// the compact payload text. The tree oracle the one-pass [`gate`] is
/// tested against.
#[cfg(test)]
fn validate_envelope(
    envelope: &Json,
    subject: SubjectKey,
    fingerprint: Fingerprint,
    kind: &str,
) -> Option<Json> {
    let envelope_fingerprint = envelope
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|text| text.parse::<Fingerprint>().ok());
    let valid = envelope.get("format").and_then(Json::as_str) == Some(ARTIFACT_FORMAT)
        && envelope.get("kind").and_then(Json::as_str) == Some(kind)
        && envelope.get("subject").and_then(Json::as_str) == Some(subject.to_string().as_str())
        && envelope_fingerprint == Some(fingerprint);
    let payload = valid.then(|| envelope.get("payload")).flatten().cloned()?;
    let checksum = format!("{:016x}", fnv1a(payload.to_compact().as_bytes()));
    if envelope.get("checksum").and_then(Json::as_str) != Some(checksum.as_str()) {
        return None;
    }
    Some(payload)
}

/// Assemble the `holes.artifact/v1` envelope for a payload (the exact
/// object [`gate`] accepts).
fn build_envelope(
    subject: SubjectKey,
    fingerprint: Fingerprint,
    kind: &str,
    payload: Json,
) -> Json {
    let checksum = format!("{:016x}", fnv1a(payload.to_compact().as_bytes()));
    Json::Obj(vec![
        ("format".to_owned(), Json::str(ARTIFACT_FORMAT)),
        ("kind".to_owned(), Json::str(kind)),
        ("subject".to_owned(), Json::str(subject.to_string())),
        ("fingerprint".to_owned(), Json::str(fingerprint.to_string())),
        ("checksum".to_owned(), Json::str(checksum)),
        ("payload".to_owned(), payload),
    ])
}

/// An envelope as its file holds it: the compact rendering and a newline.
/// Rendered once, then gated and written as the same text.
fn envelope_line(envelope: &Json) -> String {
    let mut line = envelope.to_compact();
    line.push('\n');
    line
}

/// The timestamp a GC sweep uses for a group member. A file whose mtime
/// cannot be read must count as the *newest* thing on disk (the sweep's own
/// start time), never the oldest: defaulting an unreadable timestamp to the
/// epoch would put the group first in eviction order and make a transient
/// metadata error delete a perfectly warm artifact family.
fn observed_mtime(
    modified: std::io::Result<std::time::SystemTime>,
    sweep_started: std::time::SystemTime,
) -> std::time::SystemTime {
    modified.unwrap_or(sweep_started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Subject;
    use holes_compiler::{OptLevel, Personality};

    /// A scratch store rooted in a unique temp directory, removed on drop.
    struct Scratch {
        store: Arc<ArtifactStore>,
        root: PathBuf,
    }

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let root = std::env::temp_dir().join(format!(
                "holes-store-{name}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            let _ = std::fs::remove_dir_all(&root);
            Scratch {
                store: Arc::new(ArtifactStore::open(&root).expect("open store")),
                root,
            }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    fn config() -> CompilerConfig {
        CompilerConfig::new(Personality::Ccg, OptLevel::O2)
    }

    #[test]
    fn subject_keys_separate_seeds_and_sources() {
        assert_eq!(SubjectKey::derive(1, "x"), SubjectKey::derive(1, "x"));
        assert_ne!(SubjectKey::derive(1, "x"), SubjectKey::derive(2, "x"));
        assert_ne!(SubjectKey::derive(1, "x"), SubjectKey::derive(1, "y"));
        assert_eq!(SubjectKey(0xff).to_string(), "00000000000000ff");
    }

    #[test]
    fn warm_subject_loads_everything_from_disk() {
        let scratch = Scratch::new("warm");
        let cold = Subject::from_seed(7100);
        cold.attach_store(Arc::clone(&scratch.store));
        let cold_violations = cold.violations(&config());
        let cold_stats = cold.cache_stats();
        assert_eq!(cold_stats.compiles, 1);
        assert_eq!(cold_stats.disk_loads, 0);
        assert!(
            scratch.store.stats().writes >= 3,
            "exe + trace + violations"
        );

        // A fresh cache in (conceptually) a fresh process: everything loads.
        let warm = cold.with_fresh_cache();
        warm.attach_store(Arc::clone(&scratch.store));
        let warm_violations = warm.violations(&config());
        assert_eq!(warm_violations, cold_violations);
        let warm_stats = warm.cache_stats();
        assert_eq!(warm_stats.compiles, 0, "warm run recompiled");
        assert_eq!(warm_stats.traces, 0, "warm run retraced");
        assert_eq!(warm_stats.checks, 0, "warm run rechecked");
        assert!(warm_stats.disk_loads >= 1);
        // The trace and executable load on demand too.
        let _ = warm.trace(&config());
        let _ = warm.compile(&config());
        let warm_stats = warm.cache_stats();
        assert_eq!(warm_stats.compiles, 0);
        assert_eq!(warm_stats.traces, 0);
        assert_eq!(warm_stats.disk_loads, 3);
    }

    #[test]
    fn stack_backend_artifacts_persist_under_their_own_fingerprints() {
        let scratch = Scratch::new("stack");
        let subject = Subject::from_seed(7550);
        subject.attach_store(Arc::clone(&scratch.store));
        let reg_config = config();
        let stack_config = config().with_backend(holes_compiler::BackendKind::Stack);
        let reg_violations = subject.violations(&reg_config);
        let stack_violations = subject.violations(&stack_config);
        assert_eq!(subject.cache_stats().compiles, 2, "backends aliased");
        // A fresh cache loads both backends' artifacts from disk, each
        // decoding to its own backend's machine code.
        let warm = subject.with_fresh_cache();
        warm.attach_store(Arc::clone(&scratch.store));
        assert_eq!(warm.violations(&reg_config), reg_violations);
        assert_eq!(warm.violations(&stack_config), stack_violations);
        assert_eq!(warm.cache_stats().compiles, 0);
        let reg_exe = warm.compile(&reg_config);
        let stack_exe = warm.compile(&stack_config);
        assert_eq!(warm.cache_stats().compiles, 0);
        assert!(reg_exe.machine.as_reg().is_some());
        assert!(stack_exe.machine.as_stack().is_some());
    }

    #[test]
    fn corrupted_store_files_are_recomputed_never_trusted() {
        let scratch = Scratch::new("corrupt");
        let subject = Subject::from_seed(7200);
        subject.attach_store(Arc::clone(&scratch.store));
        let truth = subject.violations(&config());

        // Corrupt every artifact file in a different way.
        let mut corrupted = 0;
        for (index, entry) in walk_files(&scratch.root).into_iter().enumerate() {
            let text = std::fs::read_to_string(&entry).unwrap();
            let bad = match index % 3 {
                0 => text[..text.len() / 2].to_owned(), // truncated
                1 => text.replace("\"checksum\":\"", "\"checksum\":\"0"), // checksum mismatch
                _ => "not json at all".to_owned(),
            };
            std::fs::write(&entry, bad).unwrap();
            corrupted += 1;
        }
        assert!(corrupted >= 3, "expected several artifact files");

        let reread = subject.with_fresh_cache();
        reread.attach_store(Arc::clone(&scratch.store));
        assert_eq!(reread.violations(&config()), truth);
        let stats = reread.cache_stats();
        assert_eq!(stats.disk_loads, 0, "a corrupted file was trusted");
        assert_eq!(stats.compiles, 1, "recompute must happen exactly once");
        assert!(scratch.store.stats().rejected >= 1);

        // The rewrite healed the store: a third fresh cache loads cleanly.
        let healed = subject.with_fresh_cache();
        healed.attach_store(Arc::clone(&scratch.store));
        assert_eq!(healed.violations(&config()), truth);
        assert_eq!(healed.cache_stats().compiles, 0);
    }

    /// Bytes that are not UTF-8 are damaged content, not a failed read:
    /// the file is rejected and quarantined at once, never retried or
    /// counted as a store error.
    #[test]
    fn non_utf8_store_files_are_rejected_and_quarantined_not_retried() {
        let scratch = Scratch::new("non-utf8");
        let subject = Subject::from_seed(7210);
        subject.attach_store(Arc::clone(&scratch.store));
        let truth = subject.violations(&config());
        let key = SubjectKey::derive(subject.seed, &subject.source.text);
        let path = scratch
            .store
            .path_for(key, config().fingerprint(), "viol-gdb");
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let reread = subject.with_fresh_cache();
        reread.attach_store(Arc::clone(&scratch.store));
        assert_eq!(reread.violations(&config()), truth);
        let stats = scratch.store.stats();
        assert_eq!(
            (
                stats.rejected,
                stats.quarantined,
                stats.retries,
                stats.store_errors
            ),
            (1, 1, 0, 0),
            "{stats:?}"
        );
        // The coordinator's fetch path treats such a file alike.
        std::fs::write(&path, &bytes).unwrap();
        assert!(scratch
            .store
            .fetch_envelope(key, config().fingerprint(), "viol-gdb")
            .is_none());
        let stats = scratch.store.stats();
        assert_eq!((stats.rejected, stats.retries), (2, 0), "{stats:?}");
    }

    #[test]
    fn mismatched_configurations_never_alias() {
        let scratch = Scratch::new("alias");
        let subject = Subject::from_seed(7300);
        subject.attach_store(Arc::clone(&scratch.store));
        let o2 = subject.compile(&config());

        // Forge a file under the -O3 fingerprint carrying the -O2 payload.
        let o3 = config().clone();
        let o3 = CompilerConfig {
            level: OptLevel::O3,
            ..o3
        };
        let key = SubjectKey::derive(subject.seed, &subject.source.text);
        let from = scratch.store.path_for(key, config().fingerprint(), "exe");
        let to = scratch.store.path_for(key, o3.fingerprint(), "exe");
        std::fs::copy(&from, &to).unwrap();
        // The forged envelope fails the fingerprint check and is rejected.
        assert!(scratch.store.load_executable(key, &o3).is_none());
        assert!(scratch.store.stats().rejected >= 1);
        // And compiling -O3 for real yields the right artifact.
        let real = subject.compile(&o3);
        assert_eq!(real.config.level, OptLevel::O3);
        assert_eq!(o2.config.level, OptLevel::O2);
    }

    #[test]
    fn envelopes_without_a_payload_count_as_rejected() {
        let scratch = Scratch::new("no-payload");
        let subject = Subject::from_seed(7500);
        subject.attach_store(Arc::clone(&scratch.store));
        let _ = subject.violations(&config());
        // Strip the payload from every envelope but keep the rest intact —
        // the file still parses and all identity fields still match.
        for file in walk_files(&scratch.root) {
            let text = std::fs::read_to_string(&file).unwrap();
            let json = Json::parse(&text).unwrap();
            let Json::Obj(pairs) = json else { panic!() };
            let stripped: Vec<_> = pairs.into_iter().filter(|(k, _)| k != "payload").collect();
            std::fs::write(&file, Json::Obj(stripped).to_compact()).unwrap();
        }
        let before = scratch.store.stats().rejected;
        let reread = subject.with_fresh_cache();
        reread.attach_store(Arc::clone(&scratch.store));
        let _ = reread.violations(&config());
        assert_eq!(reread.cache_stats().disk_loads, 0);
        assert!(
            scratch.store.stats().rejected > before,
            "payload-less envelopes must be counted as rejected"
        );
    }

    /// Backdate every file of the given fingerprint so a GC sweep sees it
    /// as the oldest.
    fn age_fingerprint(root: &Path, fingerprint: Fingerprint, secs_ago: u64) {
        let spelled = fingerprint.to_string();
        let target = std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago);
        for file in walk_files(root) {
            if file
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(&spelled))
            {
                let handle = std::fs::File::options().write(true).open(&file).unwrap();
                handle
                    .set_times(std::fs::FileTimes::new().set_modified(target))
                    .unwrap();
            }
        }
    }

    fn store_bytes(root: &Path) -> u64 {
        walk_files(root)
            .iter()
            .map(|f| std::fs::metadata(f).map(|m| m.len()).unwrap_or(0))
            .sum()
    }

    #[test]
    fn gc_evicts_oldest_fingerprints_and_respects_the_budget() {
        let scratch = Scratch::new("gc");
        let subject = Subject::from_seed(7600);
        subject.attach_store(Arc::clone(&scratch.store));
        let old_config = CompilerConfig::new(Personality::Ccg, OptLevel::O0);
        let new_config = config(); // -O2
        let _ = subject.violations(&old_config);
        let _ = subject.violations(&new_config);
        let total = store_bytes(&scratch.root);
        assert!(total > 0);
        // Age the O0 artifacts far into the past; a budget that can keep
        // only one fingerprint must evict exactly that one.
        age_fingerprint(&scratch.root, old_config.fingerprint(), 3600);
        let stats = scratch.store.gc(total - 1).unwrap();
        assert_eq!(stats.scanned_bytes, total);
        assert_eq!(stats.evicted_fingerprints, 1, "{stats:?}");
        assert!(stats.remaining_bytes < total);
        assert_eq!(store_bytes(&scratch.root), stats.remaining_bytes);
        // The newest fingerprint survived intact; the evicted one is gone
        // as a whole family and is recomputed, not trusted.
        let warm = subject.with_fresh_cache();
        warm.attach_store(Arc::clone(&scratch.store));
        let _ = warm.violations(&new_config);
        assert_eq!(warm.cache_stats().compiles, 0, "survivor went cold");
        let _ = warm.violations(&old_config);
        assert_eq!(warm.cache_stats().compiles, 1, "evicted entry not rebuilt");
        // A zero budget empties the store entirely.
        let stats = scratch.store.gc(0).unwrap();
        assert_eq!(stats.remaining_bytes, 0);
        assert_eq!(store_bytes(&scratch.root), 0);
    }

    /// Regression test: an unreadable mtime used to default to the Unix
    /// epoch, which made the sweep treat the affected family as the oldest
    /// on disk and evict it first. It must rank as the newest instead.
    #[test]
    fn gc_treats_unreadable_mtimes_as_newest_not_oldest() {
        let sweep_started = std::time::SystemTime::now();
        let aged = sweep_started - std::time::Duration::from_secs(3600);
        let unreadable = observed_mtime(Err(std::io::Error::other("stat failed")), sweep_started);
        assert_eq!(unreadable, sweep_started);
        assert!(
            unreadable > aged,
            "a family with an unreadable timestamp must sort after aged ones"
        );
        // A readable timestamp passes through untouched.
        assert_eq!(observed_mtime(Ok(aged), sweep_started), aged);
    }

    /// Groups whose timestamps tie are evicted in deterministic
    /// (subject, fingerprint) order, so two sweeps of identical stores
    /// delete the same families.
    #[test]
    fn gc_breaks_mtime_ties_deterministically_by_fingerprint() {
        let scratch = Scratch::new("gc-ties");
        let subject = Subject::from_seed(7600);
        subject.attach_store(Arc::clone(&scratch.store));
        let a = CompilerConfig::new(Personality::Ccg, OptLevel::O0);
        let b = config(); // -O2
        let _ = subject.violations(&a);
        let _ = subject.violations(&b);
        // Give both families the exact same mtime.
        age_fingerprint(&scratch.root, a.fingerprint(), 3600);
        let target = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        for file in walk_files(&scratch.root) {
            let handle = std::fs::File::options().write(true).open(&file).unwrap();
            handle
                .set_times(std::fs::FileTimes::new().set_modified(target))
                .unwrap();
        }
        let total = store_bytes(&scratch.root);
        let stats = scratch.store.gc(total - 1).unwrap();
        assert_eq!(stats.evicted_fingerprints, 1, "{stats:?}");
        // The evicted family is the lexicographically smaller fingerprint:
        // the survivor's files all carry the larger one.
        let smaller = a.fingerprint().to_string().min(b.fingerprint().to_string());
        for file in walk_files(&scratch.root) {
            let name = file.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                !name.starts_with(&smaller),
                "tie-break evicted the wrong family: {name} survived"
            );
        }
    }

    #[test]
    fn gc_survives_concurrent_shard_writes() {
        let scratch = Scratch::new("gc-concurrent");
        // Writers populate the store while sweeps run against a tiny
        // budget; nothing may panic, and the store must stay functional.
        std::thread::scope(|scope| {
            for lane in 0..3u64 {
                let store = Arc::clone(&scratch.store);
                scope.spawn(move || {
                    for offset in 0..3u64 {
                        let subject = Subject::from_seed(7700 + lane * 10 + offset);
                        subject.attach_store(Arc::clone(&store));
                        let _ = subject.violations(&config());
                    }
                });
            }
            let store = Arc::clone(&scratch.store);
            scope.spawn(move || {
                for _ in 0..20 {
                    store.gc(256).unwrap();
                    std::thread::yield_now();
                }
            });
        });
        // A final sweep lands under budget, and the store still serves a
        // normal cold-compute / warm-load cycle afterwards.
        let stats = scratch.store.gc(256).unwrap();
        assert!(stats.remaining_bytes <= 256, "{stats:?}");
        let subject = Subject::from_seed(7700);
        subject.attach_store(Arc::clone(&scratch.store));
        let truth = subject.violations(&config());
        let warm = subject.with_fresh_cache();
        warm.attach_store(Arc::clone(&scratch.store));
        assert_eq!(warm.violations(&config()), truth);
        assert_eq!(warm.cache_stats().compiles, 0);
    }

    /// A scratch store whose I/O seam is a [`FailingIo`] schedule.
    fn failing_scratch(name: &str, io: FailingIo) -> (Arc<ArtifactStore>, PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "holes-store-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = ArtifactStore::open_with_io(&root, Box::new(io)).expect("open store");
        (Arc::new(store), root)
    }

    #[test]
    fn transient_io_failures_are_retried_and_change_nothing_but_stats() {
        // Op 1 is open's create_dir_all (always succeeds here); fail a burst
        // of later operations once each — every one recovers on retry.
        let schedule = [false, true, false, true, true, false, true];
        let (store, root) = failing_scratch("retry", FailingIo::script(schedule));
        let truth = {
            let plain = Subject::from_seed(7800);
            plain.violations(&config())
        };
        let subject = Subject::from_seed(7800);
        subject.attach_store(Arc::clone(&store));
        assert_eq!(subject.violations(&config()), truth);
        let stats = store.stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.store_errors, 0, "a retried op still failed");
        assert_eq!(stats.quarantined, 0);
        // The store healed past the schedule: a warm run loads everything.
        let warm = subject.with_fresh_cache();
        warm.attach_store(Arc::clone(&store));
        assert_eq!(warm.violations(&config()), truth);
        assert_eq!(warm.cache_stats().compiles, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn persistent_io_failures_degrade_to_memory_only_with_correct_results() {
        // After open's create_dir_all, every operation fails: the store can
        // never be read or written, and the subject must silently recompute
        // everything.
        let schedule = std::iter::once(false).chain(std::iter::repeat_n(true, 10_000));
        let (store, root) = failing_scratch("dead", FailingIo::script(schedule));
        let truth = {
            let plain = Subject::from_seed(7810);
            plain.violations(&config())
        };
        let subject = Subject::from_seed(7810);
        subject.attach_store(Arc::clone(&store));
        assert_eq!(subject.violations(&config()), truth);
        assert_eq!(subject.cache_stats().compiles, 1);
        let stats = store.stats();
        assert_eq!(stats.writes, 0, "{stats:?}");
        assert_eq!(stats.loads, 0, "{stats:?}");
        assert!(stats.store_errors >= 1, "{stats:?}");
        assert!(stats.retries >= stats.store_errors * 2, "{stats:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejected_files_are_quarantined_for_post_mortem() {
        let scratch = Scratch::new("quarantine");
        let subject = Subject::from_seed(7820);
        subject.attach_store(Arc::clone(&scratch.store));
        let truth = subject.violations(&config());
        let files = walk_files(&scratch.root);
        let victim = files.first().expect("store has artifacts").clone();
        let original_name = victim.file_name().unwrap().to_owned();
        std::fs::write(&victim, "garbage").unwrap();

        let reread = subject.with_fresh_cache();
        reread.attach_store(Arc::clone(&scratch.store));
        assert_eq!(reread.violations(&config()), truth);
        // Touch every artifact kind so the damaged one is found, rejected,
        // and rewritten regardless of which file the walk picked.
        let _ = reread.trace(&config());
        let _ = reread.compile(&config());
        let stats = scratch.store.stats();
        assert!(stats.quarantined >= 1, "{stats:?}");
        // The damaged bytes moved under <root>/quarantine/<subject>/ with
        // their original file name, and the live slot was rewritten.
        let quarantined: Vec<PathBuf> = walk_files(&scratch.root.join("quarantine"));
        assert!(
            quarantined
                .iter()
                .any(|p| p.file_name() == Some(&original_name)),
            "{quarantined:?}"
        );
        let moved = quarantined
            .iter()
            .find(|p| p.file_name() == Some(&original_name))
            .unwrap();
        assert_eq!(std::fs::read_to_string(moved).unwrap(), "garbage");
        assert!(victim.exists(), "the live slot was not healed");
        // Quarantine is invisible to gc: a full sweep leaves it alone.
        scratch.store.gc(0).unwrap();
        assert!(moved.exists());
    }

    #[test]
    fn gc_skips_the_quarantine_directory_entirely() {
        let scratch = Scratch::new("gc-quarantine");
        let subject = Subject::from_seed(7830);
        subject.attach_store(Arc::clone(&scratch.store));
        let _ = subject.violations(&config());
        let live_bytes = store_bytes(&scratch.root);
        assert!(live_bytes > 0);
        // Populate the quarantine area both ways a post-mortem can leave it:
        // the usual <root>/quarantine/<subject>/<file> nesting and a file
        // directly under <root>/quarantine/ — gc must treat neither as
        // subject artifacts.
        let quarantine = scratch.root.join("quarantine");
        std::fs::create_dir_all(quarantine.join("s7830")).unwrap();
        std::fs::write(
            quarantine.join("s7830").join("deadbeef.exe.json"),
            "evidence",
        )
        .unwrap();
        std::fs::write(quarantine.join("deadbeef.trace.json"), "stray evidence").unwrap();
        let stats = scratch.store.gc(0).unwrap();
        // The sweep emptied the live store without ever counting — or
        // deleting — the quarantined bytes: every surviving file is under
        // quarantine/.
        assert_eq!(stats.scanned_bytes, live_bytes, "{stats:?}");
        let survivors = walk_files(&scratch.root);
        assert!(
            !survivors.is_empty() && survivors.iter().all(|p| p.starts_with(&quarantine)),
            "{survivors:?}"
        );
        assert_eq!(
            std::fs::read_to_string(quarantine.join("s7830").join("deadbeef.exe.json")).unwrap(),
            "evidence"
        );
        assert_eq!(
            std::fs::read_to_string(quarantine.join("deadbeef.trace.json")).unwrap(),
            "stray evidence"
        );
    }

    #[test]
    fn fetch_envelope_refuses_path_escaping_kinds() {
        let scratch = Scratch::new("fetch-kind-gate");
        // A victim file inside the root but outside any subject directory —
        // the position of e.g. a journal a traversal kind could reach.
        let victim = scratch.root.join("victim.json");
        std::fs::write(&victim, "{\"format\":\"not-an-artifact\"}\n").unwrap();
        for kind in ["k/../../victim", "../victim", "k\\..\\victim", "", "."] {
            assert!(
                scratch
                    .store
                    .fetch_envelope(SubjectKey(1), Fingerprint(2), kind)
                    .is_none(),
                "kind `{kind}` must not resolve"
            );
        }
        assert!(
            victim.exists(),
            "a traversal fetch must not quarantine files outside subject dirs"
        );
        assert_eq!(
            scratch.store.stats().rejected,
            0,
            "gated kinds never reach the content validator"
        );
    }

    #[test]
    fn tmp_files_never_linger_after_saves() {
        let scratch = Scratch::new("tmp");
        let subject = Subject::from_seed(7400);
        subject.attach_store(Arc::clone(&scratch.store));
        let _ = subject.violations(&config());
        let leftovers: Vec<PathBuf> = walk_files(&scratch.root)
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    fn walk_files(root: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    files.push(path);
                }
            }
        }
        files.sort();
        files
    }
}
