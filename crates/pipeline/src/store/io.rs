//! The store's filesystem seam: every fallible file operation the artifact
//! store performs on its hot path goes through the [`StoreIo`] trait, so
//! tests (and the `HOLES_STORE_CHAOS` environment variable) can inject
//! deterministic transient failures without touching a real filesystem
//! fault. [`OsIo`] is the real implementation; [`FailingIo`] wraps it with
//! a scripted or periodic failure schedule.
//!
//! The seam intentionally covers only the load/save path — the operations
//! retried and counted by [`super::ArtifactStore`]. Directory enumeration
//! (`gc`) stays on `std::fs`: a sweep that misses a file is already
//! harmless by design.

use std::collections::VecDeque;
use std::io;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The file operations the artifact store's load/save path depends on.
/// Implementations must be shareable across the store's worker threads.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Read a whole file. Whether its bytes are a valid artifact is the
    /// store's question, not a read failure: text that is not UTF-8 is
    /// rejected and quarantined like any other damaged content.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create or replace a file with the given bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create a directory and its missing parents.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem: each operation is the `std::fs` function of the
/// same name.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsIo;

impl StoreIo for OsIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        std::fs::write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// How a [`FailingIo`] decides which operations fail.
#[derive(Debug)]
enum Mode {
    /// Scripted outcomes consumed front-first (`true` = the operation
    /// fails); operations beyond the script succeed.
    Script(Mutex<VecDeque<bool>>),
    /// Every `n`th operation fails (1-based: `Every(3)` fails operations
    /// 3, 6, 9, …).
    Every(NonZeroUsize),
}

/// An [`OsIo`] wrapper that injects deterministic transient failures: the
/// chaos seam behind the store's retry, quarantine, and degradation
/// machinery. A failed operation returns an [`io::ErrorKind::Other`] error
/// and touches nothing on disk, exactly like a transient kernel-level
/// failure would.
#[derive(Debug)]
pub struct FailingIo {
    mode: Mode,
    attempts: AtomicUsize,
    injected: AtomicUsize,
}

impl FailingIo {
    /// A schedule that fails exactly the scripted operations: the `n`th
    /// `true` fails the `n`th store I/O operation. Operations past the end
    /// of the script succeed.
    pub fn script(outcomes: impl IntoIterator<Item = bool>) -> FailingIo {
        FailingIo {
            mode: Mode::Script(Mutex::new(outcomes.into_iter().collect())),
            attempts: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// A schedule that fails every `period`th operation, forever — what
    /// `HOLES_STORE_CHAOS=<period>` installs.
    pub fn every(period: NonZeroUsize) -> FailingIo {
        FailingIo {
            mode: Mode::Every(period),
            attempts: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// How many failures the schedule has injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consume one schedule slot; `Err` means this operation fails.
    fn trip(&self) -> io::Result<()> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let fail = match &self.mode {
            Mode::Script(script) => script
                .lock()
                .expect("failure script poisoned")
                .pop_front()
                .unwrap_or(false),
            Mode::Every(period) => (attempt + 1).is_multiple_of(period.get()),
        };
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected store failure"));
        }
        Ok(())
    }
}

impl StoreIo for FailingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.trip()?;
        OsIo.read(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.trip()?;
        OsIo.write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.trip()?;
        OsIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.trip()?;
        OsIo.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.trip()?;
        OsIo.create_dir_all(path)
    }
}
