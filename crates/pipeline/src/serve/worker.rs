//! The worker loop: lease, evaluate, heartbeat, submit — built to be
//! killed.
//!
//! A worker writes every leased shard through
//! [`resume_shard_streaming`] into a work-directory file whose name is
//! derived from the campaign header, so a worker restarted after `kill -9`
//! (or re-leasing a shard it lost to preemption) pays only for the
//! unfinished suffix of the stream. Heartbeats run on a side thread while
//! the shard evaluates; a coordinator that answers `active: false` is
//! telling the worker its result will be discarded, but the worker submits
//! anyway — discards are free, and the shard file stays behind to make the
//! next lease of that shard cheap.
//!
//! Workers are cattle: a coordinator that stays unreachable past the
//! configured patience ends the worker cleanly (the campaign is someone
//! else's problem to finish), while protocol violations are hard errors.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use holes_core::json::Json;

use super::lease::GRACE_BEATS;
use super::protocol::{connect_with_timeout, read_message, write_message, Reply, Request};
use super::ServeError;
use crate::fault::FaultPolicy;
use crate::shard::{spec_header_pairs, CampaignSpec};
use crate::stats::CacheStats;
use crate::store::fnv1a;
use crate::stream::{read_jsonl_shard, resume_shard_streaming, CAMPAIGN_JSONL_FORMAT};

/// Worker configuration.
#[derive(Debug)]
pub struct WorkerConfig {
    /// Coordinator address, `host:port`.
    pub connect: String,
    /// Directory for in-progress shard streams. Stable across restarts —
    /// that is what makes `kill -9` recovery cheap.
    pub work_dir: PathBuf,
    /// Fault containment policy for shard evaluation.
    pub policy: FaultPolicy,
    /// Label this worker presents to the coordinator (logs only).
    pub worker_id: String,
    /// How long to keep retrying an unreachable coordinator (which may be
    /// restarting from its journal) before giving up.
    pub patience: Duration,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

/// What one worker did over its lifetime.
#[derive(Debug, Default)]
pub struct WorkerOutcome {
    /// Leases granted to this worker.
    pub leases: usize,
    /// Results the coordinator accepted.
    pub accepted: usize,
    /// Results the coordinator discarded (revoked or duplicate leases).
    pub discarded: usize,
    /// Subjects re-evaluated when resuming partially evaluated shard files.
    pub resumed_subjects: usize,
    /// Aggregate pipeline cache statistics across every leased shard —
    /// the fleet's warm-cache proof reads `stats.compiles` here.
    pub stats: CacheStats,
}

/// Run the worker loop until the coordinator says [`Reply::Shutdown`] or
/// becomes unreachable past the configured patience.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerOutcome, ServeError> {
    std::fs::create_dir_all(&config.work_dir)?;
    let mut outcome = WorkerOutcome::default();
    loop {
        let request = Request::Lease {
            worker: config.worker_id.clone(),
        };
        let reply = match rpc(config, &request) {
            Ok(reply) => reply,
            Err(error) => {
                log(
                    config,
                    &format!("coordinator unreachable ({error}); shutting down"),
                );
                break;
            }
        };
        match reply {
            Reply::Shutdown => {
                log(
                    config,
                    "coordinator says the campaign is over; shutting down",
                );
                break;
            }
            Reply::Wait { backoff_ms } => {
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(1, 5_000)));
            }
            Reply::Lease {
                lease,
                spec,
                heartbeat_ms,
            } => {
                outcome.leases += 1;
                run_lease(config, &mut outcome, lease, &spec, heartbeat_ms)?;
            }
            Reply::Error { message } => {
                return Err(ServeError::Protocol(format!(
                    "coordinator rejected the lease request: {message}"
                )));
            }
            other => {
                return Err(ServeError::Protocol(format!(
                    "unexpected reply to a lease request: {other:?}"
                )));
            }
        }
    }
    Ok(outcome)
}

fn run_lease(
    config: &WorkerConfig,
    outcome: &mut WorkerOutcome,
    lease: u64,
    spec: &CampaignSpec,
    heartbeat_ms: u64,
) -> Result<(), ServeError> {
    let preempted = crate::chaos::preempt_this_lease();
    let stop = Arc::new(AtomicBool::new(false));
    let heart = (!preempted).then(|| {
        let stop = Arc::clone(&stop);
        let connect = config.connect.clone();
        let quiet = config.quiet;
        std::thread::spawn(move || heartbeat_loop(&connect, lease, heartbeat_ms, &stop, quiet))
    });

    let path = shard_file(&config.work_dir, spec);
    let evaluated = resume_shard_streaming(spec, &path, &config.policy);
    stop.store(true, Ordering::SeqCst);
    if let Some(heart) = heart {
        let _ = heart.join();
    }
    let evaluated = match evaluated {
        Ok(evaluated) => evaluated,
        Err(error) => {
            // A failed evaluation (full disk, a poisoned resume file) is the
            // shard's problem, not the worker's: clear the stream so the next
            // attempt starts clean, let the lease expire and requeue.
            log(
                config,
                &format!("lease {lease}: shard evaluation failed: {error}"),
            );
            let _ = std::fs::remove_file(&path);
            return Ok(());
        }
    };
    outcome.resumed_subjects += evaluated.resumed_subjects;
    outcome.stats.absorb(evaluated.stats);
    if evaluated.already_complete {
        log(
            config,
            &format!("lease {lease}: shard already complete on disk; resubmitting"),
        );
    }

    if preempted {
        // Chaos: the coordinator heard no heartbeats for this lease; sleep
        // past the grace window so it is revoked for sure, then submit the
        // stale result and let the idempotent discard prove itself.
        log(
            config,
            &format!("lease {lease}: chaos preemption — withholding heartbeats past the deadline"),
        );
        std::thread::sleep(Duration::from_millis(
            heartbeat_ms.max(1) * (GRACE_BEATS as u64 + 2),
        ));
    }

    let text = std::fs::read_to_string(&path)?;
    let shard = read_jsonl_shard(&text)?;
    let request = Request::Result {
        lease,
        shard: Box::new(shard),
    };
    let reply = match rpc(config, &request) {
        Ok(reply) => reply,
        Err(error) => {
            // The result is safe on disk; a future lease of this shard (by
            // us or a sibling) resumes it for free.
            log(
                config,
                &format!(
                    "lease {lease}: could not deliver the result ({error}); keeping {}",
                    path.display()
                ),
            );
            return Ok(());
        }
    };
    match reply {
        Reply::Accepted => {
            outcome.accepted += 1;
            log(config, &format!("lease {lease}: result accepted"));
            let _ = std::fs::remove_file(&path);
        }
        Reply::Discarded { reason } => {
            outcome.discarded += 1;
            log(
                config,
                &format!("lease {lease}: result discarded ({reason})"),
            );
        }
        Reply::Error { message } => {
            return Err(ServeError::Protocol(format!(
                "coordinator rejected the result: {message}"
            )));
        }
        other => {
            return Err(ServeError::Protocol(format!(
                "unexpected reply to a result: {other:?}"
            )));
        }
    }
    Ok(())
}

/// The stable on-disk name for a shard's stream: shard coordinates plus a
/// hash of the exact stream header, so a work directory can serve several
/// campaigns without a resume ever being refused over a foreign header.
fn shard_file(work_dir: &Path, spec: &CampaignSpec) -> PathBuf {
    let header = Json::Obj(spec_header_pairs(spec, CAMPAIGN_JSONL_FORMAT)).to_compact();
    let hash = fnv1a(header.as_bytes());
    work_dir.join(format!(
        "shard-{:04}-of-{:04}-{hash:016x}.jsonl",
        spec.shard, spec.shards
    ))
}

fn heartbeat_loop(connect: &str, lease: u64, heartbeat_ms: u64, stop: &AtomicBool, quiet: bool) {
    let period = Duration::from_millis(heartbeat_ms.max(1));
    while !stop.load(Ordering::SeqCst) {
        match heartbeat_once(connect, lease) {
            Ok(true) => {}
            Ok(false) => {
                if !quiet {
                    eprintln!("work: lease {lease}: revoked by the coordinator");
                }
                return;
            }
            // Transient trouble: the grace window exists exactly to absorb
            // a few missed beats (or a coordinator mid-restart).
            Err(_) => {}
        }
        // Sleep in slices so the stop flag is honored promptly.
        let mut slept = Duration::ZERO;
        while slept < period && !stop.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(20).min(period - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Connect/read/write timeout for heartbeat exchanges: short, because a
/// heartbeat that cannot complete quickly is better treated as a missed
/// beat (the grace window absorbs it) than a wedged thread.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

fn heartbeat_once(connect: &str, lease: u64) -> Result<bool, ServeError> {
    let stream = connect_with_timeout(connect, HEARTBEAT_TIMEOUT)?;
    let mut writer = stream.try_clone()?;
    write_message(&mut writer, &Request::Heartbeat { lease }.to_json())?;
    let mut reader = BufReader::new(stream);
    match Reply::from_json(&read_message(&mut reader)?)? {
        Reply::Heartbeat { active } => Ok(active),
        other => Err(ServeError::Protocol(format!(
            "unexpected reply to a heartbeat: {other:?}"
        ))),
    }
}

/// One request, one reply, with connection retries: an unreachable
/// coordinator gets `patience` to come back (it may be restarting from its
/// journal) before the transport error surfaces.
fn rpc(config: &WorkerConfig, request: &Request) -> Result<Reply, ServeError> {
    let deadline = Instant::now() + config.patience;
    let mut delay = Duration::from_millis(50);
    loop {
        match try_rpc(config, request) {
            Ok(reply) => return Ok(reply),
            Err(error) => {
                if Instant::now() + delay >= deadline {
                    return Err(error);
                }
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(2));
            }
        }
    }
}

/// Connect/write timeout for lease and submit exchanges. Generous —
/// a result line for a large shard takes real time to absorb — but finite:
/// a stalled coordinator surfaces as the same retriable transport error an
/// unreachable one does, and the `rpc` patience loop owns the retry.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// Read timeout for the reply line, which is always small (a lease spec or
/// an acknowledgement). Tighter than [`RPC_TIMEOUT`] so a request that
/// lands in the backlog of a dying coordinator — accepted by the kernel,
/// never served — fails over to the patience loop quickly.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn try_rpc(config: &WorkerConfig, request: &Request) -> Result<Reply, ServeError> {
    let stream = connect_with_timeout(&config.connect, RPC_TIMEOUT)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    write_message(&mut writer, &request.to_json())?;
    let mut reader = BufReader::new(stream);
    Reply::from_json(&read_message(&mut reader)?)
}

fn log(config: &WorkerConfig, message: &str) {
    if !config.quiet {
        eprintln!("work: {message}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::Personality;
    use holes_progen::SeedRange;

    /// A work directory resumes the stream it finds under a shard's name,
    /// so the name must not drift between builds.
    #[test]
    fn shard_file_names_are_stable() {
        let spec = CampaignSpec::new(Personality::Ccg, 4, SeedRange::new(0, 40));
        let path = shard_file(Path::new("work"), &spec);
        assert_eq!(
            path,
            Path::new("work/shard-0000-of-0001-f8bb03ca6f1142e4.jsonl")
        );
    }
}
