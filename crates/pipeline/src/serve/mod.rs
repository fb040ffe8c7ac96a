//! The distributed campaign service: a coordinator that decomposes one
//! [`CampaignSpec`] into shard **leases** and hands them to a preemptible
//! worker fleet over a versioned line-delimited JSON protocol
//! (`holes.rpc/v1`), with crash-tolerance as the design center.
//!
//! The moving parts, bottom up:
//!
//! * [`protocol`] — the `holes.rpc/v1` wire messages. One TCP connection
//!   carries one request line and one reply line; results embed the
//!   completed shard as a full `holes.campaign/v1` document, so the
//!   coordinator revalidates every record exactly like `holes report` does.
//! * [`lease`] — the coordinator's shard state machine. Leases carry
//!   heartbeat deadlines; a missed deadline revokes the lease and requeues
//!   the shard (bounded attempts, then quarantine, mirroring the store's
//!   quarantine protocol), and results from revoked leases are discarded
//!   idempotently so no subject is ever double-counted.
//! * [`journal`] — the coordinator's own crash log
//!   (`holes.serve-journal/v1`): every accepted shard is appended and
//!   fsynced before the worker sees the acknowledgement, so a restarted
//!   coordinator resumes without re-running finished work.
//! * [`coordinator`] — the transport-free service core ([`ServeState`])
//!   plus the TCP accept loop ([`Coordinator`]); SIGTERM (a drain flag)
//!   stops new assignments and lets in-flight leases finish.
//! * [`worker`] — the worker loop: lease, evaluate through
//!   [`crate::stream::resume_shard_streaming`] (so a `kill -9`'d worker
//!   restarted over the same work directory re-evaluates only the
//!   unfinished suffix), heartbeat in the background, submit.
//! * [`cache`] — the `holes.cache-rpc/v1` fleet-wide artifact cache: the
//!   coordinator serves fetch/put requests straight out of its
//!   [`crate::store::ArtifactStore`] on the same listener, and workers
//!   layer a [`RemoteStore`] client into their miss path (memory → local
//!   store → remote fetch → recompute, with write-through puts), behind
//!   timeouts, bounded retry, and a circuit breaker that degrades to
//!   local-only caching.
//!
//! The service's chaos seams — `HOLES_SERVE_CHAOS` (`abort:N` hard-kills a
//! worker mid-shard; `preempt:N` silences a lease's heartbeats) and
//! `HOLES_CACHE_CHAOS` (`drop:N`/`corrupt:N`/`delay:N` mutates a cache
//! reply) — read the process's [`crate::chaos`] plan.
//!
//! The load-bearing guarantee, held by proptests over random kill and
//! revocation schedules: the coordinator's merged stream is
//! **byte-identical** to a single-process unsharded
//! [`crate::stream::run_shard_streaming`] of the same spec.
//!
//! [`CampaignSpec`]: crate::shard::CampaignSpec
//! [`ServeState`]: coordinator::ServeState
//! [`Coordinator`]: coordinator::Coordinator

pub mod cache;
pub mod coordinator;
pub mod journal;
pub mod lease;
pub mod protocol;
pub mod worker;

pub use cache::{CacheReply, CacheRequest, RemoteStore, CACHE_RPC_FORMAT};
pub use coordinator::{Coordinator, ServeConfig, ServeReport, ServeState};
pub use journal::{Journal, JOURNAL_FORMAT};
pub use lease::{Assignment, LeaseConfig, LeaseTable, Revocation, Submission};
pub use protocol::{Reply, Request, RPC_FORMAT};
pub use worker::{run_worker, WorkerConfig, WorkerOutcome};

use crate::shard::ShardError;

/// A failure in the distributed campaign service: transport, shard
/// validation, or a protocol violation by the peer.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or journal-file operation failed.
    Io(std::io::Error),
    /// An embedded spec or shard failed validation (see [`ShardError`]).
    Shard(ShardError),
    /// The peer (or a journal on disk) violated the `holes.rpc/v1` /
    /// `holes.cache-rpc/v1` / `holes.serve-journal/v1` contract.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O: {e}"),
            ServeError::Shard(e) => e.fmt(f),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> ServeError {
        ServeError::Io(error)
    }
}

impl From<ShardError> for ServeError {
    fn from(error: ShardError) -> ServeError {
        ServeError::Shard(error)
    }
}

impl From<crate::stream::StreamError> for ServeError {
    fn from(error: crate::stream::StreamError) -> ServeError {
        match error {
            crate::stream::StreamError::Shard(e) => ServeError::Shard(e),
            crate::stream::StreamError::Io(e) => ServeError::Io(e),
        }
    }
}

/// The serve and cache chaos events as the service sees them; both are
/// parsed by [`crate::chaos`].
#[cfg(test)]
mod chaos {
    mod tests {
        use crate::chaos::{plan_of, CacheMode, Counted, ServeMode};

        fn serve_event(raw: &str) -> Result<Option<Counted<ServeMode>>, String> {
            plan_of("HOLES_SERVE_CHAOS", raw).map(|plan| plan.serve)
        }

        #[test]
        fn chaos_plans_parse_and_typos_are_rejected() {
            assert!(serve_event("").expect("empty is no plan").is_none());
            assert!(serve_event("  ").expect("blank is no plan").is_none());

            let abort = serve_event("abort:3").expect("valid").expect("present");
            assert_eq!(abort.mode, ServeMode::Abort);
            let preempt = serve_event("preempt:1").expect("valid").expect("present");
            assert_eq!(preempt.mode, ServeMode::Preempt);

            for bogus in [
                "abort", "abort:", "abort:0", "abort:-2", "abort:x", "stall:4", "4",
            ] {
                let message = serve_event(bogus).expect_err(bogus);
                assert!(
                    message.starts_with("HOLES_SERVE_CHAOS: "),
                    "`{bogus}` -> {message}"
                );
            }
            let message = serve_event("stall:4").expect_err("unknown mode");
            assert!(
                message.contains("stall"),
                "message names the mode: {message}"
            );
        }

        #[test]
        fn the_nth_event_fires_exactly_once() {
            let event = serve_event("preempt:2").expect("valid").expect("present");
            let fired: Vec<bool> = (0..4).map(|_| event.fire().is_some()).collect();
            assert_eq!(fired, vec![false, true, false, false]);
        }

        #[test]
        fn cache_chaos_plans_parse_and_fire_exactly_once() {
            let cache = |raw: &str| plan_of("HOLES_CACHE_CHAOS", raw).map(|plan| plan.cache);
            assert!(cache("").expect("empty is no plan").is_none());
            for (raw, mode) in [
                ("drop:1", CacheMode::Drop),
                ("corrupt:3", CacheMode::Corrupt),
                ("delay:2", CacheMode::Delay),
            ] {
                let event = cache(raw).expect("valid").expect("present");
                assert_eq!(event.mode, mode, "{raw}");
            }
            for bogus in ["drop", "drop:", "drop:0", "corrupt:-1", "stall:4", "4"] {
                assert!(cache(bogus).is_err(), "`{bogus}` should be rejected");
            }

            let event = Counted::new(CacheMode::Corrupt, 2);
            let fired: Vec<Option<CacheMode>> = (0..4).map(|_| event.fire()).collect();
            assert_eq!(
                fired,
                vec![None, Some(CacheMode::Corrupt), None, None],
                "the N-th reply is mutated exactly once"
            );
        }
    }
}
