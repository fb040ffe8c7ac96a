//! The `holes.rpc/v1` wire protocol between coordinator and workers.
//!
//! Deliberately minimal: one TCP connection carries exactly one request
//! line and one reply line, both compact JSON tagged with an `rpc` version
//! field. Requests and replies never interleave on a shared stream, so
//! there is no framing state to corrupt when a worker is killed mid-write —
//! the coordinator just sees a torn line on a dead socket and drops it.
//!
//! Completed work travels as a full `holes.campaign/v1` document embedded
//! in the [`Request::Result`] message, so the coordinator revalidates a
//! submitted shard with [`CampaignShard::from_json`] — the same parser
//! `holes report` trusts — before a single record enters the merge.

use std::io::{BufRead, Read, Write};

use holes_core::json::Json;

use super::ServeError;
use crate::shard::{
    parse_levels, parse_spec_header, spec_header_pairs, CampaignShard, CampaignSpec,
};

/// Version tag every `holes.rpc/v1` message carries in its `rpc` field;
/// mismatched peers are rejected before any payload is interpreted.
pub const RPC_FORMAT: &str = "holes.rpc/v1";

/// A worker-to-coordinator message (one per connection).
#[derive(Debug)]
pub enum Request {
    /// Ask for a shard lease.
    Lease {
        /// Self-chosen worker label, used only for coordinator logs.
        worker: String,
    },
    /// Extend the deadline of a held lease.
    Heartbeat {
        /// The lease being kept alive.
        lease: u64,
    },
    /// Submit the completed shard evaluated under a lease.
    Result {
        /// The lease the shard was evaluated under.
        lease: u64,
        /// The completed shard as a revalidated `holes.campaign/v1` document.
        shard: Box<CampaignShard>,
    },
}

/// A coordinator-to-worker message (one per connection).
#[derive(Debug)]
pub enum Reply {
    /// A shard lease: evaluate `spec`, heartbeat every `heartbeat_ms`.
    Lease {
        /// Lease identifier to present in heartbeats and the result.
        lease: u64,
        /// The shard to evaluate.
        spec: CampaignSpec,
        /// Heartbeat cadence the worker must sustain to keep the lease.
        heartbeat_ms: u64,
    },
    /// Nothing assignable right now; ask again after `backoff_ms`.
    Wait {
        /// How long the worker should sleep before the next lease request.
        backoff_ms: u64,
    },
    /// The campaign is over (complete, or draining): the worker should exit.
    Shutdown,
    /// Heartbeat acknowledgement; `active: false` means the lease was
    /// revoked and the work in flight will be discarded on submission.
    Heartbeat {
        /// Whether the lease is still held by this worker.
        active: bool,
    },
    /// The submitted shard was accepted and journaled.
    Accepted,
    /// The submitted shard was ignored (revoked lease, duplicate, or a
    /// result that does not match the leased spec). Not an error: discards
    /// are how preemption stays invisible in the merged report.
    Discarded {
        /// Why the result was dropped.
        reason: String,
    },
    /// The request itself was unintelligible or arrived at a broken moment.
    Error {
        /// What the coordinator objected to.
        message: String,
    },
}

impl Request {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("rpc".to_owned(), Json::str(RPC_FORMAT))];
        match self {
            Request::Lease { worker } => {
                pairs.push(("req".to_owned(), Json::str("lease")));
                pairs.push(("worker".to_owned(), Json::str(worker)));
            }
            Request::Heartbeat { lease } => {
                pairs.push(("req".to_owned(), Json::str("heartbeat")));
                pairs.push(("lease".to_owned(), Json::from_u64(*lease)));
            }
            Request::Result { lease, shard } => {
                pairs.push(("req".to_owned(), Json::str("result")));
                pairs.push(("lease".to_owned(), Json::from_u64(*lease)));
                pairs.push(("shard".to_owned(), shard.to_json()));
            }
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a request; embedded shards go through the full
    /// `holes.campaign/v1` validator.
    pub fn from_json(json: &Json) -> Result<Request, ServeError> {
        check_version(json)?;
        match str_field(json, "req")? {
            "lease" => Ok(Request::Lease {
                worker: str_field(json, "worker")?.to_owned(),
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                lease: u64_field(json, "lease")?,
            }),
            "result" => {
                let shard = json
                    .get("shard")
                    .ok_or_else(|| missing("shard"))
                    .and_then(|s| CampaignShard::from_json(s).map_err(ServeError::from))?;
                Ok(Request::Result {
                    lease: u64_field(json, "lease")?,
                    shard: Box::new(shard),
                })
            }
            other => Err(ServeError::Protocol(format!("unknown request `{other}`"))),
        }
    }
}

impl Reply {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("rpc".to_owned(), Json::str(RPC_FORMAT))];
        match self {
            Reply::Lease {
                lease,
                spec,
                heartbeat_ms,
            } => {
                pairs.push(("reply".to_owned(), Json::str("lease")));
                pairs.push(("lease".to_owned(), Json::from_u64(*lease)));
                pairs.push(("heartbeat_ms".to_owned(), Json::from_u64(*heartbeat_ms)));
                pairs.push((
                    "spec".to_owned(),
                    Json::Obj(spec_header_pairs(spec, RPC_FORMAT)),
                ));
            }
            Reply::Wait { backoff_ms } => {
                pairs.push(("reply".to_owned(), Json::str("wait")));
                pairs.push(("backoff_ms".to_owned(), Json::from_u64(*backoff_ms)));
            }
            Reply::Shutdown => pairs.push(("reply".to_owned(), Json::str("shutdown"))),
            Reply::Heartbeat { active } => {
                pairs.push(("reply".to_owned(), Json::str("heartbeat")));
                pairs.push(("active".to_owned(), Json::Bool(*active)));
            }
            Reply::Accepted => pairs.push(("reply".to_owned(), Json::str("accepted"))),
            Reply::Discarded { reason } => {
                pairs.push(("reply".to_owned(), Json::str("discarded")));
                pairs.push(("reason".to_owned(), Json::str(reason)));
            }
            Reply::Error { message } => {
                pairs.push(("reply".to_owned(), Json::str("error")));
                pairs.push(("message".to_owned(), Json::str(message)));
            }
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a reply; leased specs are revalidated (identity
    /// fields and level schedule) before the worker evaluates anything.
    pub fn from_json(json: &Json) -> Result<Reply, ServeError> {
        check_version(json)?;
        match str_field(json, "reply")? {
            "lease" => {
                let spec_json = json.get("spec").ok_or_else(|| missing("spec"))?;
                let spec = parse_spec_header(spec_json)?;
                parse_levels(spec_json, spec.personality)?;
                Ok(Reply::Lease {
                    lease: u64_field(json, "lease")?,
                    spec,
                    heartbeat_ms: u64_field(json, "heartbeat_ms")?,
                })
            }
            "wait" => Ok(Reply::Wait {
                backoff_ms: u64_field(json, "backoff_ms")?,
            }),
            "shutdown" => Ok(Reply::Shutdown),
            "heartbeat" => Ok(Reply::Heartbeat {
                active: json
                    .get("active")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| missing("active"))?,
            }),
            "accepted" => Ok(Reply::Accepted),
            "discarded" => Ok(Reply::Discarded {
                reason: str_field(json, "reason")?.to_owned(),
            }),
            "error" => Ok(Reply::Error {
                message: str_field(json, "message")?.to_owned(),
            }),
            other => Err(ServeError::Protocol(format!("unknown reply `{other}`"))),
        }
    }
}

/// Write one message as a single compact JSON line and flush it — the
/// whole of a peer's half of an exchange.
pub fn write_message<W: Write>(out: &mut W, message: &Json) -> Result<(), ServeError> {
    out.write_all(message.to_compact().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    Ok(())
}

/// The longest message line [`read_message`] will buffer. Far beyond any
/// legitimate shard result, but finite: a corrupt or malicious peer
/// streaming an endless line must cost the coordinator at most this much
/// memory, never an OOM.
pub const MAX_MESSAGE_BYTES: usize = 64 * 1024 * 1024;

/// Read one message line. A peer that closes the socket before completing
/// its line (a killed worker, a torn write) is a protocol error the caller
/// can log and drop — never a crash; so is a line longer than
/// [`MAX_MESSAGE_BYTES`].
pub fn read_message<R: BufRead>(input: &mut R) -> Result<Json, ServeError> {
    read_message_with_limit(input, MAX_MESSAGE_BYTES)
}

/// [`read_message`] under an explicit line-length cap (exposed so the cap
/// logic is testable without allocating 64 MiB).
pub fn read_message_with_limit<R: BufRead>(
    input: &mut R,
    max_bytes: usize,
) -> Result<Json, ServeError> {
    let mut line = String::new();
    // `take` bounds what one message may pull into memory; two extra bytes
    // leave room for a `\r\n` terminator on a line whose *content* sits
    // exactly at the cap — the cap governs the message, not its framing.
    if input
        .by_ref()
        .take(max_bytes as u64 + 2)
        .read_line(&mut line)?
        == 0
    {
        return Err(ServeError::Protocol(
            "peer closed the connection before sending a message".into(),
        ));
    }
    let content = line.trim_end_matches(['\n', '\r']);
    if content.len() > max_bytes {
        return Err(ServeError::Protocol(format!(
            "message line exceeds the {max_bytes}-byte cap"
        )));
    }
    Json::parse(content).map_err(|e| ServeError::Protocol(format!("malformed message: {e}")))
}

/// Open a TCP connection to `addr` with `timeout` bounding the connect
/// *and* installed as the stream's read and write timeouts — the one
/// transport opener every `holes.rpc/v1` and `holes.cache-rpc/v1` client
/// path uses, so a stalled or black-holed peer always surfaces as the same
/// retriable [`ServeError::Io`] within a bounded wait.
pub fn connect_with_timeout(
    addr: &str,
    timeout: std::time::Duration,
) -> Result<std::net::TcpStream, ServeError> {
    use std::net::ToSocketAddrs;
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match std::net::TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(error) => last = Some(error),
        }
    }
    Err(ServeError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("`{addr}` resolved to no addresses"),
        )
    })))
}

fn check_version(json: &Json) -> Result<(), ServeError> {
    match json.get("rpc").and_then(Json::as_str) {
        Some(RPC_FORMAT) => Ok(()),
        Some(other) => Err(ServeError::Protocol(format!(
            "unsupported rpc version `{other}` (this build speaks `{RPC_FORMAT}`)"
        ))),
        None => Err(ServeError::Protocol(
            "message carries no `rpc` version tag".into(),
        )),
    }
}

pub(crate) fn missing(key: &str) -> ServeError {
    ServeError::Protocol(format!("missing field `{key}`"))
}

pub(crate) fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| missing(key))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, ServeError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_shard;
    use crate::FaultPolicy;
    use holes_compiler::Personality;
    use holes_progen::SeedRange;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            Personality::Ccg,
            Personality::Ccg.trunk(),
            SeedRange::new(2600, 2603),
        )
        .with_shard(2, 1)
    }

    #[test]
    fn requests_survive_a_wire_round_trip() {
        let shard = run_shard(&spec(), &FaultPolicy::default())
            .expect("shard evaluates")
            .0;
        let requests = vec![
            Request::Lease {
                worker: "w1".into(),
            },
            Request::Heartbeat { lease: 7 },
            Request::Result {
                lease: 7,
                shard: Box::new(shard),
            },
        ];
        for request in requests {
            let line = request.to_json().to_compact();
            let parsed = Json::parse(&line).expect("wire line parses");
            let back = Request::from_json(&parsed).expect("request round-trips");
            assert_eq!(back.to_json().to_compact(), line);
        }
    }

    #[test]
    fn replies_survive_a_wire_round_trip() {
        let replies = vec![
            Reply::Lease {
                lease: 3,
                spec: spec(),
                heartbeat_ms: 250,
            },
            Reply::Wait { backoff_ms: 125 },
            Reply::Shutdown,
            Reply::Heartbeat { active: false },
            Reply::Accepted,
            Reply::Discarded {
                reason: "lease 3 is not active".into(),
            },
            Reply::Error {
                message: "malformed message".into(),
            },
        ];
        for reply in replies {
            let line = reply.to_json().to_compact();
            let parsed = Json::parse(&line).expect("wire line parses");
            let back = Reply::from_json(&parsed).expect("reply round-trips");
            assert_eq!(back.to_json().to_compact(), line);
        }
    }

    #[test]
    fn oversized_message_lines_are_a_clean_protocol_error() {
        // Under the cap: parses normally.
        let fine = b"{\"rpc\":\"holes.rpc/v1\"}\n";
        let parsed = read_message_with_limit(&mut &fine[..], 64).expect("small line parses");
        assert_eq!(parsed.get("rpc").and_then(Json::as_str), Some(RPC_FORMAT));

        // Over the cap: a clean ServeError naming the limit, not an OOM —
        // and the reader must not have buffered the whole line to decide.
        let mut oversized = vec![b'{'; 100];
        oversized.push(b'\n');
        let error = read_message_with_limit(&mut &oversized[..], 64).expect_err("capped");
        assert!(
            error.to_string().contains("64-byte cap"),
            "error names the cap: {error}"
        );

        // A line that *ends* within the cap is unaffected by junk after it.
        let mut stream = Vec::new();
        stream.extend_from_slice(b"{\"rpc\":\"holes.rpc/v1\"}\n");
        stream.extend_from_slice(&[b'x'; 100]);
        let parsed = read_message_with_limit(&mut &stream[..], 64).expect("first line parses");
        assert_eq!(parsed.get("rpc").and_then(Json::as_str), Some(RPC_FORMAT));

        // Content exactly at the cap is accepted: the cap bounds the
        // message, and the line terminator (`\n` or `\r\n`) rides free.
        let content = b"{\"rpc\":\"holes.rpc/v1\"}";
        for terminator in [&b"\n"[..], &b"\r\n"[..]] {
            let mut exact = content.to_vec();
            exact.extend_from_slice(terminator);
            let parsed = read_message_with_limit(&mut &exact[..], content.len())
                .expect("content exactly at the cap parses");
            assert_eq!(parsed.get("rpc").and_then(Json::as_str), Some(RPC_FORMAT));
        }
        // ...but one content byte over it is still rejected.
        let mut over = content.to_vec();
        over.extend_from_slice(b"\n");
        assert!(read_message_with_limit(&mut &over[..], content.len() - 1).is_err());
    }

    #[test]
    fn foreign_versions_and_tampered_shards_are_rejected() {
        let message = Json::parse(r#"{"rpc":"holes.rpc/v2","req":"lease","worker":"w"}"#)
            .expect("line parses");
        let rejection = Request::from_json(&message).expect_err("foreign version");
        assert!(
            rejection.to_string().contains("holes.rpc/v2"),
            "rejection names the offered version: {rejection}"
        );

        let noversion = Json::parse(r#"{"req":"lease","worker":"w"}"#).expect("line parses");
        assert!(
            Request::from_json(&noversion).is_err(),
            "missing version tag rejected"
        );

        // A result whose embedded shard was tampered with (claiming a wider
        // seed range than was evaluated) must fail the full campaign
        // validator, not sneak into the merge.
        let shard = run_shard(&spec(), &FaultPolicy::default())
            .expect("shard evaluates")
            .0;
        let wire = Request::Result {
            lease: 1,
            shard: Box::new(shard),
        }
        .to_json();
        let tampered = wire
            .to_compact()
            .replace("\"seeds\":\"2600..2603\"", "\"seeds\":\"2600..2605\"");
        let reparsed = Json::parse(&tampered).expect("tampered line still parses");
        assert!(
            Request::from_json(&reparsed).is_err(),
            "tampered shard rejected"
        );
    }
}
