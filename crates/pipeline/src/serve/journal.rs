//! The coordinator's crash journal (`holes.serve-journal/v1`).
//!
//! Append-only JSON Lines: a header naming the campaign and its lease
//! decomposition, then one line per accepted shard embedding the full
//! `holes.campaign/v1` document. Every append is flushed and fsynced
//! *before* the worker's submission is acknowledged, so "the worker saw
//! `accepted`" implies "a restarted coordinator will not re-run that
//! shard".
//!
//! Reloading follows the same discipline as streaming shard resume: a
//! journal cut mid-line by `kill -9` loses only its torn tail (the file is
//! truncated back to the last intact line), while a journal written for a
//! different campaign or decomposition — or with corruption *between*
//! intact lines — is refused outright rather than half-trusted.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use holes_core::json::Json;

use super::ServeError;
use crate::shard::{spec_header_pairs, CampaignShard, CampaignSpec};

/// Format tag of the coordinator journal's header line.
pub const JOURNAL_FORMAT: &str = "holes.serve-journal/v1";

/// An open, append-positioned coordinator journal.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

fn header_line(spec: &CampaignSpec, lease_shards: u64) -> String {
    let mut pairs = spec_header_pairs(spec, JOURNAL_FORMAT);
    pairs.push(("lease_shards".to_owned(), Json::from_u64(lease_shards)));
    let mut line = Json::Obj(pairs).to_compact();
    line.push('\n');
    line
}

fn entry_line(index: usize, shard: &CampaignShard) -> String {
    let mut line = Json::Obj(vec![
        ("done".to_owned(), Json::from_usize(index)),
        ("shard".to_owned(), shard.to_json()),
    ])
    .to_compact();
    line.push('\n');
    line
}

impl Journal {
    /// Open (or create) the journal at `path` for the campaign `spec`
    /// decomposed into `lease_shards` shards, recovering every intact
    /// completed-shard entry. A trailing torn line (coordinator killed
    /// mid-append) is silently truncated away; a header or interior entry
    /// that belongs to a different campaign, fails shard validation, or is
    /// corrupt is a hard error — better to make the operator delete a
    /// suspect journal than to merge half-trusted records.
    pub fn open(
        path: &Path,
        spec: &CampaignSpec,
        lease_shards: u64,
    ) -> Result<(Journal, Vec<(usize, CampaignShard)>), ServeError> {
        let expected_header = header_line(spec, lease_shards);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut contents = String::new();
        file.read_to_string(&mut contents)?;

        // Fresh (or torn-before-the-header-newline) journal: start over.
        let fresh = contents.is_empty()
            || (!contents.contains('\n') && expected_header.starts_with(&contents));
        if fresh {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(expected_header.as_bytes())?;
            file.sync_data()?;
            return Ok((Journal { file }, Vec::new()));
        }

        let Some(header_end) = contents.find('\n') else {
            return Err(foreign(path));
        };
        if contents[..=header_end] != expected_header {
            return Err(foreign(path));
        }

        let mut recovered: Vec<(usize, CampaignShard)> = Vec::new();
        let mut keep = header_end + 1;
        let mut rest = &contents[keep..];
        while let Some(line_end) = rest.find('\n') {
            let line = &rest[..line_end];
            let entry = Json::parse(line).map_err(|e| {
                ServeError::Protocol(format!("corrupt journal entry in {}: {e}", path.display()))
            })?;
            let index = entry
                .get("done")
                .and_then(Json::as_usize)
                .filter(|i| (*i as u64) < lease_shards)
                .ok_or_else(|| {
                    ServeError::Protocol(format!(
                        "journal entry in {} names no shard of the campaign",
                        path.display()
                    ))
                })?;
            let shard = entry
                .get("shard")
                .ok_or_else(|| {
                    ServeError::Protocol(format!(
                        "journal entry in {} carries no shard",
                        path.display()
                    ))
                })
                .and_then(|s| CampaignShard::from_json(s).map_err(ServeError::from))?;
            let expected_spec = spec.clone().with_shard(lease_shards, index as u64);
            if shard.spec != expected_spec {
                return Err(ServeError::Protocol(format!(
                    "journal entry for shard {index} in {} does not match the campaign",
                    path.display()
                )));
            }
            // Idempotent appends: a crash between fsync and in-memory
            // commit can duplicate an entry; the first one wins.
            if !recovered.iter().any(|(i, _)| *i == index) {
                recovered.push((index, shard));
            }
            keep += line_end + 1;
            rest = &rest[line_end + 1..];
        }

        // Anything after the last newline is a torn append: drop it.
        file.set_len(keep as u64)?;
        file.seek(SeekFrom::Start(keep as u64))?;
        Ok((Journal { file }, recovered))
    }

    /// Append one accepted shard and force it to disk. Only after this
    /// returns may the coordinator acknowledge the submission.
    pub fn record(&mut self, index: usize, shard: &CampaignShard) -> Result<(), ServeError> {
        self.file.write_all(entry_line(index, shard).as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }
}

fn foreign(path: &Path) -> ServeError {
    ServeError::Protocol(format!(
        "journal {} was written for a different campaign or lease decomposition \
         (delete it to start over)",
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_shard;
    use crate::FaultPolicy;
    use holes_compiler::Personality;
    use holes_progen::SeedRange;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(
            Personality::Ccg,
            Personality::Ccg.trunk(),
            SeedRange::new(2650, 2656),
        )
    }

    struct Scratch {
        path: PathBuf,
    }

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let path =
                std::env::temp_dir().join(format!("holes-journal-{name}-{}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            Scratch { path }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    #[test]
    fn journal_round_trips_and_survives_torn_tails() {
        let scratch = Scratch::new("roundtrip");
        let spec = spec();
        let shard1 = run_shard(&spec.clone().with_shard(3, 1), &FaultPolicy::default())
            .expect("shard evaluates")
            .0;

        let (mut journal, recovered) =
            Journal::open(&scratch.path, &spec, 3).expect("fresh journal opens");
        assert!(recovered.is_empty());
        journal.record(1, &shard1).expect("entry appends");
        drop(journal);

        // Clean reopen recovers the entry; duplicates collapse to one.
        let (mut journal, recovered) =
            Journal::open(&scratch.path, &spec, 3).expect("journal reopens");
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 1);
        assert_eq!(recovered[0].1, shard1);
        journal.record(1, &shard1).expect("duplicate appends");
        drop(journal);
        let (_, recovered) = Journal::open(&scratch.path, &spec, 3).expect("journal reopens");
        assert_eq!(recovered.len(), 1, "duplicate entries collapse");

        // Tear the tail mid-line, as kill -9 during an append would: the
        // torn suffix is dropped, the intact prefix survives.
        let intact = std::fs::read(&scratch.path).expect("journal reads");
        let torn = [&intact[..], b"{\"done\":2,\"sha"].concat();
        std::fs::write(&scratch.path, &torn).expect("torn journal writes");
        let (_, recovered) = Journal::open(&scratch.path, &spec, 3).expect("torn journal opens");
        assert_eq!(recovered.len(), 1, "torn tail dropped, intact entry kept");
        assert_eq!(
            std::fs::read(&scratch.path).expect("journal reads"),
            intact,
            "file truncated back to the intact prefix"
        );
    }

    #[test]
    fn foreign_and_corrupt_journals_are_refused() {
        let scratch = Scratch::new("foreign");
        let spec = spec();

        // A journal for a different decomposition of the same campaign.
        drop(Journal::open(&scratch.path, &spec, 3).expect("journal opens"));
        let refusal = Journal::open(&scratch.path, &spec, 4).expect_err("foreign decomposition");
        assert!(
            refusal.to_string().contains("different campaign"),
            "{refusal}"
        );

        // Interior corruption (an unparseable line *before* the end) is a
        // hard error, not a silent truncation.
        let mut bytes = std::fs::read(&scratch.path).expect("journal reads");
        bytes.extend_from_slice(b"not json\n");
        let shard = run_shard(&spec.clone().with_shard(3, 0), &FaultPolicy::default())
            .expect("shard evaluates")
            .0;
        bytes.extend_from_slice(entry_line(0, &shard).as_bytes());
        std::fs::write(&scratch.path, &bytes).expect("corrupt journal writes");
        let refusal = Journal::open(&scratch.path, &spec, 3).expect_err("interior corruption");
        assert!(refusal.to_string().contains("corrupt journal"), "{refusal}");

        // An entry whose embedded shard belongs to another campaign.
        let scratch2 = Scratch::new("mismatch");
        drop(Journal::open(&scratch2.path, &spec, 3).expect("journal opens"));
        let mut bytes = std::fs::read(&scratch2.path).expect("journal reads");
        bytes.extend_from_slice(entry_line(1, &shard).as_bytes());
        std::fs::write(&scratch2.path, &bytes).expect("mismatched journal writes");
        let refusal = Journal::open(&scratch2.path, &spec, 3).expect_err("mismatched entry");
        assert!(refusal.to_string().contains("does not match"), "{refusal}");
    }

    /// A real journal of `spec()` in 3 lease shards holding entries for
    /// shards 0 and 2, and the header of a journal written for 4 shards.
    fn pristine() -> &'static (Vec<u8>, String) {
        static PRISTINE: OnceLock<(Vec<u8>, String)> = OnceLock::new();
        PRISTINE.get_or_init(|| {
            let scratch = Scratch::new("pristine");
            let spec = spec();
            let (mut journal, _) = Journal::open(&scratch.path, &spec, 3).expect("journal opens");
            for index in [0, 2] {
                let lease = spec.clone().with_shard(3, index as u64);
                let shard = run_shard(&lease, &FaultPolicy::default()).expect("shard evaluates");
                journal.record(index, &shard.0).expect("entry appends");
            }
            let bytes = std::fs::read(&scratch.path).expect("journal reads");
            (bytes, header_line(&spec, 4))
        })
    }

    /// Truncate at a byte, flip a byte, duplicate a line, or splice in the
    /// foreign header. Returns the mutated bytes and, for a truncation, the
    /// length cut to.
    fn mutate(
        bytes: &[u8],
        foreign: &str,
        mutation: usize,
        at: u64,
        other: u64,
    ) -> (Vec<u8>, Option<usize>) {
        let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&byte| byte == b'\n').collect();
        let line = (at % lines.len() as u64) as usize;
        let slot = (other % (lines.len() as u64 + 1)) as usize;
        match mutation {
            0 => {
                let cut = (at % (bytes.len() as u64 + 1)) as usize;
                (bytes[..cut].to_vec(), Some(cut))
            }
            1 => {
                let mut flipped = bytes.to_vec();
                flipped[(at % bytes.len() as u64) as usize] ^= (other % 255 + 1) as u8;
                (flipped, None)
            }
            2 => {
                lines.insert(slot, lines[line]);
                (lines.concat(), None)
            }
            _ => {
                lines.insert(slot, foreign.as_bytes());
                (lines.concat(), None)
            }
        }
    }

    /// The scratch of the journal fuzzer: two copies of one journal and a
    /// sentinel file beside them that no open may touch.
    struct Sandbox(PathBuf);

    impl Sandbox {
        fn new(bytes: &[u8]) -> Sandbox {
            let dir = std::env::temp_dir().join(format!(
                "holes-journal-sandbox-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("sandbox creates");
            std::fs::write(dir.join("sentinel"), "untouched").expect("sentinel writes");
            for copy in ["a", "b"] {
                std::fs::write(dir.join(copy), bytes).expect("journal copy writes");
            }
            Sandbox(dir)
        }

        /// Open one copy: the recovered entries or the error (its path
        /// masked), and the file's text afterwards.
        fn open(&self, copy: &str) -> (Result<Vec<(usize, CampaignShard)>, String>, String) {
            let path = self.0.join(copy);
            let outcome = Journal::open(&path, &spec(), 3)
                .map(|(_, recovered)| recovered)
                .map_err(|error| {
                    error
                        .to_string()
                        .replace(&path.display().to_string(), "JOURNAL")
                });
            let after = std::fs::read(&path).expect("journal reads");
            (outcome, String::from_utf8_lossy(&after).into_owned())
        }
    }

    impl Drop for Sandbox {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The journal reader, attacked: mutate a real two-entry journal and
        /// require that opening it never panics, never touches a file
        /// beside it, gives the same verdict on two copies of the same
        /// bytes, and — when the only change is a truncation — recovers
        /// exactly the entries of the intact prefix and cuts the file back
        /// to it.
        #[test]
        fn journal_open_survives_mutated_journals(
            mutation in 0usize..4,
            at in any::<u64>(),
            other in any::<u64>(),
        ) {
            let (bytes, foreign) = pristine();
            let (mutated, cut) = mutate(bytes, foreign, mutation, at, other);
            let sandbox = Sandbox::new(&mutated);
            let (verdict, after) = sandbox.open("a");
            prop_assert_eq!(sandbox.open("b"), (verdict.clone(), after.clone()));
            let mut files: Vec<PathBuf> = std::fs::read_dir(&sandbox.0)
                .expect("sandbox lists")
                .map(|entry| entry.expect("sandbox entry").path())
                .collect();
            files.sort();
            prop_assert_eq!(files, ["a", "b", "sentinel"].map(|file| sandbox.0.join(file)));
            prop_assert_eq!(
                std::fs::read(sandbox.0.join("sentinel")).expect("sentinel reads"),
                b"untouched"
            );

            if let Some(cut) = cut {
                // Line ends of the header and the two entries.
                let ends: Vec<usize> = bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &byte)| byte == b'\n')
                    .map(|(i, _)| i + 1)
                    .collect();
                let intact = ends.iter().filter(|&&end| end <= cut).count();
                let recovered = verdict.expect("a truncated journal opens");
                let indices: Vec<usize> = recovered.iter().map(|(index, _)| *index).collect();
                prop_assert_eq!(indices, [0, 2][..intact.saturating_sub(1)].to_vec());
                // A journal cut inside its header starts over from a fresh
                // header; otherwise the torn tail is cut away.
                let kept = ends[..intact].last().copied().unwrap_or(ends[0]);
                prop_assert_eq!(after, String::from_utf8_lossy(&bytes[..kept]));
            }
        }
    }
}
