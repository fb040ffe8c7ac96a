//! The violation corpus: distilled, replayable records of known
//! debug-information bugs (`holes.corpus/v1`).
//!
//! A campaign proves a violation exists; a [`CorpusEntry`] makes it
//! *portable*: the generator seed, the full compiler configuration
//! (personality, version, level, backend), the violation site, the culprit
//! pass triage identified, and the reduced program text. `holes corpus add`
//! distills entries from campaign output by running the existing triage and
//! reduction machinery ([`distill`]); `holes corpus replay` re-verifies
//! every entry — regenerating the subject from its seed and probing the
//! recorded site with the targeted oracle — so a regression suite fails
//! fast on known bugs before any budget is spent on fresh seeds.
//!
//! Like every other wire format in the workspace the corpus document is
//! hand-rolled deterministic JSON: entries are kept in ascending canonical
//! order and the parser rejects any tampering (unknown format tags,
//! out-of-personality levels, reordered entries) with an error naming the
//! offending entry, never a panic.

use holes_compiler::{BackendKind, CompilerConfig, OptLevel, Personality};
use holes_core::json::Json;
use holes_core::{Conjecture, Observed, SiteQuery, Violation};

use crate::baseline::ViolationFingerprint;
use crate::reduce::reduce;
use crate::triage::triage;
use crate::Subject;

/// The identifying `format` value of a corpus file.
pub const CORPUS_FORMAT: &str = "holes.corpus/v1";

/// Why a corpus document or entry was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError(pub String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed corpus: {}", self.0)
    }
}

impl std::error::Error for CorpusError {}

/// One known violation, distilled for replay: everything needed to
/// reconstruct the exposing configuration and re-probe the violating site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Generator seed of the exposing program.
    pub seed: u64,
    /// The compiler personality.
    pub personality: Personality,
    /// Index into [`Personality::version_names`].
    pub version: usize,
    /// The optimization level the violation was observed at.
    pub level: OptLevel,
    /// The backend the program was compiled for.
    pub backend: BackendKind,
    /// The violated conjecture.
    pub conjecture: Conjecture,
    /// The violating source line in the *original* program.
    pub line: u32,
    /// The affected variable's source name.
    pub variable: String,
    /// What the debugger showed.
    pub observed: Observed,
    /// The culprit pass triage identified (`None` when triage could not
    /// attribute the violation; `"isel"` for codegen-level defects).
    pub culprit: Option<String>,
    /// Statement count of the original program.
    pub original_statements: usize,
    /// Statement count after reduction.
    pub reduced_statements: usize,
    /// The reduced program's rendered source, kept for human consumption
    /// and bug reports (replay regenerates from the seed, which is the
    /// deterministic ground truth).
    pub reduced_source: String,
}

/// The ordering/identity key of an entry: everything except the distilled
/// payload, so re-adding the same violation replaces rather than
/// duplicates.
type EntryKey = (
    u64,
    &'static str,
    usize,
    OptLevel,
    &'static str,
    Conjecture,
    u32,
    String,
);

impl CorpusEntry {
    /// The entry's canonical violation fingerprint — the same spelling the
    /// baseline workflow uses, so corpus and baseline cross-reference.
    pub fn fingerprint(&self) -> ViolationFingerprint {
        ViolationFingerprint {
            seed: self.seed,
            conjecture: self.conjecture,
            line: self.line,
            variable: self.variable.clone(),
        }
    }

    /// The compiler configuration the entry's violation reproduces under.
    pub fn config(&self) -> CompilerConfig {
        CompilerConfig::new(self.personality, self.level)
            .with_version(self.version)
            .with_backend(self.backend)
    }

    /// The canonical identity/sort key.
    fn key(&self) -> EntryKey {
        (
            self.seed,
            self.personality.name(),
            self.version,
            self.level,
            self.backend.name(),
            self.conjecture,
            self.line,
            self.variable.clone(),
        )
    }

    /// Serialize one entry (the `backend` field is omitted on the default
    /// register backend, matching the shard-header convention). This is the
    /// entry object of the `holes.corpus/v1` format — also the payload the
    /// artifact store mirrors beside the subject's compiled artifacts
    /// ([`crate::store::ArtifactStore::save_corpus_entry`]).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seed".to_owned(), Json::from_u64(self.seed)),
            ("personality".to_owned(), Json::str(self.personality.name())),
            (
                "compiler_version".to_owned(),
                Json::str(self.personality.version_names()[self.version]),
            ),
            ("level".to_owned(), Json::str(self.level.flag())),
        ];
        if self.backend != BackendKind::Reg {
            pairs.push(("backend".to_owned(), Json::str(self.backend.name())));
        }
        pairs.extend([
            (
                "conjecture".to_owned(),
                Json::str(self.conjecture.to_string()),
            ),
            ("line".to_owned(), Json::from_u64(u64::from(self.line))),
            ("variable".to_owned(), Json::str(&self.variable)),
            ("observed".to_owned(), Json::str(self.observed.name())),
        ]);
        if let Some(culprit) = &self.culprit {
            pairs.push(("culprit".to_owned(), Json::str(culprit)));
        }
        pairs.extend([
            (
                "original_statements".to_owned(),
                Json::from_usize(self.original_statements),
            ),
            (
                "reduced_statements".to_owned(),
                Json::from_usize(self.reduced_statements),
            ),
            ("reduced_source".to_owned(), Json::str(&self.reduced_source)),
        ]);
        Json::Obj(pairs)
    }

    /// Parse and validate one entry object (see [`CorpusEntry::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CorpusError`] naming the offending field.
    pub fn from_json(json: &Json) -> Result<CorpusEntry, CorpusError> {
        let str_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| CorpusError(format!("missing or non-string field `{key}`")))
        };
        let personality: Personality = str_field("personality")?
            .parse()
            .map_err(|_| CorpusError("malformed field `personality`".into()))?;
        let version_name = str_field("compiler_version")?;
        let version = personality.version_index(version_name).ok_or_else(|| {
            CorpusError(format!("unknown {personality} version `{version_name}`"))
        })?;
        let level: OptLevel = str_field("level")?
            .parse()
            .map_err(|_| CorpusError("malformed field `level`".into()))?;
        if !personality.levels().contains(&level) {
            return Err(CorpusError(format!(
                "level {} is not tested by the {personality} personality",
                level.flag()
            )));
        }
        let backend = match json.get("backend") {
            None => BackendKind::Reg,
            Some(value) => value
                .as_str()
                .and_then(|name| name.parse().ok())
                .ok_or_else(|| CorpusError("malformed field `backend`".into()))?,
        };
        let seed = json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| CorpusError("missing or malformed field `seed`".into()))?;
        let line = json
            .get("line")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| CorpusError("missing or malformed field `line`".into()))?;
        let conjecture: Conjecture = str_field("conjecture")?
            .parse()
            .map_err(|_| CorpusError("malformed field `conjecture`".into()))?;
        let observed: Observed = str_field("observed")?
            .parse()
            .map_err(|_| CorpusError("malformed field `observed`".into()))?;
        let culprit = match json.get("culprit") {
            None => None,
            Some(value) => Some(
                value
                    .as_str()
                    .filter(|c| !c.is_empty())
                    .ok_or_else(|| CorpusError("malformed field `culprit`".into()))?
                    .to_owned(),
            ),
        };
        let usize_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| CorpusError(format!("missing or malformed field `{key}`")))
        };
        let original_statements = usize_field("original_statements")?;
        let reduced_statements = usize_field("reduced_statements")?;
        if reduced_statements > original_statements {
            return Err(CorpusError(
                "reduced statement count exceeds the original".into(),
            ));
        }
        Ok(CorpusEntry {
            seed,
            personality,
            version,
            level,
            backend,
            conjecture,
            line,
            variable: str_field("variable")?.to_owned(),
            observed,
            culprit,
            original_statements,
            reduced_statements,
            reduced_source: str_field("reduced_source")?.to_owned(),
        })
    }

    /// Re-verify this entry against a subject regenerated from its seed:
    /// probe the recorded site under the recorded configuration, then (when
    /// a culprit is recorded) confirm the attribution — a normal pass must
    /// take the violation with it when disabled; the `"isel"` culprit must
    /// keep the violation alive with the whole pass pipeline disabled.
    ///
    /// `subject` must be the entry's subject (built from
    /// [`CorpusEntry::seed`], typically via [`Subject::from_seed`]); passing
    /// it in lets callers attach an artifact store or fuel limit first.
    pub fn replay(&self, subject: &Subject) -> ReplayOutcome {
        let config = self.config();
        let site = SiteQuery {
            conjecture: self.conjecture,
            line: Some(self.line),
            variable: &self.variable,
            function: None,
        };
        let reproduced = subject.query(&config, &site);
        let culprit_confirmed = self.culprit.as_deref().map(|culprit| {
            if culprit == "isel" {
                subject.query(&config.clone().with_pass_budget(0), &site)
            } else {
                !subject.query(&config.clone().with_disabled_pass(culprit), &site)
            }
        });
        ReplayOutcome {
            fingerprint: self.fingerprint(),
            reproduced,
            culprit_confirmed,
        }
    }
}

/// The verdict of replaying one [`CorpusEntry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The replayed entry's fingerprint.
    pub fingerprint: ViolationFingerprint,
    /// Whether the violation still reproduces at the recorded site.
    pub reproduced: bool,
    /// Whether the recorded culprit attribution still holds (`None` when
    /// the entry records no culprit).
    pub culprit_confirmed: Option<bool>,
}

impl ReplayOutcome {
    /// Whether the entry fully re-verified: the violation reproduces and
    /// any recorded culprit attribution holds.
    pub fn passed(&self) -> bool {
        self.reproduced && self.culprit_confirmed.unwrap_or(true)
    }
}

/// Distill one observed violation into a replayable corpus entry: triage
/// the culprit pass, then reduce the program while preserving the
/// violation (and, for pass-level culprits, the attribution).
pub fn distill(subject: &Subject, config: &CompilerConfig, violation: &Violation) -> CorpusEntry {
    let outcome = triage(subject, config, violation);
    let culprit = outcome.culprits.first().cloned();
    // The reducer's oracle holds "disabling the culprit removes the
    // violation" invariant across every step — meaningful only for
    // pass-level culprits, so codegen-level ("isel") attributions reduce
    // without it and are re-checked by replay's budget-0 probe instead.
    let preserved = culprit.as_deref().filter(|c| *c != "isel");
    let reduced = reduce(subject, config, violation, preserved);
    CorpusEntry {
        seed: subject.seed,
        personality: config.personality,
        version: config.version,
        level: config.level,
        backend: config.backend,
        conjecture: violation.conjecture,
        line: violation.line,
        variable: violation.variable.to_string(),
        observed: violation.observed,
        culprit,
        original_statements: reduced.original_statements,
        reduced_statements: reduced.reduced_statements,
        reduced_source: reduced.subject.source.text.clone(),
    }
}

/// A set of corpus entries in canonical order — the in-memory form of a
/// `holes.corpus/v1` file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// The entries, ascending by canonical key, one per known violation.
    pub entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Insert an entry at its canonical position; an entry with the same
    /// identity (same seed, configuration, and site) is replaced. Returns
    /// whether the entry was new.
    pub fn add(&mut self, entry: CorpusEntry) -> bool {
        let key = entry.key();
        match self.entries.binary_search_by_key(&key, CorpusEntry::key) {
            Ok(index) => {
                self.entries[index] = entry;
                false
            }
            Err(index) => {
                self.entries.insert(index, entry);
                true
            }
        }
    }

    /// Serialize to the deterministic `holes.corpus/v1` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".to_owned(), Json::str(CORPUS_FORMAT)),
            (
                "entries".to_owned(),
                Json::Arr(self.entries.iter().map(CorpusEntry::to_json).collect()),
            ),
        ])
    }

    /// Parse and validate a document produced by [`Corpus::to_json`],
    /// rejecting unknown formats, malformed entries, and entries out of
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns a [`CorpusError`] naming the offending field or entry index.
    pub fn from_json(json: &Json) -> Result<Corpus, CorpusError> {
        let format = json
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| CorpusError("missing or non-string field `format`".into()))?;
        if format != CORPUS_FORMAT {
            return Err(CorpusError(format!(
                "unsupported format `{format}` (expected `{CORPUS_FORMAT}`)"
            )));
        }
        let raw = json
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| CorpusError("missing `entries` array".into()))?;
        let mut entries = Vec::with_capacity(raw.len());
        for (index, value) in raw.iter().enumerate() {
            let entry = CorpusEntry::from_json(value)
                .map_err(|CorpusError(m)| CorpusError(format!("entry {index}: {m}")))?;
            if entries
                .last()
                .is_some_and(|prev: &CorpusEntry| prev.key() >= entry.key())
            {
                return Err(CorpusError(format!(
                    "entry {index}: not in strictly ascending canonical order"
                )));
            }
            entries.push(entry);
        }
        Ok(Corpus { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trunk_campaign;
    use crate::subject_pool;

    fn sample_entry() -> CorpusEntry {
        CorpusEntry {
            seed: 12,
            personality: Personality::Ccg,
            version: Personality::Ccg.trunk(),
            level: OptLevel::O2,
            backend: BackendKind::Reg,
            conjecture: Conjecture::C1,
            line: 7,
            variable: "g0".to_owned(),
            observed: Observed::NotVisible,
            culprit: Some("dce".to_owned()),
            original_statements: 20,
            reduced_statements: 4,
            reduced_source: "int g0;\nint main() {\n}\n".to_owned(),
        }
    }

    #[test]
    fn corpus_round_trips_and_rejects_tampering() {
        let mut corpus = Corpus::new();
        assert!(corpus.add(sample_entry()));
        let mut other = sample_entry();
        other.seed = 3;
        other.culprit = None;
        other.backend = BackendKind::Stack;
        assert!(corpus.add(other));
        // Re-adding an existing identity replaces, preserving the count.
        assert!(!corpus.add(sample_entry()));
        assert_eq!(corpus.entries.len(), 2);
        assert_eq!(corpus.entries[0].seed, 3, "entries not in canonical order");
        let rendered = corpus.to_json().to_pretty();
        let reparsed = Corpus::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed, corpus);
        assert_eq!(reparsed.to_json().to_pretty(), rendered);
        for (needle, replacement) in [
            ("holes.corpus/v1", "holes.corpus/v0"),
            ("\"ccg\"", "\"gcc\""),
            ("\"trunk\"", "\"0.0\""),
            ("\"-O2\"", "\"-O9\""),
            ("\"stack\"", "\"quantum\""),
            ("\"C1\"", "\"C7\""),
            ("\"not-visible\"", "\"invisible\""),
            ("\"seed\": 3", "\"seed\": 12"), // duplicates entry 1's key prefix order
            ("\"reduced_statements\": 4", "\"reduced_statements\": 4000"),
        ] {
            let bad = rendered.replace(needle, replacement);
            assert_ne!(bad, rendered, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                Corpus::from_json(&parsed).is_err(),
                "tampered `{needle}` was accepted"
            );
        }
    }

    #[test]
    fn fingerprint_and_config_reconstruct_the_entry_identity() {
        let entry = sample_entry();
        assert_eq!(entry.fingerprint().to_string(), "s12:C1:L7:g0");
        let config = entry.config();
        assert_eq!(config.personality, Personality::Ccg);
        assert_eq!(config.level, OptLevel::O2);
        assert_eq!(config.version, Personality::Ccg.trunk());
    }

    #[test]
    fn distilled_entries_replay_cleanly() {
        let subjects = subject_pool(1300, 6);
        let personality = Personality::Ccg;
        let result = trunk_campaign(&subjects, personality);
        let record = result
            .records
            .first()
            .expect("seed pool produced no violations to distill");
        let config = CompilerConfig::new(personality, record.level);
        let subject = &subjects[record.subject];
        let entry = distill(subject, &config, &record.violation);
        assert_eq!(entry.seed, subject.seed);
        assert!(entry.reduced_statements <= entry.original_statements);
        assert!(!entry.reduced_source.is_empty());
        let outcome = entry.replay(&Subject::from_seed(entry.seed));
        assert!(outcome.reproduced, "distilled violation did not replay");
        assert!(
            outcome.passed(),
            "culprit attribution did not re-verify: {outcome:?}"
        );
        // Replay with the culprit pass disabled reports the violation gone.
        if let Some(culprit) = entry.culprit.as_deref().filter(|c| *c != "isel") {
            let disabled = entry.config().with_disabled_pass(culprit);
            let site = SiteQuery {
                conjecture: entry.conjecture,
                line: Some(entry.line),
                variable: &entry.variable,
                function: None,
            };
            assert!(
                !Subject::from_seed(entry.seed).query(&disabled, &site),
                "violation survived disabling its culprit"
            );
        }
    }
}
