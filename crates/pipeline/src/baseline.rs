//! Baseline regression gating: snapshot a campaign's unique-violation set
//! and diff later runs against it — the paper's §5.4 regression study
//! turned into a CI gate.
//!
//! A [`Baseline`] is the set of [`ViolationFingerprint`]s of one run,
//! persisted as a deterministic `holes.baseline/v1` document
//! ([`BASELINE_FORMAT`]). Fingerprints are keyed by the *absolute seed* (not
//! the shard-local subject index), so baselines recorded from different
//! shardings — or diffed across grown seed ranges and different compiler
//! versions — compare meaningfully. Because the set is stored sorted and the
//! serializer is deterministic, a baseline recorded from `K` shard files is
//! **byte-identical** to one recorded from the unsharded run: the fold order
//! of [`crate::campaign::CampaignTallies`] never leaks into the bytes.
//!
//! [`Baseline::diff`] partitions a later run's violations into *known*
//! (present in both), *new* (only in the run), and *fixed* (only in the
//! baseline). Only *new* violations gate: the `holes baseline diff` CLI
//! exits 3 when the `new` partition is non-empty, and renders the diff as
//! text, JSON (`holes.baseline-diff/v1`), SARIF, or JUnit (see
//! [`crate::report::sarif`] and [`crate::report::junit`]).

use std::collections::BTreeSet;

use holes_compiler::{BackendKind, Personality};
use holes_core::json::Json;
use holes_core::Conjecture;
use holes_progen::SeedRange;

use crate::campaign::CampaignTallies;
use crate::report::junit::{junit_xml, CaseOutcome, TestCase};
use crate::report::sarif::{sarif_log, SarifResult};
use crate::shard::CampaignSpec;

/// The identifying `format` value of a baseline file.
pub const BASELINE_FORMAT: &str = "holes.baseline/v1";

/// The identifying `format` value of a baseline-diff JSON document.
pub const BASELINE_DIFF_FORMAT: &str = "holes.baseline-diff/v1";

/// The identity of one unique violation across processes and shardings:
/// the absolute generator seed plus the (conjecture, line, variable) site —
/// exactly the information of a [`crate::campaign::UniqueKey`] with the
/// shard-relative subject index rebased to the seed.
///
/// The canonical spelling is `s<seed>:<conjecture>:L<line>:<variable>`
/// (for example `s12:C1:L7:g0`); [`std::fmt::Display`] renders it and
/// [`std::str::FromStr`] parses it back losslessly (the variable name is
/// the remainder after the third `:`, so any identifier round-trips).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViolationFingerprint {
    /// Generator seed of the exposing program.
    pub seed: u64,
    /// The violated conjecture.
    pub conjecture: Conjecture,
    /// The violating source line.
    pub line: u32,
    /// The affected variable's source name.
    pub variable: String,
}

impl std::fmt::Display for ViolationFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "s{}:{}:L{}:{}",
            self.seed, self.conjecture, self.line, self.variable
        )
    }
}

impl std::str::FromStr for ViolationFingerprint {
    type Err = BaselineError;

    fn from_str(s: &str) -> Result<ViolationFingerprint, BaselineError> {
        let bad = || BaselineError(format!("malformed violation fingerprint `{s}`"));
        let mut parts = s.splitn(4, ':');
        let seed = parts
            .next()
            .and_then(|p| p.strip_prefix('s'))
            .and_then(|p| p.parse().ok())
            .ok_or_else(bad)?;
        let conjecture = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let line = parts
            .next()
            .and_then(|p| p.strip_prefix('L'))
            .and_then(|p| p.parse().ok())
            .ok_or_else(bad)?;
        let variable = parts.next().filter(|v| !v.is_empty()).ok_or_else(bad)?;
        Ok(ViolationFingerprint {
            seed,
            conjecture,
            line,
            variable: variable.to_owned(),
        })
    }
}

/// Why a baseline file, fingerprint, or diff request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError(pub String);

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed baseline: {}", self.0)
    }
}

impl std::error::Error for BaselineError {}

/// One recorded unique-violation set: the snapshot `holes baseline record`
/// writes and `holes baseline diff` compares against.
///
/// A baseline deliberately carries **no shard fields**: it describes the
/// merged campaign, so recording from any complete sharding produces the
/// same document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// The compiler personality the run tested.
    pub personality: Personality,
    /// Index into [`Personality::version_names`].
    pub version: usize,
    /// The seed range the run covered.
    pub seeds: SeedRange,
    /// The backend the run compiled for.
    pub backend: BackendKind,
    /// The unique violations, keyed by fingerprint.
    pub fingerprints: BTreeSet<ViolationFingerprint>,
}

impl Baseline {
    /// Snapshot a merged campaign's unique-violation set: every
    /// [`crate::campaign::UniqueKey`] of the tallies, rebased from the
    /// subject index to the absolute seed of `spec`'s range.
    pub fn from_tallies(spec: &CampaignSpec, tallies: &CampaignTallies) -> Baseline {
        let fingerprints = tallies
            .unique_violations()
            .map(
                |((subject, conjecture, line, variable), _)| ViolationFingerprint {
                    seed: spec.seeds.start + *subject as u64,
                    conjecture: *conjecture,
                    line: *line,
                    variable: variable.to_string(),
                },
            )
            .collect();
        Baseline {
            personality: spec.personality,
            version: spec.version,
            seeds: spec.seeds,
            backend: spec.backend,
            fingerprints,
        }
    }

    /// Serialize to the deterministic `holes.baseline/v1` document:
    /// fingerprints in ascending canonical order, the `backend` field only
    /// when non-default (matching the shard-header convention).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("format".to_owned(), Json::str(BASELINE_FORMAT)),
            ("personality".to_owned(), Json::str(self.personality.name())),
            (
                "compiler_version".to_owned(),
                Json::str(self.personality.version_names()[self.version]),
            ),
            ("seeds".to_owned(), Json::str(self.seeds.to_string())),
        ];
        if self.backend != BackendKind::Reg {
            pairs.push(("backend".to_owned(), Json::str(self.backend.name())));
        }
        pairs.push((
            "fingerprints".to_owned(),
            Json::Arr(
                self.fingerprints
                    .iter()
                    .map(|fp| Json::str(fp.to_string()))
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }

    /// Parse and validate a document produced by [`Baseline::to_json`].
    ///
    /// Beyond field syntax this checks that every fingerprint parses, that
    /// its seed lies inside the recorded range, and that the list is
    /// strictly ascending in canonical order — rejecting duplicated,
    /// reordered, or injected fingerprints that would silently skew a diff.
    ///
    /// # Errors
    ///
    /// Returns a [`BaselineError`] naming the offending field or fingerprint
    /// index.
    pub fn from_json(json: &Json) -> Result<Baseline, BaselineError> {
        let str_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| BaselineError(format!("missing or non-string field `{key}`")))
        };
        let format = str_field("format")?;
        if format != BASELINE_FORMAT {
            return Err(BaselineError(format!(
                "unsupported format `{format}` (expected `{BASELINE_FORMAT}`)"
            )));
        }
        let personality: Personality = str_field("personality")?
            .parse()
            .map_err(|_| BaselineError("malformed field `personality`".into()))?;
        let version_name = str_field("compiler_version")?;
        let version = personality.version_index(version_name).ok_or_else(|| {
            BaselineError(format!("unknown {personality} version `{version_name}`"))
        })?;
        let seeds: SeedRange = str_field("seeds")?
            .parse()
            .map_err(|_| BaselineError("malformed field `seeds`".into()))?;
        let backend = match json.get("backend") {
            None => BackendKind::Reg,
            Some(value) => value
                .as_str()
                .and_then(|name| name.parse().ok())
                .ok_or_else(|| BaselineError("malformed field `backend`".into()))?,
        };
        let raw = json
            .get("fingerprints")
            .and_then(Json::as_arr)
            .ok_or_else(|| BaselineError("missing `fingerprints` array".into()))?;
        let mut fingerprints = BTreeSet::new();
        let mut previous: Option<ViolationFingerprint> = None;
        for (index, value) in raw.iter().enumerate() {
            let text = value
                .as_str()
                .ok_or_else(|| BaselineError(format!("fingerprint {index}: not a string")))?;
            let fp: ViolationFingerprint = text
                .parse()
                .map_err(|BaselineError(m)| BaselineError(format!("fingerprint {index}: {m}")))?;
            if !seeds.contains(fp.seed) {
                return Err(BaselineError(format!(
                    "fingerprint {index}: seed {} is outside the recorded range {seeds}",
                    fp.seed
                )));
            }
            if previous.as_ref().is_some_and(|prev| *prev >= fp) {
                return Err(BaselineError(format!(
                    "fingerprint {index}: not in strictly ascending canonical order"
                )));
            }
            previous = Some(fp.clone());
            fingerprints.insert(fp);
        }
        Ok(Baseline {
            personality,
            version,
            seeds,
            backend,
            fingerprints,
        })
    }

    /// Partition a later run's violations against this baseline into known,
    /// new, and fixed fingerprints (each list in ascending canonical order).
    ///
    /// The runs must share the personality and backend; the seed range and
    /// compiler version **may** differ — growing the range and bumping the
    /// version are exactly the §5.4 regression axes the diff exists to
    /// gate.
    ///
    /// # Errors
    ///
    /// Returns a [`BaselineError`] when the runs' personalities or backends
    /// differ.
    pub fn diff(&self, run: &Baseline) -> Result<BaselineDiff, BaselineError> {
        if self.personality != run.personality {
            return Err(BaselineError(format!(
                "cannot diff {} baseline against {} run",
                self.personality.name(),
                run.personality.name()
            )));
        }
        if self.backend != run.backend {
            return Err(BaselineError(format!(
                "cannot diff {} baseline against {} run",
                self.backend.name(),
                run.backend.name()
            )));
        }
        let known = run
            .fingerprints
            .intersection(&self.fingerprints)
            .cloned()
            .collect();
        let new = run
            .fingerprints
            .difference(&self.fingerprints)
            .cloned()
            .collect();
        let fixed = self
            .fingerprints
            .difference(&run.fingerprints)
            .cloned()
            .collect();
        Ok(BaselineDiff {
            personality: self.personality,
            backend: self.backend,
            baseline_version: self.personality.version_names()[self.version].to_owned(),
            run_version: run.personality.version_names()[run.version].to_owned(),
            baseline_seeds: self.seeds,
            run_seeds: run.seeds,
            known,
            new,
            fixed,
        })
    }
}

/// The outcome of [`Baseline::diff`]: a later run's violations partitioned
/// against a recorded baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDiff {
    /// The shared personality of the two runs.
    pub personality: Personality,
    /// The shared backend of the two runs.
    pub backend: BackendKind,
    /// Version name of the baseline run.
    pub baseline_version: String,
    /// Version name of the later run.
    pub run_version: String,
    /// Seed range of the baseline run.
    pub baseline_seeds: SeedRange,
    /// Seed range of the later run.
    pub run_seeds: SeedRange,
    /// Violations present in both the baseline and the run.
    pub known: Vec<ViolationFingerprint>,
    /// Violations present only in the run: the regressions that gate.
    pub new: Vec<ViolationFingerprint>,
    /// Violations present only in the baseline: no longer reproducing.
    pub fixed: Vec<ViolationFingerprint>,
}

impl BaselineDiff {
    /// Whether the diff contains new violations — the (only) condition the
    /// CLI gate fails on.
    pub fn has_regressions(&self) -> bool {
        !self.new.is_empty()
    }

    /// The `, backend stack` suffix of the text header; empty on the
    /// default backend.
    fn backend_suffix(&self) -> String {
        if self.backend == BackendKind::Reg {
            String::new()
        } else {
            format!(", backend {}", self.backend.name())
        }
    }

    /// Render the diff as plain text: a header, the partition counts, and
    /// the new (and fixed) fingerprints, one per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "baseline diff: {}{}, baseline {} seeds {}, run {} seeds {}\n\
             known: {}\nnew: {}\nfixed: {}\n",
            self.personality.name(),
            self.backend_suffix(),
            self.baseline_version,
            self.baseline_seeds,
            self.run_version,
            self.run_seeds,
            self.known.len(),
            self.new.len(),
            self.fixed.len(),
        );
        if !self.new.is_empty() {
            out.push_str("\nnew violations (not in baseline):\n");
            for fp in &self.new {
                out.push_str(&format!("  {fp}\n"));
            }
        }
        if !self.fixed.is_empty() {
            out.push_str("\nfixed violations (no longer reproducing):\n");
            for fp in &self.fixed {
                out.push_str(&format!("  {fp}\n"));
            }
        }
        out
    }

    /// The machine-readable diff (`holes.baseline-diff/v1`). Deterministic —
    /// equal diffs always serialize to equal bytes.
    pub fn to_json(&self) -> Json {
        let list = |fps: &[ViolationFingerprint]| {
            Json::Arr(fps.iter().map(|fp| Json::str(fp.to_string())).collect())
        };
        let mut pairs = vec![
            ("format".to_owned(), Json::str(BASELINE_DIFF_FORMAT)),
            ("personality".to_owned(), Json::str(self.personality.name())),
        ];
        if self.backend != BackendKind::Reg {
            pairs.push(("backend".to_owned(), Json::str(self.backend.name())));
        }
        pairs.extend([
            (
                "baseline_version".to_owned(),
                Json::str(&self.baseline_version),
            ),
            ("run_version".to_owned(), Json::str(&self.run_version)),
            (
                "baseline_seeds".to_owned(),
                Json::str(self.baseline_seeds.to_string()),
            ),
            (
                "run_seeds".to_owned(),
                Json::str(self.run_seeds.to_string()),
            ),
            (
                "counts".to_owned(),
                Json::Obj(vec![
                    ("known".to_owned(), Json::from_usize(self.known.len())),
                    ("new".to_owned(), Json::from_usize(self.new.len())),
                    ("fixed".to_owned(), Json::from_usize(self.fixed.len())),
                ]),
            ),
            ("known".to_owned(), list(&self.known)),
            ("new".to_owned(), list(&self.new)),
            ("fixed".to_owned(), list(&self.fixed)),
        ]);
        Json::Obj(pairs)
    }

    /// The diff as a SARIF 2.1.0 log: one `error`-level result per **new**
    /// violation (known and fixed fingerprints stay out of the results, so
    /// a code-scanning upload flags exactly the regressions).
    pub fn sarif(&self) -> Json {
        let results: Vec<SarifResult> = self
            .new
            .iter()
            .map(|fp| SarifResult {
                rule: fp.conjecture,
                level: "error",
                message: format!(
                    "new {} violation not in baseline: variable `{}` at line {} of seed {} \
                     ({} {}{})",
                    fp.conjecture,
                    fp.variable,
                    fp.line,
                    fp.seed,
                    self.personality.name(),
                    self.run_version,
                    self.backend_suffix(),
                ),
                uri: format!("seed-{}.minic", fp.seed),
                line: fp.line,
                fingerprint: fp.to_string(),
            })
            .collect();
        sarif_log(&results)
    }

    /// The diff as a JUnit XML report: one test case per fingerprint —
    /// known pass, new fail, fixed skip — so any CI test-summary UI shows
    /// the gate's verdict per violation.
    pub fn junit(&self) -> String {
        let case = |fp: &ViolationFingerprint, outcome: CaseOutcome| TestCase {
            classname: format!("holes.{}", fp.conjecture),
            name: fp.to_string(),
            outcome,
        };
        let mut cases: Vec<TestCase> = Vec::new();
        cases.extend(self.known.iter().map(|fp| case(fp, CaseOutcome::Passed)));
        cases.extend(self.new.iter().map(|fp| {
            case(
                fp,
                CaseOutcome::Failed {
                    message: format!("new violation not in baseline: {fp}"),
                },
            )
        }));
        cases.extend(self.fixed.iter().map(|fp| {
            case(
                fp,
                CaseOutcome::Skipped {
                    message: format!("fixed: no longer reproduces: {fp}"),
                },
            )
        }));
        junit_xml("baseline-diff", &cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_shard;
    use crate::FaultPolicy;

    fn fp(seed: u64, conjecture: Conjecture, line: u32, variable: &str) -> ViolationFingerprint {
        ViolationFingerprint {
            seed,
            conjecture,
            line,
            variable: variable.to_owned(),
        }
    }

    fn baseline(seeds: SeedRange, fps: &[ViolationFingerprint]) -> Baseline {
        Baseline {
            personality: Personality::Ccg,
            version: Personality::Ccg.trunk(),
            seeds,
            backend: BackendKind::Reg,
            fingerprints: fps.iter().cloned().collect(),
        }
    }

    #[test]
    fn fingerprints_round_trip_through_their_spelling() {
        let original = fp(12, Conjecture::C1, 7, "g0");
        assert_eq!(original.to_string(), "s12:C1:L7:g0");
        assert_eq!(
            "s12:C1:L7:g0".parse::<ViolationFingerprint>().unwrap(),
            original
        );
        for bad in [
            "",
            "s12",
            "12:C1:L7:g0",
            "s12:C9:L7:g0",
            "s12:C1:7:g0",
            "s12:C1:L7:",
        ] {
            assert!(
                bad.parse::<ViolationFingerprint>().is_err(),
                "`{bad}` was accepted"
            );
        }
    }

    #[test]
    fn baselines_round_trip_and_reject_tampering() {
        let original = baseline(
            SeedRange::new(10, 20),
            &[
                fp(12, Conjecture::C1, 7, "g0"),
                fp(12, Conjecture::C2, 9, "l1"),
                fp(15, Conjecture::C3, 3, "g2"),
            ],
        );
        let rendered = original.to_json().to_pretty();
        let reparsed = Baseline::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed, original);
        assert_eq!(reparsed.to_json().to_pretty(), rendered);
        for (needle, replacement) in [
            ("holes.baseline/v1", "holes.baseline/v0"),
            ("\"ccg\"", "\"gcc\""),
            ("\"trunk\"", "\"99\""),
            ("\"10..20\"", "\"20..10\""),
            ("s12:C1:L7:g0", "s99:C1:L7:g0"), // seed outside range
            ("s15:C3:L3:g2", "s12:C1:L7:g0"), // duplicate / reordered
            ("s12:C2:L9:l1", "s12:C2:L9000000000000000000:l1"), // overflow
        ] {
            let bad = rendered.replace(needle, replacement);
            assert_ne!(bad, rendered, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                Baseline::from_json(&parsed).is_err(),
                "tampered `{needle}` was accepted"
            );
        }
    }

    #[test]
    fn diff_partitions_known_new_and_fixed() {
        let old = baseline(
            SeedRange::new(0, 10),
            &[fp(1, Conjecture::C1, 5, "a"), fp(2, Conjecture::C2, 6, "b")],
        );
        let new_run = baseline(
            SeedRange::new(0, 11),
            &[
                fp(1, Conjecture::C1, 5, "a"),
                fp(10, Conjecture::C3, 2, "c"),
            ],
        );
        let diff = old.diff(&new_run).unwrap();
        assert_eq!(diff.known, vec![fp(1, Conjecture::C1, 5, "a")]);
        assert_eq!(diff.new, vec![fp(10, Conjecture::C3, 2, "c")]);
        assert_eq!(diff.fixed, vec![fp(2, Conjecture::C2, 6, "b")]);
        assert!(diff.has_regressions());
        let text = diff.render();
        assert!(text.contains("known: 1"));
        assert!(text.contains("s10:C3:L2:c"));
        let json = diff.to_json().to_pretty();
        assert!(json.contains("holes.baseline-diff/v1"));
        assert!(json.contains("s10:C3:L2:c"));
        // The identity diff is all-known.
        let same = old.diff(&old).unwrap();
        assert!(!same.has_regressions());
        assert!(same.new.is_empty() && same.fixed.is_empty());
        assert_eq!(same.known.len(), 2);
    }

    #[test]
    fn diff_rejects_mismatched_personality_or_backend() {
        let ccg = baseline(SeedRange::new(0, 5), &[]);
        let mut lcc = ccg.clone();
        lcc.personality = Personality::Lcc;
        lcc.version = Personality::Lcc.trunk();
        assert!(ccg.diff(&lcc).is_err());
        let mut stack = ccg.clone();
        stack.backend = BackendKind::Stack;
        assert!(ccg.diff(&stack).is_err());
    }

    #[test]
    fn sharded_recording_is_byte_identical_to_unsharded() {
        let range = SeedRange::new(2500, 2512);
        let spec = CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range);
        let monolithic = run_shard(&spec, &FaultPolicy::default()).unwrap().0;
        let reference = Baseline::from_tallies(&spec, &monolithic.result.tallies());
        assert!(
            !reference.fingerprints.is_empty(),
            "range produced no violations to baseline"
        );
        for shards in [2u64, 3] {
            // Fold the shards' records into one accumulator in reverse shard
            // order — the bytes must not notice.
            let mut tallies = crate::campaign::CampaignTallies::new(
                spec.personality.levels().to_vec(),
                range.len() as usize,
            );
            for index in (0..shards).rev() {
                let shard = run_shard(
                    &spec.clone().with_shard(shards, index),
                    &FaultPolicy::default(),
                )
                .unwrap()
                .0;
                for record in &shard.result.records {
                    tallies.add(record);
                }
            }
            let sharded = Baseline::from_tallies(&spec, &tallies);
            assert_eq!(
                sharded.to_json().to_pretty(),
                reference.to_json().to_pretty(),
                "K={shards}"
            );
        }
    }
}
