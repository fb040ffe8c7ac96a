//! Violation campaigns: Table 1 and the Venn distributions of Figures 2–3.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::Arc;

use holes_compiler::{BackendKind, CompilerConfig, OptLevel, Personality};
use holes_core::json::Json;
use holes_core::{Conjecture, Violation};

use crate::fault::{self, FaultPolicy, SubjectFault, SubjectOutcome};
use crate::shard::CampaignSpec;
use crate::{par, CacheStats, Subject};

/// One violation found during a campaign, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Seed of the program that exposed the violation.
    pub seed: u64,
    /// Index of the subject in the campaign pool.
    pub subject: usize,
    /// Optimization level the violation was observed at.
    pub level: OptLevel,
    /// The violation itself.
    pub violation: Violation,
}

/// The result of running one personality's campaign over a pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Every violation observation (one per level it occurs at).
    pub records: Vec<ViolationRecord>,
    /// Number of programs tested.
    pub programs: usize,
    /// Levels tested.
    pub levels: Vec<OptLevel>,
    /// Subjects whose evaluation faulted and was contained (empty on the
    /// default no-fault path; see [`crate::fault`]). Faulted subjects
    /// contribute no [`ViolationRecord`]s but are counted, never dropped.
    pub faults: Vec<SubjectFault>,
}

/// A unique violation: the paper treats violations at different program lines
/// as distinct and counts one entry per (program, conjecture, line, variable)
/// across levels. The variable name is the record's shared `Arc<str>`, so
/// building a key never allocates.
pub type UniqueKey = (usize, Conjecture, u32, Arc<str>);

/// The owned unique-violation key of a record (shared by the triage and
/// report dedup paths and the streaming [`CampaignTallies`] accumulator).
pub fn unique_key(record: &ViolationRecord) -> UniqueKey {
    (
        record.subject,
        record.violation.conjecture,
        record.violation.line,
        record.violation.variable.clone(),
    )
}

/// The first record of each unique violation ([`UniqueKey`]), in record
/// order — how every consumer picks "the first N unique violations": the
/// issue report, the triage sample, and `holes corpus add`.
pub fn unique_records<'r>(
    records: impl IntoIterator<Item = &'r ViolationRecord>,
) -> impl Iterator<Item = &'r ViolationRecord> {
    let mut seen: BTreeSet<UniqueKeyRef<'r>> = BTreeSet::new();
    records
        .into_iter()
        .filter(move |record| seen.insert(unique_key_ref(record)))
}

/// [`UniqueKey`] borrowing the variable name from its record: the one-off
/// aggregation queries ([`CampaignResult::unique`], `venn`,
/// [`unique_records`]) build one key per record, so even the `Arc` bump is
/// avoidable.
type UniqueKeyRef<'a> = (usize, Conjecture, u32, &'a str);

fn unique_key_ref(record: &ViolationRecord) -> UniqueKeyRef<'_> {
    (
        record.subject,
        record.violation.conjecture,
        record.violation.line,
        record.violation.variable.as_ref(),
    )
}

/// Every aggregate the campaign renderers need, built by **one pass** over
/// the records — as a batch ([`CampaignResult::tallies`]) or incrementally
/// ([`CampaignTallies::add`]), which is how the streaming `holes report`
/// path folds shard files record-by-record without materializing them.
///
/// Memory is proportional to the number of *unique* violations (plus the
/// per-cell count table), never to the number of records. Both
/// [`CampaignResult::table1`] and [`CampaignResult::summary_json`] render
/// from one of these, so the accumulator is byte-identical to the record
/// re-scanning aggregation it replaced by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTallies {
    levels: Vec<OptLevel>,
    programs: usize,
    records: usize,
    /// `per_cell[(conjecture, level)]` — the Table 1 cells.
    per_cell: BTreeMap<(Conjecture, OptLevel), usize>,
    /// Per unique violation, the set of levels it reproduces at (drives the
    /// `unique` row, the Venn distribution, and the at-all-levels count).
    per_violation: BTreeMap<UniqueKey, BTreeSet<OptLevel>>,
    /// Per conjecture, the subjects with at least one violation.
    dirty: BTreeMap<Conjecture, BTreeSet<usize>>,
    /// Subjects whose evaluation faulted (see [`crate::fault`]); 0 on the
    /// default no-fault path.
    faulted: usize,
}

impl CampaignTallies {
    /// An empty accumulator for a campaign over `programs` subjects at
    /// `levels`.
    pub fn new(levels: Vec<OptLevel>, programs: usize) -> CampaignTallies {
        CampaignTallies {
            levels,
            programs,
            records: 0,
            per_cell: BTreeMap::new(),
            per_violation: BTreeMap::new(),
            dirty: BTreeMap::new(),
            faulted: 0,
        }
    }

    /// Fold one contained subject fault in (the streaming `holes report`
    /// path calls this per fault line).
    pub fn add_fault(&mut self) {
        self.faulted += 1;
    }

    /// Number of faulted subjects folded in.
    pub fn faulted(&self) -> usize {
        self.faulted
    }

    /// Fold one violation record in. Order-independent: any interleaving of
    /// the same records produces the same tallies.
    pub fn add(&mut self, record: &ViolationRecord) {
        self.records += 1;
        let conjecture = record.violation.conjecture;
        *self.per_cell.entry((conjecture, record.level)).or_insert(0) += 1;
        self.per_violation
            .entry(unique_key(record))
            .or_default()
            .insert(record.level);
        self.dirty
            .entry(conjecture)
            .or_default()
            .insert(record.subject);
    }

    /// Number of records folded in.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of programs the campaign covered.
    pub fn programs(&self) -> usize {
        self.programs
    }

    /// One Table 1 cell.
    pub fn count_at(&self, conjecture: Conjecture, level: OptLevel) -> usize {
        self.per_cell
            .get(&(conjecture, level))
            .copied()
            .unwrap_or(0)
    }

    /// Table 1's unique row for one conjecture.
    pub fn unique(&self, conjecture: Conjecture) -> usize {
        self.per_violation
            .keys()
            .filter(|key| key.1 == conjecture)
            .count()
    }

    /// Programs with no violation at all for a conjecture.
    pub fn clean_programs(&self, conjecture: Conjecture) -> usize {
        let dirty = self.dirty.get(&conjecture).map_or(0, BTreeSet::len);
        self.programs.saturating_sub(dirty)
    }

    /// The Venn distribution of Figures 2–3.
    pub fn venn(&self) -> BTreeMap<Vec<OptLevel>, usize> {
        let mut venn: BTreeMap<Vec<OptLevel>, usize> = BTreeMap::new();
        for levels in self.per_violation.values() {
            let key: Vec<OptLevel> = levels.iter().copied().collect();
            *venn.entry(key).or_insert(0) += 1;
        }
        venn
    }

    /// The unique violations folded in so far, in ascending [`UniqueKey`]
    /// order, each with the set of levels it reproduces at — the seam the
    /// baseline recorder ([`crate::baseline`]) and the SARIF/JUnit report
    /// emitters ([`crate::report::sarif`], [`crate::report::junit`]) read
    /// fingerprints from. Ascending key order makes every consumer
    /// deterministic by construction, independent of fold order.
    pub fn unique_violations(&self) -> impl Iterator<Item = (&UniqueKey, &BTreeSet<OptLevel>)> {
        self.per_violation.iter()
    }

    /// Violations that occur at all tested levels.
    pub fn at_all_levels(&self) -> usize {
        self.per_violation
            .values()
            .filter(|levels| levels.len() == self.levels.len())
            .count()
    }

    /// Render Table 1 (same bytes as [`CampaignResult::table1`]).
    pub fn table1(&self) -> String {
        let mut out = String::from("level      C1      C2      C3\n");
        for &level in &self.levels {
            out.push_str(&format!(
                "{:<8} {:>6} {:>6} {:>6}\n",
                level.flag(),
                self.count_at(Conjecture::C1, level),
                self.count_at(Conjecture::C2, level),
                self.count_at(Conjecture::C3, level),
            ));
        }
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>6}\n",
            "unique",
            self.unique(Conjecture::C1),
            self.unique(Conjecture::C2),
            self.unique(Conjecture::C3),
        ));
        out
    }

    /// The machine-readable summary (same bytes as
    /// [`CampaignResult::summary_json`]).
    pub fn summary_json(&self) -> Json {
        let per_conjecture = |f: &dyn Fn(Conjecture) -> usize| {
            Json::Obj(
                Conjecture::ALL
                    .iter()
                    .map(|&c| (c.to_string(), Json::from_usize(f(c))))
                    .collect(),
            )
        };
        let table1 = self
            .levels
            .iter()
            .map(|&level| {
                (
                    level.flag().to_owned(),
                    per_conjecture(&|c| self.count_at(c, level)),
                )
            })
            .collect::<Vec<_>>();
        let venn = self
            .venn()
            .into_iter()
            .map(|(levels, count)| {
                Json::Obj(vec![
                    (
                        "levels".to_owned(),
                        Json::Arr(levels.iter().map(|l| Json::str(l.flag())).collect()),
                    ),
                    ("count".to_owned(), Json::from_usize(count)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("programs".to_owned(), Json::from_usize(self.programs)),
            (
                "levels".to_owned(),
                Json::Arr(self.levels.iter().map(|l| Json::str(l.flag())).collect()),
            ),
            ("table1".to_owned(), Json::Obj(table1)),
            ("unique".to_owned(), per_conjecture(&|c| self.unique(c))),
            (
                "clean_programs".to_owned(),
                per_conjecture(&|c| self.clean_programs(c)),
            ),
            (
                "at_all_levels".to_owned(),
                Json::from_usize(self.at_all_levels()),
            ),
            ("venn".to_owned(), Json::Arr(venn)),
        ];
        // Emitted only when faults occurred, so no-fault summaries stay
        // byte-identical to the pre-containment format.
        if self.faulted > 0 {
            pairs.push(("faulted".to_owned(), Json::from_usize(self.faulted)));
        }
        Json::Obj(pairs)
    }
}

impl CampaignResult {
    /// Per-level violation counts for one conjecture (one column pair of
    /// Table 1).
    pub fn count_at(&self, conjecture: Conjecture, level: OptLevel) -> usize {
        self.records
            .iter()
            .filter(|r| r.level == level && r.violation.conjecture == conjecture)
            .count()
    }

    /// Unique violations (counted once even when they occur at several
    /// levels) for one conjecture — Table 1's last row.
    pub fn unique(&self, conjecture: Conjecture) -> usize {
        self.unique_keys(conjecture).len()
    }

    fn unique_keys(&self, conjecture: Conjecture) -> BTreeSet<UniqueKeyRef<'_>> {
        self.records
            .iter()
            .filter(|r| r.violation.conjecture == conjecture)
            .map(unique_key_ref)
            .collect()
    }

    /// Number of programs with no violation at all for a conjecture (the
    /// "no violations in N out of 1000 programs" figure of §5.1).
    pub fn clean_programs(&self, conjecture: Conjecture) -> usize {
        let dirty: BTreeSet<usize> = self
            .records
            .iter()
            .filter(|r| r.violation.conjecture == conjecture)
            .map(|r| r.subject)
            .collect();
        self.programs.saturating_sub(dirty.len())
    }

    /// The Venn distribution of Figures 2–3: for every unique violation, the
    /// set of levels it reproduces at; returns counts per level-set.
    pub fn venn(&self) -> BTreeMap<Vec<OptLevel>, usize> {
        let mut per_violation: BTreeMap<UniqueKeyRef<'_>, BTreeSet<OptLevel>> = BTreeMap::new();
        for r in &self.records {
            per_violation
                .entry(unique_key_ref(r))
                .or_default()
                .insert(r.level);
        }
        let mut venn: BTreeMap<Vec<OptLevel>, usize> = BTreeMap::new();
        for levels in per_violation.values() {
            let key: Vec<OptLevel> = levels.iter().copied().collect();
            *venn.entry(key).or_insert(0) += 1;
        }
        venn
    }

    /// Violations that occur at *all* tested levels (a headline number of
    /// §5.2).
    pub fn at_all_levels(&self) -> usize {
        self.venn()
            .iter()
            .filter(|(levels, _)| levels.len() == self.levels.len())
            .map(|(_, count)| *count)
            .sum()
    }

    /// Fold every record into a [`CampaignTallies`]: the one pass both
    /// renderers below share.
    pub fn tallies(&self) -> CampaignTallies {
        let mut tallies = CampaignTallies::new(self.levels.clone(), self.programs);
        for record in &self.records {
            tallies.add(record);
        }
        for _ in &self.faults {
            tallies.add_fault();
        }
        tallies
    }

    /// Render Table 1 rows (one per level plus the unique row) as plain
    /// text. Built from one pass over the records (see
    /// [`CampaignResult::tallies`]) instead of re-scanning them per cell.
    pub fn table1(&self) -> String {
        self.tallies().table1()
    }

    /// The machine-readable summary of the campaign: Table 1 (per-level and
    /// unique counts), the per-conjecture clean-program counts, and the
    /// Venn distribution of Figures 2–3. Deterministic — equal results
    /// always serialize to equal bytes; built from the same one-pass
    /// [`CampaignTallies`] as [`CampaignResult::table1`].
    pub fn summary_json(&self) -> Json {
        self.tallies().summary_json()
    }
}

/// One subject's records over every level, in level order — the unit of work
/// the campaign drivers and the regression studies share.
pub(crate) fn subject_records(
    subject: &Subject,
    index: usize,
    personality: Personality,
    version: usize,
    backend: BackendKind,
    levels: &[OptLevel],
) -> Vec<ViolationRecord> {
    let mut records = Vec::new();
    for &level in levels {
        let config = CompilerConfig::new(personality, level)
            .with_version(version)
            .with_backend(backend);
        for violation in subject.violations(&config) {
            records.push(ViolationRecord {
                seed: subject.seed,
                subject: index,
                level,
                violation,
            });
        }
    }
    records
}

/// How many subjects each parallel evaluation chunk covers: enough to keep
/// the worker pool saturated, small enough to bound the outcomes held in
/// memory before the sink consumes them.
fn chunk_size() -> usize {
    (par::max_workers() * 4).max(1)
}

/// Where [`evaluate`] takes its subjects from.
#[derive(Clone, Copy)]
pub(crate) enum Subjects<'a> {
    /// A prebuilt pool (whose warm caches later queries reuse); the subject
    /// at position `i` has global index `i`.
    Pool(&'a [Subject]),
    /// Made by [`Subject::from_seed`] over the spec's shard seeds whose
    /// global index is at least `from_index`.
    Seeds {
        /// The campaign whose shard seeds are evaluated.
        spec: &'a CampaignSpec,
        /// The first global subject index to evaluate (0 unless resuming).
        from_index: usize,
    },
}

/// The `(seed, global index)` jobs of an evaluation in subject order, cut
/// into the bounded chunks it evaluates in parallel.
pub(crate) fn chunks(subjects: Subjects<'_>) -> impl Iterator<Item = Vec<(u64, usize)>> + '_ {
    let mut jobs: Box<dyn Iterator<Item = (u64, usize)> + '_> = match subjects {
        Subjects::Pool(pool) => Box::new(pool.iter().map(|s| s.seed).zip(0..)),
        Subjects::Seeds { spec, from_index } => Box::new(
            spec.seeds
                .shard_seeds(spec.shards, spec.shard)
                .map(move |seed| (seed, (seed - spec.seeds.start) as usize))
                .filter(move |&(_, index)| index >= from_index),
        ),
    };
    let chunk_size = chunk_size();
    std::iter::from_fn(move || {
        let chunk: Vec<(u64, usize)> = jobs.by_ref().take(chunk_size).collect();
        (!chunk.is_empty()).then_some(chunk)
    })
}

/// The one subject evaluator every campaign operation runs on: evaluate
/// `per_subject` for each subject in bounded parallel [`chunks`], each
/// subject under [`fault::contain`] with the policy's fuel limit riding on
/// it, and hand the outcomes to `sink` in subject order. Returns the engine
/// activity of the completed subjects, or the sink's first error (which
/// stops the evaluation).
pub(crate) fn evaluate<T: Send, E>(
    subjects: Subjects<'_>,
    policy: &FaultPolicy,
    per_subject: impl Fn(&Subject, usize) -> T + Sync,
    mut sink: impl FnMut(SubjectOutcome<T>) -> Result<(), E>,
) -> Result<CacheStats, E> {
    let mut stats = CacheStats::default();
    for chunk in chunks(subjects) {
        let outcomes = par::par_map(&chunk, |_, &(seed, index)| {
            fault::contain(policy, seed, index, || {
                // A fuel limit rides on the subject; a pool subject's clone
                // shares its cache, so no artifact is recomputed.
                let subject = match subjects {
                    Subjects::Pool(pool) if policy.fuel_limit.is_none() => {
                        Cow::Borrowed(&pool[index])
                    }
                    Subjects::Pool(pool) => {
                        Cow::Owned(pool[index].clone().with_fuel_limit(policy.fuel_limit))
                    }
                    Subjects::Seeds { .. } => {
                        Cow::Owned(Subject::from_seed(seed).with_fuel_limit(policy.fuel_limit))
                    }
                };
                (per_subject(&subject, index), subject.cache_stats())
            })
        });
        for outcome in outcomes {
            sink(match outcome {
                SubjectOutcome::Completed((value, subject_stats)) => {
                    stats.absorb(subject_stats);
                    SubjectOutcome::Completed(value)
                }
                SubjectOutcome::Faulted(fault) => SubjectOutcome::Faulted(fault),
            })?;
        }
    }
    Ok(stats)
}

/// [`evaluate`] with the campaign's per-subject work: every subject's
/// violation records over the spec's levels. The classic document collects
/// this outcome sequence ([`collect_campaign`]); the JSON Lines writer
/// streams it ([`crate::stream`]).
pub(crate) fn campaign_outcomes<E>(
    subjects: Subjects<'_>,
    spec: &CampaignSpec,
    policy: &FaultPolicy,
    sink: impl FnMut(SubjectOutcome<Vec<ViolationRecord>>) -> Result<(), E>,
) -> Result<CacheStats, E> {
    let levels = spec.personality.levels();
    let per_subject = |subject: &Subject, index: usize| {
        subject_records(
            subject,
            index,
            spec.personality,
            spec.version,
            spec.backend,
            levels,
        )
    };
    evaluate(subjects, policy, per_subject, sink)
}

/// The collecting sink over [`campaign_outcomes`]: records and faults in
/// subject order, as one [`CampaignResult`] covering `programs` subjects.
pub(crate) fn collect_campaign(
    subjects: Subjects<'_>,
    spec: &CampaignSpec,
    policy: &FaultPolicy,
    programs: usize,
) -> (CampaignResult, CacheStats) {
    let mut result = CampaignResult {
        records: Vec::new(),
        programs,
        levels: spec.personality.levels().to_vec(),
        faults: Vec::new(),
    };
    let Ok(stats) = campaign_outcomes(subjects, spec, policy, |outcome| {
        match outcome {
            SubjectOutcome::Completed(records) => result.records.extend(records),
            SubjectOutcome::Faulted(fault) => result.faults.push(fault),
        }
        Ok::<(), Infallible>(())
    });
    (result, stats)
}

/// Run the campaign over a prebuilt pool: test every subject at every level
/// of the spec's personality, compiled by its version for its backend.
///
/// The pool stands in for the spec's seed range — pass its programs in seed
/// order (`subject_pool(spec.seeds.start, n)`); the subject at position `i`
/// gets index `i`. Keeping the pool lets later queries (a report's
/// classification, a reduction) reuse the subjects' warm caches. Each
/// subject is evaluated under
/// [`fault::contain`], so a panic or (under a fuel limit) a runaway program
/// becomes a [`SubjectFault`] in the result's `faults` list instead of
/// crashing the campaign. Subjects are evaluated in parallel and their
/// records reassembled in (subject, level) order, so the result — and every
/// rendered table — is byte-identical to a serial run. Also returns the
/// engine activity over the pool.
pub fn run_campaign(
    subjects: &[Subject],
    spec: &CampaignSpec,
    policy: &FaultPolicy,
) -> (CampaignResult, CacheStats) {
    debug_assert_eq!(
        subjects.len() as u64,
        spec.seeds.len(),
        "the pool must hold the spec's programs"
    );
    collect_campaign(Subjects::Pool(subjects), spec, policy, subjects.len())
}

/// The trunk campaign of `personality` over a pool made by
/// `subject_pool(base, n)`, on the default backend and policy — the
/// shorthand the crate's unit tests share.
#[cfg(test)]
pub(crate) fn trunk_campaign(subjects: &[Subject], personality: Personality) -> CampaignResult {
    let start = subjects.first().map_or(0, |s| s.seed);
    let seeds = holes_progen::SeedRange::new(start, start + subjects.len() as u64);
    let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
    run_campaign(subjects, &spec, &FaultPolicy::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject_pool;

    #[test]
    fn campaign_produces_consistent_counts() {
        let subjects = subject_pool(1000, 6);
        let result = trunk_campaign(&subjects, Personality::Ccg);
        assert_eq!(result.programs, 6);
        // Every per-level count is at least the number reflected in records.
        let mut total = 0usize;
        for c in Conjecture::ALL {
            for l in &result.levels {
                total += result.count_at(c, *l);
            }
        }
        assert_eq!(total, result.records.len());
        // Unique counts never exceed summed per-level counts.
        for c in Conjecture::ALL {
            let summed: usize = result.levels.iter().map(|l| result.count_at(c, *l)).sum();
            assert!(result.unique(c) <= summed.max(1));
            assert!(result.clean_programs(c) <= result.programs);
        }
        // The Venn distribution partitions the unique violations.
        let venn_total: usize = result.venn().values().sum();
        let unique_total: usize = Conjecture::ALL.iter().map(|c| result.unique(*c)).sum();
        assert_eq!(venn_total, unique_total);
        assert!(result.at_all_levels() <= venn_total);
        let table = result.table1();
        assert!(table.contains("unique"));
    }

    #[test]
    fn tallies_agree_with_the_record_rescanning_queries() {
        let subjects = subject_pool(1030, 8);
        for personality in [Personality::Ccg, Personality::Lcc] {
            let result = trunk_campaign(&subjects, personality);
            let tallies = result.tallies();
            assert_eq!(tallies.records(), result.records.len());
            assert_eq!(tallies.programs(), result.programs);
            for c in Conjecture::ALL {
                for &l in &result.levels {
                    assert_eq!(tallies.count_at(c, l), result.count_at(c, l), "{c} {l}");
                }
                assert_eq!(tallies.unique(c), result.unique(c), "{c}");
                assert_eq!(tallies.clean_programs(c), result.clean_programs(c), "{c}");
            }
            assert_eq!(tallies.venn(), result.venn());
            assert_eq!(tallies.at_all_levels(), result.at_all_levels());
            // The incremental accumulator is order-independent: folding the
            // records in reverse produces the same tallies (and bytes).
            let mut reversed = CampaignTallies::new(result.levels.clone(), result.programs);
            for record in result.records.iter().rev() {
                reversed.add(record);
            }
            assert_eq!(reversed.table1(), result.table1());
            assert_eq!(
                reversed.summary_json().to_pretty(),
                result.summary_json().to_pretty()
            );
            assert_ne!(reversed.records(), 0, "campaign produced no records");
        }
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let subjects = subject_pool(1020, 8);
        for personality in [Personality::Ccg, Personality::Lcc] {
            // Fresh caches per driver so neither run can borrow the other's
            // artifacts.
            let fresh: Vec<Subject> = subjects.iter().map(Subject::with_fresh_cache).collect();
            let parallel = trunk_campaign(&fresh, personality);
            // The serial reference: a plain loop over the oracle.
            let mut serial = Vec::new();
            for (index, subject) in subjects.iter().enumerate() {
                for &level in personality.levels() {
                    let config =
                        CompilerConfig::new(personality, level).with_version(personality.trunk());
                    for violation in subject.violations(&config) {
                        serial.push(ViolationRecord {
                            seed: subject.seed,
                            subject: index,
                            level,
                            violation,
                        });
                    }
                }
            }
            assert_eq!(parallel.records, serial);
        }
    }

    #[test]
    fn defect_free_version_would_be_clean() {
        let subjects = subject_pool(1010, 3);
        for subject in &subjects {
            for &level in Personality::Ccg.levels() {
                let cfg = CompilerConfig::new(Personality::Ccg, level).without_defects();
                assert!(
                    subject.violations(&cfg).is_empty(),
                    "defect-free compiler produced violations"
                );
            }
        }
    }
}
