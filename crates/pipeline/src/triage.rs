//! Culprit-optimization triage (§4.3, Table 2).
//!
//! For the clang-like personality we use the native incremental bisection
//! (`-opt-bisect-limit` analogue): binary-search the pass-prefix budget for
//! the first pass whose execution makes the violation appear. For the
//! gcc-like personality, which cannot be run incrementally, we use the
//! paper's flag-search method: recompile with each `-fno-<pass>` flag and
//! report the flags whose disabling makes the violation disappear.
//!
//! Both methods drive [`Subject::violation_occurs`] — the targeted,
//! cache-backed oracle — so a triage query costs one compile + trace the
//! first time a configuration is seen and a hash lookup afterwards. The
//! bisection needs O(log n) oracle queries instead of the linear scan's
//! O(n) (the scan is kept as [`bisect_linear`], and tests hold the two to
//! identical culprits); the flag search probes its flags one at a time.
//!
//! Budget probes are additionally (nearly) **compile-free**: a pass-budget
//! configuration is a strict prefix of its base pipeline, so the subject's
//! cache derives its executable from the recorded pass-prefix snapshots by
//! code generation alone (see [`holes_compiler::PassSnapshots`] and
//! `CacheStats::codegen_only`) — a whole bisection, probing a dozen
//! budgets, runs the optimization pipeline exactly once.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

use holes_compiler::{BackendKind, CompilerConfig, Personality};
use holes_core::json::Json;
use holes_core::{Conjecture, Violation};

use crate::campaign::{
    chunks, evaluate, subject_records, unique_key, Subjects, UniqueKey, ViolationRecord,
};
use crate::fault::{self, FaultPolicy, SubjectFault, SubjectOutcome};
use crate::shard::{parse_levels, parse_spec_header, spec_header_pairs, CampaignSpec, ShardError};
use crate::{par, CacheStats, Subject};

/// The outcome of triaging one violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageOutcome {
    /// The passes identified as (potentially jointly) responsible.
    pub culprits: Vec<String>,
    /// How the culprit was found.
    pub method: TriageMethod,
}

/// Which triage method produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriageMethod {
    /// Incremental pass bisection (clang-like).
    Bisection,
    /// Per-flag disabling search (gcc-like).
    FlagSearch,
}

/// Triage one violation found on `subject` under `config`.
pub fn triage(subject: &Subject, config: &CompilerConfig, violation: &Violation) -> TriageOutcome {
    match config.personality {
        Personality::Lcc => bisect(subject, config, violation),
        Personality::Ccg => flag_search(subject, config, violation),
    }
}

/// Find the first pass prefix at which the violation appears, by binary
/// search over the pass budget.
///
/// Monotonicity is what makes the binary search sound: an IR-level defect
/// fires when its pass runs and nothing downstream repairs debug
/// information, so once a violation has appeared at some prefix it persists
/// at every longer prefix. Debug builds assert this over the whole budget
/// range (cheap, because every probed budget is already memoized by the
/// subject's artifact cache).
///
/// Backends with **codegen-level** defects (the stack backend's spill-loss
/// class) break the assumption: which bindings spill depends on the
/// post-pipeline IR, so a violation can appear at budget `k` and vanish at
/// `k + 1`. For those configurations this function delegates to the linear
/// reference scan, whose "first budget at which the violation appears"
/// semantics are well defined for any predicate.
pub fn bisect(subject: &Subject, config: &CompilerConfig, violation: &Violation) -> TriageOutcome {
    if config.backend != BackendKind::Reg {
        return bisect_linear(subject, config, violation);
    }
    let schedule = config.pass_schedule();
    let passes = schedule.len();
    let occurs = |budget: usize| {
        // A budget covering the whole schedule is the unbudgeted pipeline;
        // probing it as the original configuration reuses the campaign's
        // cached artifacts instead of re-keying them under `Some(len)`.
        let candidate = if budget >= passes && config.pass_budget.is_none() {
            config.clone()
        } else {
            config.clone().with_pass_budget(budget)
        };
        subject.violation_occurs(&candidate, violation)
    };
    if !occurs(passes) {
        // The violation does not reproduce even with the full pipeline
        // budget; nothing to attribute.
        return TriageOutcome {
            culprits: Vec::new(),
            method: TriageMethod::Bisection,
        };
    }
    // Invariant: occurs(high); low is the smallest budget not yet ruled out.
    let (mut low, mut high) = (0usize, passes);
    while low < high {
        let mid = low + (high - low) / 2;
        if occurs(mid) {
            high = mid;
        } else {
            low = mid + 1;
        }
    }
    debug_assert!(
        (0..=passes).all(|budget| occurs(budget) == (budget >= high)),
        "violation appearance is not monotone in the pass budget"
    );
    let culprit = if high == 0 {
        // Present before any optimization pass ran: instruction selection.
        "isel".to_owned()
    } else {
        schedule[high - 1].to_owned()
    };
    TriageOutcome {
        culprits: vec![culprit],
        method: TriageMethod::Bisection,
    }
}

/// The linear-scan reference implementation of [`bisect`]: try every prefix
/// budget from 0 up and report the first at which the violation appears.
/// O(n) oracle queries; kept for the equivalence tests and benchmarks.
pub fn bisect_linear(
    subject: &Subject,
    config: &CompilerConfig,
    violation: &Violation,
) -> TriageOutcome {
    let schedule = config.pass_schedule();
    for budget in 0..=schedule.len() {
        // A budget covering the whole schedule is the unbudgeted pipeline;
        // probing it as the original configuration reuses cached artifacts
        // (and, on backends with codegen-level defects, guarantees the last
        // probe reproduces the campaign's observation exactly).
        let candidate = if budget >= schedule.len() && config.pass_budget.is_none() {
            config.clone()
        } else {
            config.clone().with_pass_budget(budget)
        };
        if subject.violation_occurs(&candidate, violation) {
            let culprit = if budget == 0 {
                "isel".to_owned()
            } else {
                schedule[budget - 1].to_owned()
            };
            return TriageOutcome {
                culprits: vec![culprit],
                method: TriageMethod::Bisection,
            };
        }
    }
    TriageOutcome {
        culprits: Vec::new(),
        method: TriageMethod::Bisection,
    }
}

/// Disable each flag in turn; every flag whose disabling removes the
/// violation is reported (the method can identify multiple flags because of
/// pass dependencies, as the paper notes). The probes run serially, in
/// schedule order: a probe that exhausts a fuel limit then faults at its
/// own `trace` stage and at the same point on every run, which probes
/// fanned out over threads cannot promise.
///
/// When no flag removes the violation, one extra probe with an empty pass
/// pipeline decides whether the violation comes from code generation
/// itself: if it still reproduces with every optimization disabled, the
/// culprit is `"isel"` — the attribution the stack backend's spill-loss
/// defects need, since they live outside the flaggable pass schedule. (On
/// the register backend the probe never fires: every defect there is
/// pass-gated, so a zero-pass compilation is violation-free.)
fn flag_search(subject: &Subject, config: &CompilerConfig, violation: &Violation) -> TriageOutcome {
    let mut culprits: Vec<String> = config
        .triage_flags()
        .into_iter()
        .filter(|flag| {
            let candidate = config.clone().with_disabled_pass(flag);
            !subject.violation_occurs(&candidate, violation)
        })
        .map(str::to_owned)
        .collect();
    if culprits.is_empty()
        && subject.violation_occurs(&config.clone().with_pass_budget(0), violation)
    {
        culprits.push("isel".to_owned());
    }
    TriageOutcome {
        culprits,
        method: TriageMethod::FlagSearch,
    }
}

/// Table 2: for each conjecture, how many triaged violations are attributed
/// to each pass, sorted by frequency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriageTable {
    /// `counts[conjecture][pass] = number of violations attributed to it`.
    pub counts: BTreeMap<Conjecture, BTreeMap<String, usize>>,
}

impl TriageTable {
    /// The top-`n` passes for a conjecture, most frequent first.
    pub fn top(&self, conjecture: Conjecture, n: usize) -> Vec<(String, usize)> {
        let mut entries: Vec<(String, usize)> = self
            .counts
            .get(&conjecture)
            .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(n);
        entries
    }

    /// Fold another table's counts into this one (the triage-shard merge
    /// primitive: attribution counts are additive across disjoint seed
    /// sets).
    pub fn absorb(&mut self, other: TriageTable) {
        for (conjecture, passes) in other.counts {
            let into = self.counts.entry(conjecture).or_default();
            for (pass, count) in passes {
                *into.entry(pass).or_insert(0) += count;
            }
        }
    }

    /// Count one triaged violation of `conjecture` against each culprit.
    fn attribute(&mut self, conjecture: Conjecture, culprits: Vec<String>) {
        for culprit in culprits {
            *self
                .counts
                .entry(conjecture)
                .or_default()
                .entry(culprit)
                .or_insert(0) += 1;
        }
    }

    /// Number of distinct passes (or flag combinations) identified.
    pub fn distinct_culprits(&self) -> usize {
        let all: BTreeSet<&String> = self.counts.values().flat_map(|m| m.keys()).collect();
        all.len()
    }

    /// Render as plain text (one block per conjecture), like Table 2.
    pub fn render(&self, n: usize) -> String {
        let mut out = String::new();
        for conjecture in Conjecture::ALL {
            out.push_str(&format!("{conjecture}:\n"));
            for (pass, count) in self.top(conjecture, n) {
                out.push_str(&format!("  {pass:<22} {count}\n"));
            }
        }
        out
    }

    /// The machine-readable Table 2: per conjecture, every culprit pass with
    /// its attribution count, most frequent first. Deterministic — equal
    /// tables always serialize to equal bytes.
    pub fn to_json(&self) -> Json {
        let per_conjecture = Conjecture::ALL
            .iter()
            .map(|&conjecture| {
                let passes = self
                    .top(conjecture, usize::MAX)
                    .into_iter()
                    .map(|(pass, count)| {
                        Json::Obj(vec![
                            ("pass".to_owned(), Json::str(pass)),
                            ("count".to_owned(), Json::from_usize(count)),
                        ])
                    })
                    .collect();
                (conjecture.to_string(), Json::Arr(passes))
            })
            .collect();
        Json::Obj(vec![
            ("format".to_owned(), Json::str("holes.triage/v1")),
            ("culprits".to_owned(), Json::Obj(per_conjecture)),
        ])
    }
}

/// The records of `records` a triage samples: in record order, each
/// violation not seen before in this call whose conjecture has fewer than
/// `limit` samples in `taken`. `taken` carries the per-conjecture quota
/// across calls, so sampling subject after subject selects exactly what one
/// call over all their records would — a [`UniqueKey`] names its subject,
/// so no key repeats across subjects.
fn sample<'r>(
    records: &'r [ViolationRecord],
    limit: usize,
    taken: &mut BTreeMap<Conjecture, usize>,
) -> Vec<&'r ViolationRecord> {
    let mut seen: BTreeSet<UniqueKey> = BTreeSet::new();
    records
        .iter()
        .filter(|record| {
            let taken = taken.entry(record.violation.conjecture).or_insert(0);
            if *taken >= limit || !seen.insert(unique_key(record)) {
                return false;
            }
            *taken += 1;
            true
        })
        .collect()
}

/// Triage one record of the campaign `spec` on its subject.
fn triage_record(
    subject: &Subject,
    spec: &CampaignSpec,
    record: &ViolationRecord,
) -> TriageOutcome {
    let config = CompilerConfig::new(spec.personality, record.level)
        .with_version(spec.version)
        .with_backend(spec.backend);
    triage(subject, &config, &record.violation)
}

/// Everything a monolithic [`triage_campaign`] produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriageRun {
    /// Table 2's attribution counts.
    pub table: TriageTable,
    /// Subjects whose campaign evaluation faulted, in subject order; they
    /// contribute no violations to the sample.
    pub campaign_faults: Vec<SubjectFault>,
    /// Sampled violations whose triage faulted, in selection order; they
    /// contribute nothing to the table.
    pub triage_faults: Vec<SubjectFault>,
    /// The engine activity of every subject — campaign and triage work,
    /// faulted subjects included.
    pub stats: CacheStats,
}

/// Run the campaign of `spec` and triage a sample of its unique violations:
/// Table 2.
///
/// `per_conjecture_limit` bounds how many violations are triaged for each
/// conjecture (triage is the most expensive stage, as the paper also notes:
/// ~20 minutes per program for gcc). The sample is global: the first
/// `limit` unique violations per conjecture in record order over the whole
/// range.
///
/// The range streams through the campaign evaluator's bounded chunks: each
/// chunk's subjects are generated and campaigned in parallel, sampled
/// in subject order against the running quota (a subject's share depends
/// only on earlier subjects), triaged in parallel, and dropped — so memory
/// stays constant however long the range. A subject is generated outside
/// containment, with the fuel limit riding on it, so its cache and its
/// statistics survive a faulted or retried evaluation. Its campaign runs
/// under [`fault::contain`], and so does each sampled violation's triage: a
/// panicking or fuel-exhausted evaluation becomes a [`SubjectFault`]
/// instead of tearing down the run.
pub fn triage_campaign(
    spec: &CampaignSpec,
    per_conjecture_limit: usize,
    policy: &FaultPolicy,
) -> TriageRun {
    let levels = spec.personality.levels();
    let mut run = TriageRun::default();
    let mut taken = BTreeMap::new();
    let subjects = Subjects::Seeds {
        spec,
        from_index: 0,
    };
    for chunk in chunks(subjects) {
        let evaluated = par::par_map(&chunk, |_, &(seed, index)| {
            let subject = Subject::from_seed(seed).with_fuel_limit(policy.fuel_limit);
            let records = fault::contain(policy, seed, index, || {
                subject_records(
                    &subject,
                    index,
                    spec.personality,
                    spec.version,
                    spec.backend,
                    levels,
                )
            });
            (subject, records)
        });
        let mut selected = Vec::new();
        for (subject, records) in &evaluated {
            match records {
                SubjectOutcome::Completed(records) => selected.extend(
                    sample(records, per_conjecture_limit, &mut taken)
                        .into_iter()
                        .map(|record| (subject, record)),
                ),
                SubjectOutcome::Faulted(subject_fault) => {
                    run.campaign_faults.push(subject_fault.clone());
                }
            }
        }
        let outcomes = par::par_map(&selected, |_, &(subject, record)| {
            fault::contain(policy, record.seed, record.subject, || {
                triage_record(subject, spec, record)
            })
        });
        for ((_, record), outcome) in selected.iter().zip(outcomes) {
            match outcome {
                SubjectOutcome::Completed(outcome) => {
                    run.table
                        .attribute(record.violation.conjecture, outcome.culprits);
                }
                SubjectOutcome::Faulted(subject_fault) => run.triage_faults.push(subject_fault),
            }
        }
        for (subject, _) in &evaluated {
            run.stats.absorb(subject.cache_stats());
        }
    }
    run
}

/// The identifying first line of a triage shard file.
pub const TRIAGE_SHARD_FORMAT: &str = "holes.triage-shard/v1";

/// One completed triage shard: the campaign spec it ran over, the
/// per-subject selection limit, and the attributions found on the shard's
/// seeds.
///
/// Sharded triage reuses [`crate::shard`]'s partitioning seam but changes
/// the *selection* semantics: instead of the monolithic driver's global
/// per-conjecture limit (whose selection depends on the whole range's
/// record order and therefore cannot be computed shard-locally), each
/// **subject** contributes up to `limit` unique violations per conjecture.
/// Selection is then independent per seed, every seed lives in exactly one
/// shard, and [`merge_triage_shards`] — a pointwise sum of attribution
/// counts — is deterministic and byte-identical to the single-shard run,
/// mirroring the campaign merge contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageShard {
    /// What was run (personality, version, seed range, shard slice,
    /// backend).
    pub spec: CampaignSpec,
    /// Unique violations triaged per conjecture *per subject*.
    pub limit: usize,
    /// The shard's attribution counts.
    pub table: TriageTable,
}

/// Run one shard of a sharded triage (see [`TriageShard`] for the
/// selection semantics). Each seed's whole evaluation (campaign records
/// plus its triages) runs on the campaign evaluator, inside
/// [`fault::contain`]: a faulted seed contributes nothing to the table and
/// is reported as a [`SubjectFault`] in subject order. Also returns the
/// aggregated evaluation-engine activity.
///
/// # Errors
///
/// Returns the spec validation failure.
pub fn run_triage_shard(
    spec: &CampaignSpec,
    limit: usize,
    policy: &FaultPolicy,
) -> Result<(TriageShard, Vec<SubjectFault>, CacheStats), ShardError> {
    spec.validate()?;
    let levels = spec.personality.levels();
    let per_subject = |subject: &Subject, index: usize| {
        let records = subject_records(
            subject,
            index,
            spec.personality,
            spec.version,
            spec.backend,
            levels,
        );
        let mut table = TriageTable::default();
        for record in sample(&records, limit, &mut BTreeMap::new()) {
            let outcome = triage_record(subject, spec, record);
            table.attribute(record.violation.conjecture, outcome.culprits);
        }
        table
    };
    let mut table = TriageTable::default();
    let mut faults = Vec::new();
    let subjects = Subjects::Seeds {
        spec,
        from_index: 0,
    };
    let Ok(stats) = evaluate(subjects, policy, per_subject, |outcome| {
        match outcome {
            SubjectOutcome::Completed(subject_table) => table.absorb(subject_table),
            SubjectOutcome::Faulted(subject_fault) => faults.push(subject_fault),
        }
        Ok::<(), Infallible>(())
    });
    let shard = TriageShard {
        spec: spec.clone(),
        limit,
        table,
    };
    Ok((shard, faults, stats))
}

/// Merge a complete set of triage shards back into the monolithic
/// [`TriageTable`] for the full seed range: the pointwise sum of the
/// shards' attribution counts. All shards must belong to the same campaign,
/// use the same limit, and cover `0..shards` exactly once (the same
/// contract as [`crate::shard::merge_shards`]).
///
/// # Errors
///
/// Returns a [`ShardError`] when the set is incomplete or inconsistent.
pub fn merge_triage_shards(shards: Vec<TriageShard>) -> Result<TriageTable, ShardError> {
    let first = shards
        .first()
        .cloned()
        .ok_or_else(|| ShardError::Incompatible("no triage shards to merge".into()))?;
    for shard in &shards {
        shard.spec.validate()?;
        if !shard.spec.same_campaign(&first.spec) {
            return Err(ShardError::Incompatible(format!(
                "triage shard {} belongs to a different campaign than shard {}",
                shard.spec.shard, first.spec.shard
            )));
        }
        if shard.limit != first.limit {
            return Err(ShardError::Incompatible(format!(
                "triage shard {} used limit {} but shard {} used limit {}",
                shard.spec.shard, shard.limit, first.spec.shard, first.limit
            )));
        }
    }
    let mut indices: Vec<u64> = shards.iter().map(|s| s.spec.shard).collect();
    indices.sort_unstable();
    let expected: Vec<u64> = (0..first.spec.shards).collect();
    if indices != expected {
        return Err(ShardError::Incompatible(format!(
            "triage shard indices {indices:?} do not cover 0..{} exactly once",
            first.spec.shards
        )));
    }
    let mut table = TriageTable::default();
    for shard in shards {
        table.absorb(shard.table);
    }
    Ok(table)
}

impl TriageShard {
    /// Serialize to the deterministic triage-shard JSON (see
    /// [`TRIAGE_SHARD_FORMAT`]): the campaign spec header shared with the
    /// campaign shard formats, the per-subject limit, and the attribution
    /// counts in canonical (conjecture, pass-name) order.
    pub fn to_json(&self) -> Json {
        let mut pairs = spec_header_pairs(&self.spec, TRIAGE_SHARD_FORMAT);
        pairs.push(("limit".to_owned(), Json::from_usize(self.limit)));
        let culprits = Conjecture::ALL
            .iter()
            .map(|&conjecture| {
                let passes = self
                    .table
                    .counts
                    .get(&conjecture)
                    .map(|passes| {
                        passes
                            .iter()
                            .map(|(pass, count)| {
                                Json::Obj(vec![
                                    ("pass".to_owned(), Json::str(pass.clone())),
                                    ("count".to_owned(), Json::from_usize(*count)),
                                ])
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                (conjecture.to_string(), Json::Arr(passes))
            })
            .collect();
        pairs.push(("culprits".to_owned(), Json::Obj(culprits)));
        Json::Obj(pairs)
    }

    /// Parse and validate a triage shard file produced by
    /// [`TriageShard::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] for format, spec, or count problems.
    pub fn from_json(json: &Json) -> Result<TriageShard, ShardError> {
        let format = json
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| ShardError::Malformed("missing `format`".into()))?;
        if format != TRIAGE_SHARD_FORMAT {
            return Err(ShardError::Malformed(format!(
                "unsupported format `{format}` (expected `{TRIAGE_SHARD_FORMAT}`)"
            )));
        }
        let spec = parse_spec_header(json)?;
        parse_levels(json, spec.personality)?;
        let limit = json
            .get("limit")
            .and_then(Json::as_usize)
            .ok_or_else(|| ShardError::Malformed("missing or non-integer `limit`".into()))?;
        let culprits = json
            .get("culprits")
            .and_then(|c| match c {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            })
            .ok_or_else(|| ShardError::Malformed("missing `culprits` object".into()))?;
        let mut table = TriageTable::default();
        for (key, passes) in culprits {
            let conjecture: Conjecture = key
                .parse()
                .map_err(|_| ShardError::Malformed(format!("unknown conjecture `{key}`")))?;
            let passes = passes
                .as_arr()
                .ok_or_else(|| ShardError::Malformed("culprit list is not an array".into()))?;
            for entry in passes {
                let pass = entry
                    .get("pass")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ShardError::Malformed("culprit without a pass name".into()))?;
                let count = entry
                    .get("count")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| ShardError::Malformed("culprit without a count".into()))?;
                if count == 0 {
                    return Err(ShardError::Malformed(format!(
                        "culprit `{pass}` carries a zero count"
                    )));
                }
                let slot = table
                    .counts
                    .entry(conjecture)
                    .or_default()
                    .entry(pass.to_owned())
                    .or_insert(0);
                if *slot != 0 {
                    return Err(ShardError::Malformed(format!(
                        "culprit `{pass}` is listed twice for {conjecture}"
                    )));
                }
                *slot = count;
            }
        }
        Ok(TriageShard { spec, limit, table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trunk_campaign;
    use crate::fault::FaultStage;
    use crate::subject_pool;
    use holes_compiler::OptLevel;

    #[test]
    fn a_flag_search_probe_out_of_fuel_faults_at_the_trace_stage() {
        // Seed 1200's ccg Og violations trace in 497 machine steps; with
        // the first triage flag disabled the program takes 523.
        let personality = Personality::Ccg;
        let result = trunk_campaign(&subject_pool(1200, 1), personality);
        let record = result
            .records
            .iter()
            .find(|record| record.level == OptLevel::Og)
            .expect("seed 1200 violates at Og");
        let config =
            CompilerConfig::new(personality, OptLevel::Og).with_version(personality.trunk());
        let policy = FaultPolicy {
            fuel_limit: Some(510),
            ..FaultPolicy::default()
        };
        let subject = Subject::from_seed(1200).with_fuel_limit(policy.fuel_limit);
        assert!(subject.violation_occurs(&config, &record.violation));
        // Called off any `par_map` worker, as a triage chunk that samples
        // one violation calls it.
        match fault::contain(&policy, 1200, 0, || {
            triage(&subject, &config, &record.violation)
        }) {
            SubjectOutcome::Faulted(fault) => {
                assert_eq!(fault.stage, FaultStage::Trace, "{fault}");
                assert!(fault.cause.contains("step budget"), "{fault}");
            }
            SubjectOutcome::Completed(outcome) => panic!("no probe ran out of fuel: {outcome:?}"),
        }
    }

    #[test]
    fn triage_identifies_a_culprit_for_found_violations() {
        let subjects = subject_pool(1200, 4);
        for personality in [Personality::Ccg, Personality::Lcc] {
            let result = trunk_campaign(&subjects, personality);
            let Some(record) = result.records.first() else {
                continue;
            };
            let config =
                CompilerConfig::new(personality, record.level).with_version(personality.trunk());
            let outcome = triage(&subjects[record.subject], &config, &record.violation);
            match personality {
                // Bisection always identifies the pass after which the
                // violation first appears.
                Personality::Lcc => assert!(
                    !outcome.culprits.is_empty(),
                    "lcc: bisection found no culprit for {:?}",
                    record.violation
                ),
                // The flag search can legitimately fail when two independent
                // defects hit the same variable (§4.3 notes this limitation);
                // it must at least have used the right method.
                Personality::Ccg => assert_eq!(outcome.method, TriageMethod::FlagSearch),
            }
        }
    }

    #[test]
    fn binary_search_bisection_matches_the_linear_scan() {
        let subjects = subject_pool(1220, 6);
        let personality = Personality::Lcc;
        let result = trunk_campaign(&subjects, personality);
        let mut compared = 0usize;
        for record in result.records.iter().take(20) {
            let config =
                CompilerConfig::new(personality, record.level).with_version(personality.trunk());
            let subject = &subjects[record.subject];
            let binary = bisect(subject, &config, &record.violation);
            let linear = bisect_linear(subject, &config, &record.violation);
            assert_eq!(
                binary,
                linear,
                "bisection divergence on {:?} at {}",
                record.violation,
                config.describe()
            );
            compared += 1;
        }
        assert!(
            compared > 0,
            "campaign produced no lcc violations to bisect"
        );
    }

    #[test]
    fn bisection_uses_fewer_oracle_compiles_than_the_linear_scan() {
        let subjects = subject_pool(1230, 8);
        let personality = Personality::Lcc;
        let result = trunk_campaign(&subjects, personality);
        assert!(!result.records.is_empty(), "campaign found no violations");
        let mut any_strictly_fewer = false;
        for record in result.records.iter().take(24) {
            let config =
                CompilerConfig::new(personality, record.level).with_version(personality.trunk());
            // Fresh caches so the two strategies' counters are isolated
            // from each other and from the campaign above. Budget probes
            // are satisfied by snapshot codegen, so the oracle work each
            // strategy performs is `compiles + codegen_only`.
            let for_binary = subjects[record.subject].with_fresh_cache();
            let binary = bisect(&for_binary, &config, &record.violation);
            let binary_stats = for_binary.cache_stats();
            let binary_work = binary_stats.compiles + binary_stats.codegen_only;
            let for_linear = subjects[record.subject].with_fresh_cache();
            let linear = bisect_linear(&for_linear, &config, &record.violation);
            let linear_stats = for_linear.cache_stats();
            let linear_work = linear_stats.compiles + linear_stats.codegen_only;
            assert_eq!(binary, linear);
            // Both stay within one oracle evaluation per distinct budget,
            // and neither runs the full pipeline for a non-trunk budget:
            // at most the one unbudgeted endpoint probe compiles.
            let budgets = config.pass_schedule().len() + 1;
            assert!(binary_work <= budgets);
            assert!(linear_work <= budgets);
            assert!(binary_stats.compiles <= 1, "{binary_stats:?}");
            assert!(linear_stats.compiles <= 1, "{linear_stats:?}");
            // Budget probes are derived from the pass-prefix snapshots.
            assert!(binary_stats.codegen_only >= 1, "{binary_stats:?}");
            any_strictly_fewer |= binary_work < linear_work;
        }
        // The debug monotonicity assertion deliberately probes every budget,
        // so the count advantage is only observable in release builds
        // (`perfbench` measures it as `triage.probes_per_bisection`).
        if !cfg!(debug_assertions) {
            assert!(
                any_strictly_fewer,
                "binary search never evaluated strictly fewer budgets than the linear scan"
            );
        }
    }

    #[test]
    fn stack_backend_triage_runs_and_attributes_spill_loss_to_isel() {
        // Regression test: the spill-loss defect fires at code generation,
        // so violation appearance is NOT monotone in the pass budget; lcc
        // triage used to trip bisection's monotonicity debug-assertion.
        // Both personalities must triage a stack-backend campaign without
        // panicking, and the codegen-level class must show up as "isel".
        use holes_progen::SeedRange;
        let mut saw_isel = false;
        for personality in [Personality::Lcc, Personality::Ccg] {
            let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(0, 12))
                .with_backend(BackendKind::Stack);
            let (shard, _, _) = run_triage_shard(&spec, 3, &FaultPolicy::default()).unwrap();
            assert!(
                !shard.table.counts.is_empty(),
                "{personality}: stack campaign exposed nothing to triage"
            );
            saw_isel |= shard
                .table
                .counts
                .values()
                .any(|passes| passes.contains_key("isel"));
        }
        assert!(
            saw_isel,
            "no spill-loss violation was attributed to code generation"
        );
    }

    #[test]
    fn sharded_triage_merges_to_the_single_shard_run() {
        // The triage analogue of the campaign merge-determinism contract:
        // K shard runs — round-tripped through their JSON files — merge to
        // the exact table of the K=1 run, in any input order.
        use holes_core::json::Json;
        use holes_progen::SeedRange;
        let personality = Personality::Lcc;
        let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(2600, 2612));
        let (monolithic, _, stats) = run_triage_shard(&spec, 2, &FaultPolicy::default()).unwrap();
        assert!(stats.compiles > 0, "triage compiled nothing");
        assert!(
            !monolithic.table.counts.is_empty(),
            "range exposed no violations to triage"
        );
        for shards in [2u64, 3] {
            let mut runs: Vec<TriageShard> = (0..shards)
                .map(|index| {
                    let (run, _, _) = run_triage_shard(
                        &spec.clone().with_shard(shards, index),
                        2,
                        &FaultPolicy::default(),
                    )
                    .unwrap();
                    let rendered = run.to_json().to_pretty();
                    let reparsed =
                        TriageShard::from_json(&Json::parse(&rendered).unwrap()).unwrap();
                    assert_eq!(reparsed, run, "shard file round-trip changed the shard");
                    // Serialization is deterministic.
                    assert_eq!(reparsed.to_json().to_pretty(), rendered);
                    reparsed
                })
                .collect();
            runs.reverse(); // merge order must not matter
            let merged = merge_triage_shards(runs).unwrap();
            assert_eq!(merged, monolithic.table, "K={shards}");
            assert_eq!(
                merged.to_json().to_pretty(),
                monolithic.table.to_json().to_pretty()
            );
        }
    }

    #[test]
    fn triage_merge_rejects_incomplete_and_inconsistent_sets() {
        use holes_progen::SeedRange;
        let spec = CampaignSpec::new(
            Personality::Lcc,
            Personality::Lcc.trunk(),
            SeedRange::new(2620, 2624),
        );
        let (s0, _, _) =
            run_triage_shard(&spec.clone().with_shard(2, 0), 1, &FaultPolicy::default()).unwrap();
        let (s1, _, _) =
            run_triage_shard(&spec.clone().with_shard(2, 1), 1, &FaultPolicy::default()).unwrap();
        assert!(merge_triage_shards(Vec::new()).is_err(), "empty set");
        assert!(
            merge_triage_shards(vec![s0.clone()]).is_err(),
            "missing shard"
        );
        assert!(
            merge_triage_shards(vec![s0.clone(), s0.clone()]).is_err(),
            "duplicate shard"
        );
        let mut other_limit = s1.clone();
        other_limit.limit = 9;
        assert!(
            merge_triage_shards(vec![s0.clone(), other_limit]).is_err(),
            "mixed limits"
        );
        let mut other_backend = s1.clone();
        other_backend.spec.backend = BackendKind::Stack;
        assert!(
            merge_triage_shards(vec![s0.clone(), other_backend]).is_err(),
            "mixed backends"
        );
        assert!(merge_triage_shards(vec![s0, s1]).is_ok());
    }

    #[test]
    fn triage_shard_files_reject_tampering() {
        use holes_core::json::Json;
        use holes_progen::SeedRange;
        let spec = CampaignSpec::new(
            Personality::Ccg,
            Personality::Ccg.trunk(),
            SeedRange::new(2630, 2634),
        );
        let (run, _, _) = run_triage_shard(&spec, 1, &FaultPolicy::default()).unwrap();
        let good = run.to_json().to_pretty();
        for (needle, replacement) in [
            ("holes.triage-shard/v1", "holes.triage-shard/v0"),
            ("\"ccg\"", "\"gcc\""),
            ("\"limit\": 1", "\"limit\": true"),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` did not apply");
            assert!(
                TriageShard::from_json(&Json::parse(&bad).unwrap()).is_err(),
                "tampered `{needle}` was accepted"
            );
        }
    }

    #[test]
    fn triage_table_aggregates_by_conjecture() {
        let spec = CampaignSpec::new(
            Personality::Ccg,
            Personality::Ccg.trunk(),
            holes_progen::SeedRange::new(1210, 1213),
        );
        let run = triage_campaign(&spec, 2, &FaultPolicy::default());
        assert!(run.campaign_faults.is_empty() && run.triage_faults.is_empty());
        assert!(run.stats.compiles > 0, "triage compiled nothing");
        let rendered = run.table.render(5);
        assert!(rendered.contains("C1"));
        assert!(run.table.distinct_culprits() <= 20);
    }
}
