//! Sharded campaign runs: the scaling seam for multi-machine fan-out.
//!
//! A campaign over a [`SeedRange`] can be split into `K` shards, each
//! enumerating the seeds of one residue class of the range (see
//! [`SeedRange::shard_seeds`]). Every shard is self-contained — it
//! regenerates its programs from their seeds, so shards share nothing but
//! the [`CampaignSpec`] — and serializes its result to a deterministic JSON
//! file ([`CampaignShard::to_json`]). [`merge_shards`] later folds any
//! complete set of shard runs back into one [`CampaignResult`] that is
//! **byte-identical** to the monolithic run over the whole range: records
//! carry the *global* subject index (`seed - range.start`), per-subject
//! record order is preserved inside a shard, and the merge stably sorts by
//! that index, which is exactly the order the unsharded driver produces.
//!
//! The integration tests and the `holes` CLI's `campaign`/`report`
//! subcommands hold a K-sharded run to this equivalence for every rendered
//! table.

use std::io::{self, Write};

use holes_compiler::{BackendKind, OptLevel, Personality};
use holes_core::json::{Json, JsonWriter};
use holes_core::{Observed, Violation};
use holes_minic::ast::FunctionId;
use holes_progen::SeedRange;

use crate::campaign::{collect_campaign, CampaignResult, Subjects, ViolationRecord};
use crate::fault::{FaultPolicy, FaultStage, SubjectFault};
use crate::CacheStats;

/// What to run: one personality's campaign over a seed range, as one shard
/// of a (possibly single-shard) partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The compiler personality under test.
    pub personality: Personality,
    /// Index into [`Personality::version_names`].
    pub version: usize,
    /// The full seed range of the campaign (not just this shard's slice).
    pub seeds: SeedRange,
    /// Total number of shards the range is partitioned into.
    pub shards: u64,
    /// This run's shard index, `0..shards`.
    pub shard: u64,
    /// The backend every subject is compiled for
    /// ([`BackendKind::Reg`] by default). Serialized in shard headers only
    /// when non-default, so register-backend shard files stay byte-identical
    /// to the pre-backend format.
    pub backend: BackendKind,
}

impl CampaignSpec {
    /// A single-shard (monolithic) campaign over a seed range, on the
    /// default register backend.
    pub fn new(personality: Personality, version: usize, seeds: SeedRange) -> CampaignSpec {
        CampaignSpec {
            personality,
            version,
            seeds,
            shards: 1,
            shard: 0,
            backend: BackendKind::Reg,
        }
    }

    /// The same campaign restricted to shard `shard` of `shards`.
    pub fn with_shard(mut self, shards: u64, shard: u64) -> CampaignSpec {
        self.shards = shards;
        self.shard = shard;
        self
    }

    /// The same campaign targeting a different backend.
    pub fn with_backend(mut self, backend: BackendKind) -> CampaignSpec {
        self.backend = backend;
        self
    }

    /// Check the spec's internal consistency (positive shard count, shard
    /// index in range, version index valid for the personality).
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.shards == 0 {
            return Err(ShardError::InvalidSpec(
                "shard count must be positive".into(),
            ));
        }
        if self.shard >= self.shards {
            return Err(ShardError::InvalidSpec(format!(
                "shard index {} out of range for {} shards",
                self.shard, self.shards
            )));
        }
        if self.version >= self.personality.version_names().len() {
            return Err(ShardError::InvalidSpec(format!(
                "version index {} out of range for {}",
                self.version, self.personality
            )));
        }
        Ok(())
    }

    /// The seeds this shard is responsible for, in increasing order.
    pub fn shard_seeds(&self) -> Vec<u64> {
        self.seeds.shard_seeds(self.shards, self.shard).collect()
    }

    /// Whether two specs describe shards of the *same* campaign (everything
    /// but the shard index agrees).
    pub fn same_campaign(&self, other: &CampaignSpec) -> bool {
        self.personality == other.personality
            && self.version == other.version
            && self.seeds == other.seeds
            && self.shards == other.shards
            && self.backend == other.backend
    }
}

/// One completed shard run: the spec plus the violations found on the
/// shard's seeds, with global subject indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignShard {
    /// What was run.
    pub spec: CampaignSpec,
    /// The shard's campaign result. `programs` counts only this shard's
    /// seeds; record `subject` fields are global indices into the full
    /// range.
    pub result: CampaignResult,
}

/// Run one shard of a campaign: regenerate the shard's programs from their
/// seeds and test every one at every level of the personality.
///
/// Each seed's generation and evaluation runs under [`crate::fault::contain`],
/// so a panicking or (under a fuel limit) runaway subject becomes a
/// [`SubjectFault`] in the shard's result instead of killing the run; on
/// the default policy nothing faults. Subjects are generated *and*
/// evaluated in parallel chunks and reassembled in seed order, so the
/// result is deterministic for a given spec. Also returns the
/// evaluation-engine activity aggregated over the shard's subjects
/// (compiles, traces, checks, hits, disk loads) — what the CLI's `--stats`
/// switch reports.
///
/// # Errors
///
/// Returns the spec validation failure.
pub fn run_shard(
    spec: &CampaignSpec,
    policy: &FaultPolicy,
) -> Result<(CampaignShard, CacheStats), ShardError> {
    spec.validate()?;
    let subjects = Subjects::Seeds {
        spec,
        from_index: 0,
    };
    let programs = spec.seeds.shard_len(spec.shards, spec.shard) as usize;
    let (result, stats) = collect_campaign(subjects, spec, policy, programs);
    let shard = CampaignShard {
        spec: spec.clone(),
        result,
    };
    Ok((shard, stats))
}

/// Merge a complete set of shard runs back into the monolithic
/// [`CampaignResult`] for the full seed range.
///
/// All shards must belong to the same campaign and the shard indices must
/// cover `0..shards` exactly once; the input order does not matter. The
/// merged result — records, tables, Venn distributions — is byte-identical
/// to running the campaign unsharded. Shards are consumed: their records
/// move into the merged result instead of being cloned.
pub fn merge_shards(shards: Vec<CampaignShard>) -> Result<CampaignResult, ShardError> {
    let specs: Vec<CampaignSpec> = shards.iter().map(|s| s.spec.clone()).collect();
    let first_spec = validate_shard_specs(&specs)?;
    // Stable sort by global subject index restores the monolithic record
    // order: within a subject all records live in one shard, already in
    // (level, site) order.
    let mut records: Vec<ViolationRecord> = Vec::new();
    let mut faults: Vec<SubjectFault> = Vec::new();
    for shard in shards {
        records.extend(shard.result.records);
        faults.extend(shard.result.faults);
    }
    records.sort_by_key(|r| r.subject);
    faults.sort_by_key(|f| f.subject);
    Ok(CampaignResult {
        records,
        programs: first_spec.seeds.len() as usize,
        levels: first_spec.personality.levels().to_vec(),
        faults,
    })
}

/// Check that a set of specs forms one complete campaign — every spec
/// valid, all describing the same campaign, and the shard indices covering
/// `0..shards` exactly once — and return the first spec. This is
/// [`merge_shards`]' validation, shared with the streaming `holes report`
/// path (which folds records instead of materializing shards, but must
/// reject exactly the same inputs).
///
/// # Errors
///
/// Returns a [`ShardError`] when the set is empty, inconsistent, or
/// incomplete.
pub fn validate_shard_specs(specs: &[CampaignSpec]) -> Result<CampaignSpec, ShardError> {
    let first_spec = specs
        .first()
        .cloned()
        .ok_or_else(|| ShardError::Incompatible("no shards to merge".into()))?;
    for spec in specs {
        spec.validate()?;
        if !spec.same_campaign(&first_spec) {
            return Err(ShardError::Incompatible(format!(
                "shard {} belongs to a different campaign than shard {}",
                spec.shard, first_spec.shard
            )));
        }
    }
    let mut indices: Vec<u64> = specs.iter().map(|s| s.shard).collect();
    indices.sort_unstable();
    let expected: Vec<u64> = (0..first_spec.shards).collect();
    if indices != expected {
        return Err(ShardError::Incompatible(format!(
            "shard indices {indices:?} do not cover 0..{} exactly once",
            first_spec.shards
        )));
    }
    Ok(first_spec)
}

/// The identifying first line of a campaign shard file.
pub const CAMPAIGN_FORMAT: &str = "holes.campaign/v1";

impl CampaignShard {
    /// Write the shard-file document (see [`CAMPAIGN_FORMAT`]) to `out`,
    /// streamed from the typed spec and result: the spec header, the
    /// program count, one object per record, and a `faults` array only when
    /// subjects faulted. The bytes equal `self.to_json().to_pretty()`, but
    /// no [`Json`] tree is built and nothing larger than a number is
    /// rendered to memory, so memory stays at the records the shard already
    /// holds. `out` is not flushed; wrap a file or stdout in an
    /// [`io::BufWriter`] and flush it afterwards.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error; the document is then incomplete.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        let mut json = JsonWriter::pretty(out);
        json.begin_object()?;
        for (key, value) in spec_header_pairs(&self.spec, CAMPAIGN_FORMAT) {
            json.key(&key)?;
            json.value(&value)?;
        }
        json.key("programs")?;
        json.usize(self.result.programs)?;
        json.key("records")?;
        json.begin_array()?;
        for record in &self.result.records {
            write_record(&mut json, record)?;
        }
        json.end_array()?;
        // As in `to_json`: no-fault documents carry no `faults` key.
        if !self.result.faults.is_empty() {
            json.key("faults")?;
            json.begin_array()?;
            for fault in &self.result.faults {
                write_fault(&mut json, fault)?;
            }
            json.end_array()?;
        }
        json.end_object()
    }

    /// Serialize to the deterministic shard-file JSON (see
    /// [`CAMPAIGN_FORMAT`]) as a tree — the reference
    /// [`CampaignShard::write_json`] is tested against, and the form the
    /// `serve` wire protocol and journal embed.
    pub fn to_json(&self) -> Json {
        let mut pairs = spec_header_pairs(&self.spec, CAMPAIGN_FORMAT);
        pairs.push((
            "programs".to_owned(),
            Json::from_usize(self.result.programs),
        ));
        pairs.push((
            "records".to_owned(),
            Json::Arr(self.result.records.iter().map(record_to_json).collect()),
        ));
        // Emitted only when faults occurred, so no-fault shard files stay
        // byte-identical to the pre-containment format.
        if !self.result.faults.is_empty() {
            pairs.push((
                "faults".to_owned(),
                Json::Arr(self.result.faults.iter().map(fault_to_json).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a shard file produced by [`CampaignShard::to_json`].
    ///
    /// Beyond field syntax this checks semantic consistency: the program
    /// count matches the shard's seed slice, and every record's seed belongs
    /// to this shard with the matching global subject index — so a merged
    /// report can trust the records without re-deriving them.
    pub fn from_json(json: &Json) -> Result<CampaignShard, ShardError> {
        let format = str_field(json, "format")?;
        if format != CAMPAIGN_FORMAT {
            return Err(ShardError::Malformed(format!(
                "unsupported format `{format}` (expected `{CAMPAIGN_FORMAT}`)"
            )));
        }
        let spec = parse_spec_header(json)?;
        let personality = spec.personality;
        let levels = parse_levels(json, personality)?;
        let programs = usize_field(json, "programs")?;
        if programs as u64 != spec.seeds.shard_len(spec.shards, spec.shard) {
            return Err(ShardError::Malformed(format!(
                "program count {programs} does not match shard {} of {} over {}",
                spec.shard, spec.shards, spec.seeds
            )));
        }
        let mut check = SequenceCheck::new(&spec);
        let records = json
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Malformed("missing `records` array".into()))?
            .iter()
            .map(|record| check.record(record))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(value) = json.get("faults") {
            let faults = value
                .as_arr()
                .ok_or_else(|| ShardError::Malformed("`faults` is not an array".into()))?;
            for (index, fault) in faults.iter().enumerate() {
                check
                    .fault(fault)
                    .map_err(|error| error.contextualize(&format!("fault {index}")))?;
            }
        }
        let faults = check.finish();
        Ok(CampaignShard {
            spec,
            result: CampaignResult {
                records,
                programs,
                levels,
                faults,
            },
        })
    }
}

/// The one validator of a shard's record/fault sequence, shared by the
/// `holes.campaign/v1` parser and the JSON Lines reader ([`crate::stream`]).
/// It is fed one record or fault at a time and checks:
///
/// * **membership** — every seed belongs to the shard, with the matching
///   global subject index, at a level the personality evaluates;
/// * **record order** — records ascend strictly in canonical campaign order
///   (subject, then level in schedule order, then the sorted, deduplicated
///   violation list of `check_all`), so duplicated, reordered, or injected
///   records cannot inflate merged tables;
/// * **fault order** — faults ascend strictly by subject, so a duplicated
///   fault cannot double-count a faulted subject;
/// * **exclusivity** — a subject either faults or yields records, never
///   both.
///
/// The verdict depends only on the record sequence and the fault sequence,
/// not on how the two interleave, so a classic document (two arrays) and a
/// stream (one interleaved sequence) carrying the same content are accepted
/// or rejected alike. Memory is the previous record, the faults, and the
/// distinct subjects that have records.
pub(crate) struct SequenceCheck<'a> {
    spec: &'a CampaignSpec,
    records: usize,
    previous: Option<ViolationRecord>,
    /// Ascending, distinct subjects with at least one record.
    record_subjects: Vec<usize>,
    faults: Vec<SubjectFault>,
}

impl<'a> SequenceCheck<'a> {
    /// A checker for a sequence belonging to `spec`.
    pub(crate) fn new(spec: &'a CampaignSpec) -> SequenceCheck<'a> {
        SequenceCheck {
            spec,
            records: 0,
            previous: None,
            record_subjects: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Parse and check the next record; errors name its record index.
    pub(crate) fn record(&mut self, json: &Json) -> Result<ViolationRecord, ShardError> {
        let index = self.records;
        let record = record_from_json(json, self.spec).map_err(|e| e.for_record(index))?;
        if let Some(previous) = &self.previous {
            check_record_order(index - 1, previous, &record, self.spec)?;
        }
        if self
            .faults
            .binary_search_by_key(&record.subject, |f| f.subject)
            .is_ok()
        {
            return Err(both_records_and_fault(record.subject).for_record(index));
        }
        if self.record_subjects.last() != Some(&record.subject) {
            self.record_subjects.push(record.subject);
        }
        self.previous = Some(record.clone());
        self.records += 1;
        Ok(record)
    }

    /// Parse and check the next fault.
    pub(crate) fn fault(&mut self, json: &Json) -> Result<SubjectFault, ShardError> {
        let fault = fault_from_json(json, self.spec)?;
        if let Some(last) = self.faults.last() {
            if fault.subject <= last.subject {
                return Err(ShardError::Malformed(format!(
                    "fault for subject {} violates canonical campaign order \
                     (a fault for subject {} precedes it)",
                    fault.subject, last.subject
                )));
            }
        }
        if self.record_subjects.binary_search(&fault.subject).is_ok() {
            return Err(both_records_and_fault(fault.subject));
        }
        self.faults.push(fault.clone());
        Ok(fault)
    }

    /// The number of records accepted so far.
    pub(crate) fn records(&self) -> usize {
        self.records
    }

    /// The accepted faults, in subject order.
    pub(crate) fn finish(self) -> Vec<SubjectFault> {
        self.faults
    }
}

fn both_records_and_fault(subject: usize) -> ShardError {
    ShardError::Malformed(format!(
        "subject {subject} violates canonical campaign order (it has both violation \
         records and a fault)"
    ))
}

/// The record-order step of [`SequenceCheck`]: record `index + 1` must sort
/// strictly after record `index`.
fn check_record_order(
    index: usize,
    a: &ViolationRecord,
    b: &ViolationRecord,
    spec: &CampaignSpec,
) -> Result<(), ShardError> {
    let level_index = |level: OptLevel| {
        spec.personality
            .levels()
            .iter()
            .position(|&l| l == level)
            .expect("level membership checked per record")
    };
    if (a.subject, level_index(a.level), &a.violation)
        >= (b.subject, level_index(b.level), &b.violation)
    {
        return Err(ShardError::Malformed(format!(
            "records {} and {} are not in canonical campaign order (subject {} {} `{}` \
             line {} followed by subject {} {} `{}` line {})",
            index,
            index + 1,
            a.subject,
            a.level,
            a.violation.variable,
            a.violation.line,
            b.subject,
            b.level,
            b.violation.variable,
            b.violation.line,
        )));
    }
    Ok(())
}

/// The header fields both shard formats share, in canonical order: format
/// tag, spec identity, and the personality's level schedule.
pub(crate) fn spec_header_pairs(spec: &CampaignSpec, format: &str) -> Vec<(String, Json)> {
    let mut pairs = vec![
        ("format".to_owned(), Json::str(format)),
        ("personality".to_owned(), Json::str(spec.personality.name())),
        (
            "compiler_version".to_owned(),
            Json::str(spec.personality.version_names()[spec.version]),
        ),
        ("seeds".to_owned(), Json::str(spec.seeds.to_string())),
        ("shards".to_owned(), Json::from_u64(spec.shards)),
        ("shard".to_owned(), Json::from_u64(spec.shard)),
    ];
    // Emitted only when non-default, so register-backend shard files remain
    // byte-identical to the pre-backend format (and old readers keep
    // accepting them).
    if spec.backend != BackendKind::Reg {
        pairs.push(("backend".to_owned(), Json::str(spec.backend.name())));
    }
    pairs.push((
        "levels".to_owned(),
        Json::Arr(
            spec.personality
                .levels()
                .iter()
                .map(|l| Json::str(l.flag()))
                .collect(),
        ),
    ));
    pairs
}

/// Parse and validate the spec fields shared by both shard-file headers
/// (`personality`, `compiler_version`, `seeds`, `shards`, `shard`).
pub(crate) fn parse_spec_header(json: &Json) -> Result<CampaignSpec, ShardError> {
    let personality: Personality = parse_field(json, "personality")?;
    let version_name = str_field(json, "compiler_version")?;
    let version = personality.version_index(version_name).ok_or_else(|| {
        ShardError::Malformed(format!("unknown {personality} version `{version_name}`"))
    })?;
    let seeds: SeedRange = parse_field(json, "seeds")?;
    let backend = match json.get("backend") {
        None => BackendKind::Reg,
        Some(value) => value
            .as_str()
            .and_then(|name| name.parse().ok())
            .ok_or_else(|| ShardError::Malformed("malformed field `backend`".into()))?,
    };
    let spec = CampaignSpec {
        personality,
        version,
        seeds,
        shards: u64_field(json, "shards")?,
        shard: u64_field(json, "shard")?,
        backend,
    };
    spec.validate()?;
    Ok(spec)
}

/// Parse the `levels` array of a shard header and check it against the
/// personality's schedule — shared by the `holes.campaign/v1` parser and
/// the JSON Lines reader.
pub(crate) fn parse_levels(
    json: &Json,
    personality: Personality,
) -> Result<Vec<OptLevel>, ShardError> {
    let levels: Vec<OptLevel> = json
        .get("levels")
        .and_then(Json::as_arr)
        .ok_or_else(|| ShardError::Malformed("missing `levels` array".into()))?
        .iter()
        .map(|l| {
            l.as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ShardError::Malformed("malformed optimization level".into()))
        })
        .collect::<Result<_, _>>()?;
    if levels != personality.levels() {
        return Err(ShardError::Malformed(format!(
            "levels {levels:?} do not match the {personality} personality"
        )));
    }
    Ok(levels)
}

/// Write one violation record — the schema shared by `holes.campaign/v1`
/// shard files and the JSON Lines stream ([`crate::stream`]); the bytes
/// equal those of [`record_to_json`]'s tree.
pub(crate) fn write_record<W: Write>(
    json: &mut JsonWriter<W>,
    record: &ViolationRecord,
) -> io::Result<()> {
    let violation = &record.violation;
    json.begin_object()?;
    json.key("seed")?;
    json.u64(record.seed)?;
    json.key("subject")?;
    json.usize(record.subject)?;
    json.key("level")?;
    json.string(record.level.flag())?;
    json.key("conjecture")?;
    json.string(violation.conjecture.name())?;
    json.key("line")?;
    json.u64(violation.line.into())?;
    json.key("variable")?;
    json.string(&violation.variable)?;
    json.key("function")?;
    json.usize(violation.function.0)?;
    json.key("observed")?;
    json.string(violation.observed.name())?;
    json.end_object()
}

/// One violation record as a tree (see [`write_record`]).
pub(crate) fn record_to_json(record: &ViolationRecord) -> Json {
    Json::Obj(vec![
        ("seed".to_owned(), Json::from_u64(record.seed)),
        ("subject".to_owned(), Json::from_usize(record.subject)),
        ("level".to_owned(), Json::str(record.level.flag())),
        (
            "conjecture".to_owned(),
            Json::str(record.violation.conjecture.to_string()),
        ),
        (
            "line".to_owned(),
            Json::from_u64(record.violation.line.into()),
        ),
        (
            "variable".to_owned(),
            Json::str(record.violation.variable.as_ref()),
        ),
        (
            "function".to_owned(),
            Json::from_usize(record.violation.function.0),
        ),
        (
            "observed".to_owned(),
            Json::str(record.violation.observed.name()),
        ),
    ])
}

/// Parse and validate one violation record against its shard's spec (see
/// [`record_to_json`]).
pub(crate) fn record_from_json(
    json: &Json,
    spec: &CampaignSpec,
) -> Result<ViolationRecord, ShardError> {
    let seed = u64_field(json, "seed")?;
    let subject = usize_field(json, "subject")?;
    if !spec.seeds.contains(seed) || (seed - spec.seeds.start) % spec.shards != spec.shard {
        return Err(ShardError::Malformed(format!(
            "record seed {seed} does not belong to shard {} of {} over {}",
            spec.shard, spec.shards, spec.seeds
        )));
    }
    if subject as u64 != seed - spec.seeds.start {
        return Err(ShardError::Malformed(format!(
            "record subject index {subject} does not match seed {seed}"
        )));
    }
    let level: OptLevel = parse_field(json, "level")?;
    if !spec.personality.levels().contains(&level) {
        return Err(ShardError::Malformed(format!(
            "level {level} is not evaluated by the {} personality",
            spec.personality
        )));
    }
    let observed: Observed = parse_field(json, "observed")?;
    Ok(ViolationRecord {
        seed,
        subject,
        level,
        violation: Violation {
            conjecture: parse_field(json, "conjecture")?,
            line: u64_field(json, "line")?
                .try_into()
                .map_err(|_| ShardError::Malformed("line number out of range".into()))?,
            variable: str_field(json, "variable")?.into(),
            function: FunctionId(usize_field(json, "function")?),
            observed,
        },
    })
}

/// Write one contained subject fault — the schema shared by the `faults`
/// array of `holes.campaign/v1` shard files and the fault lines of the JSON
/// Lines stream ([`crate::stream`]). The `fault` key doubles as the line
/// discriminator: records never carry it. The bytes equal those of
/// [`fault_to_json`]'s tree.
pub(crate) fn write_fault<W: Write>(
    json: &mut JsonWriter<W>,
    fault: &SubjectFault,
) -> io::Result<()> {
    json.begin_object()?;
    json.key("fault")?;
    json.string(fault.stage.name())?;
    json.key("seed")?;
    json.u64(fault.seed)?;
    json.key("subject")?;
    json.usize(fault.subject)?;
    json.key("cause")?;
    json.string(&fault.cause)?;
    json.end_object()
}

/// One contained subject fault as a tree (see [`write_fault`]).
pub(crate) fn fault_to_json(fault: &SubjectFault) -> Json {
    Json::Obj(vec![
        ("fault".to_owned(), Json::str(fault.stage.name())),
        ("seed".to_owned(), Json::from_u64(fault.seed)),
        ("subject".to_owned(), Json::from_usize(fault.subject)),
        ("cause".to_owned(), Json::str(&fault.cause)),
    ])
}

/// Parse and validate one fault entry against its shard's spec (see
/// [`fault_to_json`]).
pub(crate) fn fault_from_json(
    json: &Json,
    spec: &CampaignSpec,
) -> Result<SubjectFault, ShardError> {
    let stage: FaultStage = parse_field(json, "fault")?;
    let seed = u64_field(json, "seed")?;
    let subject = usize_field(json, "subject")?;
    if !spec.seeds.contains(seed) || (seed - spec.seeds.start) % spec.shards != spec.shard {
        return Err(ShardError::Malformed(format!(
            "fault seed {seed} does not belong to shard {} of {} over {}",
            spec.shard, spec.shards, spec.seeds
        )));
    }
    if subject as u64 != seed - spec.seeds.start {
        return Err(ShardError::Malformed(format!(
            "fault subject index {subject} does not match seed {seed}"
        )));
    }
    Ok(SubjectFault {
        seed,
        subject,
        stage,
        cause: str_field(json, "cause")?.to_owned(),
    })
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, ShardError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-string field `{key}`")))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, ShardError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-integer field `{key}`")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, ShardError> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-integer field `{key}`")))
}

fn parse_field<T: std::str::FromStr>(json: &Json, key: &str) -> Result<T, ShardError> {
    str_field(json, key)?
        .parse()
        .map_err(|_| ShardError::Malformed(format!("malformed field `{key}`")))
}

/// Why a shard run, file, or merge was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A [`CampaignSpec`] is internally inconsistent.
    InvalidSpec(String),
    /// A shard file does not follow the [`CAMPAIGN_FORMAT`] schema or
    /// contradicts its own spec.
    Malformed(String),
    /// Shards passed to [`merge_shards`] do not form one complete campaign.
    Incompatible(String),
}

impl ShardError {
    /// The same error with the offending record's index (and, when known,
    /// source line) prepended — so a bad byte in a million-record file is
    /// reported as *which record*, not just *what was wrong*.
    pub(crate) fn for_record(self, index: usize) -> ShardError {
        self.contextualize(&format!("record {index}"))
    }

    /// The same error with an arbitrary location prefix.
    pub(crate) fn contextualize(self, context: &str) -> ShardError {
        match self {
            ShardError::InvalidSpec(m) => ShardError::InvalidSpec(format!("{context}: {m}")),
            ShardError::Malformed(m) => ShardError::Malformed(format!("{context}: {m}")),
            ShardError::Incompatible(m) => ShardError::Incompatible(format!("{context}: {m}")),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::InvalidSpec(m) => write!(f, "invalid campaign spec: {m}"),
            ShardError::Malformed(m) => write!(f, "malformed shard file: {m}"),
            ShardError::Incompatible(m) => write!(f, "incompatible shards: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trunk_campaign;
    use crate::subject_pool;

    fn spec(range: SeedRange) -> CampaignSpec {
        CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range)
    }

    fn shard(spec: &CampaignSpec) -> CampaignShard {
        run_shard(spec, &FaultPolicy::default()).unwrap().0
    }

    #[test]
    fn single_shard_run_equals_the_pool_campaign() {
        let range = SeedRange::new(2000, 2008);
        let sharded = shard(&spec(range));
        let subjects = subject_pool(range.start, range.len() as usize);
        let monolithic = trunk_campaign(&subjects, Personality::Ccg);
        assert_eq!(sharded.result.records, monolithic.records);
        assert_eq!(sharded.result.table1(), monolithic.table1());
    }

    #[test]
    fn merged_shards_are_byte_identical_to_the_monolithic_run() {
        let range = SeedRange::new(2100, 2116);
        let monolithic = shard(&spec(range));
        for shards in [2u64, 3, 5] {
            let runs: Vec<CampaignShard> = (0..shards)
                .map(|i| shard(&spec(range).with_shard(shards, i)))
                .collect();
            // Merge in scrambled input order to show order does not matter.
            let mut scrambled = runs.clone();
            scrambled.reverse();
            let merged = merge_shards(scrambled).unwrap();
            assert_eq!(merged.records, monolithic.result.records, "K={shards}");
            assert_eq!(merged.table1(), monolithic.result.table1());
            assert_eq!(merged.venn(), monolithic.result.venn());
            assert_eq!(merged.programs, range.len() as usize);
        }
    }

    #[test]
    fn shard_files_round_trip_through_json() {
        let range = SeedRange::new(2200, 2206);
        let run = shard(&spec(range).with_shard(2, 1));
        let rendered = run.to_json().to_pretty();
        let reparsed = CampaignShard::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed, run);
        // Serialization is deterministic.
        assert_eq!(reparsed.to_json().to_pretty(), rendered);
    }

    #[test]
    fn from_json_rejects_tampered_files() {
        let range = SeedRange::new(2300, 2304);
        let run = shard(&spec(range));
        let good = run.to_json().to_pretty();
        for (needle, replacement) in [
            ("holes.campaign/v1", "holes.campaign/v0"),
            ("\"ccg\"", "\"gcc\""),
            (
                "\"compiler_version\": \"trunk\"",
                "\"compiler_version\": \"99\"",
            ),
            ("\"seeds\": \"2300..2304\"", "\"seeds\": \"2304..2300\""),
            ("\"programs\": 4", "\"programs\": 5"),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                CampaignShard::from_json(&parsed).is_err(),
                "tampered `{needle}` was accepted"
            );
        }
    }

    #[test]
    fn from_json_rejects_duplicated_and_reordered_records() {
        let range = SeedRange::new(2300, 2310);
        let run = shard(&spec(range));
        assert!(
            run.result.records.len() >= 2,
            "campaign found too few records to exercise ordering"
        );
        let mutate = |f: &dyn Fn(&mut Vec<Json>)| {
            let mut json = run.to_json();
            if let Json::Obj(pairs) = &mut json {
                for (key, value) in pairs.iter_mut() {
                    if key == "records" {
                        if let Json::Arr(items) = value {
                            f(items);
                        }
                    }
                }
            }
            CampaignShard::from_json(&json)
        };
        assert!(mutate(&|_| {}).is_ok(), "untouched file must still parse");
        assert!(
            mutate(&|items| {
                let first = items[0].clone();
                items.insert(0, first);
            })
            .is_err(),
            "a duplicated record must be rejected"
        );
        assert!(
            mutate(&|items| items.reverse()).is_err(),
            "reordered records must be rejected"
        );
    }

    #[test]
    fn from_json_rejects_duplicated_faults_and_faults_of_subjects_with_records() {
        let range = SeedRange::new(2300, 2310);
        let policy = FaultPolicy {
            inject_seeds: [2303u64].into_iter().collect(),
            ..FaultPolicy::default()
        };
        let (run, _) = run_shard(&spec(range), &policy).unwrap();
        let fault = run.result.faults[0].clone();
        let record = run.result.records[0].clone();
        assert_ne!(record.subject, fault.subject);
        let with_faults = |faults: Vec<SubjectFault>| {
            let mut tampered = run.clone();
            tampered.result.faults = faults;
            CampaignShard::from_json(&tampered.to_json())
        };
        assert_eq!(with_faults(vec![fault.clone()]), Ok(run.clone()));
        let err = with_faults(vec![fault.clone(), fault.clone()]).unwrap_err();
        assert!(
            err.to_string().contains(
                "fault for subject 3 violates canonical campaign order \
                 (a fault for subject 3 precedes it)"
            ),
            "{err}"
        );
        let shared = SubjectFault {
            seed: record.seed,
            subject: record.subject,
            ..fault.clone()
        };
        let err = with_faults(vec![shared, fault]).unwrap_err();
        assert!(
            err.to_string().contains(&format!(
                "subject {} violates canonical campaign order (it has both violation \
                 records and a fault)",
                record.subject
            )),
            "{err}"
        );
    }

    #[test]
    fn merge_rejects_incomplete_and_mixed_shard_sets() {
        let range = SeedRange::new(2400, 2408);
        let s0 = shard(&spec(range).with_shard(2, 0));
        let s1 = shard(&spec(range).with_shard(2, 1));
        assert!(merge_shards(Vec::new()).is_err(), "empty set");
        assert!(merge_shards(vec![s0.clone()]).is_err(), "missing shard 1");
        assert!(
            merge_shards(vec![s0.clone(), s0.clone()]).is_err(),
            "duplicate shard"
        );
        let mut other = shard(&CampaignSpec::new(
            Personality::Lcc,
            Personality::Lcc.trunk(),
            range,
        ));
        other.spec.shards = 2;
        other.spec.shard = 1;
        assert!(
            merge_shards(vec![s0.clone(), other]).is_err(),
            "mixed personalities"
        );
        assert!(merge_shards(vec![s0, s1]).is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let range = SeedRange::new(0, 4);
        assert!(run_shard(&spec(range).with_shard(0, 0), &FaultPolicy::default()).is_err());
        assert!(run_shard(&spec(range).with_shard(2, 2), &FaultPolicy::default()).is_err());
        let mut bad_version = spec(range);
        bad_version.version = 99;
        assert!(run_shard(&bad_version, &FaultPolicy::default()).is_err());
        assert!(!spec(range).same_campaign(&spec(SeedRange::new(0, 5))));
    }
}
