//! Streaming campaign output: the JSON Lines shard format
//! (`holes.campaign-jsonl/v1`) that bounds memory at millions of seeds.
//!
//! A `holes.campaign/v1` shard file is one JSON document, which forces the
//! driver to hold every violation record of the shard in memory until the
//! run completes. This module streams instead: one compact JSON value per
//! line —
//!
//! 1. a **header** carrying the same identity fields as the classic format
//!    (`format`, `personality`, `compiler_version`, `seeds`, `shards`,
//!    `shard`, `levels`),
//! 2. one **record** per violation, in the same canonical order and with
//!    the same schema as the `records` array of the classic format,
//! 3. a **footer** `{"end": true, "programs": …, "records": …}` whose
//!    counts let the reader reject truncated files.
//!
//! [`run_shard_streaming`] runs the campaign evaluator (bounded parallel
//! chunks) and emits each chunk's records as soon as they are ready, so
//! peak memory is proportional to the chunk size — never to the seed
//! range. On the consuming side, [`fold_jsonl_reader`] is the symmetric
//! **streaming reader**: it revalidates everything the classic parser does,
//! through the same record/fault sequence checker (membership, canonical
//! record order, fault order, and the footer counts), reports errors with
//! the **record index and line number**, and hands each record to a fold
//! callback instead of materializing a vector. It is the only way the
//! `holes` CLI reads a JSONL shard: every consumer folds the records, and
//! `holes report --issues` and `holes corpus add` collect them.
//! [`read_jsonl_shard`] collects the fold into an ordinary
//! [`CampaignShard`] for the library's consumers that need one (the `serve`
//! worker, the tests): merging JSONL shards through
//! [`crate::shard::merge_shards`] is byte-identical to merging classic
//! shards, which the test suite holds it to.

use std::io::Write;

use holes_compiler::OptLevel;
use holes_core::json::{Json, JsonWriter};

use crate::campaign::{campaign_outcomes, CampaignResult, Subjects, ViolationRecord};
use crate::fault::{FaultPolicy, SubjectFault, SubjectOutcome};
use crate::shard::{
    fault_from_json, parse_levels, parse_spec_header, record_from_json, spec_header_pairs,
    write_fault, write_record, CampaignShard, CampaignSpec, SequenceCheck, ShardError,
};
use crate::CacheStats;

/// The identifying first-line `format` value of a JSON Lines shard file.
pub const CAMPAIGN_JSONL_FORMAT: &str = "holes.campaign-jsonl/v1";

/// A failure while producing or consuming a record stream: either the
/// campaign data itself is bad, or the underlying writer failed.
#[derive(Debug)]
pub enum StreamError {
    /// The spec or a record is invalid (see [`ShardError`]).
    Shard(ShardError),
    /// The output sink failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Shard(e) => e.fmt(f),
            StreamError::Io(e) => write!(f, "writing campaign stream: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ShardError> for StreamError {
    fn from(error: ShardError) -> StreamError {
        StreamError::Shard(error)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(error: std::io::Error) -> StreamError {
        StreamError::Io(error)
    }
}

/// An incremental writer of the JSON Lines shard format. Every line is
/// streamed to the sink through a compact [`JsonWriter`] as it arrives;
/// nothing is accumulated.
pub struct CampaignJsonlWriter<W: Write> {
    json: JsonWriter<W>,
    spec: CampaignSpec,
    records: usize,
    faults: usize,
}

impl<W: Write> CampaignJsonlWriter<W> {
    /// Validate the spec and emit the header line.
    ///
    /// # Errors
    ///
    /// Returns the spec validation failure or the sink's I/O error.
    pub fn new(out: W, spec: &CampaignSpec) -> Result<CampaignJsonlWriter<W>, StreamError> {
        CampaignJsonlWriter::resume(out, spec, 0, 0, true)
    }

    /// A writer continuing a stream whose intact prefix already carries
    /// `records` record lines and `faults` fault lines ([`CampaignJsonlWriter::new`]
    /// is the `(0, 0, emit_header: true)` case). The kept counts flow into
    /// the footer, so a resumed file ends exactly like an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns the spec validation failure or the sink's I/O error.
    pub fn resume(
        out: W,
        spec: &CampaignSpec,
        records: usize,
        faults: usize,
        emit_header: bool,
    ) -> Result<CampaignJsonlWriter<W>, StreamError> {
        spec.validate()?;
        let mut writer = CampaignJsonlWriter {
            json: JsonWriter::compact(out),
            spec: spec.clone(),
            records,
            faults,
        };
        if emit_header {
            let header = Json::Obj(spec_header_pairs(spec, CAMPAIGN_JSONL_FORMAT));
            writer.json.value(&header)?;
            writer.end_line()?;
        }
        Ok(writer)
    }

    fn end_line(&mut self) -> std::io::Result<()> {
        self.json.get_mut().write_all(b"\n")
    }

    /// Emit one record line.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error.
    pub fn write_record(&mut self, record: &ViolationRecord) -> Result<(), StreamError> {
        write_record(&mut self.json, record)?;
        self.end_line()?;
        self.records += 1;
        Ok(())
    }

    /// Emit one contained-fault line (see [`crate::fault`]). Fault lines
    /// carry a `fault` key, which records never do, so readers can tell the
    /// two apart without a schema change.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error.
    pub fn write_fault(&mut self, subject_fault: &SubjectFault) -> Result<(), StreamError> {
        write_fault(&mut self.json, subject_fault)?;
        self.end_line()?;
        self.faults += 1;
        Ok(())
    }

    /// Emit the footer line and return the sink. A file without a footer is
    /// truncated by definition, so readers reject it. The `faulted` count
    /// appears only when faults occurred, keeping no-fault streams
    /// byte-identical to the pre-containment format.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error.
    pub fn finish(mut self) -> Result<W, StreamError> {
        let programs = self.spec.seeds.shard_len(self.spec.shards, self.spec.shard);
        let mut pairs = vec![
            ("end".to_owned(), Json::Bool(true)),
            ("programs".to_owned(), Json::from_u64(programs)),
            ("records".to_owned(), Json::from_usize(self.records)),
        ];
        if self.faults > 0 {
            pairs.push(("faulted".to_owned(), Json::from_usize(self.faults)));
        }
        self.json.value(&Json::Obj(pairs))?;
        self.end_line()?;
        let mut out = self.json.into_inner();
        out.flush()?;
        Ok(out)
    }
}

/// What a streaming shard run produced: the line counts of the emitted
/// stream plus the evaluation-engine activity behind them.
#[derive(Debug, Clone, Default)]
pub struct StreamRun {
    /// Record lines emitted (kept **and** new on a resumed run).
    pub records: usize,
    /// Fault lines emitted — subjects whose evaluation was contained by the
    /// [`crate::fault`] layer instead of completing.
    pub faulted: usize,
    /// Evaluation-engine activity aggregated over the subjects this run
    /// actually evaluated (what `holes campaign --stats` reports).
    pub stats: CacheStats,
}

/// Evaluate the shard's seeds from global subject index `from_index`
/// onwards through the campaign evaluator, writing each subject's lines as
/// its chunk completes — the shared engine of [`run_shard_streaming`] and
/// [`resume_shard_streaming`]. A contained fault becomes one fault line.
fn stream_seeds<W: Write>(
    writer: &mut CampaignJsonlWriter<W>,
    spec: &CampaignSpec,
    policy: &FaultPolicy,
    from_index: usize,
) -> Result<CacheStats, StreamError> {
    let subjects = Subjects::Seeds { spec, from_index };
    campaign_outcomes(subjects, spec, policy, |outcome| {
        match outcome {
            SubjectOutcome::Completed(records) => {
                for record in &records {
                    writer.write_record(record)?;
                    crate::chaos::on_line_emitted();
                }
            }
            SubjectOutcome::Faulted(subject_fault) => {
                writer.write_fault(&subject_fault)?;
                crate::chaos::on_line_emitted();
            }
        }
        Ok(())
    })
}

/// Run one campaign shard, streaming each seed's records to `out` as soon
/// as they are computed. Seeds are evaluated in parallel chunks and emitted
/// in seed order, so the stream's record sequence is exactly the classic
/// driver's — but the full record vector is **never** materialized, and
/// subjects are dropped as their chunk completes. Each subject is evaluated
/// under [`crate::fault::contain`]; contained faults are emitted as
/// `{"fault": …}` lines in subject order, interleaved with the record
/// lines (the default policy emits none).
///
/// Returns the line counts and the evaluation-engine activity aggregated
/// over all subjects (what `holes campaign --stats` reports).
///
/// # Errors
///
/// Returns the spec validation failure or the sink's I/O error.
pub fn run_shard_streaming<W: Write>(
    spec: &CampaignSpec,
    out: W,
    policy: &FaultPolicy,
) -> Result<StreamRun, StreamError> {
    let mut writer = CampaignJsonlWriter::new(out, spec)?;
    let stats = stream_seeds(&mut writer, spec, policy, 0)?;
    let (records, faulted) = (writer.records, writer.faults);
    writer.finish()?;
    Ok(StreamRun {
        records,
        faulted,
        stats,
    })
}

/// Fold a complete set of shard runs into one **unsharded** JSON Lines
/// stream, byte-identical to [`run_shard_streaming`] over the
/// whole range in a single process — the merge seam the distributed
/// coordinator ([`crate::serve`]) writes its final report through.
///
/// The shards are validated exactly like [`crate::shard::merge_shards`]
/// (same campaign, indices covering `0..shards` once — so a duplicate or
/// double-submitted shard is rejected, never double-counted), their records
/// and faults are stably sorted by global subject index, and the lines are
/// interleaved in ascending subject order. A subject either faults or
/// yields records, never both, so that interleaving reproduces the
/// single-process writer's line sequence exactly; the emitted header and
/// footer describe the unsharded campaign.
///
/// # Errors
///
/// Returns the shard-set validation failure or the sink's I/O error.
pub fn write_merged_stream<W: Write>(
    shards: Vec<CampaignShard>,
    out: W,
) -> Result<StreamRun, StreamError> {
    let specs: Vec<CampaignSpec> = shards.iter().map(|s| s.spec.clone()).collect();
    let first = crate::shard::validate_shard_specs(&specs)?;
    let merged = crate::shard::merge_shards(shards)?;
    let mut spec = first;
    spec.shards = 1;
    spec.shard = 0;
    let mut writer = CampaignJsonlWriter::new(out, &spec)?;
    let mut faults = merged.faults.iter();
    let mut pending_fault = faults.next();
    for record in &merged.records {
        while let Some(subject_fault) = pending_fault {
            if subject_fault.subject >= record.subject {
                break;
            }
            writer.write_fault(subject_fault)?;
            pending_fault = faults.next();
        }
        writer.write_record(record)?;
    }
    while let Some(subject_fault) = pending_fault {
        writer.write_fault(subject_fault)?;
        pending_fault = faults.next();
    }
    let (records, faulted) = (writer.records, writer.faults);
    writer.finish()?;
    Ok(StreamRun {
        records,
        faulted,
        stats: CacheStats::default(),
    })
}

/// Whether `text` looks like a JSON Lines shard file (its first non-blank
/// line is a `holes.campaign-jsonl/v1` header) — how the `holes` CLI
/// auto-detects the format of each input file. Blank lines before the
/// header are skipped, as [`fold_jsonl_reader`] skips them.
pub fn is_jsonl_shard(text: &str) -> bool {
    let first = text
        .lines()
        .find(|line| !line.trim().is_empty())
        .unwrap_or("");
    Json::parse(first)
        .ok()
        .and_then(|header| {
            header
                .get("format")
                .and_then(Json::as_str)
                .map(|format| format == CAMPAIGN_JSONL_FORMAT)
        })
        .unwrap_or(false)
}

fn malformed(line: usize, message: impl std::fmt::Display) -> ShardError {
    ShardError::Malformed(format!("line {}: {message}", line + 1))
}

/// What [`fold_jsonl_reader`] validated about a stream, once the footer has
/// confirmed it was complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlSummary {
    /// The campaign spec from the header.
    pub spec: CampaignSpec,
    /// The level schedule from the header (already checked against the
    /// personality).
    pub levels: Vec<OptLevel>,
    /// Programs covered by the shard, per the footer.
    pub programs: usize,
    /// Records handed to the fold callback.
    pub records: usize,
    /// Contained subject faults carried by the stream, in subject order.
    /// Empty for streams produced without a fault policy.
    pub faults: Vec<SubjectFault>,
}

/// Parse and validate a JSON Lines shard **header line** (the format's
/// first line): the spec and level schedule, without touching any record.
/// Streaming consumers use this to size their accumulators before folding.
///
/// # Errors
///
/// Returns a [`ShardError`] when the line is not a valid
/// `holes.campaign-jsonl/v1` header.
pub fn parse_jsonl_header(line: &str) -> Result<(CampaignSpec, Vec<OptLevel>), ShardError> {
    parse_jsonl_header_at(line, 0)
}

/// [`parse_jsonl_header`] with the header's real 0-based line number for
/// error context — the shared implementation [`fold_jsonl_reader`] uses,
/// since blank lines may precede the header.
fn parse_jsonl_header_at(
    line: &str,
    line_no: usize,
) -> Result<(CampaignSpec, Vec<OptLevel>), ShardError> {
    let header = Json::parse(line).map_err(|e| malformed(line_no, format!("bad header: {e}")))?;
    let format = header
        .get("format")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(line_no, "missing `format`"))?;
    if format != CAMPAIGN_JSONL_FORMAT {
        return Err(malformed(
            line_no,
            format!("unsupported format `{format}` (expected `{CAMPAIGN_JSONL_FORMAT}`)"),
        ));
    }
    let spec = parse_spec_header(&header).map_err(|e| e.contextualize("header"))?;
    let levels = parse_levels(&header, spec.personality).map_err(|e| e.contextualize("header"))?;
    Ok((spec, levels))
}

/// Stream a JSON Lines shard through a record callback, **line by line from
/// a reader**: each record is parsed, validated, handed to `each`, and
/// dropped, so a consumer folding into an aggregate (the `holes report`
/// accumulator) reads a million-record shard without holding its records —
/// the reader state is one line buffer, the spec, and the sequence
/// checker's previous record, faults, and list of subjects with records.
///
/// Every validation of the classic parser applies, through the same
/// checker — header consistency, per-record membership and subject-index
/// checks, canonical record order, fault order, a subject never both
/// faulting and yielding records, and the footer's truncation-detecting
/// counts — and errors
/// name the offending line and record index. Records handed to `each`
/// before an error is discovered must be discarded by the caller (an
/// aggregate built from a stream that later fails validation is
/// meaningless).
///
/// # Errors
///
/// Returns the first malformed line as a [`StreamError::Shard`], or the
/// reader's failure as [`StreamError::Io`].
pub fn fold_jsonl_reader<R: std::io::BufRead>(
    reader: R,
    mut each: impl FnMut(ViolationRecord),
) -> Result<JsonlSummary, StreamError> {
    let mut lines = reader
        .lines()
        .enumerate()
        .filter(|(_, l)| l.as_ref().map_or(true, |l| !l.trim().is_empty()))
        .peekable();
    let (line_no, header_text) = match lines.next() {
        None => {
            return Err(ShardError::Malformed(
                "truncated stream (0 intact records): the file is empty; \
                 rerun with --resume to complete it"
                    .into(),
            )
            .into())
        }
        Some((line_no, text)) => (line_no, text?),
    };
    let (spec, levels) = parse_jsonl_header_at(&header_text, line_no)?;

    let mut check = SequenceCheck::new(&spec);
    let mut footer: Option<(usize, Json)> = None;
    while let Some((line_no, line)) = lines.next() {
        let line = line?;
        if let Some((footer_line, _)) = footer {
            return Err(malformed(
                line_no,
                format!("content after the footer on line {}", footer_line + 1),
            )
            .into());
        }
        let value = match Json::parse(&line) {
            Ok(value) => value,
            // A final line that fails to parse is the signature of a killed
            // writer: everything before it is intact, only the cut tail is
            // missing. Point the user at the recovery path instead of at a
            // JSON syntax error.
            Err(_) if lines.peek().is_none() => {
                return Err(malformed(
                    line_no,
                    format!(
                        "truncated stream ({} intact records): \
                         the final line is cut mid-record; rerun with --resume to complete it",
                        check.records()
                    ),
                )
                .into())
            }
            Err(e) => return Err(malformed(line_no, e).into()),
        };
        if value.get("end").is_some() {
            footer = Some((line_no, value));
            continue;
        }
        let at_line = |e: ShardError| e.contextualize(&format!("line {}", line_no + 1));
        if value.get("fault").is_some() {
            check.fault(&value).map_err(at_line)?;
        } else {
            each(check.record(&value).map_err(at_line)?);
        }
    }
    let count = check.records();
    let faults = check.finish();
    let (footer_line, footer) = footer.ok_or_else(|| {
        ShardError::Malformed(format!(
            "truncated stream ({count} intact records, missing footer); \
             rerun with --resume to complete it"
        ))
    })?;
    if footer.get("end").and_then(Json::as_bool) != Some(true) {
        return Err(malformed(footer_line, "footer `end` is not `true`").into());
    }
    let programs = footer
        .get("programs")
        .and_then(Json::as_usize)
        .ok_or_else(|| malformed(footer_line, "footer is missing `programs`"))?;
    if programs as u64 != spec.seeds.shard_len(spec.shards, spec.shard) {
        return Err(malformed(
            footer_line,
            format!(
                "program count {programs} does not match shard {} of {} over {}",
                spec.shard, spec.shards, spec.seeds
            ),
        )
        .into());
    }
    let declared = footer
        .get("records")
        .and_then(Json::as_usize)
        .ok_or_else(|| malformed(footer_line, "footer is missing `records`"))?;
    if declared != count {
        return Err(malformed(
            footer_line,
            format!("footer declares {declared} records but the stream carries {count}"),
        )
        .into());
    }
    let declared_faulted = footer.get("faulted").and_then(Json::as_usize).unwrap_or(0);
    if declared_faulted != faults.len() {
        return Err(malformed(
            footer_line,
            format!(
                "footer declares {declared_faulted} faulted subjects but the stream carries {}",
                faults.len()
            ),
        )
        .into());
    }
    Ok(JsonlSummary {
        spec,
        levels,
        programs,
        records: count,
        faults,
    })
}

/// Parse a JSON Lines shard file back into a [`CampaignShard`], applying
/// every validation the classic parser does (header consistency, per-record
/// membership and subject-index checks, canonical record and fault order,
/// and the footer's truncation-detecting counts). Errors name the
/// offending line and record index.
///
/// This materializes every record; callers that only aggregate should use
/// [`fold_jsonl_reader`] and keep memory bounded.
///
/// # Errors
///
/// Returns a [`ShardError`] describing the first malformed line.
pub fn read_jsonl_shard(text: &str) -> Result<CampaignShard, ShardError> {
    let mut records: Vec<ViolationRecord> = Vec::new();
    let summary = match fold_jsonl_reader(text.as_bytes(), |record| records.push(record)) {
        Ok(summary) => summary,
        Err(StreamError::Shard(error)) => return Err(error),
        // Reading from an in-memory slice cannot fail; keep the error path
        // total anyway.
        Err(StreamError::Io(error)) => {
            return Err(ShardError::Malformed(format!(
                "I/O failure on an in-memory stream: {error}"
            )))
        }
    };
    Ok(CampaignShard {
        spec: summary.spec,
        result: CampaignResult {
            records,
            programs: summary.programs,
            levels: summary.levels,
            faults: summary.faults,
        },
    })
}

/// What [`resume_shard_streaming`] did to the target file.
#[derive(Debug, Clone, Default)]
pub struct ResumeOutcome {
    /// Record lines in the final file (kept prefix plus continuation).
    pub records: usize,
    /// Fault lines in the final file.
    pub faulted: usize,
    /// Subjects this resume re-evaluated (0 when the file already carried a
    /// valid footer).
    pub resumed_subjects: usize,
    /// Evaluation-engine activity for the re-evaluated subjects only.
    pub stats: CacheStats,
    /// The file already ended in a valid footer; nothing was rewritten.
    pub already_complete: bool,
}

/// One intact line of a killed stream's body, as the resume scanner sees
/// it: where it starts in the file and which subject it belongs to.
struct ScannedLine {
    start: usize,
    subject: usize,
    is_fault: bool,
}

fn unresumable(message: impl std::fmt::Display) -> StreamError {
    ShardError::Malformed(format!("cannot resume: {message}")).into()
}

/// Complete a killed `--jsonl` campaign file in place so the result is
/// **byte-identical** to an uninterrupted run of the same spec.
///
/// The writer emits lines in ascending subject order and a kill can only
/// lose a suffix, so the recovery is mechanical: scan the newline-terminated
/// prefix, validate every intact line against `spec`, find the highest
/// subject `P` with any line (its lines may be incomplete — a flush can land
/// mid-subject), truncate the file back to the first line of `P`, and
/// re-evaluate every subject with global index `≥ P`, appending through the
/// same writer an uninterrupted run uses. Determinism does the rest.
///
/// Special cases: a file that already ends in a valid footer is left
/// untouched (`already_complete`); a missing, empty, or mid-header-cut file
/// is rewritten from scratch; a file whose header belongs to a different
/// campaign — or is not a campaign stream at all — is refused rather than
/// overwritten.
///
/// # Errors
///
/// Returns [`StreamError::Io`] for filesystem failures and
/// [`StreamError::Shard`] when the existing content is not a resumable
/// stream of this campaign.
pub fn resume_shard_streaming(
    spec: &CampaignSpec,
    path: &std::path::Path,
    policy: &FaultPolicy,
) -> Result<ResumeOutcome, StreamError> {
    spec.validate()?;
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let expected_header = Json::Obj(spec_header_pairs(spec, CAMPAIGN_JSONL_FORMAT)).to_compact();

    // Scan the header line. Anything short of a byte-exact match either
    // restarts the file (a cut within the header loses nothing) or refuses
    // to touch it (it is not this campaign's stream).
    let mut segments = data.split_inclusive(|&b| b == b'\n');
    let mut write_header = true;
    let mut offset = 0usize;
    match segments.next() {
        None => {}
        Some(segment) => {
            let complete = segment.ends_with(b"\n");
            let line = if complete {
                &segment[..segment.len() - 1]
            } else {
                segment
            };
            if complete && line == expected_header.as_bytes() {
                write_header = false;
                offset = segment.len();
            } else if !complete && expected_header.as_bytes().starts_with(line) {
                // The kill landed inside the header; rewrite from scratch.
            } else if std::str::from_utf8(line)
                .ok()
                .is_some_and(|text| parse_jsonl_header(text).is_ok())
            {
                return Err(unresumable(
                    "the file's header describes a different campaign; refusing to overwrite it",
                ));
            } else {
                return Err(unresumable(
                    "the file does not begin with this campaign's header",
                ));
            }
        }
    }

    // Scan the body: every newline-terminated line must be an intact record,
    // fault, or footer of this campaign; a trailing segment without a
    // newline is the cut the kill left and is dropped.
    let mut scanned: Vec<ScannedLine> = Vec::new();
    let mut footer: Option<Json> = None;
    if !write_header {
        for segment in segments {
            let start = offset;
            offset += segment.len();
            if footer.is_some() {
                return Err(unresumable("the file has content after its footer"));
            }
            if !segment.ends_with(b"\n") {
                break;
            }
            let line = &segment[..segment.len() - 1];
            let text = std::str::from_utf8(line)
                .map_err(|_| unresumable("an intact line is not UTF-8"))?;
            let value = Json::parse(text)
                .map_err(|e| unresumable(format!("an intact line failed to parse: {e}")))?;
            if value.get("end").is_some() {
                footer = Some(value);
                continue;
            }
            let (subject, is_fault) = if value.get("fault").is_some() {
                (fault_from_json(&value, spec)?.subject, true)
            } else {
                (record_from_json(&value, spec)?.subject, false)
            };
            if scanned.last().is_some_and(|last| subject < last.subject) {
                return Err(unresumable(
                    "intact lines are not in ascending subject order",
                ));
            }
            scanned.push(ScannedLine {
                start,
                subject,
                is_fault,
            });
        }
    }

    // A valid footer means the run finished; resuming is a no-op. Footer
    // counts that disagree with the body mean corruption, not truncation.
    if let Some(footer) = footer {
        let records = scanned.iter().filter(|l| !l.is_fault).count();
        let faulted = scanned.iter().filter(|l| l.is_fault).count();
        let programs = spec.seeds.shard_len(spec.shards, spec.shard);
        let intact = footer.get("end").and_then(Json::as_bool) == Some(true)
            && footer.get("programs").and_then(Json::as_u64) == Some(programs)
            && footer.get("records").and_then(Json::as_usize) == Some(records)
            && footer.get("faulted").and_then(Json::as_usize).unwrap_or(0) == faulted;
        if !intact {
            return Err(unresumable(
                "the file ends in a footer whose counts do not match its records",
            ));
        }
        return Ok(ResumeOutcome {
            records,
            faulted,
            resumed_subjects: 0,
            stats: CacheStats::default(),
            already_complete: true,
        });
    }

    // The highest subject with any line may have been cut mid-flush; keep
    // strictly older subjects, re-evaluate from it onwards.
    let (keep_bytes, from_index) = match scanned.last().map(|last| last.subject) {
        None if write_header => (0, 0),
        None => (offset.min(expected_header.len() + 1), 0),
        Some(newest) => {
            let boundary = scanned
                .iter()
                .find(|line| line.subject == newest)
                .expect("newest subject came from `scanned`")
                .start;
            (boundary, newest)
        }
    };
    let kept_records = scanned
        .iter()
        .filter(|l| l.subject < from_index && !l.is_fault)
        .count();
    let kept_faults = scanned
        .iter()
        .filter(|l| l.subject < from_index && l.is_fault)
        .count();
    let resumed_subjects = spec
        .seeds
        .shard_seeds(spec.shards, spec.shard)
        .filter(|&seed| (seed - spec.seeds.start) as usize >= from_index)
        .count();

    // Deliberately not `truncate(true)`: the intact prefix of the file is
    // kept and the explicit `set_len` below cuts exactly at its boundary.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.set_len(keep_bytes as u64)?;
    let mut file = file;
    std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(keep_bytes as u64))?;
    let out = std::io::BufWriter::new(file);
    let mut writer =
        CampaignJsonlWriter::resume(out, spec, kept_records, kept_faults, write_header)?;
    let stats = stream_seeds(&mut writer, spec, policy, from_index)?;
    let (records, faulted) = (writer.records, writer.faults);
    writer.finish()?;
    Ok(ResumeOutcome {
        records,
        faulted,
        resumed_subjects,
        stats,
        already_complete: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{merge_shards, run_shard};

    fn classic(spec: &CampaignSpec) -> CampaignShard {
        run_shard(spec, &FaultPolicy::default()).unwrap().0
    }
    use holes_compiler::Personality;
    use holes_progen::SeedRange;

    fn spec(range: SeedRange) -> CampaignSpec {
        CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range)
    }

    fn streamed(spec: &CampaignSpec) -> String {
        let mut out = Vec::new();
        run_shard_streaming(spec, &mut out, &FaultPolicy::default()).expect("streaming run");
        String::from_utf8(out).expect("UTF-8 stream")
    }

    #[test]
    fn streamed_shard_reads_back_identical_to_the_classic_run() {
        let range = SeedRange::new(2600, 2612);
        let classic = classic(&spec(range));
        let text = streamed(&spec(range));
        assert!(is_jsonl_shard(&text));
        assert!(is_jsonl_shard(&format!("\n \n{text}")));
        assert!(!is_jsonl_shard(&classic.to_json().to_pretty()));
        let parsed = read_jsonl_shard(&text).unwrap();
        assert_eq!(parsed, classic);
        // And the rendered classic JSON is byte-identical either way.
        assert_eq!(parsed.to_json().to_pretty(), classic.to_json().to_pretty());
    }

    #[test]
    fn jsonl_shards_merge_byte_identically_with_classic_shards() {
        let range = SeedRange::new(2700, 2716);
        let monolithic = classic(&spec(range));
        let shards = 3u64;
        let mut mixed = Vec::new();
        for index in 0..shards {
            let shard_spec = spec(range).with_shard(shards, index);
            if index % 2 == 0 {
                mixed.push(read_jsonl_shard(&streamed(&shard_spec)).unwrap());
            } else {
                mixed.push(classic(&shard_spec));
            }
        }
        let merged = merge_shards(mixed).unwrap();
        assert_eq!(merged.records, monolithic.result.records);
        assert_eq!(merged.table1(), monolithic.result.table1());
        assert_eq!(merged.venn(), monolithic.result.venn());
    }

    #[test]
    fn truncated_and_tampered_streams_are_rejected_with_locations() {
        let range = SeedRange::new(2800, 2812);
        let text = streamed(&spec(range));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "stream too small to exercise");

        // Truncation: dropping the footer (or cutting mid-record) fails.
        let no_footer = lines[..lines.len() - 1].join("\n");
        let err = read_jsonl_shard(&no_footer).unwrap_err();
        assert!(err.to_string().contains("footer"), "{err}");
        let cut_mid_record = &text[..text.len() - text.len() / 3];
        assert!(read_jsonl_shard(cut_mid_record).is_err());

        // A tampered record reports its index and line.
        let mut tampered: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        tampered[1] = tampered[1].replace("\"seed\":", "\"seed\":9999, \"x\":");
        let err = read_jsonl_shard(&tampered.join("\n")).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("record 0") && message.contains("line 2"),
            "{message}"
        );

        // A record count mismatch in the footer is caught.
        let mut short: Vec<&str> = lines.clone();
        short.remove(1);
        assert!(read_jsonl_shard(&short.join("\n")).is_err());

        // Wrong format tag.
        let wrong = text.replace(CAMPAIGN_JSONL_FORMAT, "holes.campaign-jsonl/v9");
        assert!(read_jsonl_shard(&wrong).is_err());
        assert!(!is_jsonl_shard(&wrong));
    }

    #[test]
    fn folding_reader_matches_the_materializing_reader() {
        use crate::campaign::CampaignTallies;
        let range = SeedRange::new(2900, 2912);
        let text = streamed(&spec(range));
        let shard = read_jsonl_shard(&text).unwrap();
        assert!(
            !shard.result.records.is_empty(),
            "range exposed no records to fold"
        );
        let mut tallies = CampaignTallies::new(shard.result.levels.clone(), shard.result.programs);
        let summary = fold_jsonl_reader(text.as_bytes(), |record| tallies.add(&record)).unwrap();
        assert_eq!(summary.spec, shard.spec);
        assert_eq!(summary.records, shard.result.records.len());
        assert_eq!(summary.programs, shard.result.programs);
        assert_eq!(summary.levels, shard.result.levels);
        // The line-by-line accumulator renders byte-identically to the
        // materialized result.
        assert_eq!(tallies.table1(), shard.result.table1());
        assert_eq!(
            tallies.summary_json().to_pretty(),
            shard.result.summary_json().to_pretty()
        );

        // Out-of-order streams are rejected with the offending indices,
        // exactly like the materializing path.
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() >= 4 {
            let mut swapped: Vec<&str> = lines.clone();
            swapped.swap(1, 2);
            let swapped = swapped.join("\n");
            let err = fold_jsonl_reader(swapped.as_bytes(), |_| {})
                .unwrap_err()
                .to_string();
            assert!(err.contains("canonical campaign order"), "{err}");
            assert_eq!(
                read_jsonl_shard(&swapped).unwrap_err().to_string(),
                err,
                "the two readers disagree on the rejection"
            );
        }
    }

    #[test]
    fn injected_faults_stream_as_lines_and_count_in_the_footer() {
        let range = SeedRange::new(2600, 2612);
        let policy = FaultPolicy {
            inject_seeds: [2603u64, 2607].into_iter().collect(),
            ..FaultPolicy::default()
        };
        let mut out = Vec::new();
        let run = run_shard_streaming(&spec(range), &mut out, &policy).expect("run");
        assert_eq!(run.faulted, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"fault\":\"generate\""), "{text}");
        assert!(
            text.lines().last().unwrap().contains("\"faulted\":2"),
            "{text}"
        );
        let shard = read_jsonl_shard(&text).expect("faulted stream reads back");
        assert_eq!(shard.result.faults.len(), 2);
        assert_eq!(
            shard
                .result
                .faults
                .iter()
                .map(|f| f.seed)
                .collect::<Vec<_>>(),
            vec![2603, 2607]
        );
        // Faulted subjects are excluded from records; everything else is
        // untouched relative to the clean run.
        let clean = read_jsonl_shard(&streamed(&spec(range))).unwrap();
        let survivors: Vec<_> = clean
            .result
            .records
            .iter()
            .filter(|r| r.seed != 2603 && r.seed != 2607)
            .cloned()
            .collect();
        assert_eq!(shard.result.records, survivors);
        // The default policy stays byte-identical to the no-policy path:
        // no fault lines, no `faulted` footer key.
        assert!(!streamed(&spec(range)).contains("fault"));
    }

    #[test]
    fn truncated_streams_name_the_intact_prefix_and_the_recovery_flag() {
        let range = SeedRange::new(2600, 2612);
        let text = streamed(&spec(range));
        // Cut mid-record: the diagnostic counts the intact records and
        // points at --resume.
        let cut = &text[..text.len() - text.len() / 3];
        let err = read_jsonl_shard(cut).unwrap_err().to_string();
        assert!(err.contains("truncated stream ("), "{err}");
        assert!(err.contains("--resume"), "{err}");
        // Footer missing but last line intact.
        let lines: Vec<&str> = text.lines().collect();
        let no_footer = lines[..lines.len() - 1].join("\n");
        let err = read_jsonl_shard(&no_footer).unwrap_err().to_string();
        assert!(err.contains("missing footer"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        // Empty file.
        let err = read_jsonl_shard("").unwrap_err().to_string();
        assert!(err.contains("truncated stream (0 intact records)"), "{err}");
    }

    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(name: &str) -> ScratchFile {
            let path = std::env::temp_dir().join(format!(
                "holes-stream-{name}-{}-{:?}.jsonl",
                std::process::id(),
                std::thread::current().id(),
            ));
            let _ = std::fs::remove_file(&path);
            ScratchFile(path)
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_stream_from_any_kill_point() {
        let range = SeedRange::new(2600, 2616);
        let spec = spec(range);
        let full = streamed(&spec).into_bytes();
        let scratch = ScratchFile::new("kill");
        // Sweep a spread of kill points including the header, a line
        // boundary, and the final byte.
        for cut in [
            0,
            1,
            full.len() / 7,
            full.len() / 3,
            full.len() / 2,
            full.len() - 1,
        ] {
            std::fs::write(&scratch.0, &full[..cut]).unwrap();
            let outcome =
                resume_shard_streaming(&spec, &scratch.0, &FaultPolicy::default()).expect("resume");
            assert!(!outcome.already_complete, "cut at {cut}");
            let recovered = std::fs::read(&scratch.0).unwrap();
            assert_eq!(
                recovered, full,
                "cut at byte {cut} did not resume byte-identically"
            );
        }
        // A missing file is a fresh run.
        let _ = std::fs::remove_file(&scratch.0);
        resume_shard_streaming(&spec, &scratch.0, &FaultPolicy::default()).expect("fresh");
        assert_eq!(std::fs::read(&scratch.0).unwrap(), full);
        // A complete file is a no-op.
        let outcome =
            resume_shard_streaming(&spec, &scratch.0, &FaultPolicy::default()).expect("no-op");
        assert!(outcome.already_complete);
        assert_eq!(outcome.resumed_subjects, 0);
        assert_eq!(std::fs::read(&scratch.0).unwrap(), full);
    }

    #[test]
    fn resume_preserves_fault_lines_and_refuses_foreign_files() {
        let range = SeedRange::new(2600, 2612);
        let spec = spec(range);
        let policy = FaultPolicy {
            inject_seeds: [2605u64].into_iter().collect(),
            ..FaultPolicy::default()
        };
        let mut out = Vec::new();
        run_shard_streaming(&spec, &mut out, &policy).expect("run");
        let scratch = ScratchFile::new("faulted");
        std::fs::write(&scratch.0, &out[..out.len() * 2 / 3]).unwrap();
        resume_shard_streaming(&spec, &scratch.0, &policy).expect("resume");
        assert_eq!(std::fs::read(&scratch.0).unwrap(), out);

        // A header from a different campaign is refused, and the file is
        // left untouched.
        let other = CampaignSpec::new(Personality::Lcc, Personality::Lcc.trunk(), range);
        let foreign = streamed(&other);
        std::fs::write(&scratch.0, &foreign).unwrap();
        let err = resume_shard_streaming(&spec, &scratch.0, &FaultPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        assert_eq!(std::fs::read(&scratch.0).unwrap(), foreign.into_bytes());
        // Arbitrary content is refused too.
        std::fs::write(&scratch.0, b"not a stream\n").unwrap();
        let err = resume_shard_streaming(&spec, &scratch.0, &FaultPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn merged_stream_is_byte_identical_to_the_single_process_run() {
        let range = SeedRange::new(2700, 2716);
        let spec = spec(range);
        let reference = streamed(&spec);
        for shards in [1u64, 2, 3, 5, 16, 20] {
            let runs: Vec<CampaignShard> = (0..shards)
                .map(|i| read_jsonl_shard(&streamed(&spec.clone().with_shard(shards, i))).unwrap())
                .collect();
            let mut scrambled = runs;
            scrambled.reverse();
            let mut out = Vec::new();
            let run = write_merged_stream(scrambled, &mut out).expect("merge");
            assert_eq!(
                String::from_utf8(out).unwrap(),
                reference,
                "K={shards} merge is not byte-identical"
            );
            assert_eq!(run.faulted, 0);
        }
        // Faults interleave in subject order exactly like the
        // single-process writer emits them.
        let policy = FaultPolicy {
            inject_seeds: [2703u64, 2712].into_iter().collect(),
            ..FaultPolicy::default()
        };
        let mut faulted_ref = Vec::new();
        run_shard_streaming(&spec, &mut faulted_ref, &policy).expect("run");
        let runs: Vec<CampaignShard> = (0..3)
            .map(|i| {
                let mut out = Vec::new();
                let shard_spec = spec.clone().with_shard(3, i);
                run_shard_streaming(&shard_spec, &mut out, &policy).expect("run");
                read_jsonl_shard(&String::from_utf8(out).unwrap()).unwrap()
            })
            .collect();
        let mut out = Vec::new();
        let run = write_merged_stream(runs, &mut out).expect("merge with faults");
        assert_eq!(run.faulted, 2);
        assert_eq!(out, faulted_ref, "faulted merge is not byte-identical");
        // An incomplete or duplicated shard set is rejected, never
        // double-counted.
        let s0 = read_jsonl_shard(&streamed(&spec.clone().with_shard(2, 0))).unwrap();
        assert!(write_merged_stream(vec![s0.clone()], Vec::new()).is_err());
        assert!(write_merged_stream(vec![s0.clone(), s0], Vec::new()).is_err());
    }

    #[test]
    fn empty_ranges_stream_a_header_and_footer_only() {
        let empty = spec(SeedRange::new(10, 10));
        let text = streamed(&empty);
        assert_eq!(text.lines().count(), 2, "{text}");
        let parsed = read_jsonl_shard(&text).unwrap();
        assert_eq!(parsed.result.programs, 0);
        assert!(parsed.result.records.is_empty());
    }
}
