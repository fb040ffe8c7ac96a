//! `holes` — the command-line driver for the debug-information
//! conjecture-testing pipeline.
//!
//! The five subcommands cover the paper's §4 workflow end to end:
//!
//! * `generate` — inspect the seeded MiniC programs a campaign would test;
//! * `campaign` — run one (optionally sharded) violation campaign over a
//!   seed range and write a deterministic JSON shard file;
//! * `report` — merge shard files back into the monolithic campaign and
//!   render Table 1, the Venn distribution, and the issue classification;
//! * `triage` — attribute violations to culprit optimizations (Table 2);
//! * `reduce` — shrink one violating program while preserving the violation
//!   and its culprit.
//!
//! On top of them, the regression-gating workflow of §5.4 as CI commands:
//!
//! * `baseline` — `record` a run's unique-violation set, `diff` a later run
//!   against it (known/new/fixed; only *new* violations gate, exit 3);
//! * `corpus` — `add` distilled, replayable records of known violations,
//!   `replay` them all (fail fast on known bugs before spending budget).
//!
//! And the distributed campaign service:
//!
//! * `serve` — coordinate a campaign as shard leases handed to TCP workers,
//!   with heartbeat-deadline revocation, bounded retries plus quarantine, a
//!   crash journal that makes restarts free, and a merged stream
//!   byte-identical to the single-process unsharded run;
//! * `work` — a preemptible worker: lease, evaluate resumably, submit.
//!
//! Sharding contract: `K` runs of `campaign --seeds A..B --shards K --shard
//! I`, merged by `report`, produce byte-identical output to the single
//! unsharded run — the seam that lets campaigns fan out across machines
//! (and that makes a sharded `baseline record` byte-identical to an
//! unsharded one).

mod args;

use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use holes::compiler::{BackendKind, CompilerConfig, OptLevel, Personality};
use holes::core::json::Json;
use holes::core::Conjecture;
use holes::pipeline::baseline::{Baseline, ViolationFingerprint, BASELINE_FORMAT};
use holes::pipeline::campaign::{run_campaign, unique_key, CampaignTallies};
use holes::pipeline::corpus::{distill, Corpus, CorpusEntry, ReplayOutcome};
use holes::pipeline::fault;
use holes::pipeline::par::{self, par_map};
use holes::pipeline::reduce::reduce;
use holes::pipeline::report::build_report_from_seeds;
use holes::pipeline::report::junit::{junit_xml, CaseOutcome, TestCase};
use holes::pipeline::report::sarif::{sarif_log, SarifResult};
use holes::pipeline::serve::{
    run_worker, Coordinator, LeaseConfig, RemoteStore, ServeConfig, WorkerConfig,
};
use holes::pipeline::shard::{
    merge_shards, run_shard, validate_shard_specs, CampaignShard, CampaignSpec, ShardError,
};
use holes::pipeline::store::{install_process_store, CACHE_DIR_ENV};
use holes::pipeline::stream::{
    fold_jsonl_reader, is_jsonl_shard, parse_jsonl_header, read_jsonl_shard,
    resume_shard_streaming, run_shard_streaming, StreamError,
};
use holes::pipeline::triage::{
    merge_triage_shards, run_triage_shard, triage, triage_campaign, TriageShard,
};
use holes::pipeline::{
    subject_pool, ArtifactStore, CacheStats, FaultPolicy, Subject, SubjectKey, SubjectOutcome,
};
use holes::progen::{ProgramGenerator, SeedRange};

use args::{Parsed, Spec, UsageError};

/// Write to stdout, treating a broken pipe (`holes ... | head`) as a clean
/// exit instead of a panic, like any well-behaved Unix filter.
fn stdout_write(text: std::fmt::Arguments<'_>) {
    if let Err(error) = std::io::stdout().lock().write_fmt(text) {
        stdout_failed(error);
    }
}

/// Stream a document to stdout through a buffer, failing exactly as
/// [`stdout_write`] does — a broken pipe can now arrive mid-document.
fn stdout_document(
    write: impl FnOnce(&mut BufWriter<std::io::StdoutLock<'static>>) -> std::io::Result<()>,
) {
    let mut out = BufWriter::new(std::io::stdout().lock());
    if let Err(error) = write(&mut out).and_then(|()| out.flush()) {
        stdout_failed(error);
    }
}

fn stdout_failed(error: std::io::Error) -> ! {
    if error.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("holes: writing to stdout: {error}");
    std::process::exit(1);
}

/// `print!` routed through [`stdout_write`].
macro_rules! out {
    ($($arg:tt)*) => { stdout_write(format_args!($($arg)*)) };
}

/// `println!` routed through [`stdout_write`].
macro_rules! outln {
    () => { stdout_write(format_args!("\n")) };
    ($($arg:tt)*) => { stdout_write(format_args!("{}\n", format_args!($($arg)*))) };
}

const USAGE: &str = "\
holes — conjecture-based hunting for debug-information holes

Usage: holes <command> [options]

Commands:
  generate   Show the seeded programs of a campaign range
  campaign   Run a (sharded) violation campaign, emit a JSON shard file
  report     Merge shard files; render Table 1, Venn, issue classification
  triage     Attribute violations to culprit optimizations (Table 2)
  reduce     Shrink one violating program, preserving violation + culprit
  baseline   Record a run's unique violations; diff later runs (CI gate)
  corpus     Distill known violations for replay; replay them (fail fast)
  serve      Coordinate a distributed campaign over lease-based workers
  work       Run a worker: lease shards from a coordinator, submit results
  cache      Manage the persistent artifact store (gc)
  help       Show this message

Most compiling commands accept `--backend reg|stack|frame` to target an
alternative machine model: the stack VM (`stack`), whose spill-heavy codegen
exposes location-loss classes the register backend cannot express, or the
frame-ABI register backend (`frame`), whose callee-saved save/restore frames
expose frame-base corruption classes neither other backend can express.

Run `holes <command> --help` for per-command options.
";

/// How a successfully-completed command ends the process: `Clean` exits 0;
/// `Faulted` exits 2 — the run finished, but one or more subjects were
/// contained as faults instead of evaluating, so the output is complete but
/// not fault-free; `Regressed` exits 3 — the regression gate fired
/// (`baseline diff` found new violations, or `corpus replay` found entries
/// that no longer reproduce). Hard failures exit 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunStatus {
    /// Every subject evaluated; exit 0.
    Clean,
    /// The command completed but contained subject faults; exit 2.
    Faulted,
    /// The regression gate fired; exit 3.
    Regressed,
}

impl RunStatus {
    /// `Clean` unless `faulted` subjects were contained, in which case the
    /// count is reported on stderr and the status degrades to `Faulted`.
    fn from_faulted(faulted: usize) -> RunStatus {
        if faulted == 0 {
            RunStatus::Clean
        } else {
            eprintln!("holes: {faulted} subject(s) faulted and were contained; exit status 2");
            RunStatus::Faulted
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A malformed thread count is rejected up front: ignoring it would
    // silently run on every core.
    let outcome = par::requested_workers().and_then(|_| run(&argv));
    if STATS_REQUESTED.load(Ordering::Relaxed) {
        if let Some(kb) = peak_rss_kb() {
            eprintln!("memory: peak_rss_kb {kb}");
        }
    }
    match outcome {
        Ok(RunStatus::Clean) => ExitCode::SUCCESS,
        Ok(RunStatus::Faulted) => ExitCode::from(2),
        Ok(RunStatus::Regressed) => ExitCode::from(3),
        Err(error) => {
            eprintln!("holes: {error}");
            ExitCode::from(1)
        }
    }
}

fn run(argv: &[String]) -> Result<RunStatus, String> {
    let Some(command) = argv.first() else {
        out!("{USAGE}");
        return Ok(RunStatus::Clean);
    };
    let rest = &argv[1..];
    match command.as_str() {
        "generate" => cmd_generate(rest),
        "campaign" => cmd_campaign(rest),
        "report" => cmd_report(rest),
        "triage" => cmd_triage(rest),
        "reduce" => cmd_reduce(rest),
        "baseline" => cmd_baseline(rest),
        "corpus" => cmd_corpus(rest),
        "serve" => cmd_serve(rest),
        "work" => cmd_work(rest),
        "cache" => cmd_cache(rest),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(RunStatus::Clean)
        }
        other => Err(format!("unknown command `{other}`; run `holes help`")),
    }
    .map_err(|e| format!("{command}: {e}"))
}

// ---------------------------------------------------------------- shared

fn parse_or_help(argv: &[String], spec: &Spec, usage: &str) -> Result<Option<Parsed>, UsageError> {
    let parsed = Parsed::parse(argv, spec)?;
    if parsed.switch("help") {
        out!("{usage}");
        return Ok(None);
    }
    Ok(Some(parsed))
}

fn seeds_of(parsed: &Parsed) -> Result<SeedRange, String> {
    parsed
        .opt("seeds")
        .ok_or("missing required option `--seeds A..B`")?
        .parse()
        .map_err(|e| format!("{e}"))
}

fn personality_of(parsed: &Parsed) -> Result<Personality, String> {
    parsed
        .opt_parse("personality", Personality::Ccg)
        .map_err(|e| e.to_string())
}

fn backend_of(parsed: &Parsed) -> Result<BackendKind, String> {
    parsed
        .opt_parse("backend", BackendKind::Reg)
        .map_err(|e| e.to_string())
}

/// The `, backend stack` suffix of progress lines; empty for the default
/// backend so default output stays byte-identical.
fn backend_suffix(backend: BackendKind) -> String {
    if backend == BackendKind::Reg {
        String::new()
    } else {
        format!(", backend {backend}")
    }
}

/// The fault policy of a compiling command: the optional `--fuel-limit`
/// step budget plus whatever `HOLES_FAULT_SEEDS` injects. With neither
/// present this is the default policy, whose output is byte-identical to a
/// pipeline without the containment layer.
fn policy_of(parsed: &Parsed) -> Result<FaultPolicy, String> {
    let fuel_limit = match parsed.opt("fuel-limit") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for `--fuel-limit`: `{raw}`"))?,
        ),
        None => None,
    };
    FaultPolicy::from_env(fuel_limit)
}

fn version_of(parsed: &Parsed, personality: Personality) -> Result<usize, String> {
    match parsed.opt("compiler-version") {
        None => Ok(personality.trunk()),
        Some(name) => personality.version_index(name).ok_or_else(|| {
            format!(
                "unknown {personality} version `{name}` (available: {})",
                personality.version_names().join(", ")
            )
        }),
    }
}

fn write_out(parsed: &Parsed, contents: &str) -> Result<(), String> {
    if let Some(path) = parsed.opt("out") {
        std::fs::write(path, contents).map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    Ok(())
}

/// Enable the persistent artifact store when `--cache-dir` (or the
/// `HOLES_CACHE_DIR` environment variable) names a directory. The flag is
/// exported into the environment so every subject this process creates —
/// however deep in the pipeline — binds to the same store.
///
/// An unusable cache directory is not fatal: [`ArtifactStore::from_env`]
/// warns once on stderr and the run continues with in-memory caching only,
/// so a full disk or a permissions slip never kills a long campaign.
fn cache_store(parsed: &Parsed) -> Result<Option<Arc<ArtifactStore>>, String> {
    if let Some(dir) = parsed.opt("cache-dir") {
        std::env::set_var(CACHE_DIR_ENV, dir);
    }
    Ok(ArtifactStore::from_env())
}

/// Set by [`print_stats`]: a `--stats` run also reports its peak memory at
/// exit, once its output is written.
static STATS_REQUESTED: AtomicBool = AtomicBool::new(false);

/// This process's peak resident set in kB: `VmHWM` from `/proc/self/status`,
/// which, unlike `ru_maxrss`, does not inherit the parent's high-water mark
/// across `exec`. `None` where that file cannot be read.
///
/// The file is read into a stack buffer: called after a run has freed its
/// data, a heap buffer of this size makes glibc's malloc first consolidate
/// every freed small chunk, which measured 25–30 ms after a warm-store
/// triage. `VmHWM` sits well inside the first 4 KiB.
fn peak_rss_kb() -> Option<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open("/proc/self/status").ok()?;
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]).ok()? {
            0 => break,
            n => len += n,
        }
    }
    let value = buf[..len]
        .split(|&byte| byte == b'\n')
        .find_map(|line| line.strip_prefix(b"VmHWM:"))?;
    let value = std::str::from_utf8(value).ok()?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Print the evaluation-engine statistics on stderr (so stdout's
/// machine-readable output stays byte-identical with and without `--stats`).
fn print_stats(stats: &CacheStats, store: Option<&Arc<ArtifactStore>>) {
    STATS_REQUESTED.store(true, Ordering::Relaxed);
    eprintln!(
        "stats: compiles {}, traces {}, checks {}, hits {}, disk loads {}, codegen-only {}, \
         plan stops {}",
        stats.compiles,
        stats.traces,
        stats.checks,
        stats.hits,
        stats.disk_loads,
        stats.codegen_only,
        stats.plan_hits,
    );
    if let Some(store) = store {
        let s = store.stats();
        eprintln!(
            "store: dir {}, loads {}, misses {}, writes {}, rejected {}, retries {}, \
             quarantined {}, store errors {}",
            store.root().display(),
            s.loads,
            s.misses,
            s.writes,
            s.rejected,
            s.retries,
            s.quarantined,
            s.store_errors,
        );
        eprintln!(
            "remote: hits {}, misses {}, rejected {}, degraded {}",
            s.remote_hits, s.remote_misses, s.remote_rejected, s.remote_degraded,
        );
    }
}

// -------------------------------------------------------------- generate

const GENERATE_USAGE: &str = "\
Usage: holes generate --seeds A..B [--source]

Show the programs a campaign over the seed range would test: one summary
line per seed, or the full rendered source with --source.
";

fn cmd_generate(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &["seeds"],
        switches: &["source"],
        positionals: false,
    };
    let Some(parsed) = parse_or_help(argv, &spec, GENERATE_USAGE).map_err(|e| e.to_string())?
    else {
        return Ok(RunStatus::Clean);
    };
    let seeds = seeds_of(&parsed)?;
    for seed in seeds.iter() {
        let generated = ProgramGenerator::from_seed(seed).generate();
        if parsed.switch("source") {
            outln!("// seed {seed}");
            out!("{}", generated.source.text);
            outln!();
        } else {
            outln!(
                "seed {seed}: {} statements, {} functions, sites: C1 {}, C2 {}, C3 {}",
                generated.program.stmt_count(),
                generated.program.functions.len(),
                generated.analysis.opaque_calls.len(),
                generated.analysis.global_stores.len(),
                generated.analysis.local_assignments.len(),
            );
        }
    }
    Ok(RunStatus::Clean)
}

// -------------------------------------------------------------- campaign

const CAMPAIGN_USAGE: &str = "\
Usage: holes campaign --seeds A..B [options]

Run one violation campaign shard and emit its deterministic JSON file.

Options:
  --seeds A..B             Seed range of the whole campaign (required)
  --personality ccg|lcc    Compiler personality (default: ccg)
  --compiler-version NAME  Version name, e.g. trunk or 8.4 (default: trunk)
  --backend reg|stack|frame  Machine model to compile for (default: reg);
                           the stack VM surfaces spill-slot location-loss
                           classes the register backend cannot express
  --shards K               Total number of shards (default: 1)
  --shard I                This run's shard index, 0-based (default: 0)
  --out FILE               Write the shard JSON here instead of stdout
  --jsonl                  Stream holes.campaign-jsonl/v1 (one record per
                           line, bounded memory) instead of one document
  --resume                 Continue a killed `--jsonl --out FILE` run: the
                           intact prefix of FILE is kept, the remaining
                           subjects are re-evaluated, and the final file is
                           byte-identical to an uninterrupted run
  --fuel-limit N           Contain subjects whose machines exceed N steps
                           as fault records instead of truncating silently
  --corpus FILE            Prioritize known violations: replay the
                           holes.corpus/v1 entries of FILE first (progress
                           on stderr) and fail fast with exit 3 if any no
                           longer reproduces, before fresh seeds spend
                           budget
  --cache-dir DIR          Persist compiled artifacts under DIR and reuse
                           them across invocations (or set HOLES_CACHE_DIR)
  --stats                  Report cache/store statistics on stderr, and
                           the process's peak RSS at exit
  --quiet                  Suppress the progress summary and Table 1

K shard files over the same range, merged with `holes report`, reproduce
the unsharded campaign byte-for-byte; `report` accepts both formats.
A campaign that completes with contained subject faults exits 2.
";

fn cmd_campaign(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "seeds",
            "personality",
            "compiler-version",
            "backend",
            "shards",
            "shard",
            "out",
            "cache-dir",
            "fuel-limit",
            "corpus",
        ],
        switches: &["quiet", "jsonl", "stats", "resume"],
        positionals: false,
    };
    let Some(parsed) = parse_or_help(argv, &spec, CAMPAIGN_USAGE).map_err(|e| e.to_string())?
    else {
        return Ok(RunStatus::Clean);
    };
    let store = cache_store(&parsed)?;
    let policy = policy_of(&parsed)?;
    if let Some(regressed) = corpus_prepass(&parsed)? {
        return Ok(regressed);
    }
    let personality = personality_of(&parsed)?;
    let campaign = CampaignSpec::new(
        personality,
        version_of(&parsed, personality)?,
        seeds_of(&parsed)?,
    )
    .with_shard(
        parsed.opt_parse("shards", 1).map_err(|e| e.to_string())?,
        parsed.opt_parse("shard", 0).map_err(|e| e.to_string())?,
    )
    .with_backend(backend_of(&parsed)?);

    if parsed.switch("jsonl") {
        return campaign_jsonl(&parsed, &campaign, &policy, store.as_ref());
    }
    if parsed.switch("resume") {
        return Err(
            "`--resume` requires `--jsonl` (only the streaming format is resumable)".into(),
        );
    }

    let (shard, stats) = run_shard(&campaign, &policy).map_err(|e| e.to_string())?;
    if parsed.switch("stats") {
        print_stats(&stats, store.as_ref());
    }
    let status = RunStatus::from_faulted(shard.result.faults.len());
    let Some(path) = parsed.opt("out") else {
        stdout_document(|out| shard.write_json(out));
        return Ok(status);
    };
    std::fs::File::create(path)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            shard.write_json(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("writing `{path}`: {e}"))?;
    if !parsed.switch("quiet") {
        outln!(
            "campaign: {} {}, seeds {}, shard {}/{}{}: {} programs, {} violation records",
            campaign.personality,
            campaign.personality.version_names()[campaign.version],
            campaign.seeds,
            campaign.shard,
            campaign.shards,
            backend_suffix(campaign.backend),
            shard.result.programs,
            shard.result.records.len(),
        );
        out!("{}", shard.result.table1());
    }
    Ok(status)
}

/// The `--jsonl` path of `holes campaign`: stream records to the output as
/// they are computed, holding only one evaluation chunk in memory. With
/// `--resume`, continue a killed run's partial file instead of starting
/// over.
fn campaign_jsonl(
    parsed: &Parsed,
    campaign: &CampaignSpec,
    policy: &FaultPolicy,
    store: Option<&Arc<ArtifactStore>>,
) -> Result<RunStatus, String> {
    if parsed.switch("resume") {
        let Some(path) = parsed.opt("out") else {
            return Err("`--resume` requires `--out FILE` (the stream to continue)".into());
        };
        let outcome = resume_shard_streaming(campaign, std::path::Path::new(path), policy)
            .map_err(|e| format!("`{path}`: {e}"))?;
        if parsed.switch("stats") {
            print_stats(&outcome.stats, store);
        }
        if !parsed.switch("quiet") {
            if outcome.already_complete {
                outln!(
                    "campaign: `{path}` is already complete ({} violation records); \
                     nothing to resume",
                    outcome.records,
                );
            } else {
                outln!(
                    "campaign: resumed `{path}`: re-evaluated {} subjects, {} violation \
                     records total",
                    outcome.resumed_subjects,
                    outcome.records,
                );
            }
        }
        return Ok(RunStatus::from_faulted(outcome.faulted));
    }
    let outcome = match parsed.opt("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("writing `{path}`: {e}"))?;
            run_shard_streaming(campaign, std::io::BufWriter::new(file), policy)
        }
        None => run_shard_streaming(campaign, std::io::stdout().lock(), policy),
    };
    let run = match outcome {
        Ok(summary) => summary,
        // A closed pipe downstream (`holes campaign --jsonl | head`) is a
        // clean exit for a Unix filter, exactly as the non-streaming writer
        // behaves.
        Err(StreamError::Io(error)) if error.kind() == std::io::ErrorKind::BrokenPipe => {
            std::process::exit(0);
        }
        Err(error) => return Err(error.to_string()),
    };
    if parsed.switch("stats") {
        print_stats(&run.stats, store);
    }
    if parsed.opt("out").is_some() && !parsed.switch("quiet") {
        outln!(
            "campaign: {} {}, seeds {}, shard {}/{}{}: {} programs, {} violation records \
             (streamed)",
            campaign.personality,
            campaign.personality.version_names()[campaign.version],
            campaign.seeds,
            campaign.shard,
            campaign.shards,
            backend_suffix(campaign.backend),
            campaign.seeds.shard_len(campaign.shards, campaign.shard),
            run.records,
        );
    }
    Ok(RunStatus::from_faulted(run.faulted))
}

// ---------------------------------------------------------------- report

const REPORT_USAGE: &str = "\
Usage: holes report FILE... [options]

Merge campaign shard files back into the monolithic campaign and render
Table 1, the Venn distribution of Figures 2-3, and (with --issues) the
Table 3 issue classification. The shard files must cover the campaign's
full seed range exactly once. Both shard formats are accepted (and may be
mixed): holes.campaign/v1 documents and holes.campaign-jsonl/v1 streams;
the merged output is byte-identical either way. A truncated JSONL stream
(from a killed campaign) is diagnosed with its intact-record count; rerun
the campaign with --resume to complete it first.

Options:
  --json          Print the machine-readable summary instead of text
  --format FMT    Render the unique violations as `sarif` (SARIF 2.1.0,
                  for code-scanning uploads) or `junit` (JUnit XML, for CI
                  test-summary UIs) instead of the text/JSON report
  --out FILE      Also write the JSON summary (or, with --format, that
                  rendering) to FILE
  --issues N      Classify up to N unique violations (DIE category and
                  compiler/debugger attribution; recompiles the programs)
  --cache-dir DIR Persist/reuse the artifacts --issues recompiles
";

/// Parse one shard file of either format, auto-detected by its first line.
fn parse_shard_file(path: &str) -> Result<CampaignShard, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    if is_jsonl_shard(&text) {
        return read_jsonl_shard(&text).map_err(|e| format!("`{path}`: {e}"));
    }
    let json = Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
    CampaignShard::from_json(&json).map_err(|e| format!("`{path}`: {e}"))
}

fn cmd_report(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &["out", "issues", "cache-dir", "format"],
        switches: &["json"],
        positionals: true,
    };
    let Some(parsed) = parse_or_help(argv, &spec, REPORT_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    let _store = cache_store(&parsed)?;
    if parsed.positionals().is_empty() {
        return Err("no shard files given".into());
    }
    let issue_limit: usize = parsed.opt_parse("issues", 0).map_err(|e| e.to_string())?;
    if issue_limit == 0 {
        // The default path streams: every aggregate the report renders is
        // order-independent, so records fold into one accumulator file by
        // file (line by line for JSONL inputs) and are never materialized.
        return report_streaming(&parsed);
    }
    // `--issues` classifies the first N unique violations in canonical
    // merged-record order, so this path still materializes the records.
    let mut shards = Vec::new();
    for path in parsed.positionals() {
        shards.push(parse_shard_file(path)?);
    }
    let campaign = shards[0].spec.clone();
    // Remember which file carried which shard, so a merge failure (duplicate
    // shard index, foreign campaign, missing shard) names the files at
    // fault, not just the indices.
    let origins: Vec<String> = parsed
        .positionals()
        .iter()
        .zip(&shards)
        .map(|(path, shard)| {
            format!(
                "`{path}` (shard {}/{})",
                shard.spec.shard, shard.spec.shards
            )
        })
        .collect();
    let result = merge_shards(shards)
        .map_err(|e: ShardError| format!("{e}; inputs were: {}", origins.join(", ")))?;
    // Regenerates only the (at most `issue_limit`) classified programs
    // from their seeds, not the campaign's full range.
    let issues = build_report_from_seeds(
        &result,
        campaign.personality,
        campaign.version,
        campaign.backend,
        issue_limit,
    );
    render_report(
        &parsed,
        &campaign,
        &result.tallies(),
        Some((&issues, issue_limit)),
    )
}

/// The streaming path of `holes report`: fold every input file's records
/// into one [`CampaignTallies`] accumulator and render from the tallies.
/// Output is byte-identical to the materializing path; memory is bounded
/// by the accumulator (unique violations), never by the record count.
fn report_streaming(parsed: &Parsed) -> Result<RunStatus, String> {
    let (campaign, tallies) = fold_shard_files(parsed.positionals())?;
    render_report(parsed, &campaign, &tallies, None)
}

/// Fold campaign shard files into one [`CampaignTallies`] accumulator —
/// line by line for JSONL shards, per parsed document for classic shards —
/// and validate that together they cover one campaign exactly once. The
/// deterministic-merge seam shared by `holes report` and `holes baseline
/// record`/`diff`: both commands see the identical merged campaign, so a
/// sharded baseline is byte-identical to an unsharded one.
fn fold_shard_files(paths: &[String]) -> Result<(CampaignSpec, CampaignTallies), String> {
    use std::io::{BufRead, Read};
    let mut specs: Vec<CampaignSpec> = Vec::new();
    let mut tallies: Option<CampaignTallies> = None;
    for path in paths {
        let file = std::fs::File::open(path).map_err(|e| format!("reading `{path}`: {e}"))?;
        let mut reader = std::io::BufReader::new(file);
        let mut first_line = String::new();
        reader
            .read_line(&mut first_line)
            .map_err(|e| format!("reading `{path}`: {e}"))?;
        if is_jsonl_shard(&first_line) {
            let (spec, levels) =
                parse_jsonl_header(first_line.trim_end()).map_err(|e| format!("`{path}`: {e}"))?;
            let into = tallies
                .get_or_insert_with(|| CampaignTallies::new(levels, spec.seeds.len() as usize));
            // Chain the already-consumed header line back in front of the
            // remaining stream, so the reader sees the whole file.
            let chained = std::io::Cursor::new(first_line.clone()).chain(reader);
            let summary = fold_jsonl_reader(chained, |record| into.add(&record))
                .map_err(|e| format!("`{path}`: {e}"))?;
            for _ in &summary.faults {
                into.add_fault();
            }
            specs.push(summary.spec);
        } else {
            // A classic holes.campaign/v1 document: parse it, fold its
            // records, and drop it before the next file is opened.
            let mut text = first_line;
            reader
                .read_to_string(&mut text)
                .map_err(|e| format!("reading `{path}`: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
            let shard = CampaignShard::from_json(&json).map_err(|e| format!("`{path}`: {e}"))?;
            let into = tallies.get_or_insert_with(|| {
                CampaignTallies::new(shard.result.levels.clone(), shard.spec.seeds.len() as usize)
            });
            for record in &shard.result.records {
                into.add(record);
            }
            for _ in &shard.result.faults {
                into.add_fault();
            }
            specs.push(shard.spec);
        }
    }
    let origins: Vec<String> = paths
        .iter()
        .zip(&specs)
        .map(|(path, spec)| format!("`{path}` (shard {}/{})", spec.shard, spec.shards))
        .collect();
    let campaign = validate_shard_specs(&specs)
        .map_err(|e| format!("{e}; inputs were: {}", origins.join(", ")))?;
    let tallies = tallies.expect("at least one input file was folded");
    Ok((campaign, tallies))
}

/// Render the merged campaign — JSON summary and/or the text tables — from
/// its one-pass tallies. Shared by the streaming and materializing paths,
/// which therefore cannot diverge byte-wise.
fn render_report(
    parsed: &Parsed,
    campaign: &CampaignSpec,
    tallies: &CampaignTallies,
    issues: Option<(&holes::pipeline::report::IssueReport, usize)>,
) -> Result<RunStatus, String> {
    // `--format sarif|junit` replaces the report output entirely with the
    // CI-native rendering of the unique-violation set; every other path
    // below is byte-identical to a binary without the option.
    if let Some(format) = parsed.opt("format") {
        let rendered = render_report_format(format, campaign, tallies)?;
        write_out(parsed, &rendered)?;
        out!("{rendered}");
        return Ok(RunStatus::from_faulted(tallies.faulted()));
    }
    // The JSON summary re-aggregates every tally; build it only when a
    // machine-readable sink asked for it.
    if parsed.switch("json") || parsed.opt("out").is_some() {
        let mut header = vec![
            ("format".to_owned(), Json::str("holes.report/v1")),
            (
                "personality".to_owned(),
                Json::str(campaign.personality.name()),
            ),
            (
                "compiler_version".to_owned(),
                Json::str(campaign.personality.version_names()[campaign.version]),
            ),
            ("seeds".to_owned(), Json::str(campaign.seeds.to_string())),
        ];
        if campaign.backend != BackendKind::Reg {
            header.push(("backend".to_owned(), Json::str(campaign.backend.name())));
        }
        header.push(("summary".to_owned(), tallies.summary_json()));
        if let Some((report, _)) = issues {
            header.push(("issues".to_owned(), report.to_json()));
        }
        let rendered = Json::Obj(header).to_pretty();
        write_out(parsed, &rendered)?;
        if parsed.switch("json") {
            out!("{rendered}");
            return Ok(RunStatus::from_faulted(tallies.faulted()));
        }
    }

    outln!(
        "campaign: {} {}, seeds {}{}, {} programs, {} violation records",
        campaign.personality,
        campaign.personality.version_names()[campaign.version],
        campaign.seeds,
        backend_suffix(campaign.backend),
        tallies.programs(),
        tallies.records(),
    );
    // Faulted subjects are reported, never dropped — but the line exists
    // only when there is something to report, keeping fault-free output
    // byte-identical to pre-containment reports.
    if tallies.faulted() > 0 {
        outln!(
            "faulted subjects: {} (contained; records above exclude them)",
            tallies.faulted(),
        );
    }
    outln!();
    outln!("Table 1: violations per level (unique across levels in the last row)");
    out!("{}", tallies.table1());
    outln!();
    outln!("violations at all levels: {}", tallies.at_all_levels());
    outln!(
        "clean programs: C1 {}, C2 {}, C3 {}",
        tallies.clean_programs(Conjecture::C1),
        tallies.clean_programs(Conjecture::C2),
        tallies.clean_programs(Conjecture::C3),
    );
    let venn = tallies.venn();
    if !venn.is_empty() {
        outln!();
        outln!("Venn distribution (level set -> unique violations):");
        for (levels, count) in venn {
            let key: Vec<&str> = levels.iter().map(|l| l.flag()).collect();
            outln!("  {:<28} {count}", key.join(","));
        }
    }
    if let Some((report, limit)) = issues {
        outln!();
        outln!("Table 3: issue classification (first {limit} unique violations)");
        out!("{}", report.render());
    }
    Ok(RunStatus::from_faulted(tallies.faulted()))
}

/// Render the merged campaign's unique-violation set as SARIF or JUnit —
/// each violation keyed by the same canonical fingerprint `baseline diff`
/// uses, so code-scanning UIs dedup results across runs consistently with
/// the gate.
fn render_report_format(
    format: &str,
    campaign: &CampaignSpec,
    tallies: &CampaignTallies,
) -> Result<String, String> {
    let violations: Vec<(ViolationFingerprint, String)> = tallies
        .unique_violations()
        .map(|((subject, conjecture, line, variable), levels)| {
            let fingerprint = ViolationFingerprint {
                seed: campaign.seeds.start + *subject as u64,
                conjecture: *conjecture,
                line: *line,
                variable: variable.to_string(),
            };
            let flags: Vec<&str> = levels.iter().map(|l| l.flag()).collect();
            (fingerprint, flags.join(","))
        })
        .collect();
    let describe = |fp: &ViolationFingerprint, levels: &String| {
        format!(
            "{} violation: variable `{}` at line {} of seed {} ({} {} at {levels})",
            fp.conjecture,
            fp.variable,
            fp.line,
            fp.seed,
            campaign.personality.name(),
            campaign.personality.version_names()[campaign.version],
        )
    };
    match format {
        "sarif" => {
            let results: Vec<SarifResult> = violations
                .iter()
                .map(|(fp, levels)| SarifResult {
                    rule: fp.conjecture,
                    level: "warning",
                    message: describe(fp, levels),
                    uri: format!("seed-{}.minic", fp.seed),
                    line: fp.line,
                    fingerprint: fp.to_string(),
                })
                .collect();
            Ok(sarif_log(&results).to_pretty())
        }
        "junit" => {
            let cases: Vec<TestCase> = violations
                .iter()
                .map(|(fp, levels)| TestCase {
                    classname: format!("holes.{}", fp.conjecture),
                    name: fp.to_string(),
                    outcome: CaseOutcome::Failed {
                        message: describe(fp, levels),
                    },
                })
                .collect();
            Ok(junit_xml("report", &cases))
        }
        other => Err(format!(
            "unknown report format `{other}` (expected `sarif` or `junit`)"
        )),
    }
}

// -------------------------------------------------------------- baseline

const BASELINE_USAGE: &str = "\
Usage: holes baseline record SHARD-FILE... [--out FILE] [--quiet]
       holes baseline diff BASELINE INPUT... [options]

record  Snapshot a merged campaign's unique-violation set into a
        deterministic holes.baseline/v1 document. The shard files must
        cover the campaign's full seed range exactly once (both shard
        formats are accepted); a sharded recording is byte-identical to an
        unsharded one.

diff    Compare a later run against a recorded baseline and partition its
        violations into known (in both), new (only in the run), and fixed
        (only in the baseline). INPUT is either another baseline file or
        the later run's shard files (auto-detected). The runs must share
        personality and backend; the seed range and compiler version may
        differ — growing the range and bumping the version are exactly the
        regression axes the gate exists for. Exits 3 when (and only when)
        *new* violations are present.

Options:
  --out FILE      Write the baseline (record) or the rendered diff (diff)
                  to FILE as well as stdout
  --format FMT    Diff rendering: text (default), json
                  (holes.baseline-diff/v1), sarif (new violations only, as
                  errors), or junit (known pass, new fail, fixed skipped)
  --quiet         Suppress the record summary line when --out is given
";

/// Read and validate one `holes.baseline/v1` file.
fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
    Baseline::from_json(&json).map_err(|e| format!("`{path}`: {e}"))
}

/// Whether a file is a baseline document (rather than a shard file),
/// decided by its `format` tag — JSONL shards never parse as one document,
/// so they fall through to shard handling naturally.
fn is_baseline_file(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    Ok(Json::parse(&text)
        .ok()
        .and_then(|json| json.get("format").and_then(Json::as_str).map(String::from))
        .is_some_and(|format| format == BASELINE_FORMAT))
}

fn cmd_baseline(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &["out", "format"],
        switches: &["quiet"],
        positionals: true,
    };
    let Some(parsed) = parse_or_help(argv, &spec, BASELINE_USAGE).map_err(|e| e.to_string())?
    else {
        return Ok(RunStatus::Clean);
    };
    match parsed.positionals() {
        [action, files @ ..] if action == "record" => baseline_record(&parsed, files),
        [action, baseline, inputs @ ..] if action == "diff" => {
            baseline_diff(&parsed, baseline, inputs)
        }
        [action] if action == "diff" => {
            Err("diff needs a baseline file and the later run's input".into())
        }
        [] => Err("missing action (try `holes baseline record` or `holes baseline diff`)".into()),
        [other, ..] => Err(format!(
            "unknown baseline action `{other}` (expected `record` or `diff`)"
        )),
    }
}

/// `holes baseline record`: fold the shard files and snapshot the merged
/// campaign's unique-violation set.
fn baseline_record(parsed: &Parsed, files: &[String]) -> Result<RunStatus, String> {
    if files.is_empty() {
        return Err("no shard files given".into());
    }
    if parsed.opt("format").is_some() {
        return Err("`--format` applies to `diff` only (a baseline has one format)".into());
    }
    let (campaign, tallies) = fold_shard_files(files)?;
    let baseline = Baseline::from_tallies(&campaign, &tallies);
    let rendered = baseline.to_json().to_pretty();
    let status = RunStatus::from_faulted(tallies.faulted());
    let Some(path) = parsed.opt("out") else {
        out!("{rendered}");
        return Ok(status);
    };
    std::fs::write(path, &rendered).map_err(|e| format!("writing `{path}`: {e}"))?;
    if !parsed.switch("quiet") {
        outln!(
            "baseline: {} {}, seeds {}{}: {} unique violations recorded",
            campaign.personality,
            campaign.personality.version_names()[campaign.version],
            campaign.seeds,
            backend_suffix(campaign.backend),
            baseline.fingerprints.len(),
        );
    }
    Ok(status)
}

/// `holes baseline diff`: compare a later run (baseline file or shard
/// files) against the recorded baseline; new violations gate with exit 3.
fn baseline_diff(
    parsed: &Parsed,
    baseline_path: &str,
    inputs: &[String],
) -> Result<RunStatus, String> {
    if inputs.is_empty() {
        return Err("diff needs a baseline file and the later run's input".into());
    }
    let baseline = load_baseline(baseline_path)?;
    let run = if inputs.len() == 1 && is_baseline_file(&inputs[0])? {
        load_baseline(&inputs[0])?
    } else {
        let (campaign, tallies) = fold_shard_files(inputs)?;
        Baseline::from_tallies(&campaign, &tallies)
    };
    let diff = baseline.diff(&run).map_err(|e| e.to_string())?;
    let rendered = match parsed.opt("format").unwrap_or("text") {
        "text" => diff.render(),
        "json" => diff.to_json().to_pretty(),
        "sarif" => diff.sarif().to_pretty(),
        "junit" => diff.junit(),
        other => {
            return Err(format!(
                "unknown diff format `{other}` (expected `text`, `json`, `sarif`, or `junit`)"
            ))
        }
    };
    write_out(parsed, &rendered)?;
    out!("{rendered}");
    if diff.has_regressions() {
        eprintln!(
            "holes: {} new violation(s) not in the baseline; exit status 3",
            diff.new.len(),
        );
        return Ok(RunStatus::Regressed);
    }
    Ok(RunStatus::Clean)
}

// ---------------------------------------------------------------- corpus

const CORPUS_USAGE: &str = "\
Usage: holes corpus add --corpus FILE (--seed S | SHARD-FILE...) [options]
       holes corpus replay --corpus FILE [options]

add     Distill known violations into replayable holes.corpus/v1 entries:
        triage the culprit pass, reduce the program while preserving the
        violation, and merge the entries into FILE (created if missing; an
        entry re-added for the same seed, configuration, and site replaces
        the old one). With --seed, distill the first violation of that
        seeded program; with shard files, distill up to --limit unique
        violations of the merged campaign in canonical order.

replay  Re-verify every entry of FILE: regenerate its program from the
        seed, probe the recorded violation site under the recorded
        configuration, and confirm the culprit attribution (a pass-level
        culprit must take the violation with it when disabled; an `isel`
        culprit must survive a zero-pass pipeline). Exits 3 listing the
        entries that no longer reproduce — run it first in CI, so known
        bugs fail fast before fresh seeds spend budget.

Options:
  --corpus FILE            The corpus to add to / replay (required)
  --seed S                 Distill from this seeded program (add)
  --limit N                Unique violations distilled per `add` run from
                           shard files (default: 5)
  --personality ccg|lcc    Personality for --seed mode (default: ccg)
  --compiler-version NAME  Version name for --seed mode (default: trunk)
  --backend reg|stack|frame  Machine model for --seed mode (default: reg)
  --level -O2              Level for --seed mode (default: first violating)
  --cache-dir DIR          Persist compiled artifacts under DIR and reuse
                           them across invocations (or set HOLES_CACHE_DIR);
                           distilled entries are mirrored into the store
  --quiet                  Suppress the per-entry progress lines
";

fn cmd_corpus(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "corpus",
            "seed",
            "limit",
            "personality",
            "compiler-version",
            "backend",
            "level",
            "cache-dir",
        ],
        switches: &["quiet"],
        positionals: true,
    };
    let Some(parsed) = parse_or_help(argv, &spec, CORPUS_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    match parsed.positionals() {
        [action, files @ ..] if action == "add" => corpus_add(&parsed, files),
        [action] if action == "replay" => corpus_replay(&parsed),
        [action, stray, ..] if action == "replay" => Err(format!(
            "unexpected argument `{stray}` after `replay` (the corpus is `--corpus FILE`)"
        )),
        [] => Err("missing action (try `holes corpus add` or `holes corpus replay`)".into()),
        [other, ..] => Err(format!(
            "unknown corpus action `{other}` (expected `add` or `replay`)"
        )),
    }
}

/// Read a corpus file, or start an empty corpus if the file does not exist
/// yet (so the first `corpus add` needs no separate init step).
fn load_corpus(path: &str) -> Result<Corpus, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Corpus::new());
        }
        Err(error) => return Err(format!("reading `{path}`: {error}")),
    };
    let json = Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
    Corpus::from_json(&json).map_err(|e| format!("`{path}`: {e}"))
}

/// `holes corpus add`: distill violations (from one seed or from shard
/// files) and merge the entries into the corpus file.
fn corpus_add(parsed: &Parsed, files: &[String]) -> Result<RunStatus, String> {
    let corpus_path = parsed
        .opt("corpus")
        .ok_or("missing required option `--corpus FILE`")?;
    let store = cache_store(parsed)?;
    let mut corpus = load_corpus(corpus_path)?;
    let entries = match parsed.opt("seed") {
        Some(raw) => {
            if !files.is_empty() {
                return Err(format!(
                    "cannot combine `--seed` with shard files (`{}`)",
                    files[0]
                ));
            }
            let seed: u64 = raw
                .parse()
                .map_err(|_| format!("invalid value for `--seed`: `{raw}`"))?;
            corpus_distill_seed(parsed, seed)?
        }
        None => {
            if files.is_empty() {
                return Err("nothing to add: give `--seed S` or shard files".into());
            }
            let limit: usize = parsed.opt_parse("limit", 5).map_err(|e| e.to_string())?;
            corpus_distill_shards(files, limit)?
        }
    };
    let mut added = 0usize;
    for entry in entries {
        // Mirror the distilled entry into the artifact store, beside the
        // compiled artifacts its replay will reuse.
        if let Some(store) = &store {
            let subject = Subject::from_seed(entry.seed);
            store.save_corpus_entry(
                SubjectKey::derive(entry.seed, &subject.source.text),
                &entry.config(),
                entry.conjecture,
                entry.line,
                &entry.variable,
                entry.to_json(),
            );
        }
        if !parsed.switch("quiet") {
            outln!(
                "corpus add: {} ({} {} {}{}), culprit {}, {} -> {} statements",
                entry.fingerprint(),
                entry.personality,
                entry.personality.version_names()[entry.version],
                entry.level.flag(),
                backend_suffix(entry.backend),
                entry.culprit.as_deref().unwrap_or("none"),
                entry.original_statements,
                entry.reduced_statements,
            );
        }
        if corpus.add(entry) {
            added += 1;
        }
    }
    let rendered = corpus.to_json().to_pretty();
    std::fs::write(corpus_path, &rendered).map_err(|e| format!("writing `{corpus_path}`: {e}"))?;
    if !parsed.switch("quiet") {
        outln!(
            "corpus: {} entries in `{corpus_path}` ({added} new)",
            corpus.entries.len(),
        );
    }
    Ok(RunStatus::Clean)
}

/// Distill the first violation of one seeded program (the `--seed` mode of
/// `corpus add`), honoring the personality/version/backend/level options.
fn corpus_distill_seed(parsed: &Parsed, seed: u64) -> Result<Vec<CorpusEntry>, String> {
    let personality = personality_of(parsed)?;
    let version = version_of(parsed, personality)?;
    let backend = backend_of(parsed)?;
    let subject = Subject::from_seed(seed);
    let levels: Vec<OptLevel> = match parsed.opt("level") {
        Some(raw) => {
            let level: OptLevel = raw.parse().map_err(|e| format!("{e}"))?;
            if !personality.levels().contains(&level) {
                return Err(format!(
                    "{personality} does not evaluate {level} (levels: {})",
                    personality
                        .levels()
                        .iter()
                        .map(|l| l.flag())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            vec![level]
        }
        None => personality.levels().to_vec(),
    };
    let found = levels.iter().find_map(|&level| {
        let config = CompilerConfig::new(personality, level)
            .with_version(version)
            .with_backend(backend);
        let violation = subject.violations(&config).first().cloned()?;
        Some((config, violation))
    });
    let Some((config, violation)) = found else {
        return Err(format!(
            "seed {seed}: no violations under {} {} at {}",
            personality,
            personality.version_names()[version],
            levels
                .iter()
                .map(|l| l.flag())
                .collect::<Vec<_>>()
                .join(", "),
        ));
    };
    Ok(vec![distill(&subject, &config, &violation)])
}

/// Distill up to `limit` unique violations of the merged campaign the
/// shard files describe, in canonical merged-record order (the shard-file
/// mode of `corpus add`).
fn corpus_distill_shards(files: &[String], limit: usize) -> Result<Vec<CorpusEntry>, String> {
    let mut shards = Vec::new();
    for path in files {
        shards.push(parse_shard_file(path)?);
    }
    let campaign = shards[0].spec.clone();
    let origins: Vec<String> = files
        .iter()
        .zip(&shards)
        .map(|(path, shard)| {
            format!(
                "`{path}` (shard {}/{})",
                shard.spec.shard, shard.spec.shards
            )
        })
        .collect();
    let result = merge_shards(shards)
        .map_err(|e: ShardError| format!("{e}; inputs were: {}", origins.join(", ")))?;
    let mut seen = std::collections::BTreeSet::new();
    let mut entries = Vec::new();
    for record in &result.records {
        if entries.len() >= limit {
            break;
        }
        if !seen.insert(unique_key(record)) {
            continue;
        }
        let subject = Subject::from_seed(record.seed);
        let config = CompilerConfig::new(campaign.personality, record.level)
            .with_version(campaign.version)
            .with_backend(campaign.backend);
        entries.push(distill(&subject, &config, &record.violation));
    }
    Ok(entries)
}

/// `holes corpus replay`: re-verify every entry in parallel; entries that
/// no longer reproduce (or whose culprit attribution fails) gate with
/// exit 3.
/// The outcome of replaying a whole corpus: rendered per-entry verdict
/// lines (with pass flags, so callers can filter under `--quiet`) and the
/// failure tally. Shared by `holes corpus replay` and the `--corpus`
/// seed-prioritization pre-pass of `campaign` and `serve`.
struct CorpusReplay {
    lines: Vec<(String, bool)>,
    total: usize,
    failed: usize,
}

fn replay_corpus(corpus_path: &str) -> Result<CorpusReplay, String> {
    let text = std::fs::read_to_string(corpus_path)
        .map_err(|e| format!("reading `{corpus_path}`: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("`{corpus_path}`: {e}"))?;
    let corpus = Corpus::from_json(&json).map_err(|e| format!("`{corpus_path}`: {e}"))?;
    let outcomes: Vec<ReplayOutcome> = par_map(&corpus.entries, |_, entry| {
        entry.replay(&Subject::from_seed(entry.seed))
    });
    let mut failed = 0usize;
    let mut lines = Vec::with_capacity(corpus.entries.len());
    for (entry, outcome) in corpus.entries.iter().zip(&outcomes) {
        let verdict = if outcome.passed() {
            "ok"
        } else if !outcome.reproduced {
            failed += 1;
            "FAILED (violation gone)"
        } else {
            failed += 1;
            "FAILED (culprit attribution no longer holds)"
        };
        lines.push((
            format!(
                "replay {} ({} {} {}{}): {verdict}",
                outcome.fingerprint,
                entry.personality,
                entry.personality.version_names()[entry.version],
                entry.level.flag(),
                backend_suffix(entry.backend),
            ),
            outcome.passed(),
        ));
    }
    Ok(CorpusReplay {
        lines,
        total: corpus.entries.len(),
        failed,
    })
}

fn corpus_replay(parsed: &Parsed) -> Result<RunStatus, String> {
    let corpus_path = parsed
        .opt("corpus")
        .ok_or("missing required option `--corpus FILE`")?;
    let _store = cache_store(parsed)?;
    let replay = replay_corpus(corpus_path)?;
    if replay.total == 0 {
        outln!("corpus replay: `{corpus_path}` has no entries");
        return Ok(RunStatus::Clean);
    }
    for (line, passed) in &replay.lines {
        if !parsed.switch("quiet") || !passed {
            outln!("{line}");
        }
    }
    outln!(
        "corpus replay: {} of {} entries reproduced",
        replay.total - replay.failed,
        replay.total,
    );
    if replay.failed > 0 {
        eprintln!(
            "holes: {} corpus entr(y/ies) failed to replay; exit status 3",
            replay.failed
        );
        return Ok(RunStatus::Regressed);
    }
    Ok(RunStatus::Clean)
}

/// Seed prioritization: when a campaign (or serve) run names a `--corpus`,
/// replay the known violations *first* and fail fast — exit 3 before any
/// fresh seed (or shard lease) spends budget — if one no longer
/// reproduces. All replay output goes to stderr so the campaign's own
/// stdout (shard JSON, merged stream) stays byte-identical with and
/// without the pre-pass.
fn corpus_prepass(parsed: &Parsed) -> Result<Option<RunStatus>, String> {
    let Some(corpus_path) = parsed.opt("corpus") else {
        return Ok(None);
    };
    let replay = replay_corpus(corpus_path)?;
    if replay.total == 0 {
        eprintln!("holes: corpus `{corpus_path}` has no entries; continuing");
        return Ok(None);
    }
    for (line, passed) in &replay.lines {
        if !parsed.switch("quiet") || !passed {
            eprintln!("{line}");
        }
    }
    eprintln!(
        "corpus replay: {} of {} entries reproduced",
        replay.total - replay.failed,
        replay.total,
    );
    if replay.failed > 0 {
        eprintln!(
            "holes: {} known violation(s) no longer reproduce; failing fast before \
             spending campaign budget; exit status 3",
            replay.failed
        );
        return Ok(Some(RunStatus::Regressed));
    }
    Ok(None)
}

// ----------------------------------------------------------- serve/work

/// SIGTERM → drain. The handler only stores to an atomic the coordinator
/// loop polls; `signal(2)` is declared directly (typed function-pointer
/// handler, no cast) so no foreign crate is needed.
#[cfg(unix)]
mod term {
    use std::sync::atomic::AtomicBool;

    pub static DRAIN: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        DRAIN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
}

#[cfg(not(unix))]
mod term {
    use std::sync::atomic::AtomicBool;

    pub static DRAIN: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

const SERVE_USAGE: &str = "\
Usage: holes serve --seeds A..B --listen ADDR --journal FILE [options]

Coordinate a distributed campaign: decompose the seed range into shard
leases, hand them to `holes work` workers over TCP (holes.rpc/v1), and
merge the accepted shards into a holes.campaign-jsonl/v1 stream that is
byte-identical to a single-process unsharded run of the same range.

Leases carry heartbeat deadlines: a worker that dies or is preempted
loses its lease after 4 missed beats, the shard requeues, and any late
result from the revoked lease is discarded — no subject is ever
double-counted. Every accepted shard is fsynced into the journal before
it is acknowledged, so a coordinator killed mid-campaign and restarted
with the same --journal resumes without re-running finished work. A
shard that burns --max-attempts leases is quarantined and reported
instead of hanging the campaign. SIGTERM drains: no new leases, in-flight
work finishes and is journaled, then the coordinator exits 2.

Options:
  --seeds A..B             Seed range of the whole campaign (required)
  --personality ccg|lcc    Compiler personality (default: ccg)
  --compiler-version NAME  Version name, e.g. trunk or 8.4 (default: trunk)
  --backend reg|stack|frame  Machine model to compile for (default: reg)
  --listen ADDR            host:port to accept workers on (required);
                           port 0 picks a free port (address on stderr)
  --journal FILE           holes.serve-journal/v1 crash journal (required)
  --lease-shards K         Shard leases to cut the campaign into
                           (default: 16)
  --heartbeat-ms N         Worker heartbeat cadence, 1..=86400000
                           (default: 500)
  --max-attempts N         Leases a shard may burn before quarantine
                           (default: 3)
  --out FILE               Write the merged stream here instead of stdout
  --corpus FILE            Prioritize known violations: replay the
                           holes.corpus/v1 entries of FILE and fail fast
                           with exit 3 before any lease is granted
  --cache-dir DIR          Also serve a fleet-wide artifact cache out of
                           DIR (holes.cache-rpc/v1, same listener; or set
                           HOLES_CACHE_DIR); workers opt in with
                           --cache-server. HOLES_CACHE_CHAOS=
                           drop:N|corrupt:N|delay:N mutates the N-th
                           cache reply for chaos testing
  --quiet                  Suppress lease progress on stderr

Exit status: 0 — complete, no contained faults; 2 — complete with
contained faults, or cut short by quarantined shards or a SIGTERM drain
(the merged output is only written when every shard completed); 1 — hard
failure (bad spec, unusable journal, socket errors).
";

fn cmd_serve(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "seeds",
            "personality",
            "compiler-version",
            "backend",
            "listen",
            "journal",
            "lease-shards",
            "heartbeat-ms",
            "max-attempts",
            "out",
            "corpus",
            "cache-dir",
        ],
        switches: &["quiet"],
        positionals: false,
    };
    let Some(parsed) = parse_or_help(argv, &spec, SERVE_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    let personality = personality_of(&parsed)?;
    let campaign = CampaignSpec::new(
        personality,
        version_of(&parsed, personality)?,
        seeds_of(&parsed)?,
    )
    .with_backend(backend_of(&parsed)?);
    let listen = parsed
        .opt("listen")
        .ok_or("missing required option `--listen ADDR`")?;
    let journal = parsed
        .opt("journal")
        .ok_or("missing required option `--journal FILE`")?;
    if let Some(regressed) = corpus_prepass(&parsed)? {
        return Ok(regressed);
    }
    let heartbeat_ms: u64 = parsed
        .opt_parse("heartbeat-ms", 500)
        .map_err(|e| e.to_string())?;
    // Reject nonsense cadences at the door rather than letting them reach
    // deadline arithmetic: zero would revoke every lease instantly, and
    // anything beyond a day is a typo'd unit, not a heartbeat.
    const MAX_HEARTBEAT_MS: u64 = 24 * 60 * 60 * 1000;
    if heartbeat_ms == 0 || heartbeat_ms > MAX_HEARTBEAT_MS {
        return Err(format!(
            "`--heartbeat-ms {heartbeat_ms}` is out of range (expected 1..={MAX_HEARTBEAT_MS})"
        ));
    }
    let config = ServeConfig {
        lease_shards: parsed
            .opt_parse("lease-shards", 16)
            .map_err(|e| e.to_string())?,
        lease: LeaseConfig {
            heartbeat: std::time::Duration::from_millis(heartbeat_ms),
            max_attempts: parsed
                .opt_parse("max-attempts", 3)
                .map_err(|e| e.to_string())?,
        },
        journal: std::path::PathBuf::from(journal),
        cache: cache_store(&parsed)?,
        cache_chaos: None,
        quiet: parsed.switch("quiet"),
    };
    let coordinator = Coordinator::bind(listen).map_err(|e| format!("binding `{listen}`: {e}"))?;
    // Always announced (even under --quiet): with `--listen 127.0.0.1:0`
    // this line is how anyone learns the actual port.
    eprintln!(
        "serve: listening on {}",
        coordinator.local_addr().map_err(|e| e.to_string())?
    );
    term::install();
    let report = coordinator
        .run(&campaign, &config, &term::DRAIN)
        .map_err(|e| e.to_string())?;

    for (index, cause) in &report.quarantined {
        eprintln!("holes: shard {index} quarantined: {cause}");
    }
    if !report.complete() {
        if !report.quarantined.is_empty() {
            eprintln!(
                "holes: {} shard(s) quarantined; merged output not written; exit status 2",
                report.quarantined.len()
            );
        }
        if report.drained {
            eprintln!(
                "holes: drained before completion; merged output not written \
                 (resume with the same --journal); exit status 2"
            );
        }
        return Ok(RunStatus::Faulted);
    }

    let merged = match parsed.opt("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("writing `{path}`: {e}"))?;
            let run = report
                .write_merged(std::io::BufWriter::new(file))
                .map_err(|e| format!("writing `{path}`: {e}"))?;
            if !parsed.switch("quiet") {
                outln!(
                    "serve: campaign complete: {} shards, {} programs, {} violation records \
                     (merged)",
                    report.shards.len(),
                    campaign.seeds.len(),
                    run.records,
                );
            }
            run
        }
        None => match report.write_merged(std::io::stdout().lock()) {
            Ok(run) => run,
            // A closed pipe downstream is a clean exit for a Unix filter,
            // matching `campaign --jsonl`.
            Err(holes::pipeline::serve::ServeError::Io(error))
                if error.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                std::process::exit(0);
            }
            Err(error) => return Err(error.to_string()),
        },
    };
    Ok(RunStatus::from_faulted(merged.faulted))
}

const WORK_USAGE: &str = "\
Usage: holes work --connect ADDR [options]

Run a campaign worker: lease shards from a `holes serve` coordinator,
evaluate them with fault containment, heartbeat in the background, and
submit the results. Shards stream through the resumable JSON Lines
writer into --work-dir, so a worker killed mid-shard (kill -9 included)
and restarted over the same directory re-evaluates only the unfinished
suffix of its shard.

Options:
  --connect ADDR           Coordinator host:port (required)
  --work-dir DIR           Directory for in-progress shard streams
                           (default: holes-work); keep it stable across
                           restarts — that is what makes recovery cheap
  --worker-id NAME         Label shown in coordinator logs (default: pid-N)
  --fuel-limit N           Contain subjects whose machines exceed N steps
                           as fault records instead of truncating silently
  --patience-ms N          How long to retry an unreachable coordinator —
                           which may be restarting from its journal —
                           before shutting down cleanly (default: 10000)
  --cache-dir DIR          Persist compiled artifacts under DIR and reuse
                           them across invocations (or set HOLES_CACHE_DIR)
  --cache-server ADDR      Fetch artifacts from (and write them through
                           to) the coordinator's shared cache at ADDR
                           (holes.cache-rpc/v1); without --cache-dir the
                           local tier defaults to WORK-DIR/cache. Every
                           fetched artifact is revalidated like a disk
                           load — a corrupt or stale reply is quarantined
                           and recomputed, never trusted
  --cache-failures N       Consecutive cache transport failures before the
                           circuit breaker degrades this worker to
                           local-only caching, with periodic re-probes
                           (default: 3)
  --stats                  Report cache/store statistics on stderr, and
                           the process's peak RSS at exit
  --quiet                  Suppress per-lease progress on stderr

A worker exits 0 when the coordinator reports the campaign over (or
stays unreachable past the patience window) and 1 on hard errors. An
unreachable or misbehaving cache server is never fatal: the worker
degrades to local-only caching and still exits 0. Results from revoked
leases are submitted anyway and discarded by the coordinator —
preemption never double-counts a subject.
HOLES_SERVE_CHAOS=abort:N|preempt:N injects deterministic failures for
chaos testing (see `holes serve`).
";

fn cmd_work(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "connect",
            "work-dir",
            "worker-id",
            "fuel-limit",
            "patience-ms",
            "cache-dir",
            "cache-server",
            "cache-failures",
        ],
        switches: &["quiet", "stats"],
        positionals: false,
    };
    let Some(parsed) = parse_or_help(argv, &spec, WORK_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    let mut store = cache_store(&parsed)?;
    let work_dir = std::path::PathBuf::from(parsed.opt("work-dir").unwrap_or("holes-work"));
    if let Some(server) = parsed.opt("cache-server") {
        if store.is_none() {
            // The remote tier layers under a local store; default to a
            // cache beside the shard streams so `--cache-server` alone
            // gives the full memory → disk → remote ladder.
            let root = work_dir.join("cache");
            match ArtifactStore::open(&root) {
                Ok(local) => {
                    let local = Arc::new(local);
                    install_process_store(Some(Arc::clone(&local)));
                    store = Some(local);
                }
                Err(error) => eprintln!(
                    "holes: cache at {} unusable ({error}); continuing with in-memory caching only",
                    root.display()
                ),
            }
        }
        if let Some(local) = &store {
            let failures: u32 = parsed
                .opt_parse("cache-failures", 3)
                .map_err(|e| e.to_string())?;
            let remote = RemoteStore::new(server)
                .with_failure_threshold(failures)
                .with_quiet(parsed.switch("quiet"));
            local.attach_remote(Arc::new(remote));
        }
    } else if parsed.opt("cache-failures").is_some() {
        return Err("`--cache-failures` requires `--cache-server ADDR`".into());
    }
    let policy = policy_of(&parsed)?;
    let connect = parsed
        .opt("connect")
        .ok_or("missing required option `--connect ADDR`")?;
    let patience_ms: u64 = parsed
        .opt_parse("patience-ms", 10_000)
        .map_err(|e| e.to_string())?;
    let config = WorkerConfig {
        connect: connect.to_owned(),
        work_dir,
        policy,
        worker_id: parsed
            .opt("worker-id")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("pid-{}", std::process::id())),
        patience: std::time::Duration::from_millis(patience_ms),
        quiet: parsed.switch("quiet"),
    };
    let outcome = run_worker(&config).map_err(|e| e.to_string())?;
    if parsed.switch("stats") {
        print_stats(&outcome.stats, store.as_ref());
    }
    if !parsed.switch("quiet") {
        outln!(
            "work: {} lease(s), {} accepted, {} discarded, {} subject(s) resumed",
            outcome.leases,
            outcome.accepted,
            outcome.discarded,
            outcome.resumed_subjects,
        );
    }
    Ok(RunStatus::Clean)
}

// ---------------------------------------------------------------- triage

const TRIAGE_USAGE: &str = "\
Usage: holes triage --seeds A..B [options]
       holes triage --seeds A..B --shards K --shard I [options]
       holes triage SHARD-FILE... [options]

Run the campaign over the seed range and attribute a sample of its unique
violations to culprit optimizations: pass bisection for lcc, per-flag
disabling for ccg (Table 2).

With --shards/--shard, run one shard of a sharded triage and emit a
deterministic holes.triage-shard/v1 JSON file; in shard mode the limit is
applied per conjecture *per subject* (selection is then shard-local), and
K merged shard files reproduce the K=1 run exactly. With shard FILEs as
positional arguments, merge them and render Table 2.

Options:
  --seeds A..B             Seed range (required unless merging files)
  --personality ccg|lcc    Compiler personality (default: ccg)
  --compiler-version NAME  Version name (default: trunk)
  --backend reg|stack|frame  Machine model to compile for (default: reg)
  --shards K               Total number of triage shards
  --shard I                This run's shard index, 0-based
  --limit N                Violations triaged per conjecture (default: 10);
                           per subject in shard mode
  --top M                  Culprits listed per conjecture (default: 5)
  --json                   Print the machine-readable table instead
  --out FILE               Also write the JSON output to FILE
  --quiet                  Suppress the shard-mode progress summary
  --fuel-limit N           Contain subjects whose machines exceed N steps
                           as faults instead of truncating silently
  --cache-dir DIR          Persist compiled artifacts under DIR and reuse
                           them across invocations (or set HOLES_CACHE_DIR)
  --stats                  Report cache/store statistics on stderr, and
                           the process's peak RSS at exit
";

fn cmd_triage(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "seeds",
            "personality",
            "compiler-version",
            "backend",
            "shards",
            "shard",
            "limit",
            "top",
            "out",
            "cache-dir",
            "fuel-limit",
        ],
        switches: &["json", "stats", "quiet"],
        positionals: true,
    };
    let Some(parsed) = parse_or_help(argv, &spec, TRIAGE_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    let store = cache_store(&parsed)?;
    let policy = policy_of(&parsed)?;
    let top: usize = parsed.opt_parse("top", 5).map_err(|e| e.to_string())?;
    if !parsed.positionals().is_empty() {
        // Merge mode is selected by the positional shard files; run-mode
        // options would be silently ignored, so a mixture is an error (a
        // stray token must not hijack a campaign invocation).
        for option in [
            "seeds",
            "personality",
            "compiler-version",
            "backend",
            "shards",
            "shard",
            "limit",
            "fuel-limit",
        ] {
            if parsed.opt(option).is_some() {
                return Err(format!(
                    "cannot combine shard files with `--{option}` (merge mode takes only \
                     `--top`, `--json`, and `--out`)"
                ));
            }
        }
        return triage_merge(&parsed, top);
    }
    let seeds = seeds_of(&parsed)?;
    let personality = personality_of(&parsed)?;
    let version = version_of(&parsed, personality)?;
    let backend = backend_of(&parsed)?;
    let limit: usize = parsed.opt_parse("limit", 10).map_err(|e| e.to_string())?;
    let spec = CampaignSpec::new(personality, version, seeds).with_backend(backend);
    if parsed.opt("shards").is_some() || parsed.opt("shard").is_some() {
        let spec = spec.with_shard(
            parsed.opt_parse("shards", 1).map_err(|e| e.to_string())?,
            parsed.opt_parse("shard", 0).map_err(|e| e.to_string())?,
        );
        return triage_shard_mode(&parsed, &spec, limit, &policy, store.as_ref());
    }
    let subjects = subject_pool(seeds.start, seeds.len() as usize);
    let (result, _) = run_campaign(&subjects, &spec, &policy);
    let (table, triage_faults, stats) = triage_campaign(&subjects, &spec, &result, limit, &policy);
    let faulted = result.faults.len() + triage_faults.len();
    if parsed.switch("stats") {
        print_stats(&stats, store.as_ref());
    }
    let rendered = table.to_json().to_pretty();
    write_out(&parsed, &rendered)?;
    if parsed.switch("json") {
        out!("{rendered}");
        return Ok(RunStatus::from_faulted(faulted));
    }
    outln!(
        "triage: {} {}, seeds {}{}, up to {limit} violations per conjecture",
        personality,
        personality.version_names()[version],
        seeds,
        backend_suffix(backend),
    );
    outln!();
    outln!("Table 2: culprit passes per conjecture (top {top})");
    out!("{}", table.render(top));
    Ok(RunStatus::from_faulted(faulted))
}

/// The shard mode of `holes triage`: run one shard, emit its
/// `holes.triage-shard/v1` JSON.
fn triage_shard_mode(
    parsed: &Parsed,
    spec: &CampaignSpec,
    limit: usize,
    policy: &FaultPolicy,
    store: Option<&Arc<ArtifactStore>>,
) -> Result<RunStatus, String> {
    let (shard, faults, stats) =
        run_triage_shard(spec, limit, policy).map_err(|e| e.to_string())?;
    if parsed.switch("stats") {
        print_stats(&stats, store);
    }
    let status = RunStatus::from_faulted(faults.len());
    let rendered = shard.to_json().to_pretty();
    let Some(path) = parsed.opt("out") else {
        out!("{rendered}");
        return Ok(status);
    };
    std::fs::write(path, &rendered).map_err(|e| format!("writing `{path}`: {e}"))?;
    if !parsed.switch("quiet") {
        outln!(
            "triage: {} {}, seeds {}, shard {}/{}{}, up to {limit} violations per conjecture \
             per subject",
            spec.personality,
            spec.personality.version_names()[spec.version],
            spec.seeds,
            spec.shard,
            spec.shards,
            backend_suffix(spec.backend),
        );
    }
    Ok(status)
}

/// The merge mode of `holes triage`: fold triage shard files back into the
/// monolithic Table 2.
fn triage_merge(parsed: &Parsed, top: usize) -> Result<RunStatus, String> {
    let mut shards = Vec::new();
    for path in parsed.positionals() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
        shards.push(TriageShard::from_json(&json).map_err(|e| format!("`{path}`: {e}"))?);
    }
    let first = shards[0].clone();
    let table = merge_triage_shards(shards).map_err(|e| e.to_string())?;
    let rendered = table.to_json().to_pretty();
    write_out(parsed, &rendered)?;
    if parsed.switch("json") {
        out!("{rendered}");
        return Ok(RunStatus::Clean);
    }
    // No shard count in the header: merging K files must render
    // byte-identically to merging the single K=1 file.
    outln!(
        "triage: {} {}, seeds {}{}, up to {} violations per conjecture per subject",
        first.spec.personality,
        first.spec.personality.version_names()[first.spec.version],
        first.spec.seeds,
        backend_suffix(first.spec.backend),
        first.limit,
    );
    outln!();
    outln!("Table 2: culprit passes per conjecture (top {top})");
    out!("{}", table.render(top));
    Ok(RunStatus::Clean)
}

// ---------------------------------------------------------------- reduce

const REDUCE_USAGE: &str = "\
Usage: holes reduce --seed S [options]

Find a conjecture violation on the seeded program, triage its culprit
optimization, and shrink the program while preserving both the violation
and the culprit (the paper's reduction oracle).

Options:
  --seed S                 Program seed (required)
  --personality ccg|lcc    Compiler personality (default: ccg)
  --compiler-version NAME  Version name (default: trunk)
  --backend reg|stack|frame  Machine model to compile for (default: reg)
  --level -O2              Optimization level (default: first violating)
  --no-culprit             Reduce without preserving the culprit
  --fuel-limit N           Contain a reduction whose oracle machines exceed
                           N steps as a fault (exit 2) instead of hanging
  --cache-dir DIR          Persist compiled artifacts under DIR and reuse
                           them across invocations (or set HOLES_CACHE_DIR)
";

fn cmd_reduce(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &[
            "seed",
            "personality",
            "compiler-version",
            "backend",
            "level",
            "cache-dir",
            "fuel-limit",
        ],
        switches: &["no-culprit"],
        positionals: false,
    };
    let Some(parsed) = parse_or_help(argv, &spec, REDUCE_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    let _store = cache_store(&parsed)?;
    let policy = policy_of(&parsed)?;
    let seed: u64 = match parsed.opt("seed") {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for `--seed`: `{raw}`"))?,
        None => return Err("missing required option `--seed S`".into()),
    };
    let personality = personality_of(&parsed)?;
    let version = version_of(&parsed, personality)?;
    let backend = backend_of(&parsed)?;
    let subject = Subject::from_seed(seed);

    // Pick the level: the requested one, or the first level that violates.
    let levels: Vec<OptLevel> = match parsed.opt("level") {
        Some(raw) => {
            let level: OptLevel = raw.parse().map_err(|e| format!("{e}"))?;
            if !personality.levels().contains(&level) {
                return Err(format!(
                    "{personality} does not evaluate {level} (levels: {})",
                    personality
                        .levels()
                        .iter()
                        .map(|l| l.flag())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            vec![level]
        }
        None => personality.levels().to_vec(),
    };
    let found = levels.iter().find_map(|&level| {
        let config = CompilerConfig::new(personality, level)
            .with_version(version)
            .with_backend(backend);
        let violation = subject.violations(&config).first().cloned()?;
        Some((config, violation))
    });
    let Some((config, violation)) = found else {
        outln!(
            "seed {seed}: no violations under {} {} at {}",
            personality,
            personality.version_names()[version],
            levels
                .iter()
                .map(|l| l.flag())
                .collect::<Vec<_>>()
                .join(", "),
        );
        return Ok(RunStatus::Clean);
    };
    outln!(
        "seed {seed}: {} violation at {} — variable `{}` at line {}, observed {}",
        violation.conjecture,
        config.describe(),
        violation.variable,
        violation.line,
        violation.observed,
    );

    let culprit = if parsed.switch("no-culprit") {
        None
    } else {
        let outcome = triage(&subject, &config, &violation);
        match outcome.culprits.first() {
            Some(pass) => {
                outln!("culprit: {pass} (of {:?})", outcome.culprits);
                Some(pass.clone())
            }
            None => {
                outln!("culprit: none identified; reducing without culprit preservation");
                None
            }
        }
    };
    let subject = subject.with_fuel_limit(policy.fuel_limit);
    let reduced = match fault::contain(&policy, seed, 0, || {
        reduce(&subject, &config, &violation, culprit.as_deref())
    }) {
        SubjectOutcome::Completed(reduced) => reduced,
        SubjectOutcome::Faulted(fault) => {
            eprintln!(
                "holes: reduction of seed {seed} faulted during {} and was contained: {}",
                fault.stage, fault.cause,
            );
            return Ok(RunStatus::Faulted);
        }
    };
    outln!(
        "reduced {} -> {} statements ({:.0}% smaller) in {} attempts",
        reduced.original_statements,
        reduced.reduced_statements,
        reduced.reduction_ratio() * 100.0,
        reduced.attempts,
    );
    outln!();
    outln!("// reduced program (seed {seed})");
    out!("{}", reduced.subject.source.text);
    Ok(RunStatus::Clean)
}

// ----------------------------------------------------------------- cache

const CACHE_USAGE: &str = "\
Usage: holes cache gc --max-bytes N [--cache-dir DIR]

Garbage-collect the persistent artifact store down to at most N bytes,
evicting whole fingerprints (every artifact of one subject+configuration
pair together) oldest-first by modification time. Safe to run while
campaign shards are writing to the same store.

Options:
  --max-bytes N    Byte budget the store is collected down to (required)
  --cache-dir DIR  The store to collect (or set HOLES_CACHE_DIR)
";

fn cmd_cache(argv: &[String]) -> Result<RunStatus, String> {
    let spec = Spec {
        options: &["max-bytes", "cache-dir"],
        switches: &[],
        positionals: true,
    };
    let Some(parsed) = parse_or_help(argv, &spec, CACHE_USAGE).map_err(|e| e.to_string())? else {
        return Ok(RunStatus::Clean);
    };
    match parsed.positionals() {
        [action] if action == "gc" => {}
        [action, stray, ..] if action == "gc" => {
            return Err(format!(
                "unexpected argument `{stray}` after `gc` (the budget is `--max-bytes N`)"
            ));
        }
        [] => return Err("missing action (try `holes cache gc --max-bytes N`)".into()),
        [other, ..] => return Err(format!("unknown cache action `{other}` (expected `gc`)")),
    }
    let store = cache_store(&parsed)?
        .ok_or("no artifact store configured (use --cache-dir or HOLES_CACHE_DIR)")?;
    let max_bytes: u64 = match parsed.opt("max-bytes") {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for `--max-bytes`: `{raw}`"))?,
        None => return Err("missing required option `--max-bytes N`".into()),
    };
    let stats = store
        .gc(max_bytes)
        .map_err(|e| format!("collecting `{}`: {e}", store.root().display()))?;
    outln!(
        "cache gc: {} -> {} bytes (budget {max_bytes}); evicted {} fingerprints, {} files, \
         {} bytes",
        stats.scanned_bytes,
        stats.remaining_bytes,
        stats.evicted_fingerprints,
        stats.deleted_files,
        stats.deleted_bytes,
    );
    Ok(RunStatus::Clean)
}
