//! `holes-replay` — the traced half of the benchmark.
//!
//! It repeats the work of one benchmark round through the library's public
//! functions, wrapping each call into a layer in a span (see [`span`]), and
//! prints one JSON object: per-layer calls and self times, the cache and
//! store counters the `holes` CLI reports with `--stats`, and per-layer work
//! counts. The outputs it writes (campaign document, triage JSON, reduce
//! transcripts) are byte-compared against the CLI's by
//! `perfbench/run.py`, so the replay provably did the same work.
//!
//! ```text
//! holes-replay campaign --personality P --seeds A..B --out FILE [--cache-dir EMPTY-DIR]
//! holes-replay triage --personality P --seeds A..B --out FILE [--cache-dir DIR]
//!                     [--reduce S,S,...] [--reduce-dir DIR]
//! ```
//!
//! Where the program keeps a layer's internals private the span is
//! inclusive: `triage` wraps `triage::bisect`, `reduce` wraps
//! `reduce::reduce`, and on the triage shapes (whose bisections must reuse
//! the subject's artifact cache) `compiler.whole` / `debugger.whole` wrap
//! `Subject::compile_shared` / `Subject::trace_shared` without the
//! lower/passes/codegen and plan/trace split the campaign shape records.

mod span;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use holes::compiler::passes::run_pipeline;
use holes::compiler::{backend_for, lower, CompilerConfig, Executable, Personality};
use holes::core::{check_all, Violation};
use holes::debugger::{trace_with_plan, DebuggerKind, StopPlan};
use holes::pipeline::campaign::{unique_key, CampaignResult, ViolationRecord};
use holes::pipeline::reduce::reduce;
use holes::pipeline::shard::{CampaignShard, CampaignSpec};
use holes::pipeline::triage::{bisect, TriageTable};
use holes::pipeline::{ArtifactStore, CacheStats, Subject, SubjectKey};
use holes::progen::{GeneratedProgram, ProgramGenerator, SeedRange};

use span::span;

/// The file name every compilation records in its debug information (the
/// compiler's own `compile` uses the same one).
const SOURCE_NAME: &str = "testcase.c";

struct Options {
    seeds: SeedRange,
    personality: Personality,
    out: PathBuf,
    cache_dir: Option<PathBuf>,
    reduce: Vec<u64>,
    reduce_dir: Option<PathBuf>,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name, value);
    }
    let seeds = values
        .get("seeds")
        .ok_or("missing `--seeds A..B`")?
        .parse()
        .map_err(|e| format!("--seeds: {e}"))?;
    let personality = values
        .get("personality")
        .ok_or("missing `--personality P`")?
        .parse()
        .map_err(|e| format!("--personality: {e}"))?;
    let reduce = match values.get("reduce") {
        Some(raw) if !raw.is_empty() => raw
            .split(',')
            .map(|s| s.parse().map_err(|e| format!("--reduce `{s}`: {e}")))
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    Ok(Options {
        seeds,
        personality,
        out: PathBuf::from(values.get("out").ok_or("missing `--out FILE`")?),
        cache_dir: values.get("cache-dir").map(PathBuf::from),
        reduce,
        reduce_dir: values.get("reduce-dir").map(PathBuf::from),
    })
}

/// Work counts recorded at the layer boundaries, plus the CLI's `--stats`
/// counters as the replay reconstructs them.
#[derive(Default)]
struct Counts {
    cache: CacheStats,
    stmts: usize,
    passes_run: usize,
    instrs: usize,
    plans: usize,
    plan_len: usize,
    stops: usize,
    violations: usize,
    bisections: usize,
    probes: usize,
    reductions: usize,
    reduce_attempts: usize,
    reduce_ratio_sum: f64,
    campaign_output_bytes: usize,
    triage_output_bytes: usize,
    store_read_bytes: u64,
    store_write_bytes: u64,
}

/// This process's read and write byte counters from `/proc/self/io`
/// (zeros where the kernel does not offer it). `read` does not include the
/// `own_read` bytes of reading the counters themselves.
#[derive(Clone, Copy)]
struct IoCounters {
    read: u64,
    written: u64,
    own_read: u64,
}

impl IoCounters {
    fn now() -> IoCounters {
        let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
            return IoCounters {
                read: 0,
                written: 0,
                own_read: 0,
            };
        };
        let field = |name: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|value| value.trim().parse().ok())
                .unwrap_or(0)
        };
        IoCounters {
            read: field("rchar:"),
            written: field("wchar:"),
            own_read: text.len() as u64,
        }
    }

    /// Bytes read and written since `start`, other than reading counters.
    fn since(self, start: IoCounters) -> (u64, u64) {
        (
            self.read.saturating_sub(start.read + start.own_read),
            self.written - start.written,
        )
    }
}

/// `holes_compiler::compile`, one span per stage.
fn compile_traced(
    generated: &GeneratedProgram,
    config: &CompilerConfig,
    counts: &mut Counts,
) -> Executable {
    let program = &generated.program;
    let mut ir = span("compiler.lower", || lower::lower_program(program));
    let mut report = span("compiler.passes", || run_pipeline(&mut ir, program, config));
    let (machine, debug, applied) = span("compiler.codegen", || {
        backend_for(config.backend).codegen(program, &ir, SOURCE_NAME, config)
    });
    report
        .defects_applied
        .extend(applied.iter().map(|id| (*id).to_owned()));
    counts.passes_run += report.passes_run.len();
    let executable = Executable {
        machine,
        debug,
        config: config.clone(),
        report,
    };
    counts.instrs += executable.code_size();
    counts.cache.compiles += 1;
    executable
}

/// One campaign cell — the violation set of a program under a
/// configuration — computed the way `Subject::violations_shared` does on a
/// fresh cache, writing every artifact through to the store when one is
/// attached.
fn campaign_cell(
    generated: &GeneratedProgram,
    config: &CompilerConfig,
    kind: DebuggerKind,
    store: Option<(&ArtifactStore, SubjectKey)>,
    counts: &mut Counts,
) -> Vec<Violation> {
    if let Some((store, key)) = store {
        // The lookups the CLI's cache makes before computing. This shape
        // replays empty stores only, where every one misses.
        let hit = span("store.load", || {
            store.load_violations(key, config, kind).is_some()
                || store.load_trace(key, config, kind).is_some()
                || store.load_executable(key, config).is_some()
        });
        assert!(!hit, "the campaign shape replays empty stores only");
    }
    let executable = compile_traced(generated, config, counts);
    if let Some((store, key)) = store {
        span("store.save", || store.save_executable(key, &executable));
    }
    let plan = span("debugger.plan", || StopPlan::compute(&executable, kind));
    let trace = span("debugger.trace", || trace_with_plan(&executable, &plan));
    counts.plans += 1;
    counts.plan_len += plan.len();
    counts.stops += trace.stops.len();
    counts.cache.traces += 1;
    counts.cache.plan_hits += trace.stops.len();
    if let Some((store, key)) = store {
        span("store.save", || store.save_trace(key, config, kind, &trace));
    }
    let violations = span("core.check", || {
        check_all(
            &generated.program,
            &generated.analysis,
            &generated.source,
            &trace,
        )
    });
    counts.cache.checks += 1;
    if let Some((store, key)) = store {
        span("store.save", || {
            store.save_violations(key, config, kind, &violations)
        });
    }
    violations
}

/// The campaign shape: `holes campaign --seeds A..B --out FILE
/// [--cache-dir DIR]`.
fn replay_campaign(
    options: &Options,
    store: Option<&ArtifactStore>,
    counts: &mut Counts,
) -> Result<(), String> {
    let personality = options.personality;
    let version = personality.trunk();
    let levels = personality.levels();
    let kind = DebuggerKind::native_for(personality);
    let mut records = Vec::new();
    let io_start = IoCounters::now();
    for seed in options.seeds.iter() {
        let generated = span("progen", || ProgramGenerator::from_seed(seed).generate());
        counts.stmts += generated.program.stmt_count();
        let key = SubjectKey::derive(seed, &generated.source.text);
        for &level in levels {
            let config = CompilerConfig::new(personality, level).with_version(version);
            let violations =
                campaign_cell(&generated, &config, kind, store.map(|s| (s, key)), counts);
            counts.violations += violations.len();
            records.extend(violations.into_iter().map(|violation| ViolationRecord {
                seed,
                subject: (seed - options.seeds.start) as usize,
                level,
                violation,
            }));
        }
    }
    if store.is_some() {
        // Nothing else reads or writes files in this phase.
        (counts.store_read_bytes, counts.store_write_bytes) = IoCounters::now().since(io_start);
    }
    let shard = CampaignShard {
        spec: CampaignSpec::new(personality, version, options.seeds),
        result: CampaignResult {
            records,
            programs: options.seeds.len() as usize,
            levels: levels.to_vec(),
            faults: Vec::new(),
        },
    };
    span("campaign.output", || {
        let rendered = shard.to_json().to_pretty();
        counts.campaign_output_bytes += rendered.len();
        std::fs::write(&options.out, &rendered)
            .map_err(|e| format!("writing {}: {e}", options.out.display()))
    })
}

/// Sum of the cache counters of every subject.
fn pool_stats(subjects: &[Subject]) -> CacheStats {
    let mut stats = CacheStats::default();
    for subject in subjects {
        stats.absorb(subject.cache_stats());
    }
    stats
}

/// The violations of one campaign cell on a cached [`Subject`]. With a
/// store attached this is the single lookup the CLI makes (a disk load
/// when warm). Without one, the executable and trace are requested first,
/// each in its own span; that primes the cache, so the lookups nested in
/// the next call hit, and `primed_hits` records the two extra hits.
fn subject_cell(
    subject: &Subject,
    config: &CompilerConfig,
    kind: DebuggerKind,
    primed_hits: &mut usize,
) -> Arc<Vec<Violation>> {
    if subject.store().is_some() {
        return span("store.load", || subject.violations_shared(config, kind));
    }
    span("compiler.whole", || subject.compile_shared(config));
    span("debugger.whole", || subject.trace_shared(config, kind));
    *primed_hits += 2;
    span("core.check", || subject.violations_shared(config, kind))
}

/// `triage::bisect` in a span, with the work it did inside (from the
/// subject's cache counters) counted as probes: every probe is one trace
/// lookup, answered from memory, the store, or a fresh trace.
fn bisect_traced(
    subject: &Subject,
    config: &CompilerConfig,
    violation: &Violation,
    counts: &mut Counts,
) -> Vec<String> {
    let before = subject.cache_stats();
    let outcome = span("triage", || bisect(subject, config, violation));
    let after = subject.cache_stats();
    counts.bisections += 1;
    counts.probes += (after.hits - before.hits)
        + (after.traces - before.traces)
        + (after.disk_loads - before.disk_loads);
    outcome.culprits
}

/// The triage shape: `holes triage --seeds A..B --limit N --json
/// [--cache-dir DIR]` with N at least the number of unique violations,
/// then `holes reduce --seed S` for each `--reduce` seed.
fn replay_triage(
    options: &Options,
    store: Option<&Arc<ArtifactStore>>,
    counts: &mut Counts,
) -> Result<(), String> {
    let personality = options.personality;
    let version = personality.trunk();
    let levels = personality.levels();
    let kind = DebuggerKind::native_for(personality);
    let io_start = IoCounters::now();
    let subjects: Vec<Subject> = options
        .seeds
        .iter()
        .map(|seed| {
            let subject = span("progen", || {
                Subject::from_generated(ProgramGenerator::from_seed(seed).generate())
            });
            counts.stmts += subject.program.stmt_count();
            if let Some(store) = store {
                subject.attach_store(Arc::clone(store));
            }
            subject
        })
        .collect();

    let mut primed_hits = 0;
    let mut records = Vec::new();
    for (index, subject) in subjects.iter().enumerate() {
        for &level in levels {
            let config = CompilerConfig::new(personality, level).with_version(version);
            let violations = subject_cell(subject, &config, kind, &mut primed_hits);
            counts.violations += violations.len();
            records.extend(violations.iter().map(|violation| ViolationRecord {
                seed: subject.seed,
                subject: index,
                level,
                violation: violation.clone(),
            }));
        }
    }

    // What `triage_campaign_on_with_policy` triages when the limit exceeds
    // every conjecture's count: in record order, each unique violation once.
    let mut seen = BTreeSet::new();
    let mut table = TriageTable::default();
    for record in &records {
        if !seen.insert(unique_key(record)) {
            continue;
        }
        let conjecture = record.violation.conjecture;
        let config = CompilerConfig::new(personality, record.level).with_version(version);
        for culprit in bisect_traced(
            &subjects[record.subject],
            &config,
            &record.violation,
            counts,
        ) {
            *table
                .counts
                .entry(conjecture)
                .or_default()
                .entry(culprit)
                .or_insert(0) += 1;
        }
    }
    if store.is_some() {
        // Nothing else reads or writes files in this phase.
        (counts.store_read_bytes, counts.store_write_bytes) = IoCounters::now().since(io_start);
    }
    counts.cache = pool_stats(&subjects);
    counts.cache.hits -= primed_hits;
    drop(subjects);

    span("triage.output", || {
        let rendered = table.to_json().to_pretty();
        counts.triage_output_bytes += rendered.len();
        std::fs::write(&options.out, &rendered)
            .map_err(|e| format!("writing {}: {e}", options.out.display()))
    })?;

    for &seed in &options.reduce {
        let transcript = reduce_seed(seed, personality, counts);
        let dir = options
            .reduce_dir
            .as_ref()
            .ok_or("--reduce needs --reduce-dir DIR")?;
        let path = dir.join(format!("{seed}.txt"));
        std::fs::write(&path, transcript)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `holes reduce --seed S --personality P`: the first violation at the
/// first violating level, triaged and reduced, rendered as the CLI prints
/// it.
fn reduce_seed(seed: u64, personality: Personality, counts: &mut Counts) -> String {
    let version = personality.trunk();
    let kind = DebuggerKind::native_for(personality);
    let subject = span("progen", || {
        Subject::from_generated(ProgramGenerator::from_seed(seed).generate())
    });
    counts.stmts += subject.program.stmt_count();
    let mut primed_hits = 0;
    let found = personality.levels().iter().find_map(|&level| {
        let config = CompilerConfig::new(personality, level).with_version(version);
        let violation = subject_cell(&subject, &config, kind, &mut primed_hits)
            .first()
            .cloned()?;
        Some((config, violation))
    });
    let Some((config, violation)) = found else {
        let levels: Vec<&str> = personality.levels().iter().map(|l| l.flag()).collect();
        return format!(
            "seed {seed}: no violations under {} {} at {}\n",
            personality,
            personality.version_names()[version],
            levels.join(", ")
        );
    };
    let mut out = format!(
        "seed {seed}: {} violation at {} — variable `{}` at line {}, observed {}\n",
        violation.conjecture,
        config.describe(),
        violation.variable,
        violation.line,
        violation.observed,
    );
    let culprits = bisect_traced(&subject, &config, &violation, counts);
    let culprit = match culprits.first() {
        Some(pass) => {
            out.push_str(&format!("culprit: {pass} (of {culprits:?})\n"));
            Some(pass.clone())
        }
        None => {
            out.push_str("culprit: none identified; reducing without culprit preservation\n");
            None
        }
    };
    let reduced = span("reduce", || {
        reduce(&subject, &config, &violation, culprit.as_deref())
    });
    counts.reductions += 1;
    counts.reduce_attempts += reduced.attempts;
    counts.reduce_ratio_sum += reduced.reduction_ratio();
    out.push_str(&format!(
        "reduced {} -> {} statements ({:.0}% smaller) in {} attempts\n\n// reduced program (seed {seed})\n{}",
        reduced.original_statements,
        reduced.reduced_statements,
        reduced.reduction_ratio() * 100.0,
        reduced.attempts,
        reduced.subject.source.text,
    ));
    out
}

fn report(wall: f64, counts: &Counts, store: Option<&ArtifactStore>) -> String {
    let (layers, covered) = span::totals();
    let layer_fields: Vec<String> = layers
        .iter()
        .map(|(name, totals)| {
            format!(
                "\"{name}\":{{\"calls\":{},\"self_s\":{:.9}}}",
                totals.calls,
                totals.self_time.as_secs_f64()
            )
        })
        .collect();
    let c = &counts.cache;
    let store_stats = store.map(ArtifactStore::stats).unwrap_or_default();
    let values: Vec<(&str, f64)> = vec![
        ("cache.compiles", c.compiles as f64),
        ("cache.traces", c.traces as f64),
        ("cache.checks", c.checks as f64),
        ("cache.hits", c.hits as f64),
        ("cache.disk_loads", c.disk_loads as f64),
        ("cache.codegen_only", c.codegen_only as f64),
        ("cache.plan_stops", c.plan_hits as f64),
        ("store.loads", store_stats.loads as f64),
        ("store.misses", store_stats.misses as f64),
        ("store.writes", store_stats.writes as f64),
        ("store.rejected", store_stats.rejected as f64),
        ("store.retries", store_stats.retries as f64),
        ("store.read_bytes", counts.store_read_bytes as f64),
        ("store.write_bytes", counts.store_write_bytes as f64),
        ("progen.stmts", counts.stmts as f64),
        ("compiler.passes_run", counts.passes_run as f64),
        ("compiler.instrs", counts.instrs as f64),
        ("debugger.plans", counts.plans as f64),
        ("debugger.plan_len", counts.plan_len as f64),
        ("debugger.stops", counts.stops as f64),
        ("core.violations", counts.violations as f64),
        ("triage.bisections", counts.bisections as f64),
        ("triage.probes", counts.probes as f64),
        ("reduce.reductions", counts.reductions as f64),
        ("reduce.attempts", counts.reduce_attempts as f64),
        ("reduce.ratio_sum", counts.reduce_ratio_sum),
        ("campaign.output_bytes", counts.campaign_output_bytes as f64),
        ("triage.output_bytes", counts.triage_output_bytes as f64),
    ];
    let value_fields: Vec<String> = values
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!(
        "{{\"wall_s\":{wall:.9},\"covered_s\":{:.9},\"layers\":{{{}}},\"counts\":{{{}}}}}",
        covered.as_secs_f64(),
        layer_fields.join(","),
        value_fields.join(",")
    )
}

fn run(argv: &[String]) -> Result<String, String> {
    let (shape, rest) = argv
        .split_first()
        .ok_or("usage: holes-replay campaign|triage --personality P --seeds A..B --out FILE ...")?;
    let options = parse_options(rest)?;
    if std::env::var_os("HOLES_CACHE_DIR").is_some() {
        return Err("unset HOLES_CACHE_DIR: the replay attaches its store explicitly".into());
    }
    let store = match &options.cache_dir {
        Some(dir) => {
            Some(Arc::new(ArtifactStore::open(dir).map_err(|e| {
                format!("opening store {}: {e}", dir.display())
            })?))
        }
        None => None,
    };
    let mut counts = Counts::default();
    let start = Instant::now();
    match shape.as_str() {
        "campaign" => replay_campaign(&options, store.as_deref(), &mut counts)?,
        "triage" => replay_triage(&options, store.as_ref(), &mut counts)?,
        other => return Err(format!("unknown shape `{other}`")),
    }
    let wall = start.elapsed().as_secs_f64();
    Ok(report(wall, &counts, store.as_deref()))
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("holes-replay: {error}");
            std::process::ExitCode::FAILURE
        }
    }
}
