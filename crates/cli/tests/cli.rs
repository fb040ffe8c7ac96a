//! End-to-end tests of the `holes` binary, including the acceptance
//! criterion of the sharding contract: `campaign --seeds 0..200 --shards 4
//! --shard i` outputs, merged via `report`, are byte-identical to the
//! single-shard run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn holes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_holes"))
        .args(args)
        .output()
        .expect("spawning the holes binary")
}

fn ok_stdout(args: &[&str]) -> Vec<u8> {
    let output = holes(args);
    assert!(
        output.status.success(),
        "`holes {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Compare `actual` against the committed fixture `tests/golden/<name>` at
/// the workspace root, or rewrite the fixture when `HOLES_BLESS=1` is set
/// (mirroring the root crate's golden-file tests).
fn golden(name: &str, actual: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("HOLES_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with `HOLES_BLESS=1 cargo test -p holes_cli`",
            path.display()
        )
    });
    assert_eq!(
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(&expected),
        "`{name}` drifted from its golden fixture; if the change is \
         intended, re-bless with `HOLES_BLESS=1 cargo test -p holes_cli`"
    );
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("holes-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn four_sharded_campaigns_merge_byte_identically_to_the_single_shard_run() {
    let scratch = Scratch::new("shards");
    let seeds = "0..200";
    let mut shard_files = Vec::new();
    for shard in 0..4 {
        let file = scratch.path(&format!("shard{shard}.json"));
        ok_stdout(&[
            "campaign",
            "--seeds",
            seeds,
            "--shards",
            "4",
            "--shard",
            &shard.to_string(),
            "--out",
            &file,
            "--quiet",
        ]);
        shard_files.push(file);
    }
    let full = scratch.path("full.json");
    ok_stdout(&["campaign", "--seeds", seeds, "--out", &full, "--quiet"]);

    // Text report: merged shards (in scrambled order) vs the monolithic run.
    let mut merged_args = vec!["report"];
    merged_args.extend(shard_files.iter().rev().map(String::as_str));
    let merged_text = ok_stdout(&merged_args);
    let single_text = ok_stdout(&["report", &full]);
    assert_eq!(
        merged_text, single_text,
        "merged text report differs from the single-shard run"
    );
    assert!(!merged_text.is_empty());

    // JSON report: same byte-identity.
    let mut merged_json_args = vec!["report", "--json"];
    merged_json_args.extend(shard_files.iter().map(String::as_str));
    let merged_json = ok_stdout(&merged_json_args);
    let single_json = ok_stdout(&["report", "--json", &full]);
    assert_eq!(
        merged_json, single_json,
        "merged JSON report differs from the single-shard run"
    );

    // The shard files really partition the work: per-shard record counts sum
    // to the monolithic run's.
    let count_records = |path: &str| {
        std::fs::read_to_string(Path::new(path))
            .unwrap()
            .matches("\"seed\":")
            .count()
    };
    let sharded_total: usize = shard_files.iter().map(|f| count_records(f)).sum();
    assert_eq!(sharded_total, count_records(&full));
    assert!(sharded_total > 0, "campaign found no violations at all");
}

#[test]
fn report_rejects_incomplete_and_foreign_shard_sets() {
    let scratch = Scratch::new("report-errors");
    let shard0 = scratch.path("shard0.json");
    let other = scratch.path("other.json");
    ok_stdout(&[
        "campaign", "--seeds", "0..20", "--shards", "2", "--shard", "0", "--out", &shard0,
        "--quiet",
    ]);
    ok_stdout(&["campaign", "--seeds", "0..30", "--out", &other, "--quiet"]);

    let incomplete = holes(&["report", &shard0]);
    assert!(!incomplete.status.success());
    assert!(String::from_utf8_lossy(&incomplete.stderr).contains("cover"));

    let mixed = holes(&["report", &shard0, &other]);
    assert!(!mixed.status.success());

    let missing = holes(&["report", &scratch.path("does-not-exist.json")]);
    assert!(!missing.status.success());

    let none = holes(&["report"]);
    assert!(!none.status.success());
    assert!(String::from_utf8_lossy(&none.stderr).contains("no shard files"));
}

#[test]
fn campaign_output_is_deterministic_across_runs_and_equals_the_out_file() {
    let scratch = Scratch::new("determinism");
    let stdout_run = ok_stdout(&["campaign", "--seeds", "40..44", "--personality", "lcc"]);
    let again = ok_stdout(&["campaign", "--seeds", "40..44", "--personality", "lcc"]);
    assert_eq!(stdout_run, again, "campaign output is not deterministic");
    let file = scratch.path("out.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "40..44",
        "--personality",
        "lcc",
        "--out",
        &file,
        "--quiet",
    ]);
    assert_eq!(stdout_run, std::fs::read(Path::new(&file)).unwrap());
}

#[test]
fn generate_triage_and_reduce_cover_the_paper_workflow() {
    let generate = ok_stdout(&["generate", "--seeds", "5..7"]);
    let text = String::from_utf8(generate).unwrap();
    assert!(
        text.contains("seed 5:") && text.contains("seed 6:"),
        "{text}"
    );

    let source =
        String::from_utf8(ok_stdout(&["generate", "--seeds", "5..6", "--source"])).unwrap();
    assert!(source.contains("int main(void)"), "{source}");

    let triage = String::from_utf8(ok_stdout(&[
        "triage",
        "--seeds",
        "0..6",
        "--personality",
        "lcc",
        "--limit",
        "2",
    ]))
    .unwrap();
    assert!(triage.contains("Table 2"), "{triage}");

    let reduce = String::from_utf8(ok_stdout(&["reduce", "--seed", "3"])).unwrap();
    assert!(reduce.contains("reduced"), "{reduce}");
}

/// Extract the integer following `label` in the `--stats` stderr line.
fn stat_after(stderr: &str, label: &str) -> usize {
    let start = stderr
        .find(label)
        .unwrap_or_else(|| panic!("no `{label}` in stats output: {stderr}"))
        + label.len();
    stderr[start..]
        .trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no number after `{label}` in: {stderr}"))
}

#[test]
fn second_triage_process_over_a_cached_range_compiles_nothing() {
    let scratch = Scratch::new("warm-triage");
    let cache = scratch.path("cache");
    let seeds = "300..312";

    // A campaign populates the persistent store across process boundaries.
    let shard_file = scratch.path("campaign.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        seeds,
        "--cache-dir",
        &cache,
        "--out",
        &shard_file,
        "--quiet",
    ]);

    let triage_args = [
        "triage",
        "--seeds",
        seeds,
        "--cache-dir",
        &cache,
        "--stats",
        "--limit",
        "2",
        "--json",
    ];
    let first = holes(&triage_args);
    assert!(first.status.success(), "{first:?}");
    let first_stderr = String::from_utf8_lossy(&first.stderr).into_owned();
    assert!(
        stat_after(&first_stderr, "disk loads") > 0,
        "first triage did not reuse the campaign's artifacts: {first_stderr}"
    );

    // The second process finds *everything* (campaign + triage probes) on
    // disk: zero compilations, zero traces, zero checks.
    let second = holes(&triage_args);
    assert!(second.status.success(), "{second:?}");
    let second_stderr = String::from_utf8_lossy(&second.stderr).into_owned();
    assert_eq!(
        stat_after(&second_stderr, "compiles"),
        0,
        "warm triage recompiled: {second_stderr}"
    );
    assert_eq!(
        stat_after(&second_stderr, "traces"),
        0,
        "warm triage retraced: {second_stderr}"
    );
    assert_eq!(
        stat_after(&second_stderr, "checks"),
        0,
        "warm triage rechecked: {second_stderr}"
    );
    assert!(stat_after(&second_stderr, "disk loads") > 0);
    assert_eq!(
        first.stdout, second.stdout,
        "cached triage output diverged from the cold run"
    );

    // And the cache is observably *used*, not just written: a cache-less run
    // agrees byte-for-byte on stdout too.
    let bare = ok_stdout(&["triage", "--seeds", seeds, "--limit", "2", "--json"]);
    assert_eq!(bare, second.stdout);
}

#[test]
fn corrupted_cache_files_are_ignored_and_rewritten() {
    let scratch = Scratch::new("corrupt-cache");
    let cache = scratch.path("cache");
    let args = [
        "campaign",
        "--seeds",
        "330..336",
        "--cache-dir",
        &cache,
        "--quiet",
    ];
    let clean = ok_stdout(&args);

    // Truncate or garble every artifact the store wrote.
    let mut damaged = 0;
    for entry in walkdir(Path::new(&cache)) {
        let text = std::fs::read_to_string(&entry).unwrap();
        let bad = if damaged % 2 == 0 {
            text[..text.len() / 3].to_owned()
        } else {
            "garbage".to_owned()
        };
        std::fs::write(&entry, bad).unwrap();
        damaged += 1;
    }
    assert!(damaged > 0, "store wrote nothing under {cache}");

    // The next process rejects the damage, recomputes, and stays correct.
    let recovered = ok_stdout(&args);
    assert_eq!(clean, recovered, "corrupted store changed campaign output");
    // A third run loads the healed files and still agrees.
    let healed = ok_stdout(&args);
    assert_eq!(clean, healed);
}

fn walkdir(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn jsonl_shards_report_byte_identically_and_mix_with_classic_shards() {
    let scratch = Scratch::new("jsonl");
    let seeds = "360..400";

    // Full classic run as the reference.
    let full = scratch.path("full.json");
    ok_stdout(&["campaign", "--seeds", seeds, "--out", &full, "--quiet"]);

    // Shard 0 streamed as JSONL, shard 1 classic.
    let s0 = scratch.path("s0.jsonl");
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--shards", "2", "--shard", "0", "--jsonl", "--out", &s0,
        "--quiet",
    ]);
    let s1 = scratch.path("s1.json");
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--shards", "2", "--shard", "1", "--out", &s1, "--quiet",
    ]);

    let jsonl_text = std::fs::read_to_string(Path::new(&s0)).unwrap();
    let first_line = jsonl_text.lines().next().unwrap();
    assert!(
        first_line.contains("holes.campaign-jsonl/v1"),
        "{first_line}"
    );
    assert!(jsonl_text.lines().last().unwrap().contains("\"end\":true"));

    for flags in [vec![], vec!["--json"]] {
        let mut mixed_args = vec!["report"];
        mixed_args.extend(flags.iter().copied());
        let mut single_args = mixed_args.clone();
        mixed_args.extend([s0.as_str(), s1.as_str()]);
        single_args.push(full.as_str());
        assert_eq!(
            ok_stdout(&mixed_args),
            ok_stdout(&single_args),
            "JSONL+classic merge diverged from the classic run ({flags:?})"
        );
    }

    // Streaming to stdout equals the file contents.
    let streamed = ok_stdout(&[
        "campaign", "--seeds", seeds, "--shards", "2", "--shard", "0", "--jsonl",
    ]);
    assert_eq!(streamed, jsonl_text.as_bytes());

    // A truncated stream is rejected by report with a pointer to the file.
    let truncated = scratch.path("trunc.jsonl");
    let cut = jsonl_text.len() - jsonl_text.len() / 4;
    std::fs::write(Path::new(&truncated), &jsonl_text[..cut]).unwrap();
    let failure = holes(&["report", &truncated, &s1]);
    assert_eq!(failure.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&failure.stderr);
    assert!(stderr.contains("trunc.jsonl"), "{stderr}");
    // The diagnostic names the intact prefix and the recovery flag.
    assert!(stderr.contains("truncated stream ("), "{stderr}");
    assert!(stderr.contains("rerun with --resume"), "{stderr}");
}

/// The distinct (seed, level, violation-site) keys of a campaign shard
/// file.
fn record_keys(path: &str) -> std::collections::BTreeSet<String> {
    let text = std::fs::read_to_string(Path::new(path)).unwrap();
    let json = holes::core::json::Json::parse(&text).unwrap();
    let records = json.get("records").and_then(|r| r.as_arr()).unwrap();
    records
        .iter()
        .map(|record| {
            [
                "seed",
                "level",
                "conjecture",
                "line",
                "variable",
                "observed",
            ]
            .iter()
            .map(|key| {
                let field = record.get(key).unwrap();
                field
                    .as_str()
                    .map(str::to_owned)
                    .or_else(|| field.as_u64().map(|n| n.to_string()))
                    .unwrap()
            })
            .collect::<Vec<_>>()
            .join("|")
        })
        .collect()
}

#[test]
fn stack_backend_surfaces_violations_the_register_backend_cannot_express() {
    let scratch = Scratch::new("backends");
    let seeds = "0..30";
    let reg_file = scratch.path("reg.json");
    let stack_file = scratch.path("stack.json");
    ok_stdout(&["campaign", "--seeds", seeds, "--out", &reg_file, "--quiet"]);
    ok_stdout(&[
        "campaign",
        "--seeds",
        seeds,
        "--backend",
        "stack",
        "--out",
        &stack_file,
        "--quiet",
    ]);

    // Default-backend output carries no backend field at all — the
    // register-backend shard format is byte-compatible with the
    // pre-backend era.
    let reg_text = std::fs::read_to_string(Path::new(&reg_file)).unwrap();
    assert!(!reg_text.contains("backend"), "default shard grew a field");
    let stack_text = std::fs::read_to_string(Path::new(&stack_file)).unwrap();
    assert!(
        stack_text.contains("\"backend\": \"stack\""),
        "{stack_text}"
    );

    // The acceptance criterion: the stack campaign surfaces violations
    // (spill-slot / stack-relative location loss) that the register
    // campaign over the same seeds does not contain.
    let reg_keys = record_keys(&reg_file);
    let stack_keys = record_keys(&stack_file);
    let stack_only: Vec<_> = stack_keys.difference(&reg_keys).collect();
    assert!(
        !stack_only.is_empty(),
        "stack backend exposed no new violation sites"
    );

    // Both reports render; the stack one names its backend, the register
    // one stays byte-identical to a backend-unaware run.
    let reg_report = String::from_utf8(ok_stdout(&["report", &reg_file])).unwrap();
    assert!(!reg_report.contains("backend"), "{reg_report}");
    let stack_report = String::from_utf8(ok_stdout(&["report", &stack_file])).unwrap();
    assert!(stack_report.contains("backend stack"), "{stack_report}");

    // Stack campaigns are deterministic too.
    let again = scratch.path("stack2.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        seeds,
        "--backend",
        "stack",
        "--out",
        &again,
        "--quiet",
    ]);
    assert_eq!(
        std::fs::read(Path::new(&stack_file)).unwrap(),
        std::fs::read(Path::new(&again)).unwrap()
    );
}

/// The register backend is the default, and its campaign/report bytes are
/// pinned by committed golden files: the codegen-pipeline refactor (and any
/// future one) must reproduce them exactly, not merely equivalently. The
/// other personality and the two non-default backends are pinned the same
/// way, so compiler changes cannot move their bytes unnoticed.
#[test]
fn default_campaign_and_report_bytes_match_the_committed_goldens() {
    let scratch = Scratch::new("golden-bytes");
    let campaign_file = scratch.path("campaign.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "2500..2506",
        "--out",
        &campaign_file,
        "--quiet",
    ]);
    golden(
        "cli-campaign-2500-2506.json",
        &std::fs::read(Path::new(&campaign_file)).unwrap(),
    );
    golden(
        "cli-report-2500-2506.txt",
        &ok_stdout(&["report", &campaign_file]),
    );
    // The document streamed to stdout carries the same bytes as `--out`.
    golden(
        "cli-campaign-2500-2506.json",
        &ok_stdout(&["campaign", "--seeds", "2500..2506"]),
    );
    let jsonl_file = scratch.path("campaign.jsonl");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "2500..2506",
        "--jsonl",
        "--out",
        &jsonl_file,
        "--quiet",
    ]);
    golden(
        "cli-campaign-2500-2506.jsonl",
        &std::fs::read(Path::new(&jsonl_file)).unwrap(),
    );
    // A faulted subject adds the `faults` array; the run exits 2.
    let faulted_file = scratch.path("campaign-faulted.json");
    let faulted = holes_env(
        &[
            "campaign",
            "--seeds",
            "2500..2506",
            "--out",
            &faulted_file,
            "--quiet",
        ],
        &[("HOLES_FAULT_SEEDS", "2503")],
    );
    assert_eq!(faulted.status.code(), Some(2));
    golden(
        "cli-campaign-2500-2506-faulted.json",
        &std::fs::read(Path::new(&faulted_file)).unwrap(),
    );
    for (suffix, flag, value) in [
        ("lcc", "--personality", "lcc"),
        ("stack", "--backend", "stack"),
        ("frame", "--backend", "frame"),
    ] {
        let variant_file = scratch.path(&format!("campaign-{suffix}.json"));
        ok_stdout(&[
            "campaign",
            "--seeds",
            "2500..2506",
            flag,
            value,
            "--out",
            &variant_file,
            "--quiet",
        ]);
        golden(
            &format!("cli-campaign-2500-2506-{suffix}.json"),
            &std::fs::read(Path::new(&variant_file)).unwrap(),
        );
    }
}

/// The monolithic triage samples the first `--limit` unique violations per
/// conjecture over the whole range, and contains faults per subject. At
/// `--limit 3` the quota binds for both personalities, so these fixtures
/// pin the global selection order; a faulted subject exits 2 and leaves the
/// other subjects' table.
#[test]
fn triage_quota_and_fault_bytes_match_the_committed_goldens() {
    for personality in ["lcc", "ccg"] {
        golden(
            &format!("cli-triage-2500-2560-{personality}-limit3.json"),
            &ok_stdout(&[
                "triage",
                "--personality",
                personality,
                "--seeds",
                "2500..2560",
                "--limit",
                "3",
                "--json",
            ]),
        );
    }
    let faulted = holes_env(
        &[
            "triage",
            "--personality",
            "lcc",
            "--seeds",
            "2500..2506",
            "--limit",
            "1000000",
            "--json",
        ],
        &[("HOLES_FAULT_SEEDS", "2503")],
    );
    assert_eq!(faulted.status.code(), Some(2));
    golden("cli-triage-2500-2506-lcc-faulted.json", &faulted.stdout);
}

/// Every artifact is built once however many threads race for it, so a
/// parallel triage counts exactly the work of the serial one.
#[test]
fn triage_stats_do_not_depend_on_the_thread_count() {
    for personality in ["lcc", "ccg"] {
        let stats = |threads: &str| {
            let output = holes_env(
                &[
                    "triage",
                    "--personality",
                    personality,
                    "--seeds",
                    "2500..2530",
                    "--limit",
                    "1000000",
                    "--json",
                    "--stats",
                ],
                &[("HOLES_THREADS", threads)],
            );
            assert!(output.status.success());
            let stderr = String::from_utf8(output.stderr).unwrap();
            let line = stderr.lines().find(|line| line.starts_with("stats: "));
            line.expect("a stats line").to_owned()
        };
        assert_eq!(stats("1"), stats("2"), "{personality}");
    }
}

#[test]
fn frame_backend_surfaces_violations_neither_existing_backend_can_express() {
    let scratch = Scratch::new("frame-backend");
    let seeds = "0..30";
    let reg_file = scratch.path("reg.json");
    let stack_file = scratch.path("stack.json");
    let frame_file = scratch.path("frame.json");
    ok_stdout(&["campaign", "--seeds", seeds, "--out", &reg_file, "--quiet"]);
    for (backend, file) in [("stack", &stack_file), ("frame", &frame_file)] {
        ok_stdout(&[
            "campaign",
            "--seeds",
            seeds,
            "--backend",
            backend,
            "--out",
            file,
            "--quiet",
        ]);
    }

    let frame_text = std::fs::read_to_string(Path::new(&frame_file)).unwrap();
    assert!(
        frame_text.contains("\"backend\": \"frame\""),
        "{frame_text}"
    );

    // The acceptance criterion for the frame-layout defect class: the
    // frame-backend campaign surfaces violation sites (stale frame-base
    // offsets resolving past the frame, dropped callee-saved locations)
    // that neither the register nor the stack campaign over the same
    // seeds contains.
    let reg_keys = record_keys(&reg_file);
    let stack_keys = record_keys(&stack_file);
    let frame_keys = record_keys(&frame_file);
    let frame_only: Vec<_> = frame_keys
        .iter()
        .filter(|key| !reg_keys.contains(*key) && !stack_keys.contains(*key))
        .collect();
    assert!(
        !frame_only.is_empty(),
        "frame backend exposed no new violation sites"
    );

    // The report renders and names the backend.
    let frame_report = String::from_utf8(ok_stdout(&["report", &frame_file])).unwrap();
    assert!(frame_report.contains("backend frame"), "{frame_report}");

    // Frame campaigns are deterministic.
    let again = scratch.path("frame2.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        seeds,
        "--backend",
        "frame",
        "--out",
        &again,
        "--quiet",
    ]);
    assert_eq!(
        std::fs::read(Path::new(&frame_file)).unwrap(),
        std::fs::read(Path::new(&again)).unwrap()
    );
}

#[test]
fn sharded_triage_merges_byte_identically_to_the_single_shard_run() {
    let scratch = Scratch::new("triage-shards");
    let seeds = "0..12";
    let mut shard_files = Vec::new();
    for shard in 0..3 {
        let file = scratch.path(&format!("t{shard}.json"));
        ok_stdout(&[
            "triage",
            "--seeds",
            seeds,
            "--shards",
            "3",
            "--shard",
            &shard.to_string(),
            "--limit",
            "1",
            "--personality",
            "lcc",
            "--out",
            &file,
            "--quiet",
        ]);
        shard_files.push(file);
    }
    let whole = scratch.path("whole.json");
    ok_stdout(&[
        "triage",
        "--seeds",
        seeds,
        "--shards",
        "1",
        "--shard",
        "0",
        "--limit",
        "1",
        "--personality",
        "lcc",
        "--out",
        &whole,
        "--quiet",
    ]);

    // Merged shards (scrambled order) == the single-shard run, in both the
    // text and machine-readable renderings.
    let mut merged_args = vec!["triage"];
    merged_args.extend(shard_files.iter().rev().map(String::as_str));
    let merged_text = ok_stdout(&merged_args);
    let single_text = ok_stdout(&["triage", &whole]);
    assert_eq!(merged_text, single_text);
    let mut merged_json_args = vec!["triage", "--json"];
    merged_json_args.extend(shard_files.iter().map(String::as_str));
    let merged_json = ok_stdout(&merged_json_args);
    let single_json = ok_stdout(&["triage", "--json", &whole]);
    assert_eq!(merged_json, single_json);
    assert!(String::from_utf8_lossy(&merged_text).contains("Table 2"));

    // An incomplete shard set is rejected with a pointer to the problem.
    let incomplete = holes(&["triage", &shard_files[0]]);
    assert!(!incomplete.status.success());
    assert!(String::from_utf8_lossy(&incomplete.stderr).contains("cover"));

    // A stray positional must not silently hijack a run invocation into
    // merge mode (discarding --seeds and friends).
    let mixed = holes(&["triage", "--seeds", seeds, &shard_files[0]]);
    assert_eq!(mixed.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("cannot combine"),
        "{}",
        String::from_utf8_lossy(&mixed.stderr)
    );
}

#[test]
fn cache_gc_caps_the_store_and_keeps_campaigns_correct() {
    let scratch = Scratch::new("cache-gc");
    let cache = scratch.path("cache");
    let args = [
        "campaign",
        "--seeds",
        "420..428",
        "--cache-dir",
        &cache,
        "--quiet",
    ];
    let clean = ok_stdout(&args);
    let before: u64 = walkdir(Path::new(&cache))
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(before > 4096, "store suspiciously small: {before}");

    // Collect down to half the size; the store must land under budget.
    let budget = (before / 2).to_string();
    let gc_output = String::from_utf8(ok_stdout(&[
        "cache",
        "gc",
        "--max-bytes",
        &budget,
        "--cache-dir",
        &cache,
    ]))
    .unwrap();
    assert!(gc_output.contains("cache gc:"), "{gc_output}");
    let after: u64 = walkdir(Path::new(&cache))
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(after <= before / 2, "gc left {after} > budget {budget}");

    // A campaign over the capped store recomputes what was evicted and
    // stays byte-identical.
    let recomputed = ok_stdout(&args);
    assert_eq!(clean, recomputed, "gc changed campaign output");

    // Usage errors behave like the rest of the tool.
    for bad in [
        vec!["cache"],
        vec!["cache", "shrink"],
        vec!["cache", "gc", "--cache-dir", cache.as_str()],
        vec!["cache", "gc", "1000", "--cache-dir", cache.as_str()],
    ] {
        let output = holes(&bad);
        assert_eq!(output.status.code(), Some(1), "`holes {}`", bad.join(" "));
        assert!(!output.stderr.is_empty());
    }
    // The stray-argument error names the stray, not the valid action.
    let stray = holes(&["cache", "gc", "1000", "--cache-dir", &cache]);
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert!(stderr.contains("`1000`"), "{stderr}");
}

#[test]
fn help_and_usage_errors_behave_like_a_unix_tool() {
    let help = String::from_utf8(ok_stdout(&["help"])).unwrap();
    assert!(help.contains("Usage: holes <command>"));
    for command in [
        "generate", "campaign", "report", "triage", "reduce", "cache",
    ] {
        let text = String::from_utf8(ok_stdout(&[command, "--help"])).unwrap();
        assert!(
            text.contains(&format!("holes {command}")),
            "{command}: {text}"
        );
    }
    let bare = String::from_utf8(ok_stdout(&[])).unwrap();
    assert_eq!(bare, help, "bare invocation should print the usage");

    for bad in [
        vec!["frobnicate"],
        vec!["campaign"],
        vec!["campaign", "--seeds", "9..3"],
        vec!["campaign", "--seeds", "0..4", "--bogus"],
        vec![
            "campaign", "--seeds", "0..4", "--shards", "2", "--shard", "2",
        ],
        vec!["triage", "--seeds", "0..4", "--personality", "gcc"],
        vec!["campaign", "--seeds", "0..4", "--backend", "x86"],
        vec!["reduce"],
    ] {
        let output = holes(&bad);
        assert_eq!(
            output.status.code(),
            Some(1),
            "`holes {}` should fail with exit code 1",
            bad.join(" ")
        );
        assert!(!output.stderr.is_empty());
    }
}

/// The classic document is streamed: a reader that closes stdout after a
/// few bytes breaks the pipe mid-document, which is a clean exit like any
/// Unix filter's, and an unwritable `--out` still fails with the path.
#[test]
fn streamed_campaign_documents_fail_like_unix_filters() {
    use std::io::Read;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_holes"))
        .args(["campaign", "--seeds", "0..400"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the holes binary");
    let mut head = [0u8; 10];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .unwrap();
    assert_eq!(&head, b"{\n  \"forma");
    // Dropping the pipe's only reader closes it.
    let output = child.wait_with_output().unwrap();
    assert_eq!(
        output.status.code(),
        Some(0),
        "a closed stdout must be a clean exit: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let scratch = Scratch::new("out-dir");
    let dir = scratch.0.to_string_lossy().into_owned();
    let output = holes(&["campaign", "--seeds", "0..2", "--out", &dir, "--quiet"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.starts_with(&format!("holes: campaign: writing `{dir}`: ")),
        "{stderr}"
    );
}

/// `--stats` ends with the process's own peak RSS, read from `VmHWM`.
#[cfg(target_os = "linux")]
#[test]
fn stats_report_the_peak_rss_of_the_process() {
    let scratch = Scratch::new("peak-rss");
    let out = scratch.path("campaign.json");
    let output = holes(&[
        "campaign", "--seeds", "0..6", "--out", &out, "--stats", "--quiet",
    ]);
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last = stderr.lines().last().unwrap_or_default();
    let kb: u64 = last
        .strip_prefix("memory: peak_rss_kb ")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("missing memory line: {stderr}"));
    assert!(kb > 0, "{stderr}");
}

/// `holes triage` streams its range subject by subject, so its peak RSS
/// does not grow with the number of seeds.
#[cfg(target_os = "linux")]
#[test]
fn triage_memory_does_not_grow_with_the_range() {
    let peak_kb = |seeds: &str| -> u64 {
        let output = holes(&["triage", "--seeds", seeds, "--json", "--stats"]);
        assert!(output.status.success());
        let stderr = String::from_utf8(output.stderr).unwrap();
        let kb = stderr
            .lines()
            .find_map(|line| line.strip_prefix("memory: peak_rss_kb "))
            .and_then(|kb| kb.parse().ok());
        kb.unwrap_or_else(|| panic!("missing memory line: {stderr}"))
    };
    let (short, long) = (peak_kb("0..40"), peak_kb("0..160"));
    assert!(
        long < 2 * short,
        "0..40 peaks at {short} kB, 0..160 at {long} kB"
    );
}

/// Run the binary with extra environment variables set.
fn holes_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_holes"));
    command.args(args);
    for (key, value) in envs {
        command.env(key, value);
    }
    command.output().expect("spawning the holes binary")
}

#[test]
fn killed_jsonl_campaigns_resume_byte_identically() {
    let scratch = Scratch::new("resume");
    let seeds = "300..330";
    let full = scratch.path("full.jsonl");
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &full, "--quiet",
    ]);
    let reference = std::fs::read(Path::new(&full)).unwrap();

    // Kill points across the whole file: mid-header, mid-record, the last
    // byte (a footer cut), and a missing file entirely.
    let partial = scratch.path("partial.jsonl");
    let cuts = [0, 1, reference.len() / 3, reference.len() - 1];
    for cut in cuts {
        std::fs::write(Path::new(&partial), &reference[..cut]).unwrap();
        ok_stdout(&[
            "campaign", "--seeds", seeds, "--jsonl", "--out", &partial, "--resume", "--quiet",
        ]);
        let resumed = std::fs::read(Path::new(&partial)).unwrap();
        assert_eq!(resumed, reference, "kill at byte {cut} broke resume");
    }
    std::fs::remove_file(Path::new(&partial)).unwrap();
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &partial, "--resume", "--quiet",
    ]);
    assert_eq!(std::fs::read(Path::new(&partial)).unwrap(), reference);

    // Resuming the complete file is a no-op that says so.
    let noop = holes(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &partial, "--resume",
    ]);
    assert!(noop.status.success());
    assert!(String::from_utf8_lossy(&noop.stdout).contains("already complete"));
    assert_eq!(std::fs::read(Path::new(&partial)).unwrap(), reference);

    // A file from a different campaign is refused, not overwritten.
    let foreign = scratch.path("foreign.jsonl");
    ok_stdout(&[
        "campaign", "--seeds", "0..5", "--jsonl", "--out", &foreign, "--quiet",
    ]);
    let before = std::fs::read(Path::new(&foreign)).unwrap();
    let refused = holes(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &foreign, "--resume", "--quiet",
    ]);
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("cannot resume"));
    assert_eq!(std::fs::read(Path::new(&foreign)).unwrap(), before);

    // --resume needs the streaming format and a file to stream into.
    for bad in [
        vec!["campaign", "--seeds", seeds, "--resume"],
        vec!["campaign", "--seeds", seeds, "--jsonl", "--resume"],
    ] {
        let output = holes(&bad);
        assert_eq!(output.status.code(), Some(1), "`holes {}`", bad.join(" "));
        assert!(String::from_utf8_lossy(&output.stderr).contains("--resume"));
    }
}

#[test]
fn injected_faults_exit_2_and_flow_into_the_report() {
    let scratch = Scratch::new("faults");
    let seeds = "40..52";
    let faulted = scratch.path("faulted.jsonl");
    let inject = [("HOLES_FAULT_SEEDS", "43,47")];

    let campaign = holes_env(
        &[
            "campaign", "--seeds", seeds, "--jsonl", "--out", &faulted, "--quiet",
        ],
        &inject,
    );
    assert_eq!(
        campaign.status.code(),
        Some(2),
        "contained faults must exit 2"
    );
    let text = std::fs::read_to_string(Path::new(&faulted)).unwrap();
    assert_eq!(text.matches("\"fault\":").count(), 2, "{text}");
    assert!(
        text.contains("\"faulted\":2"),
        "missing footer tally: {text}"
    );

    // The report renders the tally, keeps the surviving records, and also
    // exits 2 — faulted subjects are never silently dropped.
    let report = holes_env(&["report", &faulted], &[]);
    assert_eq!(report.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("faulted subjects: 2"), "{stdout}");

    // The classic (non-streaming) format carries the same faults and exit.
    let classic = scratch.path("faulted.json");
    let campaign = holes_env(
        &["campaign", "--seeds", seeds, "--out", &classic, "--quiet"],
        &inject,
    );
    assert_eq!(campaign.status.code(), Some(2));
    let report = holes_env(&["report", &classic], &[]);
    assert_eq!(report.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&report.stdout).contains("faulted subjects: 2"));

    // Fault-free runs of the same range are untouched: exit 0 and not a
    // word about faults anywhere.
    let clean = holes(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &faulted, "--quiet",
    ]);
    assert!(clean.status.success());
    let text = std::fs::read_to_string(Path::new(&faulted)).unwrap();
    assert!(!text.contains("fault"), "{text}");
    let report = ok_stdout(&["report", &faulted]);
    assert!(!String::from_utf8_lossy(&report).contains("faulted"));
}

#[test]
fn unusable_cache_directories_degrade_to_memory_only_with_a_warning() {
    let scratch = Scratch::new("bad-cache");
    // A regular file where the store root should be makes every mkdir fail.
    let blocker = scratch.path("not-a-dir");
    std::fs::write(Path::new(&blocker), "occupied").unwrap();
    let reference = ok_stdout(&["campaign", "--seeds", "0..6"]);

    let degraded = holes(&["campaign", "--seeds", "0..6", "--cache-dir", &blocker]);
    assert!(degraded.status.success(), "degraded run must still succeed");
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        stderr.contains("in-memory caching only"),
        "missing degrade warning: {stderr}"
    );
    assert_eq!(
        degraded.stdout, reference,
        "memory-only run changed results"
    );
}

#[test]
fn baseline_record_diff_gates_new_violations_with_exit_3() {
    let scratch = Scratch::new("baseline");
    let base_run = scratch.path("base-run.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "2500..2506",
        "--out",
        &base_run,
        "--quiet",
    ]);
    let grown_run = scratch.path("grown-run.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "2500..2507",
        "--out",
        &grown_run,
        "--quiet",
    ]);

    // Record the baseline from the unsharded run...
    let baseline = scratch.path("baseline.json");
    ok_stdout(&[
        "baseline", "record", &base_run, "--out", &baseline, "--quiet",
    ]);
    // ...and again from three shard files given in scrambled order: the
    // deterministic-merge seam makes the two recordings byte-identical.
    let mut shard_files = Vec::new();
    for shard in 0..3 {
        let file = scratch.path(&format!("bshard{shard}.json"));
        ok_stdout(&[
            "campaign",
            "--seeds",
            "2500..2506",
            "--shards",
            "3",
            "--shard",
            &shard.to_string(),
            "--out",
            &file,
            "--quiet",
        ]);
        shard_files.push(file);
    }
    let sharded = scratch.path("baseline-sharded.json");
    let mut record_args = vec!["baseline", "record"];
    record_args.extend(shard_files.iter().rev().map(String::as_str));
    record_args.extend(["--out", &sharded, "--quiet"]);
    ok_stdout(&record_args);
    assert_eq!(
        std::fs::read(Path::new(&baseline)).unwrap(),
        std::fs::read(Path::new(&sharded)).unwrap(),
        "sharded baseline recording is not byte-identical to the unsharded one"
    );

    // An identical re-run diffs empty and exits 0.
    let identity = holes(&["baseline", "diff", &baseline, &base_run]);
    assert!(identity.status.success(), "identity diff must exit 0");
    let identity_text = String::from_utf8(identity.stdout).unwrap();
    assert!(identity_text.contains("new: 0"), "{identity_text}");
    assert!(identity_text.contains("fixed: 0"), "{identity_text}");
    assert!(!identity_text.contains("new violations"), "{identity_text}");

    // The grown run gates: exit 3, and the text diff names exactly the
    // added seed's fingerprints as new.
    let diff = holes(&["baseline", "diff", &baseline, &grown_run]);
    assert_eq!(diff.status.code(), Some(3), "grown diff must exit 3");
    assert!(
        String::from_utf8_lossy(&diff.stderr).contains("exit status 3"),
        "stderr must explain the gate"
    );
    let text = String::from_utf8(diff.stdout).unwrap();
    let section = text
        .split("new violations (not in baseline):\n")
        .nth(1)
        .expect("text diff lists the new violations");
    let new_fps: Vec<&str> = section
        .lines()
        .take_while(|line| line.starts_with("  "))
        .map(str::trim)
        .collect();
    assert!(!new_fps.is_empty(), "no new fingerprints listed:\n{text}");
    assert!(
        new_fps.iter().all(|fp| fp.starts_with("s2506:")),
        "a fingerprint outside the added seed was reported new:\n{text}"
    );

    // The JSON and SARIF renderings name the same fingerprints: in both,
    // the added seed appears once per new violation and nowhere else.
    let json = String::from_utf8(ok_stdout_status3(&[
        "baseline", "diff", "--format", "json", &baseline, &grown_run,
    ]))
    .unwrap();
    assert_eq!(json.matches("s2506:").count(), new_fps.len(), "{json}");
    for fp in &new_fps {
        assert!(json.contains(fp), "JSON diff is missing `{fp}`");
    }
    let sarif = String::from_utf8(ok_stdout_status3(&[
        "baseline", "diff", "--format", "sarif", &baseline, &grown_run,
    ]))
    .unwrap();
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"level\": \"error\""), "{sarif}");
    assert_eq!(sarif.matches("s2506:").count(), new_fps.len(), "{sarif}");
    assert!(
        !sarif.contains("s2500:"),
        "SARIF diff output must list new violations only"
    );
    let junit = String::from_utf8(ok_stdout_status3(&[
        "baseline", "diff", "--format", "junit", &baseline, &grown_run,
    ]))
    .unwrap();
    assert!(
        junit.contains(&format!("failures=\"{}\"", new_fps.len())),
        "{junit}"
    );
}

/// Like `ok_stdout`, but for gate commands expected to exit 3.
fn ok_stdout_status3(args: &[&str]) -> Vec<u8> {
    let output = holes(args);
    assert_eq!(
        output.status.code(),
        Some(3),
        "`holes {}` should gate with exit 3: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

#[test]
fn report_on_an_empty_campaign_renders_an_empty_table_and_valid_formats() {
    let scratch = Scratch::new("empty-report");
    let run = scratch.path("empty.json");
    ok_stdout(&["campaign", "--seeds", "5..5", "--out", &run, "--quiet"]);

    let text = String::from_utf8(ok_stdout(&["report", &run])).unwrap();
    assert!(text.contains("Table 1"), "{text}");
    assert!(text.contains("unique        0      0      0"), "{text}");
    assert!(text.contains("violations at all levels: 0"), "{text}");

    let sarif = String::from_utf8(ok_stdout(&["report", "--format", "sarif", &run])).unwrap();
    assert!(sarif.contains("\"results\": []"), "{sarif}");
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");

    let junit = String::from_utf8(ok_stdout(&["report", "--format", "junit", &run])).unwrap();
    assert!(
        junit.contains("<testsuites tests=\"0\" failures=\"0\">"),
        "{junit}"
    );

    // An empty run also records an empty baseline that diffs clean against
    // itself.
    let baseline = scratch.path("baseline.json");
    ok_stdout(&["baseline", "record", &run, "--out", &baseline, "--quiet"]);
    let diff = String::from_utf8(ok_stdout(&["baseline", "diff", &baseline, &run])).unwrap();
    assert!(diff.contains("known: 0"), "{diff}");
    assert!(diff.contains("new: 0"), "{diff}");
}

#[test]
fn corpus_add_then_replay_reproduces_and_tampered_entries_gate() {
    let scratch = Scratch::new("corpus");
    let corpus = scratch.path("corpus.json");

    // Distill one known violation from a seed and replay it.
    let added = String::from_utf8(ok_stdout(&[
        "corpus", "add", "--corpus", &corpus, "--seed", "2500",
    ]))
    .unwrap();
    assert!(added.contains("culprit"), "{added}");
    assert!(added.contains("(1 new)"), "{added}");
    let replay = String::from_utf8(ok_stdout(&["corpus", "replay", "--corpus", &corpus])).unwrap();
    assert!(
        replay.contains("corpus replay: 1 of 1 entries reproduced"),
        "{replay}"
    );

    // Adding the same seed again dedupes instead of growing the corpus.
    let again = String::from_utf8(ok_stdout(&[
        "corpus", "add", "--corpus", &corpus, "--seed", "2500",
    ]))
    .unwrap();
    assert!(again.contains("(0 new)"), "{again}");

    // Retargeting an entry at a different seed breaks replay: the gate
    // fires with exit 3 and says which entry died.
    let text = std::fs::read_to_string(Path::new(&corpus)).unwrap();
    let tampered = scratch.path("tampered.json");
    std::fs::write(
        Path::new(&tampered),
        text.replace("\"seed\": 2500", "\"seed\": 2501"),
    )
    .unwrap();
    let gate = holes(&["corpus", "replay", "--corpus", &tampered]);
    assert_eq!(gate.status.code(), Some(3), "tampered replay must exit 3");
    let gate_text = String::from_utf8(gate.stdout).unwrap();
    assert!(gate_text.contains("FAILED (violation gone)"), "{gate_text}");
    assert!(
        String::from_utf8_lossy(&gate.stderr).contains("exit status 3"),
        "stderr must explain the gate"
    );

    // Shard-file mode: distill the first violations of a campaign and
    // replay them in one go.
    let run = scratch.path("run.json");
    ok_stdout(&[
        "campaign",
        "--seeds",
        "2500..2502",
        "--out",
        &run,
        "--quiet",
    ]);
    let from_shards = scratch.path("from-shards.json");
    let added = String::from_utf8(ok_stdout(&[
        "corpus",
        "add",
        "--corpus",
        &from_shards,
        "--limit",
        "2",
        &run,
    ]))
    .unwrap();
    assert!(added.contains("(2 new)"), "{added}");
    let replay =
        String::from_utf8(ok_stdout(&["corpus", "replay", "--corpus", &from_shards])).unwrap();
    assert!(
        replay.contains("corpus replay: 2 of 2 entries reproduced"),
        "{replay}"
    );
}

/// Out-of-range heartbeat cadences are rejected when the command line is
/// parsed, before the coordinator binds a socket or touches its journal —
/// they would otherwise reach the lease-deadline arithmetic.
#[test]
fn serve_rejects_out_of_range_heartbeats_at_parse_time() {
    let scratch = Scratch::new("serve-heartbeat");
    for bad in ["0", "86400001", "18446744073709551615"] {
        let output = holes(&[
            "serve",
            "--seeds",
            "0..4",
            "--listen",
            "127.0.0.1:0",
            "--journal",
            &scratch.path("journal.jsonl"),
            "--heartbeat-ms",
            bad,
        ]);
        assert!(
            !output.status.success(),
            "`--heartbeat-ms {bad}` was accepted"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("out of range"), "{stderr}");
    }
}

/// Spawn `holes serve` with stderr piped and return the child plus the
/// actual listening address announced on stderr (`--listen 127.0.0.1:0`).
fn spawn_serve(args: &[&str]) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_holes"))
        .arg("serve")
        .args(args)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning holes serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("reading serve stderr");
        if let Some(addr) = line.strip_prefix("serve: listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stderr so the coordinator never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn serve_fleet_with_a_preempted_worker_matches_the_single_process_campaign() {
    let scratch = Scratch::new("serve-fleet");
    let seeds = "2600..2618";
    let reference = scratch.path("reference.jsonl");
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &reference, "--quiet",
    ]);

    let merged = scratch.path("merged.jsonl");
    let journal = scratch.path("journal.jsonl");
    let (mut serve, addr) = spawn_serve(&[
        "--seeds",
        seeds,
        "--listen",
        "127.0.0.1:0",
        "--journal",
        &journal,
        "--lease-shards",
        "4",
        "--heartbeat-ms",
        "100",
        "--out",
        &merged,
        "--quiet",
    ]);

    // One worker is chaos-preempted on its first lease (no heartbeats, so
    // the coordinator revokes it and must discard the late result); the
    // other runs clean. Between them the campaign completes.
    let preempted = Command::new(env!("CARGO_BIN_EXE_holes"))
        .args([
            "work",
            "--connect",
            &addr,
            "--work-dir",
            &scratch.path("w1"),
            "--patience-ms",
            "2000",
        ])
        .env("HOLES_SERVE_CHAOS", "preempt:1")
        .spawn()
        .expect("spawning the preempted worker");
    let clean = Command::new(env!("CARGO_BIN_EXE_holes"))
        .args([
            "work",
            "--connect",
            &addr,
            "--work-dir",
            &scratch.path("w2"),
            "--patience-ms",
            "2000",
            "--quiet",
        ])
        .spawn()
        .expect("spawning the clean worker");

    for mut worker in [preempted, clean] {
        let status = worker.wait().expect("waiting for a worker");
        assert!(status.success(), "workers exit 0, got {status}");
    }
    let status = serve.wait().expect("waiting for serve");
    assert_eq!(status.code(), Some(0), "serve exits clean");

    let merged_bytes = std::fs::read(Path::new(&merged)).unwrap();
    let reference_bytes = std::fs::read(Path::new(&reference)).unwrap();
    assert_eq!(
        merged_bytes, reference_bytes,
        "merged fleet output differs from the single-process run"
    );
    assert!(
        Path::new(&journal).exists(),
        "the journal survives the campaign"
    );
}

#[test]
fn a_kill_nined_worker_resumes_its_shard_and_the_merge_stays_byte_identical() {
    let scratch = Scratch::new("serve-kill9");
    let seeds = "2620..2636";
    let reference = scratch.path("reference.jsonl");
    ok_stdout(&[
        "campaign", "--seeds", seeds, "--jsonl", "--out", &reference, "--quiet",
    ]);

    let merged = scratch.path("merged.jsonl");
    let (mut serve, addr) = spawn_serve(&[
        "--seeds",
        seeds,
        "--listen",
        "127.0.0.1:0",
        "--journal",
        &scratch.path("journal.jsonl"),
        "--lease-shards",
        "2",
        "--heartbeat-ms",
        "100",
        "--out",
        &merged,
        "--quiet",
    ]);

    // First incarnation dies the hard way (process abort after the 5th
    // emitted stream line — no flushes, a torn shard file left behind).
    let work_dir = scratch.path("w");
    let killed = Command::new(env!("CARGO_BIN_EXE_holes"))
        .args([
            "work",
            "--connect",
            &addr,
            "--work-dir",
            &work_dir,
            "--patience-ms",
            "2000",
            "--quiet",
        ])
        .env("HOLES_SERVE_CHAOS", "abort:5")
        .output()
        .expect("spawning the doomed worker");
    assert!(!killed.status.success(), "abort:5 must kill the worker");

    // Second incarnation over the SAME work directory resumes the torn
    // stream and finishes the campaign.
    let revived = holes(&[
        "work",
        "--connect",
        &addr,
        "--work-dir",
        &work_dir,
        "--patience-ms",
        "2000",
    ]);
    assert!(revived.status.success(), "revived worker exits 0");

    let status = serve.wait().expect("waiting for serve");
    assert_eq!(status.code(), Some(0), "serve exits clean");
    assert_eq!(
        std::fs::read(Path::new(&merged)).unwrap(),
        std::fs::read(Path::new(&reference)).unwrap(),
        "kill -9 mid-shard leaked into the merged bytes"
    );
}

#[test]
fn malformed_thread_counts_are_rejected_up_front_with_the_value() {
    let output = holes_env(
        &["campaign", "--seeds", "0..1", "--quiet"],
        &[("HOLES_THREADS", "abc")],
    );
    assert_eq!(
        output.status.code(),
        Some(1),
        "a typo'd thread count must not run on every core"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("HOLES_THREADS") && stderr.contains("`abc`"),
        "the message names the bad value: {stderr}"
    );
    assert!(output.stdout.is_empty());
}

#[test]
fn classic_shards_with_a_duplicated_fault_are_rejected() {
    let scratch = Scratch::new("dup-fault");
    let file = scratch.path("c.json");
    let campaign = holes_env(
        &["campaign", "--seeds", "0..6", "--out", &file, "--quiet"],
        &[("HOLES_FAULT_SEEDS", "3")],
    );
    assert_eq!(campaign.status.code(), Some(2));
    let report = holes_env(&["report", &file], &[]);
    assert_eq!(report.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&report.stdout).contains("faulted subjects: 1"));

    // Duplicate the one entry of the `faults` array.
    let text = std::fs::read_to_string(Path::new(&file)).unwrap();
    let faults = text.find("\"faults\": [").expect("a faults array");
    let entry_start = faults + text[faults..].find('{').unwrap();
    let entry_end = entry_start + text[entry_start..].find('}').unwrap() + 1;
    let duplicated = format!(
        "{}, {}{}",
        &text[..entry_end],
        &text[entry_start..entry_end],
        &text[entry_end..]
    );
    std::fs::write(Path::new(&file), duplicated).unwrap();
    let report = holes_env(&["report", &file], &[]);
    assert_eq!(
        report.status.code(),
        Some(1),
        "a duplicated fault must not count twice"
    );
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(
        stderr.contains("fault for subject 3 violates canonical campaign order"),
        "{stderr}"
    );
}

#[test]
fn bogus_fault_seed_lists_are_rejected_up_front_with_the_offending_entry() {
    let output = holes_env(
        &["campaign", "--seeds", "0..1", "--quiet"],
        &[("HOLES_FAULT_SEEDS", "12,zap,14")],
    );
    assert_eq!(
        output.status.code(),
        Some(1),
        "a typo'd kill list must not run"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("HOLES_FAULT_SEEDS"), "{stderr}");
    assert!(
        stderr.contains("zap"),
        "the message names the bad entry: {stderr}"
    );
}

/// A malformed chaos variable stops `campaign --out F` and `report` at
/// start-up: exit 1, no output file, and stderr names the variable and its
/// bad entry.
fn chaos_typo_is_rejected_at_start_up(variable: &str, value: &str, entry: &str) {
    let scratch = Scratch::new(&format!("chaos-typo-{}", variable.to_lowercase()));
    let shard = scratch.path("shard.json");
    ok_stdout(&["campaign", "--seeds", "0..2", "--out", &shard, "--quiet"]);
    let out = scratch.path("out.json");
    for args in [
        &["campaign", "--seeds", "0..2", "--out", &out, "--quiet"][..],
        &["report", &shard],
    ] {
        let output = holes_env(args, &[(variable, value)]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} wrote output");
        assert!(
            !Path::new(&out).exists(),
            "{args:?} created its output file"
        );
        assert!(
            stderr.starts_with(&format!("holes: {variable}: ")) && stderr.contains(entry),
            "{args:?}: stderr must name {variable} and `{entry}`: {stderr}"
        );
    }
}

#[test]
fn fault_seed_typos_stop_every_command_at_start_up() {
    chaos_typo_is_rejected_at_start_up("HOLES_FAULT_SEEDS", "3,x", "`x`");
}

#[test]
fn store_chaos_typos_stop_every_command_at_start_up() {
    chaos_typo_is_rejected_at_start_up("HOLES_STORE_CHAOS", "3x", "`3x`");
}

#[test]
fn serve_chaos_typos_stop_every_command_at_start_up() {
    chaos_typo_is_rejected_at_start_up("HOLES_SERVE_CHAOS", "abrt:5", "`abrt:5`");
}

#[test]
fn cache_chaos_typos_stop_every_command_at_start_up() {
    chaos_typo_is_rejected_at_start_up("HOLES_CACHE_CHAOS", "corupt:3", "`corupt:3`");
}

#[test]
fn campaign_corpus_prepass_replays_first_and_gates_regressions() {
    let scratch = Scratch::new("prepass");
    let corpus = scratch.path("corpus.json");
    ok_stdout(&["corpus", "add", "--corpus", &corpus, "--seed", "2500"]);

    // A healthy corpus: the prepass replays on stderr and the campaign
    // output stays byte-identical to a corpus-less run.
    let plain = ok_stdout(&["campaign", "--seeds", "2500..2503", "--quiet"]);
    let prepassed = holes(&[
        "campaign",
        "--seeds",
        "2500..2503",
        "--quiet",
        "--corpus",
        &corpus,
    ]);
    assert!(prepassed.status.success());
    assert_eq!(
        prepassed.stdout, plain,
        "the prepass must not disturb campaign stdout"
    );

    // A corpus whose entry no longer reproduces fails fast with exit 3
    // before any campaign work.
    let text = std::fs::read_to_string(Path::new(&corpus)).unwrap();
    let tampered = scratch.path("tampered.json");
    std::fs::write(
        Path::new(&tampered),
        text.replace("\"seed\": 2500", "\"seed\": 2501"),
    )
    .unwrap();
    let gated = holes(&[
        "campaign",
        "--seeds",
        "2500..2503",
        "--quiet",
        "--corpus",
        &tampered,
    ]);
    assert_eq!(
        gated.status.code(),
        Some(3),
        "a dead corpus entry gates the campaign"
    );
    let stderr = String::from_utf8_lossy(&gated.stderr);
    assert!(stderr.contains("no longer reproduce"), "{stderr}");
    assert!(
        gated.stdout.is_empty(),
        "no campaign output after a failed prepass"
    );

    // A missing corpus file is a hard error, not a silent skip.
    let missing = holes(&[
        "campaign",
        "--seeds",
        "2500..2501",
        "--corpus",
        &scratch.path("nope.json"),
        "--quiet",
    ]);
    assert_eq!(missing.status.code(), Some(1));
}
