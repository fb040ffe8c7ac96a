//! Property-based tests (proptest) over the core invariants of the
//! reproduction.

use proptest::prelude::*;

use holes_compiler::{compile, CompilerConfig, OptLevel, Personality};
use holes_debugger::{trace, DebuggerKind};
use holes_minic::ast::Ty;
use holes_minic::interp::Interpreter;
use holes_minic::validate::validate;
use holes_progen::{GeneratorOptions, ProgramGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Integer wrapping is idempotent and stays within the type's range for
    /// every scalar type and every value.
    #[test]
    fn ty_wrap_is_idempotent_and_bounded(value in any::<i64>(), index in 0usize..8) {
        let ty = Ty::SCALARS[index];
        let wrapped = ty.wrap(value);
        prop_assert_eq!(ty.wrap(wrapped), wrapped);
        if ty.bits() < 64 {
            let bound = 1i128 << ty.bits();
            prop_assert!((i128::from(wrapped)).abs() < bound);
        }
    }

    /// Every generated program is structurally valid and terminates in the
    /// reference interpreter, for arbitrary seeds.
    #[test]
    fn generated_programs_are_valid_and_terminate(seed in 0u64..5_000) {
        let generated = ProgramGenerator::from_seed(seed).generate();
        prop_assert_eq!(validate(&generated.program), Ok(()));
        prop_assert!(Interpreter::new(&generated.program).run().is_ok());
    }

    /// Generator option assortments always have consistent ranges.
    #[test]
    fn option_assortments_are_consistent(seed in any::<u64>()) {
        let options = GeneratorOptions::assortment(seed);
        prop_assert!(options.min_globals <= options.max_globals);
        prop_assert!(options.min_locals <= options.max_locals);
        prop_assert!(options.min_stmts <= options.max_stmts);
        prop_assert!(options.max_array_dims >= 1 && options.max_array_dims <= 3);
    }

    /// Compilation preserves semantics at a randomly chosen optimization
    /// level and version, for both personalities.
    #[test]
    fn compilation_preserves_semantics(seed in 0u64..300, level_index in 0usize..5, version in 0usize..6) {
        let generated = ProgramGenerator::from_seed(seed).generate();
        let reference = Interpreter::new(&generated.program).run().unwrap();
        for personality in [Personality::Ccg, Personality::Lcc] {
            let levels = personality.levels();
            let level = levels[level_index % levels.len()];
            let config = CompilerConfig::new(personality, level).with_version(version);
            let exe = compile(&generated.program, &config);
            let outcome = exe.run().unwrap();
            prop_assert!(outcome.matches(&reference));
        }
    }

    /// The emitted line table is well-formed: rows sorted by address and every
    /// steppable line has a first address.
    #[test]
    fn line_tables_are_well_formed(seed in 0u64..300) {
        let generated = ProgramGenerator::from_seed(seed).generate();
        let exe = compile(
            &generated.program,
            &CompilerConfig::new(Personality::Ccg, OptLevel::O2),
        );
        let rows = exe.debug.line_table.rows();
        prop_assert!(rows.windows(2).all(|w| w[0].address <= w[1].address));
        for line in exe.debug.line_table.steppable_lines() {
            prop_assert!(exe.debug.line_table.first_address_of_line(line).is_some());
        }
    }

    /// Debugger metrics stay within the unit interval for arbitrary programs
    /// and levels.
    #[test]
    fn metrics_are_bounded(seed in 0u64..200, level_index in 0usize..5) {
        let generated = ProgramGenerator::from_seed(seed).generate();
        let personality = Personality::Ccg;
        let levels = personality.levels();
        let level = levels[level_index % levels.len()];
        let baseline = trace(
            &compile(&generated.program, &CompilerConfig::new(personality, OptLevel::O0)),
            DebuggerKind::GdbLike,
        );
        let optimized = trace(
            &compile(&generated.program, &CompilerConfig::new(personality, level)),
            DebuggerKind::GdbLike,
        );
        let metrics = holes_core::metrics::Metrics::compute(&optimized, &baseline);
        prop_assert!((0.0..=1.0).contains(&metrics.line_coverage));
        prop_assert!((0.0..=1.0).contains(&metrics.availability));
        prop_assert!((0.0..=1.0).contains(&metrics.product));
    }

    /// The cross-backend differential oracle: on defect-free
    /// configurations the register VM, the stack VM, and the frame-ABI
    /// backend are semantically equivalent end to end — same observable run
    /// outcome as the reference interpreter, same steppable and reached
    /// source lines, and the same variable availability *and values* at
    /// every matching line stop. Any divergence would mean one backend's
    /// codegen or location descriptions are wrong, so this property is what
    /// licenses attributing backend-only violations to the injected
    /// spill/frame defects rather than to the backend itself.
    #[test]
    fn backends_agree_on_defect_free_traces(
        seed in 0u64..250,
        level_index in 0usize..7,
        personality_index in 0usize..2,
    ) {
        use holes_compiler::BackendKind;
        let generated = ProgramGenerator::from_seed(seed).generate();
        let reference = Interpreter::new(&generated.program).run().unwrap();
        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let levels: Vec<OptLevel> = std::iter::once(OptLevel::O0)
            .chain(personality.levels().iter().copied())
            .collect();
        let level = levels[level_index % levels.len()];
        let reg_config = CompilerConfig::new(personality, level).without_defects();
        let reg_exe = compile(&generated.program, &reg_config);
        prop_assert!(reg_exe.run().unwrap().matches(&reference));
        let kind = DebuggerKind::native_for(personality);
        let reg_trace = trace(&reg_exe, kind);
        for backend in [BackendKind::Stack, BackendKind::Frame] {
            let other_config = reg_config.clone().with_backend(backend);
            let other_exe = compile(&generated.program, &other_config);
            prop_assert!(other_exe.run().unwrap().matches(&reference));
            let other_trace = trace(&other_exe, kind);
            prop_assert_eq!(&reg_trace.steppable_lines, &other_trace.steppable_lines);
            let reg_lines: Vec<u32> = reg_trace.reached.keys().copied().collect();
            let other_lines: Vec<u32> = other_trace.reached.keys().copied().collect();
            prop_assert_eq!(&reg_lines, &other_lines, "reached lines diverge ({})", backend);
            for &line in &reg_lines {
                let stop = reg_trace.stop_at(line).unwrap();
                for variable in &stop.variables {
                    let reg_status = reg_trace.var_at(line, &variable.name).unwrap();
                    let other_status = other_trace.var_at(line, &variable.name).unwrap();
                    prop_assert_eq!(
                        reg_status,
                        other_status,
                        "seed {} {} {} {}: line {} variable {}",
                        seed,
                        personality,
                        level,
                        backend,
                        line,
                        variable.name
                    );
                }
                // The variable listings cover the same names in both directions.
                let other_stop = other_trace.stop_at(line).unwrap();
                prop_assert_eq!(stop.variables.len(), other_stop.variables.len());
            }
        }
    }

    /// The planned tracer is invisible: for arbitrary programs, every
    /// optimization level of the drawn personality (O0 included), all three
    /// backends and both debugger personalities, servicing stops from a
    /// precomputed [`StopPlan`] produces a `DebugTrace` **equal** (full
    /// structural equality — stops, values, names, line universe) to the
    /// unplanned reference path that re-resolves scope DIEs and location
    /// lists at every stop.
    #[test]
    fn planned_traces_equal_the_unplanned_reference(
        seed in 0u64..300,
        personality_index in 0usize..2,
    ) {
        use holes_compiler::BackendKind;
        use holes_debugger::{trace_unplanned, trace_with_plan, StopPlan};
        let generated = ProgramGenerator::from_seed(seed).generate();
        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let levels = std::iter::once(OptLevel::O0).chain(personality.levels().iter().copied());
        for level in levels {
            for backend in BackendKind::ALL {
                let config = CompilerConfig::new(personality, level).with_backend(backend);
                let exe = compile(&generated.program, &config);
                for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                    let plan = StopPlan::compute(&exe, kind);
                    let planned = trace_with_plan(&exe, &plan);
                    let reference = trace_unplanned(&exe, kind);
                    prop_assert_eq!(
                        &planned,
                        &reference,
                        "planned trace diverged: seed {} {} {} {} {:?}",
                        seed,
                        personality,
                        level,
                        backend,
                        kind
                    );
                    // The public `trace` entry point is the planned path.
                    prop_assert_eq!(&trace(&exe, kind), &reference);
                }
            }
        }
    }

    /// The defect-free compiler never produces conjecture violations: the
    /// conjectures only fire on injected (catalogued) defects.
    #[test]
    fn defect_free_compilers_never_violate(seed in 0u64..150, level_index in 0usize..5) {
        let generated = ProgramGenerator::from_seed(seed).generate();
        let subject = holes_pipeline::Subject::from_generated(generated);
        for personality in [Personality::Ccg, Personality::Lcc] {
            let levels = personality.levels();
            let level = levels[level_index % levels.len()];
            let config = CompilerConfig::new(personality, level).without_defects();
            prop_assert!(subject.violations(&config).is_empty());
        }
    }

    /// The cached oracle is invisible: a subject's memoized `violations()`
    /// — cold, warm, and via a cache-sharing clone — always equals the
    /// uncached compile + trace + check_all composition.
    #[test]
    fn cached_and_uncached_oracles_agree(seed in 0u64..400, level_index in 0usize..5, version in 0usize..6) {
        use holes_compiler::BackendKind;
        let generated = ProgramGenerator::from_seed(seed).generate();
        let subject = holes_pipeline::Subject::from_generated(generated);
        for personality in [Personality::Ccg, Personality::Lcc] {
            let levels = personality.levels();
            let level = levels[level_index % levels.len()];
            for backend in BackendKind::ALL {
                let config = CompilerConfig::new(personality, level)
                    .with_version(version)
                    .with_backend(backend);
                let uncached = {
                    let exe = compile(&subject.program, &config);
                    let t = trace(&exe, DebuggerKind::native_for(personality));
                    holes_core::check_all(&subject.program, &subject.analysis, &subject.source, &t)
                };
                let cold = subject.violations(&config);
                let warm = subject.violations(&config);
                let clone = subject.clone().violations(&config);
                prop_assert_eq!(&cold, &uncached, "{}", config.describe());
                prop_assert_eq!(&warm, &uncached);
                prop_assert_eq!(&clone, &uncached);
                prop_assert_eq!(subject.cache_stats().compiles, subject.cache_stats().checks);
                // The targeted oracle agrees with the full sweep, violation
                // by violation.
                for violation in &uncached {
                    prop_assert!(subject.violation_occurs(&config, violation));
                }
            }
        }
    }

    /// The per-program check plan answers exactly as the reference
    /// checkers: `CheckPlan::check` equals `check_all`, and
    /// `CheckPlan::query` equals `query_violation` on exact-site and
    /// anywhere queries. Every personality, level and backend is checked,
    /// on the real trace and on a mutated copy of it, whose dropped stops
    /// and flipped variables reach Conjecture 3's instance resets and
    /// not-visible observations far more often than real traces do.
    #[test]
    fn check_plans_agree_with_the_reference_checkers(seed in 0u64..5_000, mutation in any::<u64>()) {
        use holes_compiler::BackendKind;
        use holes_core::{check_all, query_violation, CheckPlan};
        let generated = ProgramGenerator::from_seed(seed).generate();
        let (program, analysis, source) = (&generated.program, &generated.analysis, &generated.source);
        let plan = CheckPlan::new(program, analysis, source);
        let mut rng = SplitMix(mutation);
        let mut checked = 0usize;
        for personality in [Personality::Ccg, Personality::Lcc] {
            let kind = DebuggerKind::native_for(personality);
            for &level in [OptLevel::O0].iter().chain(personality.levels()) {
                for backend in BackendKind::ALL {
                    let config = CompilerConfig::new(personality, level).with_backend(backend);
                    let real = trace(&compile(program, &config), kind);
                    let mutated = mutate_trace(&real, &mut rng);
                    for t in [&real, &mutated] {
                        let expected = check_all(program, analysis, source, t);
                        prop_assert_eq!(&plan.check(t), &expected, "seed {} {}", seed, config.describe());
                        for query in plan_queries(program, &expected) {
                            prop_assert_eq!(
                                plan.query(t, &query),
                                query_violation(program, analysis, source, t, &query),
                                "seed {} {} {:?}",
                                seed,
                                config.describe(),
                                query
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(checked > 0);
    }

    /// Binary-search bisection returns the same culprit as the linear
    /// prefix scan for every violation of a seeded pool.
    #[test]
    fn binary_and_linear_bisection_agree(seed in 0u64..400, level_index in 0usize..5) {
        use holes_pipeline::triage::{bisect, bisect_linear};
        let generated = ProgramGenerator::from_seed(seed).generate();
        let subject = holes_pipeline::Subject::from_generated(generated);
        let personality = Personality::Lcc;
        let levels = personality.levels();
        let level = levels[level_index % levels.len()];
        let config = CompilerConfig::new(personality, level);
        for violation in subject.violations(&config) {
            let binary = bisect(&subject, &config, &violation);
            let linear = bisect_linear(&subject, &config, &violation);
            prop_assert_eq!(binary.culprits, linear.culprits, "culprit divergence on {:?}", violation);
        }
    }

    /// Equal pass prefixes are derived once, and sharing them changes no
    /// trace: for every budget of both personalities at `-Og` and `-O2` on
    /// every backend, the trace a subject serves for `with_pass_budget(k)`
    /// equals the trace of that configuration compiled from scratch, and
    /// `k`'s canonical budget is no larger and shares its checkpoint.
    #[test]
    fn shared_pass_prefixes_serve_from_scratch_traces(seed in 0u64..5_000) {
        use holes_compiler::{BackendKind, PassSnapshots};
        let generated = ProgramGenerator::from_seed(seed).generate();
        let subject = holes_pipeline::Subject::from_generated(generated);
        let mut shared = 0usize;
        for personality in [Personality::Ccg, Personality::Lcc] {
            let kind = DebuggerKind::native_for(personality);
            for level in [OptLevel::Og, OptLevel::O2] {
                for backend in BackendKind::ALL {
                    let config = CompilerConfig::new(personality, level).with_backend(backend);
                    let snapshots = PassSnapshots::record(&subject.program, &config);
                    for budget in 0..=snapshots.pass_count() {
                        let canonical = snapshots.canonical_budget(budget);
                        prop_assert!(canonical <= budget);
                        prop_assert!(snapshots.checkpoint(canonical) == snapshots.checkpoint(budget));
                        shared += usize::from(canonical < budget);
                        let budgeted = config.clone().with_pass_budget(budget);
                        let scratch = trace(&compile(&subject.program, &budgeted), kind);
                        prop_assert_eq!(
                            &*subject.trace_shared(&budgeted, kind),
                            &scratch,
                            "seed {} {} budget {} (canonical {})",
                            seed,
                            config.describe(),
                            budget,
                            canonical
                        );
                    }
                }
            }
        }
        // The sharing path itself ran: some pass left the IR unchanged.
        prop_assert!(shared > 0);
    }

    /// Merging K sharded campaign runs — round-tripped through their JSON
    /// shard files — reproduces the unsharded campaign byte-for-byte, for
    /// random shard counts, seed ranges, and personalities.
    #[test]
    fn sharded_campaigns_merge_to_the_monolithic_run(
        start in 0u64..10_000,
        len in 1u64..12,
        shards in 1u64..7,
        personality_index in 0usize..2,
        inject_bits in any::<u64>(),
    ) {
        use holes_core::json::Json;
        use holes_pipeline::fault::FaultPolicy;
        use holes_pipeline::shard::{merge_shards, run_shard, CampaignShard, CampaignSpec};
        use holes_pipeline::stream::{read_jsonl_shard, run_shard_streaming};
        use holes_progen::SeedRange;

        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let seeds = SeedRange::new(start, start + len);
        let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
        // Each seed faults with probability 1/4.
        let policy = FaultPolicy {
            inject_seeds: (0..len)
                .filter(|i| inject_bits >> (2 * i) & 3 == 0)
                .map(|i| start + i)
                .collect(),
            ..FaultPolicy::default()
        };
        let (monolithic, _) = run_shard(&spec, &policy).unwrap();
        prop_assert_eq!(monolithic.result.faults.len(), policy.inject_seeds.len());

        let mut classic_runs: Vec<CampaignShard> = Vec::new();
        let mut streamed_runs: Vec<CampaignShard> = Vec::new();
        for shard in 0..shards {
            let shard_spec = spec.clone().with_shard(shards, shard);
            let (run, _) = run_shard(&shard_spec, &policy).unwrap();
            // Round-trip through the serialized shard file, as a real
            // multi-machine campaign would.
            let rendered = run.to_json().to_pretty();
            let mut streamed_document = Vec::new();
            run.write_json(&mut streamed_document).unwrap();
            prop_assert_eq!(
                String::from_utf8(streamed_document).unwrap(),
                rendered.clone(),
                "the streamed shard document differs from the tree rendering"
            );
            let reparsed = CampaignShard::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            prop_assert_eq!(&reparsed, &run, "shard file round-trip changed the shard");
            // The streamed shard of the same spec parses to the same shard.
            let mut stream = Vec::new();
            run_shard_streaming(&shard_spec, &mut stream, &policy).unwrap();
            let streamed = read_jsonl_shard(&String::from_utf8(stream).unwrap()).unwrap();
            prop_assert_eq!(&streamed, &run, "classic and streamed shards differ");
            classic_runs.push(reparsed);
            streamed_runs.push(streamed);
        }

        for runs in [classic_runs, streamed_runs] {
            let merged = merge_shards(runs).unwrap();
            prop_assert_eq!(&merged, &monolithic.result);
            prop_assert_eq!(merged.table1(), monolithic.result.table1());
            prop_assert_eq!(merged.venn(), monolithic.result.venn());
            prop_assert_eq!(
                merged.summary_json().to_pretty(),
                monolithic.result.summary_json().to_pretty(),
                "machine-readable summaries must be byte-identical"
            );
        }
    }

    /// The one record/fault validator, attacked: take a valid shard's line
    /// sequence, apply a random swap, duplication, deletion, or subject/seed
    /// rewrite, and render it both as a classic document and as a JSON
    /// Lines stream (footer counts adjusted). Neither reader panics, and
    /// both accept or reject alike — and, when both accept, agree on the
    /// shard.
    #[test]
    fn classic_and_streamed_readers_agree_on_mutated_sequences(
        start in 0u64..5_000,
        len in 2u64..10,
        shards in 1u64..3,
        inject_bits in any::<u64>(),
        mutation in 0usize..6,
        at in any::<u64>(),
        other in any::<u64>(),
        delta in 1u64..4,
    ) {
        use holes_core::json::Json;
        use holes_pipeline::fault::FaultPolicy;
        use holes_pipeline::shard::{CampaignShard, CampaignSpec};
        use holes_pipeline::stream::{read_jsonl_shard, run_shard_streaming};
        use holes_progen::SeedRange;

        let spec = CampaignSpec::new(
            Personality::Ccg,
            Personality::Ccg.trunk(),
            SeedRange::new(start, start + len),
        )
        .with_shard(shards, 0);
        let policy = FaultPolicy {
            inject_seeds: (0..len)
                .filter(|i| inject_bits >> (2 * i) & 3 == 0)
                .map(|i| start + i)
                .collect(),
            ..FaultPolicy::default()
        };
        let mut stream = Vec::new();
        run_shard_streaming(&spec, &mut stream, &policy).unwrap();
        let text = String::from_utf8(stream).unwrap();
        let all: Vec<&str> = text.lines().collect();
        let (header, footer) = (all[0], Json::parse(all[all.len() - 1]).unwrap());
        let mut lines: Vec<Json> = all[1..all.len() - 1]
            .iter()
            .map(|line| Json::parse(line).unwrap())
            .collect();

        let shift = |line: &mut Json, key: &str, by: u64| {
            if let Json::Obj(pairs) = line {
                for (name, value) in pairs.iter_mut() {
                    if name == key {
                        *value = Json::from_u64(value.as_u64().unwrap() + by);
                    }
                }
            }
        };
        if !lines.is_empty() {
            let i = (at % lines.len() as u64) as usize;
            let j = (other % lines.len() as u64) as usize;
            match mutation {
                0 => lines.swap(i, j),
                1 => {
                    let copy = lines[i].clone();
                    lines.insert(j, copy);
                }
                2 => {
                    lines.remove(i);
                }
                3 => shift(&mut lines[i], "subject", delta),
                4 => shift(&mut lines[i], "seed", delta),
                // Move a line to another subject of this shard, keeping its
                // seed and index consistent.
                _ => {
                    shift(&mut lines[i], "subject", delta * shards);
                    shift(&mut lines[i], "seed", delta * shards);
                }
            }
        }

        let (faults, records): (Vec<Json>, Vec<Json>) =
            lines.iter().cloned().partition(|line| line.get("fault").is_some());
        let mut footer_pairs = vec![
            ("end".to_owned(), Json::Bool(true)),
            ("programs".to_owned(), footer.get("programs").unwrap().clone()),
            ("records".to_owned(), Json::from_usize(records.len())),
        ];
        if !faults.is_empty() {
            footer_pairs.push(("faulted".to_owned(), Json::from_usize(faults.len())));
        }
        let mut jsonl = format!("{header}\n");
        for line in &lines {
            jsonl.push_str(&format!("{}\n", line.to_compact()));
        }
        jsonl.push_str(&format!("{}\n", Json::Obj(footer_pairs).to_compact()));

        let Json::Obj(mut document) = Json::parse(header).unwrap() else {
            panic!("the header is an object");
        };
        document[0].1 = Json::str("holes.campaign/v1");
        document.push(("programs".to_owned(), footer.get("programs").unwrap().clone()));
        document.push(("records".to_owned(), Json::Arr(records)));
        if !faults.is_empty() {
            document.push(("faults".to_owned(), Json::Arr(faults)));
        }

        let classic = CampaignShard::from_json(&Json::Obj(document));
        let streamed = read_jsonl_shard(&jsonl);
        prop_assert_eq!(
            classic.is_ok(),
            streamed.is_ok(),
            "mutation {} splits the readers: classic {:?}, stream {:?}",
            mutation,
            classic.as_ref().err(),
            streamed.as_ref().err()
        );
        if let (Ok(classic), Ok(streamed)) = (classic, streamed) {
            prop_assert_eq!(classic, streamed);
        }
    }

    /// A campaign over a cold persistent store, re-run warm in a fresh
    /// in-memory cache, yields byte-identical campaign JSON with zero
    /// recomputation — and a corrupted or truncated store file is rejected
    /// and recomputed, never trusted, for arbitrary ranges and damage.
    #[test]
    fn warm_store_campaigns_are_byte_identical_and_corruption_tolerant(
        start in 20_000u64..30_000,
        len in 1u64..6,
        personality_index in 0usize..2,
        damage in 0usize..64,
        damage_kind in 0usize..3,
    ) {
        use std::sync::Arc;
        use holes_pipeline::campaign::run_campaign;
        use holes_pipeline::shard::{CampaignShard, CampaignSpec};
        use holes_pipeline::{ArtifactStore, CacheStats, FaultPolicy, Subject};
        use holes_progen::SeedRange;

        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let seeds = SeedRange::new(start, start + len);
        let root = std::env::temp_dir().join(format!(
            "holes-prop-store-{}-{start}-{len}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(ArtifactStore::open(&root).unwrap());

        // One campaign run over an explicit pool bound to `store`, rendered
        // as the canonical shard JSON.
        let campaign_json = |store: &Arc<ArtifactStore>| -> (String, CacheStats) {
            let subjects: Vec<Subject> = seeds
                .iter()
                .map(|seed| {
                    // `with_fresh_cache` guarantees a store-free cold cache
                    // even if the test environment exports HOLES_CACHE_DIR.
                    let subject = Subject::from_seed(seed).with_fresh_cache();
                    subject.attach_store(Arc::clone(store));
                    subject
                })
                .collect();
            let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
            let (result, stats) = run_campaign(&subjects, &spec, &FaultPolicy::default());
            let shard = CampaignShard { spec, result };
            (shard.to_json().to_pretty(), stats)
        };

        let (cold_json, cold_stats) = campaign_json(&store);
        prop_assert!(cold_stats.compiles > 0, "cold run compiled nothing");
        prop_assert_eq!(cold_stats.disk_loads, 0);

        // Warm run: fresh caches, same store — byte-identical, zero work.
        let (warm_json, warm_stats) = campaign_json(&store);
        prop_assert_eq!(&warm_json, &cold_json, "warm-store campaign JSON diverged");
        prop_assert_eq!(warm_stats.compiles, 0, "warm run recompiled");
        prop_assert_eq!(warm_stats.traces, 0, "warm run retraced");
        prop_assert_eq!(warm_stats.checks, 0, "warm run rechecked");
        prop_assert!(warm_stats.disk_loads > 0);

        // Damage every store file (cycling truncation, garbling, and
        // checksum-breaking, with the cycle offset chosen by proptest): the
        // next run must reject them all, recompute from scratch, and still
        // agree byte-for-byte.
        let mut files: Vec<std::path::PathBuf> = Vec::new();
        let mut stack = vec![root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() { stack.push(path); } else { files.push(path); }
            }
        }
        files.sort();
        prop_assert!(!files.is_empty());
        for (index, victim) in files.iter().enumerate() {
            let text = std::fs::read_to_string(victim).unwrap();
            let bad = match (index + damage + damage_kind) % 3 {
                0 => text[..text.len() / 2].to_owned(),
                1 => String::from("{\"format\":\"holes.artifact/v1\""),
                _ => text.replace("\"checksum\":\"", "\"checksum\":\"f0"),
            };
            std::fs::write(victim, bad).unwrap();
        }

        let (damaged_json, damaged_stats) = campaign_json(&store);
        prop_assert_eq!(&damaged_json, &cold_json, "corrupted store changed the campaign");
        prop_assert_eq!(damaged_stats.disk_loads, 0, "a corrupted file was trusted");
        prop_assert_eq!(damaged_stats.compiles, cold_stats.compiles);
        prop_assert!(store.stats().rejected > 0);

        // The recomputation healed the store: a final warm run is free again.
        let (healed_json, healed_stats) = campaign_json(&store);
        prop_assert_eq!(&healed_json, &cold_json);
        prop_assert_eq!(healed_stats.compiles, 0);

        let _ = std::fs::remove_dir_all(&root);
    }

    /// Kill-safe resume: truncating a streamed campaign file at an
    /// **arbitrary byte** — mid-header, mid-record, mid-footer, anywhere —
    /// and rerunning with resume reproduces the uninterrupted stream
    /// byte-for-byte, for random seed ranges and kill points.
    #[test]
    fn killed_streams_resume_byte_identically(
        start in 0u64..10_000,
        len in 1u64..8,
        kill_permille in 0u64..1001,
    ) {
        use holes_pipeline::fault::FaultPolicy;
        use holes_pipeline::shard::CampaignSpec;
        use holes_pipeline::stream::{resume_shard_streaming, run_shard_streaming};
        use holes_progen::SeedRange;

        let personality = Personality::Ccg;
        let seeds = SeedRange::new(start, start + len);
        let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
        let policy = FaultPolicy::default();

        let mut full: Vec<u8> = Vec::new();
        run_shard_streaming(&spec, &mut full, &policy).unwrap();

        // The kill point covers the whole file, endpoints included: 0 is a
        // fresh start, `full.len()` an already-complete no-op.
        let kill = (full.len() * kill_permille as usize / 1000).min(full.len());
        let path = std::env::temp_dir().join(format!(
            "holes-prop-resume-{}-{start}-{len}-{kill}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, &full[..kill]).unwrap();

        let outcome = resume_shard_streaming(&spec, &path, &policy);
        let resumed = std::fs::read(&path);
        let _ = std::fs::remove_file(&path);
        let outcome = outcome.unwrap();
        prop_assert_eq!(
            resumed.unwrap(),
            full,
            "kill at byte {} of {} did not resume byte-identically",
            kill,
            outcome.records
        );
    }

    /// Store chaos is invisible to results: an arbitrary schedule of
    /// injected transient I/O failures changes only the store statistics —
    /// the campaign JSON stays byte-identical to a run over an undisturbed
    /// store, and never silently loses records.
    #[test]
    fn failing_store_schedules_never_change_campaign_results(
        start in 30_000u64..40_000,
        len in 1u64..5,
        schedule_bits in any::<u64>(),
        schedule_len in 0usize..64,
    ) {
        use std::sync::Arc;
        use holes_pipeline::campaign::run_campaign;
        use holes_pipeline::shard::{CampaignShard, CampaignSpec};
        use holes_pipeline::store::io::FailingIo;
        use holes_pipeline::{ArtifactStore, FaultPolicy, Subject};
        use holes_progen::SeedRange;

        let personality = Personality::Ccg;
        let seeds = SeedRange::new(start, start + len);
        let schedule: Vec<bool> = (0..schedule_len)
            .map(|bit| schedule_bits >> bit & 1 == 1)
            .collect();
        let campaign_json = |store: Option<&Arc<ArtifactStore>>| -> String {
            let subjects: Vec<Subject> = seeds
                .iter()
                .map(|seed| {
                    let subject = Subject::from_seed(seed).with_fresh_cache();
                    if let Some(store) = store {
                        subject.attach_store(Arc::clone(store));
                    }
                    subject
                })
                .collect();
            let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
            let (result, _) = run_campaign(&subjects, &spec, &FaultPolicy::default());
            let shard = CampaignShard { spec, result };
            shard.to_json().to_pretty()
        };

        let reference = campaign_json(None);

        let root = std::env::temp_dir().join(format!(
            "holes-prop-chaos-{}-{start}-{len}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // The schedule also governs `open`: when it fails the store's
        // creation outright, degrading to no store at all is the correct
        // containment — results must still match.
        let store = ArtifactStore::open_with_io(
            &root,
            Box::new(FailingIo::script(schedule.iter().copied())),
        )
        .ok()
        .map(Arc::new);

        let chaotic = campaign_json(store.as_ref());
        prop_assert_eq!(&chaotic, &reference, "store chaos changed campaign results");
        if let Some(store) = &store {
            // Cold misses happen with or without chaos; errors and retries
            // are bounded by the schedule's failure count.
            let stats = store.stats();
            prop_assert!(stats.retries + stats.store_errors <= schedule.len() * 2);
            // A second pass over the (possibly partially-populated) store
            // still agrees: whatever survived the chaos is valid.
            let warm = campaign_json(Some(store));
            prop_assert_eq!(&warm, &reference, "chaos-surviving store corrupted results");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The streamed monolithic triage selects, triages, faults and counts
    /// exactly what the pool-based triage does — for random ranges, limits
    /// that bind and limits that do not, both personalities, every backend,
    /// injected faults and fuel limits.
    #[test]
    fn streamed_triage_equals_the_pool_oracle(
        start in 0u64..10_000,
        len in 1u64..24,
        limit_index in 0usize..4,
        personality_index in 0usize..2,
        backend_index in 0usize..3,
        inject_bits in any::<u64>(),
        fuel_index in 0usize..4,
    ) {
        use holes_compiler::BackendKind;
        use holes_pipeline::shard::CampaignSpec;
        use holes_pipeline::triage::triage_campaign;
        use holes_pipeline::{ArtifactStore, FaultPolicy};
        use holes_progen::SeedRange;

        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(start, start + len))
            .with_backend(BackendKind::ALL[backend_index]);
        let limit = [1, 2, 3, 1_000_000][limit_index];
        // Each seed faults with probability 1/8; the fuel limits fault some
        // campaigns and some triage probes. Ranges longer than one chunk
        // carry the quota across chunks.
        let policy = FaultPolicy {
            inject_seeds: (0..len)
                .filter(|i| inject_bits >> (3 * i) & 7 == 0)
                .map(|i| start + i)
                .collect(),
            fuel_limit: [None, Some(100), Some(300), Some(1_000)][fuel_index],
        };
        let streamed = triage_campaign(&spec, limit, &policy);
        let oracle = pool_triage(&spec, limit, &policy);
        prop_assert_eq!(&streamed.table, &oracle.table);
        prop_assert_eq!(&streamed.campaign_faults, &oracle.campaign_faults);
        prop_assert_eq!(&streamed.triage_faults, &oracle.triage_faults);
        // A store shared through HOLES_CACHE_DIR would let one side load
        // what the other computed.
        if ArtifactStore::from_env().is_none() {
            prop_assert_eq!(streamed.stats, oracle.stats);
        }
    }

    /// Diffing a run's recorded baseline against itself is always empty:
    /// every fingerprint is known, nothing is new or fixed, and the gate
    /// stays silent — for arbitrary ranges and both personalities.
    #[test]
    fn baseline_diff_against_itself_is_always_empty(
        start in 0u64..20_000,
        len in 0u64..4,
        personality_index in 0usize..2,
    ) {
        use holes_pipeline::baseline::Baseline;
        use holes_pipeline::fault::FaultPolicy;
        use holes_pipeline::shard::{run_shard, CampaignSpec};
        use holes_progen::SeedRange;

        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let spec = CampaignSpec::new(
            personality,
            personality.trunk(),
            SeedRange::new(start, start + len),
        );
        let (shard, _) = run_shard(&spec, &FaultPolicy::default()).unwrap();
        let baseline = Baseline::from_tallies(&spec, &shard.result.tallies());
        let diff = baseline.diff(&baseline).unwrap();
        prop_assert_eq!(diff.known.len(), baseline.fingerprints.len());
        prop_assert!(diff.new.is_empty());
        prop_assert!(diff.fixed.is_empty());
        prop_assert!(!diff.has_regressions());
        prop_assert!(diff.render().contains("new: 0"));
        // And the document round-trips losslessly through its wire format.
        let text = baseline.to_json().to_pretty();
        let json = holes_core::json::Json::parse(&text).unwrap();
        prop_assert_eq!(Baseline::from_json(&json).unwrap().to_json().to_pretty(), text);
    }

    /// Recording a baseline from K shards folded in reverse order yields
    /// bytes identical to the unsharded recording, for arbitrary small
    /// ranges and shard counts — the CI property that lets sharded fleets
    /// and single-host runs share one baseline file.
    #[test]
    fn sharded_baseline_recording_is_byte_identical_for_any_sharding(
        start in 0u64..20_000,
        len in 1u64..4,
        shards in 1u64..4,
    ) {
        use holes_pipeline::baseline::Baseline;
        use holes_pipeline::campaign::CampaignTallies;
        use holes_pipeline::fault::FaultPolicy;
        use holes_pipeline::shard::{run_shard, CampaignSpec};
        use holes_progen::SeedRange;

        let range = SeedRange::new(start, start + len);
        let spec = CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range);
        let (monolithic, _) = run_shard(&spec, &FaultPolicy::default()).unwrap();
        let reference =
            Baseline::from_tallies(&spec, &monolithic.result.tallies()).to_json().to_pretty();

        let mut tallies =
            CampaignTallies::new(spec.personality.levels().to_vec(), len as usize);
        for index in (0..shards).rev() {
            let (shard, _) =
                run_shard(&spec.clone().with_shard(shards, index), &FaultPolicy::default()).unwrap();
            for record in &shard.result.records {
                tallies.add(record);
            }
        }
        let sharded = Baseline::from_tallies(&spec, &tallies).to_json().to_pretty();
        prop_assert_eq!(sharded, reference, "K={} changed the recorded bytes", shards);
    }

    /// Corpus documents round-trip losslessly for arbitrary (valid) entry
    /// contents, and flipping any single byte of the serialized form never
    /// panics the parser: it either surfaces a named error or yields a
    /// different-but-valid corpus that itself round-trips.
    #[test]
    fn corpus_documents_round_trip_and_survive_byte_flips(
        seed in any::<u64>(),
        version in 0usize..6,
        level_index in 0usize..6,
        personality_index in 0usize..2,
        backend_index in 0usize..3,
        conjecture_index in 0usize..3,
        line in 1u32..500,
        variable_index in 0usize..6,
        statements in 1usize..200,
        reduced in 1usize..200,
        flip in 0usize..4096,
        replacement in any::<u8>(),
    ) {
        use holes_compiler::BackendKind;
        use holes_core::json::Json;
        use holes_core::{Conjecture, Observed};
        use holes_pipeline::corpus::{Corpus, CorpusEntry};

        let personality = [Personality::Ccg, Personality::Lcc][personality_index];
        let mut corpus = Corpus::new();
        corpus.add(CorpusEntry {
            seed,
            personality,
            version,
            level: personality.levels()[level_index % personality.levels().len()],
            backend: [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame][backend_index],
            conjecture: Conjecture::ALL[conjecture_index],
            line,
            variable: ["a", "j17", "v_2", "tmp0", "g", "x9"][variable_index].to_owned(),
            observed: Observed::OptimizedOut,
            culprit: Some("tree-ccp".to_owned()),
            original_statements: statements.max(reduced),
            reduced_statements: reduced,
            reduced_source: "int a = 0;\n".to_owned(),
        });
        let text = corpus.to_json().to_pretty();

        // Lossless round trip of the untampered document.
        let parsed = Corpus::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(parsed.to_json().to_pretty(), text.clone());

        // A single flipped byte never panics; when the flip happens to
        // leave a parseable document, that document round-trips too.
        let mut bytes = text.into_bytes();
        let index = flip % bytes.len();
        bytes[index] = replacement;
        if let Ok(tampered) = String::from_utf8(bytes) {
            if let Ok(json) = Json::parse(&tampered) {
                if let Ok(reread) = Corpus::from_json(&json) {
                    let round = reread.to_json().to_pretty();
                    let again = Corpus::from_json(&Json::parse(&round).unwrap()).unwrap();
                    prop_assert_eq!(again.to_json().to_pretty(), round);
                }
            }
        }
    }

    /// The streaming writer emits exactly the tree renderings: random
    /// `Json` values fed through `JsonWriter::value` give `to_pretty()` in
    /// pretty mode and `to_compact()` in compact mode, byte for byte.
    #[test]
    fn json_writer_streams_exactly_the_tree_renderings(seed in any::<u64>()) {
        use holes_core::json::JsonWriter;

        let mut state = seed;
        for _ in 0..16 {
            let value = random_json(&mut state, 4);
            let mut pretty = Vec::new();
            JsonWriter::pretty(&mut pretty).value(&value).unwrap();
            prop_assert_eq!(String::from_utf8(pretty).unwrap(), value.to_pretty());
            let mut compact = Vec::new();
            JsonWriter::compact(&mut compact).value(&value).unwrap();
            prop_assert_eq!(String::from_utf8(compact).unwrap(), value.to_compact());
        }
    }
}

/// The pool-based monolithic triage that `triage_campaign` streams: a
/// prebuilt pool, a campaign over the whole range, then the first `limit`
/// unique violations per conjecture in record order, triaged one after
/// another. The differential oracle of
/// `streamed_triage_equals_the_pool_oracle`.
fn pool_triage(
    spec: &holes_pipeline::shard::CampaignSpec,
    limit: usize,
    policy: &holes_pipeline::FaultPolicy,
) -> holes_pipeline::triage::TriageRun {
    use std::collections::{BTreeMap, BTreeSet};

    use holes_pipeline::campaign::{run_campaign, unique_key};
    use holes_pipeline::triage::{triage, TriageRun};
    use holes_pipeline::{fault, subject_pool, SubjectOutcome};

    let subjects = subject_pool(spec.seeds.start, spec.seeds.len() as usize);
    let (result, _) = run_campaign(&subjects, spec, policy);
    let mut run = TriageRun {
        campaign_faults: result.faults.clone(),
        ..TriageRun::default()
    };
    let mut taken = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for record in &result.records {
        let conjecture = record.violation.conjecture;
        let taken = taken.entry(conjecture).or_insert(0);
        if *taken >= limit || !seen.insert(unique_key(record)) {
            continue;
        }
        *taken += 1;
        let config = CompilerConfig::new(spec.personality, record.level)
            .with_version(spec.version)
            .with_backend(spec.backend);
        let subject = subjects[record.subject]
            .clone()
            .with_fuel_limit(policy.fuel_limit);
        match fault::contain(policy, record.seed, record.subject, || {
            triage(&subject, &config, &record.violation)
        }) {
            SubjectOutcome::Completed(outcome) => {
                for culprit in outcome.culprits {
                    let passes = run.table.counts.entry(conjecture).or_default();
                    *passes.entry(culprit).or_insert(0) += 1;
                }
            }
            SubjectOutcome::Faulted(fault) => run.triage_faults.push(fault),
        }
    }
    for subject in &subjects {
        run.stats.absorb(subject.cache_stats());
    }
    run
}

/// One step of splitmix64 over `state`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random JSON value nested at most `depth` deep: empty and non-empty
/// arrays and objects, duplicate keys, extreme and fractional numbers, and
/// strings mixing quotes, backslashes, control characters and non-ASCII
/// text.
fn random_json(state: &mut u64, depth: u32) -> holes_core::json::Json {
    use holes_core::json::Json;

    let kinds = if depth == 0 { 4 } else { 6 };
    match splitmix(state) % kinds {
        0 => Json::Null,
        1 => Json::Bool(splitmix(state) & 1 == 0),
        2 => match splitmix(state) % 5 {
            0 => Json::from_u64(u64::MAX),
            1 => Json::from_i64(i64::MIN),
            2 => Json::from_u64(splitmix(state)),
            3 => Json::from_i64(splitmix(state) as i64),
            _ => Json::Num("-12.5e-3".to_owned()),
        },
        3 => Json::Str(random_text(state)),
        4 => {
            let len = splitmix(state) % 4;
            Json::Arr((0..len).map(|_| random_json(state, depth - 1)).collect())
        }
        _ => {
            let len = splitmix(state) % 4;
            Json::Obj(
                (0..len)
                    .map(|_| {
                        // Two fixed keys make duplicates common.
                        let key = match splitmix(state) % 3 {
                            0 => "a".to_owned(),
                            1 => "seed".to_owned(),
                            _ => random_text(state),
                        };
                        (key, random_json(state, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

fn random_text(state: &mut u64) -> String {
    const PIECES: [&str; 16] = [
        "a",
        "records",
        " ",
        "/",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "\u{1F600}",
    ];
    let len = splitmix(state) % 6;
    (0..len)
        .map(|_| PIECES[(splitmix(state) % 16) as usize])
        .collect()
}

/// A small deterministic generator (SplitMix64) for trace mutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability 1/`n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// A copy of `real` with about one stop in six dropped and, at the kept
/// stops, about one variable in four of the trace's names set to
/// available, `<optimized out>` or absent.
fn mutate_trace(
    real: &holes_debugger::DebugTrace,
    rng: &mut SplitMix,
) -> holes_debugger::DebugTrace {
    use holes_debugger::{Availability, VarView};
    use std::collections::BTreeSet;
    let names: BTreeSet<std::sync::Arc<str>> = real
        .stops
        .iter()
        .flat_map(|stop| stop.variables.iter().map(|v| v.name.clone()))
        .collect();
    let mut mutated = holes_debugger::DebugTrace {
        steppable_lines: real.steppable_lines.clone(),
        ..Default::default()
    };
    for stop in &real.stops {
        if rng.one_in(6) {
            continue;
        }
        let mut stop = stop.clone();
        for name in &names {
            if !rng.one_in(4) {
                continue;
            }
            stop.variables.retain(|v| v.name != *name);
            let availability = match rng.next() % 3 {
                0 => Availability::Available(rng.next() as i64),
                1 => Availability::OptimizedOut,
                _ => continue,
            };
            stop.variables.push(VarView {
                name: name.clone(),
                availability,
            });
        }
        mutated.reached.insert(stop.line, mutated.stops.len());
        mutated.stops.push(stop);
    }
    mutated
}

/// Oracle queries over a trace's violations: each violation's exact site,
/// the same variable anywhere, in its function only and at its line only,
/// and anywhere-queries for every local name of the program under every
/// conjecture (most of them clean).
fn plan_queries<'a>(
    program: &'a holes_minic::ast::Program,
    violations: &'a [holes_core::Violation],
) -> Vec<holes_core::SiteQuery<'a>> {
    use holes_core::{Conjecture, SiteQuery};
    let mut queries = Vec::new();
    for v in violations {
        let exact = SiteQuery::for_violation(v);
        queries.push(exact);
        queries.push(SiteQuery {
            line: None,
            function: None,
            ..exact
        });
        queries.push(SiteQuery {
            line: None,
            ..exact
        });
        queries.push(SiteQuery {
            function: None,
            ..exact
        });
    }
    for function in &program.functions {
        for local in &function.locals {
            for conjecture in Conjecture::ALL {
                queries.push(SiteQuery {
                    conjecture,
                    line: None,
                    variable: &local.name,
                    function: None,
                });
            }
        }
    }
    queries
}
