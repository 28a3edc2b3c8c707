//! The obligation cache's contract: a warm rerun of the flow replays
//! cached verdicts instead of re-running the engines, and the replayed
//! results — verdicts, counterexamples, coverage, and the rendered
//! [`symbad_core::flow::FlowReport`] JSON — are bit-identical to the
//! cold run's, for sequential and parallel execution alike.
//!
//! Also pins the incremental-solving claim the cache composes with: BMC
//! constructs one solver per obligation and extends it depth by depth,
//! so solver constructions stay strictly below SAT calls.

use std::fs;
use symbad_core::flow::run_full_flow_cached;
use symbad_core::workload::Workload;
use symbad_suite::testkit::scratch_dir;

#[test]
fn warm_rerun_hits_at_least_half_of_obligations() {
    let w = Workload::small();
    let obligations = cache::ObligationCache::new();
    let cold = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("cold flow runs");
    let after_cold = obligations.stats();
    assert!(after_cold.misses > 0, "cold run must populate the cache");

    let warm = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("warm flow runs");
    let after_warm = obligations.stats();
    let warm_hits = after_warm.hits - after_cold.hits;
    let warm_misses = after_warm.misses - after_cold.misses;
    let warm_total = warm_hits + warm_misses;
    assert!(
        warm_hits * 2 >= warm_total,
        "warm rerun must hit at least half of its obligations \
         ({warm_hits} hits / {warm_misses} misses)"
    );
    assert_eq!(
        warm.to_json(),
        cold.to_json(),
        "warm flow report must be bit-identical to the cold one"
    );
}

#[test]
fn cold_and_warm_reports_are_bit_identical_across_worker_counts() {
    let w = Workload::small();
    let reference = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &cache::ObligationCache::new(),
    )
    .expect("reference flow runs")
    .to_json();
    for workers in [1usize, 8] {
        let mode = exec::ExecMode::Parallel { workers };
        let obligations = cache::ObligationCache::new();
        let cold = run_full_flow_cached(&w, &telemetry::noop(), mode, &obligations)
            .expect("cold flow runs");
        let warm = run_full_flow_cached(&w, &telemetry::noop(), mode, &obligations)
            .expect("warm flow runs");
        assert_eq!(
            cold.to_json(),
            reference,
            "cold cached report diverged from sequential at {workers} workers"
        );
        assert_eq!(
            warm.to_json(),
            reference,
            "warm cached report diverged from sequential at {workers} workers"
        );
    }
}

#[test]
fn cache_persistence_round_trips_through_disk() {
    let w = Workload::small();
    let dir = scratch_dir("round-trip");
    let obligations = cache::ObligationCache::new();
    let cold = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("cold flow runs");
    obligations.save(&dir).expect("cache saves");

    let reloaded = cache::ObligationCache::load_or_empty(&dir);
    assert_eq!(reloaded.len(), obligations.len());
    assert_eq!(
        reloaded.entries_sorted(),
        obligations.entries_sorted(),
        "persisted entries must survive the save/load round trip verbatim"
    );

    // A flow run against the reloaded cache is fully warm: zero misses,
    // and the report is still bit-identical.
    let warm = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &reloaded,
    )
    .expect("warm flow runs");
    let stats = reloaded.stats();
    assert_eq!(
        stats.misses, 0,
        "every obligation must hit after the disk round trip"
    );
    assert!(stats.hits > 0);
    assert_eq!(warm.to_json(), cold.to_json());
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the flow once against a populated on-disk cache and returns the
/// saved file's text plus the cold report JSON, for corruption tests.
fn saved_cache_text(name: &str) -> (std::path::PathBuf, String, String) {
    let dir = scratch_dir(name);
    let obligations = cache::ObligationCache::new();
    let cold = run_full_flow_cached(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("cold flow runs");
    obligations.save(&dir).expect("cache saves");
    assert!(!obligations.is_empty(), "the flow must populate the cache");
    let text = fs::read_to_string(dir.join("obligations-v2.json")).expect("saved file reads");
    (dir, text, cold.to_json())
}

#[test]
fn truncated_and_torn_cache_files_load_empty() {
    let (dir, text, _) = saved_cache_text("corrupt-truncated");
    let file = dir.join("obligations-v2.json");
    // A crash mid-write (no atomic rename) can leave any prefix of the
    // file; every prefix that severs the JSON must load as a cold start,
    // never a panic, never a partial resurrection. (The file ends in
    // "]\n}\n", so cutting 3 bytes drops the closing brace; shorter cuts
    // land mid-entry.)
    for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 3] {
        fs::write(&file, &text[..cut]).unwrap();
        let loaded = cache::ObligationCache::load_or_empty(&dir);
        assert!(
            loaded.is_empty(),
            "truncation at byte {cut} must load empty, got {} entries",
            loaded.len()
        );
    }
    // A torn write — valid prefix, garbage tail — is equally cold.
    let mut torn = text[..text.len() / 2].to_owned();
    torn.push_str("\u{0}\u{1}<<<not json>>>");
    fs::write(&file, torn).unwrap();
    assert!(cache::ObligationCache::load_or_empty(&dir).is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_and_format_mismatches_load_empty() {
    let (dir, text, _) = saved_cache_text("corrupt-version");
    let file = dir.join("obligations-v2.json");
    // Sanity: the unmodified file does load its entries back.
    assert!(!cache::ObligationCache::load_or_empty(&dir).is_empty());
    // A future format version must not resurrect under the old decoder.
    fs::write(&file, text.replace("\"version\": 2", "\"version\": 999")).unwrap();
    assert!(cache::ObligationCache::load_or_empty(&dir).is_empty());
    // Same for a foreign format tag.
    fs::write(
        &file,
        text.replace("symbad-obligation-cache", "someone-elses-cache"),
    )
    .unwrap();
    assert!(cache::ObligationCache::load_or_empty(&dir).is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_entries_load_empty_and_garbage_payloads_stay_sound() {
    let (dir, _, reference) = saved_cache_text("corrupt-payload");
    let file = dir.join("obligations-v2.json");
    // A well-formed header whose entries are junk (wrong types, invalid
    // fingerprints, missing fields) contributes nothing.
    fs::write(
        &file,
        "{\n  \"format\": \"symbad-obligation-cache\",\n  \"version\": 2,\n  \
         \"entries\": [1, \"x\", { \"fp\": 3 }, { \"fp\": \"zz\", \"payload\": \"t\" },\n    \
         { \"fp\": \"0123\", \"payload\": \"t\" }, { \"payload\": \"t\" }, null]\n}\n",
    )
    .unwrap();
    assert!(cache::ObligationCache::load_or_empty(&dir).is_empty());

    // Valid fingerprints with undecodable payloads are the nastier case:
    // they *load*, but every lookup must behave as a miss — the flow
    // re-runs the engine and the report stays bit-identical.
    let (dir, _, _) = saved_cache_text("corrupt-payload");
    let poisoned = cache::ObligationCache::new();
    for (fp, _) in cache::ObligationCache::load_or_empty(&dir).entries_sorted() {
        poisoned.insert(fp, "<<corrupted payload>>".to_owned());
    }
    assert!(!poisoned.is_empty());
    let report = run_full_flow_cached(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &poisoned,
    )
    .expect("flow survives a poisoned cache");
    assert_eq!(
        report.to_json(),
        reference,
        "undecodable payloads must act as misses, never corrupt results"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A deterministic conflict-rich CNF (planted 3-XOR chain over `n`
/// variables) for exercising the lemma pool with real learnt clauses —
/// the flow's own miters solve in near-zero conflicts and so may leave
/// the pool empty.
fn hard_cnf(n: usize) -> sat::Cnf {
    let lit = |v: usize, pos: bool| sat::Lit::with_polarity(sat::Var::from_index(v), pos);
    let mut clauses = Vec::new();
    for i in 0..n {
        let (a, b, c) = (i, (i * 7 + 3) % n, (i * 13 + 5) % n);
        if a == b || b == c || a == c {
            continue;
        }
        // Encode a ^ b ^ c = 1 as the four clauses ruling out the
        // even-parity assignments.
        for mask in 0..8u32 {
            if (mask.count_ones() % 2) == 1 {
                continue;
            }
            clauses.push(vec![
                lit(a, mask & 1 == 0),
                lit(b, mask & 2 == 0),
                lit(c, mask & 4 == 0),
            ]);
        }
    }
    sat::Cnf {
        num_vars: n,
        clauses,
    }
}

/// Solves `cnf` cold with a collector share attached and returns its
/// pool-bound exports.
fn exports_of(cnf: &sat::Cnf) -> Vec<Vec<sat::Lit>> {
    collected_exports(cnf, sat::ShareFilter::permissive(16))
}

/// Solves `cnf` cold with a collector share using `filter` (capped at
/// the pool's per-entry limit) and returns its pool-bound exports.
fn collected_exports(cnf: &sat::Cnf, filter: sat::ShareFilter) -> Vec<Vec<sat::Lit>> {
    let mut solver = sat::Solver::new();
    cnf.load_into(&mut solver);
    solver.set_share(sat::SolverShare::collector(
        filter,
        cache::pool::MAX_CLAUSES_PER_ENTRY,
    ));
    solver.solve();
    solver
        .take_share()
        .expect("collector share is attached")
        .into_pool_exports()
}

/// Pins the lemma-pool export stream end to end: which learnt clauses
/// the collector admits (permissive and level 4's default filter), their
/// normal form, and the persisted `lemmas-v1.json` layout. The
/// share-mutant corrupts exports on purpose, so the pin is skipped there.
#[cfg(not(feature = "share-mutant"))]
#[test]
fn lemma_pool_export_stream_matches_golden() {
    let dir = scratch_dir("lemma-golden");
    let cnf = hard_cnf(32);
    let permissive = exports_of(&cnf);
    let default = collected_exports(&cnf, sat::ShareFilter::default());
    assert!(!permissive.is_empty() && !default.is_empty());
    let obligations = cache::ObligationCache::new();
    let lemmas = obligations.lemmas();
    lemmas.insert(cache::Fingerprint(0x0101_0101_0101_0101), &permissive);
    lemmas.insert(cache::Fingerprint(0x0202_0202_0202_0202), &default);
    obligations.save(&dir).expect("cache saves");
    let text = fs::read_to_string(dir.join("lemmas-v1.json")).expect("lemma file reads");
    symbad_suite::testkit::assert_golden("lemma_pool_hard.json", &text);
    let _ = fs::remove_dir_all(&dir);
}

/// The lemma pool's effort claim (EXPERIMENTS.md E19): a cold solve's
/// exports, seeded through a fresh pool into a re-solve of the same
/// formula, keep the verdict and strictly cut conflicts. The counts are
/// deterministic. The share-mutant corrupts exports on purpose, so the
/// pin is skipped there.
#[cfg(not(feature = "share-mutant"))]
#[test]
fn pool_seeded_resolve_fights_fewer_conflicts() {
    let cnf = hard_cnf(48);
    let mut cold = sat::Solver::new();
    cnf.load_into(&mut cold);
    let cold_verdict = cold.solve();

    let pool = cache::LemmaPool::new();
    let fp = cache::Fingerprint(0x5a7b_ad00_1337_c0de_5a7b_ad00_1337_c0de);
    pool.insert(fp, &exports_of(&cnf));
    let mut seeded = sat::Solver::new();
    cnf.load_into(&mut seeded);
    let imports = pool
        .lookup(fp)
        .iter()
        .filter(|clause| seeded.import_clause(clause) == sat::ImportResult::Added)
        .count();

    assert_eq!(
        seeded.solve(),
        cold_verdict,
        "seeding never changes a verdict"
    );
    assert!(
        seeded.conflicts() < cold.conflicts(),
        "the warm pool must reduce conflicts ({} cold vs {} seeded)",
        cold.conflicts(),
        seeded.conflicts()
    );
    assert_eq!(
        (cold.conflicts(), seeded.conflicts(), imports),
        (114, 39, 114)
    );
}

#[test]
fn lemma_pool_persistence_round_trips_through_disk() {
    let dir = scratch_dir("lemma-round-trip");
    let cnf = hard_cnf(32);
    let exports = exports_of(&cnf);
    assert!(
        !exports.is_empty(),
        "the hard CNF must produce learnt-clause exports"
    );
    let obligations = cache::ObligationCache::new();
    let fp = cache::Fingerprint(0x1234_5678_9abc_def0_1122_3344_5566_7788);
    obligations.lemmas().insert(fp, &exports);
    obligations.save(&dir).expect("cache saves");
    assert!(
        dir.join("lemmas-v1.json").exists(),
        "saving the cache must write the lemma pool file"
    );

    let reloaded = cache::ObligationCache::load_or_empty(&dir);
    assert_eq!(
        reloaded.lemmas().entries_sorted(),
        obligations.lemmas().entries_sorted(),
        "lemma entries must survive the save/load round trip verbatim"
    );

    // The reloaded clauses seed a plain solver at decision level 0 —
    // level 4's import path — without moving the verdict.
    let mut cold = sat::Solver::new();
    cnf.load_into(&mut cold);
    let mut seeded = sat::Solver::new();
    cnf.load_into(&mut seeded);
    let results: Vec<sat::ImportResult> = reloaded
        .lemmas()
        .lookup(fp)
        .iter()
        .map(|clause| seeded.import_clause(clause))
        .collect();
    assert_eq!(seeded.solve(), cold.solve());
    assert!(
        results.contains(&sat::ImportResult::Added),
        "reloaded seeds must import"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_lemma_files_load_an_empty_pool_without_touching_verdicts() {
    let dir = scratch_dir("lemma-corrupt");
    let obligations = cache::ObligationCache::new();
    let cold = run_full_flow_cached(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("cold flow runs");
    let fp = cache::Fingerprint(0xfeed_face_cafe_f00d_feed_face_cafe_f00d);
    obligations.lemmas().insert(fp, &exports_of(&hard_cnf(24)));
    obligations.save(&dir).expect("cache saves");
    let lemma_file = dir.join("lemmas-v1.json");
    let text = fs::read_to_string(&lemma_file).expect("lemma file reads");

    // Truncations, garbage tails, and version bumps each load as an
    // empty pool — never a panic, never a partial entry — while the
    // verdict cache alongside loads intact and the flow replay stays
    // bit-identical (the pool is effort-advisory, so an empty pool can
    // never change an answer).
    let half = text.len() / 2;
    let torn = format!("{}\u{0}<<<not json>>>", &text[..half]);
    let versioned = text.replace("\"version\": 1", "\"version\": 999");
    for corrupt in [&text[..half], &text[..1], torn.as_str(), versioned.as_str()] {
        fs::write(&lemma_file, corrupt).unwrap();
        let loaded = cache::ObligationCache::load_or_empty(&dir);
        assert!(
            loaded.lemmas().is_empty(),
            "a corrupted lemma file must load an empty pool"
        );
        assert!(
            !loaded.is_empty(),
            "lemma corruption must not discard the verdict entries"
        );
        let warm = run_full_flow_cached(
            &Workload::small(),
            &telemetry::noop(),
            exec::ExecMode::Sequential,
            &loaded,
        )
        .expect("flow survives a corrupted lemma file");
        assert_eq!(warm.to_json(), cold.to_json());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retain_lemmas_keeps_the_pool_and_drops_the_verdicts() {
    let w = Workload::small();
    let obligations = cache::ObligationCache::new();
    let cold = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )
    .expect("cold flow runs");
    let fp = cache::Fingerprint(0xaaaa_bbbb_cccc_dddd_0000_1111_2222_3333);
    obligations.lemmas().insert(fp, &exports_of(&hard_cnf(24)));

    let warmed = obligations.retain_lemmas();
    assert!(warmed.is_empty(), "retain_lemmas must drop verdict entries");
    assert_eq!(
        warmed.lemmas().entries_sorted(),
        obligations.lemmas().entries_sorted(),
        "retain_lemmas must copy the pool verbatim"
    );

    // Warm pool, cold verdicts: every obligation re-runs (zero hits) and
    // the report is still bit-identical for sequential and parallel runs.
    for mode in [
        exec::ExecMode::Sequential,
        exec::ExecMode::Parallel { workers: 2 },
        exec::ExecMode::Parallel { workers: 8 },
    ] {
        let pool_only = warmed.retain_lemmas();
        let report = run_full_flow_cached(&w, &telemetry::noop(), mode, &pool_only)
            .expect("warm-pool flow runs");
        assert_eq!(
            report.to_json(),
            cold.to_json(),
            "warm-pool report diverged at {mode:?}"
        );
        // Verdicts re-run from scratch (repeat obligations inside the
        // single run may still hit, but the cold-start misses prove the
        // engines actually executed).
        assert!(
            pool_only.stats().misses > 0,
            "a pool-only cache must re-run the engines"
        );
    }
}

#[test]
fn bmc_constructs_strictly_fewer_solvers_than_it_makes_sat_calls() {
    // One solver per obligation, extended incrementally across depths:
    // the flow's BMC work must show constructions < SAT calls, which is
    // exactly what a per-depth rebuild cannot.
    let w = Workload::small();
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    run_full_flow_cached(
        &w,
        &instr,
        exec::ExecMode::Sequential,
        &cache::ObligationCache::new(),
    )
    .expect("instrumented flow runs");
    let constructions = collector.counter("bmc.solver_constructions");
    let sat_calls = collector.counter("bmc.sat_calls");
    assert!(constructions > 0, "the flow must run BMC");
    assert!(
        constructions < sat_calls,
        "incremental BMC must construct fewer solvers ({constructions}) \
         than it makes SAT calls ({sat_calls})"
    );
    assert!(
        collector.counter("sat.incremental_solve_calls") > 0,
        "reusing a solver across depths must register incremental solve calls"
    );
}
