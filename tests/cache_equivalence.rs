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
use symbad_suite::testkit::{assert_golden, scratch_dir};

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

/// The persisted keys are a file format: `cache::persist::FORMAT_VERSION`
/// must bump whenever the key recipe in `mc::obligation` changes. A cold
/// `Workload::small()` flow saves exactly this file, so any change to a
/// key, a payload or the entry order shows here.
#[test]
fn saved_cache_file_matches_golden() {
    let (_, text, _) = saved_cache_text("golden-file");
    assert_golden("obligations-v2.json", &text);
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
