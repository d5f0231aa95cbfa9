//! Bit-identity guard for the sweep-scale execution engine.
//!
//! `try_sweep` runs cells through three fast paths a plain
//! `System::new(..).try_run()` never touches: workload traces shared across
//! mechanism cells (`ProgramSet`), worker-thread `System` recycling
//! (`System::reset` + `try_run_recycled`), and persistent result-cache
//! replay. Each path must be invisible in the metrics. This test runs the
//! same 16 cells as `golden_metrics.rs` (8 workloads x {baseline, puno},
//! seed 42, scale 0.05) through a cold sweep and then a warm sweep against
//! the same cache directory, and compares every cell byte-for-byte against
//! the committed golden snapshots — which are produced by fresh
//! single-cell runs. Any divergence between fresh construction, recycling,
//! or cached replay fails here. It also pins that the ignored
//! `SweepOptions::prefix_fork` field leaves every outcome unchanged.

use puno_harness::sweep::{try_sweep, CellOutcome, SweepOptions};
use puno_harness::{Mechanism, ResultCache, System, SystemConfig};
use puno_sim::FaultPlan;
use puno_workloads::WorkloadId;
use std::path::PathBuf;
use std::sync::Arc;

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;
const MECHANISMS: [Mechanism; 2] = [Mechanism::Baseline, Mechanism::Puno];

fn golden_json(workload: WorkloadId, mechanism: Mechanism) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.json", workload.name(), mechanism.name()));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path:?} ({e})"))
        .trim_end()
        .to_string()
}

fn assert_outcomes_match_golden(outcomes: &[CellOutcome], label: &str) {
    assert_eq!(outcomes.len(), WorkloadId::ALL.len() * MECHANISMS.len());
    let mut idx = 0;
    for &workload in &WorkloadId::ALL {
        for &mechanism in &MECHANISMS {
            let outcome = &outcomes[idx];
            idx += 1;
            let metrics = outcome
                .metrics()
                .unwrap_or_else(|| panic!("{label}: {workload:?}/{mechanism:?} failed"));
            let got =
                serde_json::to_string(&metrics.deterministic()).expect("RunMetrics must serialize");
            assert_eq!(
                got,
                golden_json(workload, mechanism),
                "{label}: {workload:?}/{mechanism:?} diverged from the golden snapshot \
                 (the sweep fast path is not bit-identical to a fresh run)",
            );
        }
    }
}

/// All 16 golden cells through the recycled/shared sweep path (cold), then
/// again through cached replay (warm) — both bit-identical to the fresh
/// single-cell runs pinned by the golden snapshots.
#[test]
fn sweep_engine_paths_are_bit_identical_to_fresh_runs() {
    let dir = std::env::temp_dir().join(format!("puno-sweep-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = Some(Arc::new(ResultCache::open(&dir).expect("cache dir")));

    // Cold pass: every cell simulates (shared programs + recycled Systems)
    // and is stored.
    let cold = try_sweep(&WorkloadId::ALL, &MECHANISMS, &opts);
    assert_outcomes_match_golden(&cold, "cold sweep");
    let stats = opts.result_cache.as_ref().unwrap().stats();
    assert_eq!(stats.hits, 0, "cold sweep must not hit");
    assert_eq!(stats.stores, 16, "cold sweep must store every cell");

    // Warm pass against a fresh handle over the same directory: every cell
    // must replay from disk without simulating, still bit-identical.
    let mut warm_opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    warm_opts.result_cache = Some(Arc::new(ResultCache::open(&dir).expect("cache dir")));
    let warm = try_sweep(&WorkloadId::ALL, &MECHANISMS, &warm_opts);
    assert_outcomes_match_golden(&warm, "warm sweep");
    let stats = warm_opts.result_cache.as_ref().unwrap().stats();
    assert_eq!(stats.hits, 16, "warm sweep must hit every cell");
    assert_eq!(stats.stores, 0, "warm sweep must not re-store");

    // `prefix_fork` is an ignored field (prefix-fork execution is retired):
    // an uncached sweep with it set must match the cold sweep above, and
    // the retired prefix counters must stay 0 on both.
    let mut fork_opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    fork_opts.result_cache = None;
    fork_opts.prefix_fork = true;
    let forked = try_sweep(&WorkloadId::ALL, &MECHANISMS, &fork_opts);
    assert_outcomes_match_golden(&forked, "prefix_fork=true sweep");
    for o in cold.iter().chain(&forked) {
        let host = &o.metrics().unwrap().host;
        assert_eq!(
            (host.prefix_forks, host.prefix_cycles_shared),
            (0, 0),
            "the retired prefix counters must stay 0",
        );
        assert_eq!(host.prefix_time_saved, 0.0);
    }

    // The replayed metrics carry the cold run's host block verbatim (minus
    // the worker stamp applied per sweep): the full records, not just the
    // deterministic views, round-trip.
    for (c, w) in cold.iter().zip(&warm) {
        let c = c.metrics().unwrap();
        let w = w.metrics().unwrap();
        assert_eq!(
            serde_json::to_string(c).unwrap(),
            serde_json::to_string(w).unwrap(),
            "cached replay must be byte-identical including host counters",
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep with a fault plan arms it in every cell, on a recycled worker
/// `System`, and must match a fresh `System` with the same plan armed.
#[test]
fn faulted_sweep_cells_match_fresh_faulted_runs() {
    let mut opts = SweepOptions::new(GOLDEN_SEED, GOLDEN_SCALE);
    opts.result_cache = None;
    opts.fault_plan = FaultPlan::background(7, 1.0);
    let outcomes = try_sweep(&[WorkloadId::Ssca2], &Mechanism::ALL, &opts);
    let params = WorkloadId::Ssca2.params().scaled(GOLDEN_SCALE);
    for (outcome, &mechanism) in outcomes.iter().zip(&Mechanism::ALL) {
        let swept = outcome
            .metrics()
            .unwrap_or_else(|| panic!("{mechanism:?}: faulted sweep cell failed"));
        assert!(
            swept.faults.total() > 0,
            "{mechanism:?}: the plan must fire"
        );
        let mut sys = System::new(SystemConfig::paper(mechanism), &params, GOLDEN_SEED);
        sys.set_fault_plan(opts.fault_plan.clone());
        let fresh = sys.try_run().expect("faulted fresh run completes");
        assert_eq!(
            serde_json::to_string(&swept.deterministic()).unwrap(),
            serde_json::to_string(&fresh.deterministic()).unwrap(),
            "{mechanism:?}: faulted sweep cell diverged from a fresh faulted run",
        );
    }
}
