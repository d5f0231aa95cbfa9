//! Tier-1 guard on simulated behaviour: a subset of the golden grid.
//!
//! `crates/harness/tests/golden/` pins `RunMetrics::deterministic()` for 16
//! STAMP-signature cells (8 workloads x {baseline, PUNO}, seed 42, scale
//! 0.05); the full grid is checked by `puno-harness`'s `golden_metrics`
//! suite. This test re-runs six of those cells from the root package so a
//! plain `cargo test` catches a simulated-behaviour change too. It only
//! compares: re-blessing happens in `golden_metrics`, never here.

use puno_harness::run::run_workload;
use puno_harness::Mechanism;
use puno_workloads::WorkloadId;
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 42;
const GOLDEN_SCALE: f64 = 0.05;

/// High- and low-contention cells under both mechanisms.
const CELLS: [(WorkloadId, Mechanism); 6] = [
    (WorkloadId::Labyrinth, Mechanism::Baseline),
    (WorkloadId::Labyrinth, Mechanism::Puno),
    (WorkloadId::Intruder, Mechanism::Baseline),
    (WorkloadId::Intruder, Mechanism::Puno),
    (WorkloadId::Ssca2, Mechanism::Baseline),
    (WorkloadId::Kmeans, Mechanism::Puno),
];

#[test]
fn golden_subset_is_bit_identical() {
    let mut mismatches = Vec::new();
    for (workload, mechanism) in CELLS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("crates/harness/tests/golden")
            .join(format!("{}_{}.json", workload.name(), mechanism.name()));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {path:?} ({e})"));
        let params = workload.params().scaled(GOLDEN_SCALE);
        let metrics = run_workload(mechanism, &params, GOLDEN_SEED);
        let got =
            serde_json::to_string(&metrics.deterministic()).expect("RunMetrics must serialize");
        if want.trim_end() != got {
            mismatches.push(format!("{}/{}", workload.name(), mechanism.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated behaviour diverged from the golden snapshots for {mismatches:?}; \
         see crates/harness/tests/golden_metrics.rs"
    );
}
