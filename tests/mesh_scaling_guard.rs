//! Tier-1 guard on simulated behaviour beyond the paper's 4x4 machine.
//!
//! The golden grid and `golden_guard.rs` pin 4x4 cells only. This file pins
//! the FNV-1a digest of `RunMetrics::deterministic()` JSON for 8x8 cells
//! (whose NoC fills a whole 64-router mask word), a non-square mesh (3x5),
//! and an 8x8 cell under link-stall faults, some longer than the router
//! wake calendar's horizon. Meshes of more than 64 nodes are left to the
//! NoC's own differential test, since a directory sharer set holds 64
//! nodes. The digests were recorded before the NoC's FIFO rings and wake
//! calendar replaced its per-router `VecDeque`s and active-set walk; run
//! with `--nocapture` to print the actuals.

use puno_harness::{Mechanism, RunMetrics, System, SystemConfig};
use puno_noc::Mesh;
use puno_sim::{FaultEvent, FaultKind, FaultPlan, NodeId};
use puno_workloads::{fnv1a_64, WorkloadId};

const SEED: u64 = 42;

fn digest(m: &RunMetrics) -> u64 {
    let json = serde_json::to_string(&m.deterministic()).expect("RunMetrics must serialize");
    fnv1a_64(json.as_bytes())
}

fn run(config: SystemConfig, workload: WorkloadId, scale: f64, faults: Option<FaultPlan>) -> u64 {
    let params = workload.params().scaled(scale);
    let mut sys = System::new(config, &params, SEED);
    if let Some(plan) = &faults {
        sys.set_fault_plan(plan.clone());
    }
    let m = sys.try_run_recycled().expect("cell must complete");
    assert!(m.committed > 0, "{workload:?} committed nothing");
    if let Some(plan) = faults {
        assert_eq!(
            m.faults.link_stalls.get(),
            plan.events.len() as u64,
            "{workload:?}: a stall landed after the run ended"
        );
    }
    digest(&m)
}

/// Aimed link stalls on an 8x8 mesh: short ones, ones well past the wake
/// calendar's 64-cycle horizon, and two stacked on one router.
fn stall_plan() -> FaultPlan {
    let mut events: Vec<FaultEvent> = (0..10)
        .map(|i| FaultEvent {
            at: 300 + i * 457,
            kind: FaultKind::LinkStall,
            node: NodeId((i * 13 % 64) as u16),
            magnitude: if i % 2 == 0 { 30 } else { 300 },
        })
        .collect();
    events.push(FaultEvent {
        at: 1_000,
        kind: FaultKind::LinkStall,
        node: NodeId(27),
        magnitude: 260,
    });
    events.push(FaultEvent {
        at: 1_050,
        kind: FaultKind::LinkStall,
        node: NodeId(27),
        magnitude: 400,
    });
    FaultPlan {
        events,
        ..FaultPlan::default()
    }
}

#[test]
fn larger_mesh_cells_match_pinned_digests() {
    let mesh8 = SystemConfig::mesh8;
    let cells = [
        (
            "mesh8 labyrinth baseline",
            mesh8(Mechanism::Baseline),
            WorkloadId::Labyrinth,
            0.05,
            None,
            0xc7a7_e542_6e0c_4cd0,
        ),
        (
            "mesh8 labyrinth puno",
            mesh8(Mechanism::Puno),
            WorkloadId::Labyrinth,
            0.05,
            None,
            0x749a_58ef_6b3d_a9e2,
        ),
        (
            "mesh8 ssca2 baseline",
            mesh8(Mechanism::Baseline),
            WorkloadId::Ssca2,
            0.05,
            None,
            0x3df9_b2ae_0bc4_b771,
        ),
        (
            "3x5 intruder baseline",
            SystemConfig::with_mesh(Mechanism::Baseline, Mesh::new(3, 5)),
            WorkloadId::Intruder,
            0.05,
            None,
            0xd07e_aaaf_ff08_2e39,
        ),
        (
            "mesh8 ssca2 puno, link stalls",
            mesh8(Mechanism::Puno),
            WorkloadId::Ssca2,
            0.05,
            Some(stall_plan()),
            0x4198_d0f4_d2b9_de22,
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, config, workload, scale, faults, want) in cells {
        let t = std::time::Instant::now();
        let got = run(config, workload, scale, faults);
        println!("{label}: {got:#018x} ({:.2} s)", t.elapsed().as_secs_f64());
        if got != want {
            mismatches.push(format!("{label}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated behaviour diverged: {mismatches:?}"
    );
}
