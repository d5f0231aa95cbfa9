//! Bit-identity gate for event-driven NoC stepping (DESIGN §13).
//!
//! The run loop re-times its `NetStep` token past cycles in which no router,
//! pending ejection, or NI queue can change state, capping the jump at the
//! next other event, the watchdog's sampling cycle, the `max_cycles`
//! ceiling, and the next ring-snapshot capture. Skipping must be invisible:
//! faulted runs (link stalls move router horizons under a retimed token)
//! match across run-thread counts and match fingerprints pinned from the
//! every-cycle stepper, and runs that fail do so at the same cycle with the
//! same structured `RunError`, rewind-and-dump trace included.
//!
//! The pinned values are FNV-1a digests of `RunMetrics::deterministic()`
//! JSON and of the `RunError` debug rendering, recorded from the stepper
//! that visited every cycle. Run with `--nocapture` to print the actuals.

use puno_harness::{Mechanism, RunError, RunMetrics, System, SystemConfig};
use puno_sim::{FaultEvent, FaultKind, FaultPlan, NodeId};
use puno_workloads::{fnv1a_64, WorkloadId};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;
const SNAPSHOT_EVERY: u64 = 64;

/// Background faults (rate-drawn stalls and jitter) plus aimed mid-run
/// link stalls on every fourth node.
fn link_stall_plan() -> FaultPlan {
    FaultPlan {
        events: (0..12)
            .map(|i| FaultEvent {
                at: 250 + i * 613,
                kind: FaultKind::LinkStall,
                node: NodeId((i * 4 % 16) as u16),
                magnitude: 40,
            })
            .collect(),
        ..FaultPlan::background(11, 1.0)
    }
}

fn run(
    workload: WorkloadId,
    mechanism: Mechanism,
    threads: usize,
    configure: impl FnOnce(&mut SystemConfig),
) -> Result<RunMetrics, RunError> {
    let params = workload.params().scaled(SCALE);
    let mut config = SystemConfig::paper(mechanism);
    configure(&mut config);
    let mut sys = System::new(config, &params, SEED);
    sys.set_fault_plan(link_stall_plan());
    sys.set_snapshot_every(SNAPSHOT_EVERY);
    sys.set_run_threads(threads);
    sys.try_run_recycled()
}

fn metrics_digest(m: &RunMetrics) -> u64 {
    let json = serde_json::to_string(&m.deterministic()).expect("RunMetrics must serialize");
    fnv1a_64(json.as_bytes())
}

fn error_digest(e: &RunError) -> u64 {
    fnv1a_64(format!("{e:?}").as_bytes())
}

/// Faulted cells finish identically at 1 and 2 run-threads, match the
/// every-cycle stepper's pinned digests, and really did skip steps.
#[test]
fn link_stall_cells_match_across_run_threads() {
    let pinned = [
        (
            WorkloadId::Ssca2,
            Mechanism::Baseline,
            0xf153_f85f_3d27_74cf,
        ),
        (WorkloadId::Ssca2, Mechanism::Puno, 0x3e68_5808_5c45_a845),
        (
            WorkloadId::Intruder,
            Mechanism::Baseline,
            0x9f58_688f_7cfb_cebe,
        ),
        (WorkloadId::Intruder, Mechanism::Puno, 0x320b_e361_f1cd_4a85),
    ];
    let mut mismatches = Vec::new();
    for (workload, mechanism, want) in pinned {
        let serial = run(workload, mechanism, 1, |_| {}).expect("faulted cell completes");
        let parallel = run(workload, mechanism, 2, |_| {}).expect("faulted cell completes");
        let cell = format!("{}/{}", workload.name(), mechanism.name());
        println!("{cell}: {:#x}", metrics_digest(&serial));
        assert!(serial.faults.total() > 0, "{cell}: the plan never fired");
        assert!(
            serial.host.quiesced_cycles > 0,
            "{cell}: no NoC step was skipped"
        );
        assert_eq!(
            metrics_digest(&serial),
            metrics_digest(&parallel),
            "{cell}: 2-thread run diverged from serial"
        );
        if metrics_digest(&serial) != want {
            mismatches.push(cell);
        }
    }
    assert!(
        mismatches.is_empty(),
        "diverged from pinned digests: {mismatches:?}"
    );
}

/// A run capped by `max_cycles` fails at exactly the cap, with the same
/// error (wait-for graph and rewind trace) as the every-cycle stepper.
#[test]
fn max_cycles_cap_fails_identically() {
    let cap = 2_500;
    let mut digests = Vec::new();
    for threads in [1, 2] {
        let err = run(WorkloadId::Intruder, Mechanism::Puno, threads, |c| {
            c.max_cycles = cap
        })
        .expect_err("the cap must trip");
        let RunError::Livelock { cycles, .. } = &err else {
            panic!("expected a livelock, got {err:?}");
        };
        assert_eq!(*cycles, cap);
        digests.push(error_digest(&err));
    }
    println!("max_cycles error: {:#x}", digests[0]);
    assert_eq!(
        digests[0], digests[1],
        "2-thread error diverged from serial"
    );
    assert_eq!(
        digests[0], 0x4d2e_4268_74b7_9057,
        "error diverged from the pinned digest"
    );
}

/// Watchdog windows too short for the workload trip mid-run at the same
/// sampling cycle, with the same error, as the every-cycle stepper.
#[test]
fn watchdog_trip_fails_identically() {
    let cases = [
        (WorkloadId::Intruder, 1_200, 32_400, 0x84e6_6f40_260a_b853),
        // Trips off the sampling grid: no event at cycle 600 itself.
        (WorkloadId::Bayes, 600, 615, 0xc5f7_6cf9_c33e_4f68),
    ];
    let mut mismatches = Vec::new();
    for (workload, window, trip, want) in cases {
        let mut digests = Vec::new();
        for threads in [1, 2] {
            let err = run(workload, Mechanism::Baseline, threads, |c| {
                c.watchdog_window = window
            })
            .expect_err("the watchdog must trip");
            let RunError::Livelock {
                cycles,
                commit_window,
                ..
            } = &err
            else {
                panic!("expected a livelock, got {err:?}");
            };
            assert_eq!(*commit_window, window);
            assert_eq!(
                *cycles,
                trip,
                "{}: tripped at another cycle",
                workload.name()
            );
            println!(
                "{} trips at {cycles}: {:#x}",
                workload.name(),
                error_digest(&err)
            );
            digests.push(error_digest(&err));
        }
        assert_eq!(
            digests[0], digests[1],
            "2-thread error diverged from serial"
        );
        if digests[0] != want {
            mismatches.push(workload.name());
        }
    }
    assert!(
        mismatches.is_empty(),
        "diverged from pinned digests: {mismatches:?}"
    );
}
