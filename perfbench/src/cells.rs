//! What each workload simulates, and the checks, fingerprint and fidelity
//! summary its cells share between the timed and the traced run.

use puno_harness::report::{FigureMetric, NormalizedFigure};
use puno_harness::sweep::{CellOutcome, RetryPolicy, SweepOptions, SweepResult};
use puno_harness::{Mechanism, ResultCache, RunMetrics, SystemConfig};
use puno_sim::FaultPlan;
use puno_workloads::{fnv1a_64, ProgramSet, WorkloadId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A benchmark workload: which cells it runs and through which layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 4x4 machine, every STAMP workload x every mechanism,
    /// through `try_sweep` with a fresh result cache: what `sweep_all` and
    /// the figure binaries do.
    PaperGrid,
    /// The 8x8 machine on labyrinth, baseline vs PUNO, each cell run
    /// directly on one recycled `System`: long XY routes and multicast
    /// invalidations make the router walk dominate.
    Mesh8Hc,
    /// A result cache filled in set-up, reopened and replayed once per
    /// seed, every cell a hit: the read side of the cache's append log.
    CacheReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::Mesh8Hc,
        Workload::CacheReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Mesh8Hc => "mesh8_hc",
            Workload::CacheReplay => "cache_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn workloads(self) -> &'static [WorkloadId] {
        match self {
            Workload::PaperGrid | Workload::CacheReplay => &WorkloadId::ALL,
            Workload::Mesh8Hc => &[WorkloadId::Labyrinth],
        }
    }

    pub fn mechanisms(self) -> &'static [Mechanism] {
        match self {
            Workload::PaperGrid | Workload::CacheReplay => &Mechanism::ALL,
            Workload::Mesh8Hc => &[Mechanism::Baseline, Mechanism::Puno],
        }
    }

    pub fn config(self) -> fn(Mechanism) -> SystemConfig {
        match self {
            Workload::PaperGrid | Workload::CacheReplay => SystemConfig::paper,
            Workload::Mesh8Hc => SystemConfig::mesh8,
        }
    }

    /// Per-node transaction-count scale. 0.25 reproduces the scale-1
    /// figure values within about 0.02; the cache fill is kept tiny because
    /// its cells are only there to be read back.
    pub fn scale(self) -> f64 {
        match self {
            Workload::PaperGrid => 0.25,
            Workload::Mesh8Hc => 0.1,
            Workload::CacheReplay => 0.02,
        }
    }

    /// Simulation seeds one run covers, all derived from the `--seed`
    /// argument. Fidelity and the fingerprint are taken over all of them,
    /// which averages out most of one seed's luck.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let count = match self {
            Workload::PaperGrid => 12,
            Workload::Mesh8Hc => 12,
            Workload::CacheReplay => 16,
        };
        (0..count)
            .map(|k| seed.wrapping_mul(64).wrapping_add(k))
            .collect()
    }

    pub fn cells(self) -> usize {
        self.workloads().len() * self.mechanisms().len()
    }
}

/// Sweep options set field by field, so no `PUNO_*` variable and no
/// process-global cache can change what is measured.
pub fn sweep_options(workload: Workload, seed: u64, cache: Arc<ResultCache>) -> SweepOptions {
    SweepOptions {
        seed,
        scale: workload.scale(),
        fault_plan: FaultPlan::none(),
        retry: RetryPolicy::new(1),
        checkpoint: None,
        result_cache: Some(cache),
        config: workload.config(),
        prefix_fork: true,
    }
}

/// Transactions the generated programs hold, which a correct run commits.
pub fn expected_commits(programs: &ProgramSet) -> u64 {
    (0..programs.nodes())
        .map(|n| programs.node(puno_sim::NodeId(n)).tx_count() as u64)
        .sum()
}

/// FNV-1a of the run's simulated (host-independent) metrics.
pub fn det_digest(m: &RunMetrics) -> u64 {
    fnv1a_64(
        serde_json::to_string(&m.deterministic())
            .expect("RunMetrics serializes")
            .as_bytes(),
    )
}

/// FNV-1a of the whole record, host block included: a cache hit returns
/// the stored record unchanged, a re-simulation cannot.
fn full_digest(m: &RunMetrics) -> u64 {
    fnv1a_64(
        serde_json::to_string(m)
            .expect("RunMetrics serializes")
            .as_bytes(),
    )
}

type CellKey = (u64, WorkloadId, Mechanism);

struct CellRecord {
    det: u64,
    full: u64,
    metrics: RunMetrics,
}

/// Every checked cell of a run: counts attempts and failures, keeps one
/// record per `(seed, workload, mechanism)` and checks repeats against it.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    expected: BTreeMap<(u64, WorkloadId), u64>,
    cells: BTreeMap<CellKey, CellRecord>,
}

impl Ledger {
    /// Note the commit count a correct run of `(seed, workload)` reaches.
    pub fn expect_commits(&mut self, seed: u64, workload: WorkloadId, commits: u64) {
        self.expected.insert((seed, workload), commits);
    }

    /// Register a reference record (the cache fill) without counting it as
    /// an attempt of the measured phase.
    pub fn reference(&mut self, seed: u64, outcome: &CellOutcome) -> Result<(), String> {
        let m = outcome
            .metrics()
            .ok_or_else(|| format!("fill cell failed: {:?}", outcome.error()))?;
        let key = outcome.key();
        self.check_commits(seed, key.workload, m)?;
        self.cells.insert(
            (seed, key.workload, key.mechanism),
            CellRecord {
                det: det_digest(m),
                full: full_digest(m),
                metrics: m.clone(),
            },
        );
        Ok(())
    }

    fn check_commits(&self, seed: u64, w: WorkloadId, m: &RunMetrics) -> Result<(), String> {
        let want = self
            .expected
            .get(&(seed, w))
            .ok_or_else(|| format!("no expected commit count for {} seed {seed}", w.name()))?;
        if m.committed != *want {
            return Err(format!("committed {} of {want} transactions", m.committed));
        }
        Ok(())
    }

    /// Check one cell of the measured phase. A repeat of a known cell must
    /// match it: bit for bit (host block included) when `replayed`, in its
    /// simulated metrics otherwise.
    pub fn record(
        &mut self,
        seed: u64,
        w: WorkloadId,
        mech: Mechanism,
        result: Result<&RunMetrics, String>,
        replayed: bool,
    ) {
        self.attempted += 1;
        let verdict = result.and_then(|m| {
            self.check_commits(seed, w, m)?;
            let (det, full) = (det_digest(m), full_digest(m));
            match self.cells.get(&(seed, w, mech)) {
                Some(known) if known.det != det => {
                    Err("simulated metrics differ from an earlier run of the cell".into())
                }
                Some(known) if replayed && known.full != full => {
                    Err("replayed record differs from the stored one".into())
                }
                None if replayed => Err("replayed a cell that was never stored".into()),
                Some(_) => Ok(()),
                None => {
                    let metrics = m.clone();
                    self.cells
                        .insert((seed, w, mech), CellRecord { det, full, metrics });
                    Ok(())
                }
            }
        });
        if let Err(why) = &verdict {
            self.failed += 1;
            eprintln!(
                "check failed: {} {} seed {seed}: {why}",
                w.name(),
                mech.name()
            );
        }
    }

    /// Record every outcome of one sweep; a `sweep_error` fails them all.
    pub fn record_sweep(
        &mut self,
        seed: u64,
        outcomes: &[CellOutcome],
        replayed: bool,
        sweep_error: Option<String>,
    ) {
        for o in outcomes {
            let key = o.key();
            let result = match &sweep_error {
                Some(why) => Err(why.clone()),
                None => o
                    .metrics()
                    .ok_or_else(|| format!("cell did not complete: {:?}", o.error())),
            };
            self.record(seed, key.workload, key.mechanism, result, replayed);
        }
    }

    /// The fingerprint: FNV-1a over every distinct cell's simulated-metric
    /// digest, in (seed, workload, mechanism) order. A change that only
    /// touches host code must leave it unchanged.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.cells.len() * 8);
        for rec in self.cells.values() {
            bytes.extend_from_slice(&rec.det.to_le_bytes());
        }
        fnv1a_64(&bytes)
    }

    /// Number of distinct cells recorded.
    pub fn distinct_cells(&self) -> usize {
        self.cells.len()
    }

    /// The distinct cells grouped by seed, as the figure code takes them.
    pub fn per_seed(&self) -> Vec<Vec<SweepResult>> {
        let mut groups: BTreeMap<u64, Vec<SweepResult>> = BTreeMap::new();
        for (&(seed, workload, mechanism), rec) in &self.cells {
            groups.entry(seed).or_default().push(SweepResult {
                workload,
                mechanism,
                metrics: rec.metrics.clone(),
            });
        }
        groups.into_values().collect()
    }
}

/// Paper values the fidelity gaps are measured from (EXPERIMENTS.md).
const FIG2_PAPER_PCT: f64 = 41.0;
const PAPER_PUNO_HC: [(&str, FigureMetric, f64); 4] = [
    ("fig10_abort_gap_pp", FigureMetric::Aborts, 0.39),
    ("fig11_traffic_gap_pp", FigureMetric::NetworkTraffic, 0.67),
    (
        "fig12_dir_blocking_gap_pp",
        FigureMetric::DirectoryBlocking,
        0.82,
    ),
    ("fig13_time_gap_pp", FigureMetric::ExecutionTime, 0.88),
];

/// Absolute gaps, in percentage points, between this run's cells and the
/// paper: the baseline false-abort share of TxGETX averaged over the
/// workloads run (Fig 2), and PUNO's high-contention geomean of each
/// normalized figure metric (Figs 10-13). Seeds aggregate as the figure
/// binaries do: means for Fig 2, geomeans of per-seed ratios otherwise.
pub fn fidelity_gaps(
    workload: Workload,
    per_seed: &[Vec<SweepResult>],
) -> Vec<(&'static str, f64)> {
    let workloads = workload.workloads();
    let baseline_share: Vec<f64> = per_seed
        .iter()
        .flat_map(|cells| cells.iter())
        .filter(|c| c.mechanism == Mechanism::Baseline)
        .map(|c| c.metrics.oracle.false_abort_fraction() * 100.0)
        .collect();
    let fig2 = baseline_share.iter().sum::<f64>() / baseline_share.len() as f64;
    let mut gaps = vec![("fig2_false_abort_gap_pp", (fig2 - FIG2_PAPER_PCT).abs())];
    let hc: Vec<WorkloadId> = workloads
        .iter()
        .copied()
        .filter(|w| w.is_high_contention())
        .collect();
    for (name, metric, paper) in PAPER_PUNO_HC {
        let fig = NormalizedFigure::build_multi(metric, per_seed, workloads, workload.mechanisms());
        gaps.push((
            name,
            (fig.geomean(&hc, Mechanism::Puno) - paper).abs() * 100.0,
        ));
    }
    gaps
}
