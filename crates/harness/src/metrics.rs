//! The measurement record one run produces — everything the paper's tables
//! and figures are computed from.

use crate::oracle::FalseAbortOracle;
use crate::telemetry::TelemetryReport;
use puno_coherence::DirStats;
use puno_core::PunoStats;
use puno_htm::{AbortCause, HtmStats};
use puno_noc::TrafficStats;
use puno_sim::FaultStats;
use serde::{Deserialize, Serialize};

/// Host-side simulator-throughput counters for one run. Everything in here
/// describes how fast the *simulator* ran, not what the simulated machine
/// did, so it varies across hosts and runs — it is excluded from
/// [`RunMetrics::deterministic`] and must never feed a simulated-behaviour
/// assertion.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HostPerf {
    /// Wall-clock spent inside the run loop, in seconds.
    pub wall_secs: f64,
    /// Simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Events popped and dispatched by the run loop.
    pub events_dispatched: u64,
    /// Events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Maximum event-queue depth observed before any pop.
    pub peak_queue_depth: u64,
    /// Fraction of (router x step) slots the NoC actually visited: 1.0 means
    /// every router was scanned every network cycle (the old full-scan
    /// behaviour); low values mean the occupancy structure is skipping idle
    /// routers.
    pub noc_active_scan_ratio: f64,
    /// Always 0: the NoC express path that counted here is retired. Kept so
    /// the serialized shape (golden snapshots, result-cache records) and
    /// readers of the field stay valid.
    pub express_packets: u64,
    /// Always 0, like `express_packets`.
    pub express_hops: u64,
    /// Simulated cycles the run loop's NetStep token skipped because no
    /// router, pending ejection, or NI queue could change state in them
    /// (event-driven NoC stepping, DESIGN §13).
    pub quiesced_cycles: u64,
    /// Effective worker-thread count of the sweep that produced this run
    /// (see `sweep::effective_workers`); 0 for standalone runs outside a
    /// sweep.
    pub sweep_workers: u64,
    /// Intra-run worker-thread count (`PUNO_RUN_THREADS` /
    /// `System::set_run_threads`); 1 is the serial loop.
    pub run_workers: u64,
    /// Waves the parallel executor handed to its worker pool (0 on the
    /// serial path; sub-threshold waves dispatch serially and don't count).
    pub par_waves: u64,
    /// Fraction of pooled worker time spent idle at wave barriers:
    /// `1 - busy / (workers * span)` summed over all waves. 0 on the
    /// serial path; rising values flag shard imbalance before wall-clock
    /// shows it.
    pub worker_idle_frac: f64,
    /// Always 0: prefix-fork execution, which counted forked cells here, is
    /// retired and every cell runs from cycle 0. Kept, like
    /// `express_packets`, so the serialized shape and its readers stay valid.
    pub prefix_forks: u64,
    /// Always 0, like `prefix_forks`.
    pub prefix_cycles_shared: u64,
    /// Always 0, like `prefix_forks`.
    pub prefix_time_saved: f64,
}

impl HostPerf {
    /// Derive the per-second rates from the raw totals.
    pub fn finish(mut self, sim_cycles: u64) -> Self {
        if self.wall_secs > 0.0 {
            self.sim_cycles_per_sec = sim_cycles as f64 / self.wall_secs;
            self.events_per_sec = self.events_dispatched as f64 / self.wall_secs;
        }
        self
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMetrics {
    pub workload: String,
    pub mechanism: String,
    pub seed: u64,
    /// Wall-clock of the run in simulated cycles (Figure 13's quantity:
    /// fixed work per node, so fewer cycles = faster execution).
    pub cycles: u64,
    /// Merged per-node HTM statistics (Figures 10, 14; Table I).
    pub htm: HtmStats,
    /// Merged directory statistics (Figure 12).
    pub dir: DirStats,
    /// Network statistics (Figure 11).
    pub traffic_router_traversals: u64,
    pub traffic_flits_injected: u64,
    pub traffic_mean_latency: f64,
    /// Max/mean utilization over non-idle directed links (hotspot skew).
    pub traffic_link_skew: f64,
    /// False-abort oracle (Figures 2, 3).
    pub oracle: FalseAbortOracle,
    /// PUNO predictor statistics (prediction accuracy; zeroed for other
    /// mechanisms).
    pub puno: PunoStats,
    /// Faults actually injected during the run (all-zero without a plan).
    pub faults: FaultStats,
    /// Committed transactions (sanity: nodes x tx_per_node).
    pub committed: u64,
    /// Host-side simulator throughput (non-deterministic; see [`HostPerf`]).
    pub host: HostPerf,
    /// Size-bounded telemetry (time series, abort blame, contention heat);
    /// `None` unless the run enabled a [`crate::TelemetryCollector`].
    pub telemetry: Option<TelemetryReport>,
}

impl RunMetrics {
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        workload: &str,
        mechanism: &str,
        seed: u64,
        cycles: u64,
        htm: HtmStats,
        dir: DirStats,
        traffic: &TrafficStats,
        link_skew: f64,
        oracle: FalseAbortOracle,
        puno: PunoStats,
        faults: FaultStats,
        host: HostPerf,
        telemetry: Option<TelemetryReport>,
    ) -> Self {
        let committed = htm.commits.get();
        Self {
            workload: workload.to_string(),
            mechanism: mechanism.to_string(),
            seed,
            cycles,
            htm,
            dir,
            traffic_router_traversals: traffic.router_traversals(),
            traffic_flits_injected: traffic.flits_injected(),
            traffic_mean_latency: traffic.mean_latency(),
            traffic_link_skew: link_skew,
            oracle,
            puno,
            faults,
            committed,
            host,
            telemetry,
        }
    }

    /// The run viewed without its host-side throughput counters: everything
    /// left is a pure function of (workload, mechanism, seed, config) and is
    /// what the golden-snapshot bit-identity tests compare.
    pub fn deterministic(&self) -> RunMetrics {
        let mut m = self.clone();
        m.host = HostPerf::default();
        m
    }

    /// Aborts per committed transaction — scale-free contention measure.
    pub fn aborts_per_commit(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.htm.aborts.get() as f64 / self.committed as f64
        }
    }

    /// Mean directory blocking cycles per transactional GETX (Figure 12).
    pub fn dir_blocking_per_tx_getx(&self) -> f64 {
        self.dir.blocking_cycles_tx_getx.mean()
    }

    /// Nonzero abort causes with their counts, in [`AbortCause::ALL`]
    /// order — the blame breakdown the warehouse sink records per cell and
    /// the paper's false-abort analysis compares on.
    pub fn abort_blame(&self) -> Vec<(AbortCause, u64)> {
        AbortCause::ALL
            .iter()
            .filter_map(|&cause| {
                let count = self.htm.aborts_for(cause);
                (count > 0).then_some((cause, count))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_htm::AbortCause;

    #[test]
    fn derived_metrics() {
        let mut htm = HtmStats::default();
        htm.record_commit(100);
        htm.record_commit(100);
        htm.record_abort(AbortCause::TxWriteInvalidation, 50);
        let m = RunMetrics::from_parts(
            "w",
            "m",
            0,
            1000,
            htm,
            DirStats::default(),
            &TrafficStats::default(),
            1.0,
            FalseAbortOracle::default(),
            PunoStats::default(),
            FaultStats::default(),
            HostPerf::default(),
            None,
        );
        assert_eq!(m.committed, 2);
        assert!((m.aborts_per_commit() - 0.5).abs() < 1e-12);
    }
}
