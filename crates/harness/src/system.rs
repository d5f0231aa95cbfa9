//! The assembled system and its deterministic event loop.

use crate::config::SystemConfig;
use crate::error::RunError;
use crate::exec;
use crate::mechanism::Mechanism;
use crate::memory::MemoryImage;
use crate::metrics::RunMetrics;
use crate::node::{Effects, NodeState};
use crate::oracle::FalseAbortOracle;
use crate::telemetry::{TelemetryCollector, TelemetryConfig};
use puno_coherence::directory::{DirAction, DirectoryBank};
use puno_coherence::l1::L1Cache;
use puno_coherence::msg::{CoherenceMsg, TxInfo};
use puno_coherence::predictor::{NullPredictor, PredictedTarget, UnicastPredictor};
use puno_coherence::sharers::SharerSet;
use puno_core::{PunoPredictor, PunoStats, TxLengthBuffer};
use puno_htm::rmw::RmwPredictor;
use puno_htm::unit::HtmUnit;
use puno_htm::{BackoffEngine, HtmStats};
use puno_noc::Network;
use puno_sim::{
    ChannelMask, Cycle, Cycles, EventQueue, FaultInjector, FaultKind, FaultPlan, LineAddr, NodeId,
    SimRng, TraceChannel, TraceEvent, Tracer,
};
use puno_workloads::{ProgramSet, WorkloadParams};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many periodic snapshots the run loop retains (oldest evicted).
const SNAPSHOT_RING_CAPACITY: usize = 4;

/// Trace-ring capacity used for the rewind-and-dump replay: large enough to
/// hold the events of a full watchdog window in the failure regimes the
/// rewind exists for (NACK storms cycle through a bounded message set).
const REWIND_TRACE_CAPACITY: usize = 4096;

/// Simulation events.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// Resume a node's core FSM (stale epochs are dropped).
    NodeWake { node: NodeId, epoch: u64 },
    /// Advance the network one cycle (re-armed while packets are in
    /// flight, and re-timed past cycles the network would idle through).
    NetStep,
    /// A delayed directory send (L2 access / prediction latency elapsed).
    DirSend {
        home: NodeId,
        dst: NodeId,
        msg: CoherenceMsg,
    },
    /// Off-chip memory fetch finished at a home bank.
    MemReady { home: NodeId, addr: LineAddr },
    /// A fault-jittered message whose extra delay has elapsed; injects
    /// without re-probing the fault streams.
    FaultedInject {
        src: NodeId,
        dst: NodeId,
        msg: CoherenceMsg,
    },
    /// A fault fires (scheduled in the plan, or a rate-drawn forced abort
    /// aimed mid-transaction).
    Fault {
        kind: FaultKind,
        node: NodeId,
        magnitude: Cycles,
    },
}

/// Per-bank predictor: baseline banks never unicast; PUNO banks run the
/// P-Buffer/UD machinery.
#[derive(Clone)]
pub(crate) enum PredictorImpl {
    Null(NullPredictor),
    Puno(Box<PunoPredictor>),
}

impl UnicastPredictor for PredictorImpl {
    fn observe_request(&mut self, now: Cycle, node: NodeId, info: &TxInfo) {
        match self {
            PredictorImpl::Null(p) => p.observe_request(now, node, info),
            PredictorImpl::Puno(p) => p.observe_request(now, node, info),
        }
    }

    fn predict_unicast(
        &mut self,
        now: Cycle,
        addr: LineAddr,
        requester: NodeId,
        req: &TxInfo,
        holders: SharerSet,
        exclusive_owner: bool,
    ) -> Option<PredictedTarget> {
        match self {
            PredictorImpl::Null(p) => {
                p.predict_unicast(now, addr, requester, req, holders, exclusive_owner)
            }
            PredictorImpl::Puno(p) => {
                p.predict_unicast(now, addr, requester, req, holders, exclusive_owner)
            }
        }
    }

    fn on_mispredict_feedback(&mut self, now: Cycle, addr: LineAddr, node: NodeId) {
        match self {
            PredictorImpl::Null(p) => p.on_mispredict_feedback(now, addr, node),
            PredictorImpl::Puno(p) => p.on_mispredict_feedback(now, addr, node),
        }
    }

    fn after_service(&mut self, now: Cycle, addr: LineAddr, holders: SharerSet) {
        match self {
            PredictorImpl::Null(p) => p.after_service(now, addr, holders),
            PredictorImpl::Puno(p) => p.after_service(now, addr, holders),
        }
    }

    fn decision_latency(&self) -> Cycle {
        match self {
            PredictorImpl::Null(p) => p.decision_latency(),
            PredictorImpl::Puno(p) => p.decision_latency(),
        }
    }
}

/// A copy-on-write checkpoint of a [`System`]'s simulated state.
///
/// Produced by [`System::snapshot`]; [`System::restore`] rewinds the system
/// to it exactly (bit-identical continuation, validated by the resilience
/// property tests). The state lives behind an [`Arc`], so cloning a
/// snapshot — the ring rotating, a caller stashing one — is a pointer copy;
/// the deep clone happens once, at capture.
///
/// Host-side observability (tracer, telemetry, wall-clock and throughput
/// counters) is deliberately *not* captured: those sinks describe the host
/// run, not the simulated machine, and restoring keeps whatever is
/// currently installed — which is what lets the rewind-and-dump path replay
/// a failure window with tracing forced on without perturbing behaviour.
#[derive(Clone)]
pub struct SystemSnapshot {
    state: Arc<SnapshotState>,
}

impl SystemSnapshot {
    /// Simulated cycle at which the snapshot was taken.
    pub fn cycle(&self) -> Cycle {
        self.state.last_cycle
    }
}

/// The deep-cloned simulated state behind a [`SystemSnapshot`].
struct SnapshotState {
    config: SystemConfig,
    workload_name: String,
    seed: u64,
    queue: EventQueue<Event>,
    network: Network<CoherenceMsg>,
    nodes: Vec<NodeState>,
    dirs: Vec<DirectoryBank>,
    predictors: Vec<PredictorImpl>,
    memory: MemoryImage,
    oracle: FalseAbortOracle,
    fault: FaultInjector,
    pending_jitter: Vec<Cycles>,
    net_step_armed: bool,
    nodes_done: usize,
    finish_cycle: Cycle,
    last_cycle: Cycle,
    watchdog_next: Cycle,
    watchdog_last: u64,
    progress_commits: u64,
}

pub struct System {
    config: SystemConfig,
    workload_name: String,
    seed: u64,
    queue: EventQueue<Event>,
    network: Network<CoherenceMsg>,
    nodes: Vec<NodeState>,
    dirs: Vec<DirectoryBank>,
    predictors: Vec<PredictorImpl>,
    memory: MemoryImage,
    oracle: FalseAbortOracle,
    net_step_armed: bool,
    nodes_done: usize,
    finish_cycle: Cycle,
    tracer: Tracer,
    /// Aggregating collector for `RunMetrics::telemetry` (off by default).
    telemetry: Option<TelemetryCollector>,
    /// Channels some sink wants: the tracer's mask unioned with what the
    /// telemetry collector needs. Cached so the per-event check is one
    /// bit test; [`System::recompute_trace_masks`] keeps it (and the
    /// per-node HTM masks) coherent.
    trace_mask: ChannelMask,
    fault: FaultInjector,
    /// Extra delay owed to each node's next injected message (accumulated
    /// by scheduled `DelayJitter` fault events).
    pending_jitter: Vec<Cycles>,
    /// Cycle of the most recently popped event (failure diagnostics).
    last_cycle: Cycle,
    /// Forward-progress watchdog: next sampling cycle and the progress
    /// marker (commits + retired nodes) captured at the previous sample.
    watchdog_next: Cycle,
    watchdog_last: u64,
    /// Running total of transaction commits, maintained by `apply_effects`
    /// so the watchdog's progress marker is O(1) instead of an all-nodes
    /// stats sum.
    progress_commits: u64,
    /// Reused scratch for directory action emission (kept empty between
    /// events; taken/restored around each directory call).
    dir_scratch: Vec<DirAction>,
    /// Reused scratch for per-cycle network deliveries.
    delivery_scratch: Vec<(NodeId, CoherenceMsg)>,
    /// Periodic-snapshot interval in cycles (0 = off; see
    /// [`System::set_snapshot_every`]).
    snapshot_every: Cycle,
    /// Next cycle at or after which the run loop captures a ring snapshot.
    next_snapshot_at: Cycle,
    /// The retained periodic snapshots, oldest first.
    snapshot_ring: VecDeque<SystemSnapshot>,
    /// Host-side throughput accounting (never affects simulated behaviour).
    events_dispatched: u64,
    peak_queue_depth: usize,
    host_wall_secs: f64,
    /// Intra-run worker count (see [`System::set_run_threads`]); 1 = the
    /// serial loop. Host-side execution strategy, deliberately not part of
    /// snapshots (a restore keeps the current setting).
    run_threads: usize,
    /// Cycles the NetStep token skipped because the network could not
    /// change state in them (host-side accounting; see `advance_net_token`).
    skipped_net_cycles: u64,
    /// Parallel-executor accounting: waves handed to the pool, summed
    /// per-shard busy time, and summed wave wall-clock span (for the
    /// worker-idle fraction in [`crate::metrics::HostPerf`]).
    par_waves: u64,
    par_busy_ns: u64,
    par_span_ns: u64,
    /// Scratch for the wave scanner's duplicate-wake cut (kept all-false
    /// between scans).
    wave_seen: Vec<bool>,
    /// Live-observability sampling interval override (see
    /// [`System::set_obs_sample_every`]). `None` = read
    /// `PUNO_OBS_SAMPLE_CYCLES` when the global registry is enabled;
    /// `Some(0)` = force off; `Some(n)` = sample every `n` cycles.
    /// Host-side only: not part of `SystemConfig` or snapshots.
    obs_sample_every: Option<Cycle>,
    /// Active per-run metrics sampler, armed by `run_loop` when the global
    /// registry is enabled. Publishes sim-cycle/event totals and rates;
    /// never touches simulated state, so it is excluded from snapshots and
    /// never re-armed during forensic replay (`rewind_and_dump` drives
    /// `run_loop_inner` directly).
    obs_sampler: Option<Box<crate::obs::RunSampler>>,
}

impl System {
    /// Assemble a system running `params` under `config.mechanism`.
    pub fn new(config: SystemConfig, params: &WorkloadParams, seed: u64) -> Self {
        let programs = ProgramSet::generate(params, config.nodes(), seed);
        Self::new_shared(config, params, seed, &programs)
    }

    /// Like [`System::new`], but replaying an already generated
    /// [`ProgramSet`] instead of regenerating the trace. The set must come
    /// from the same `(params, seed)` (and cover the mesh); sharing it
    /// across mechanism cells and retries is what makes sweep-scale
    /// execution cheap without touching simulated behaviour.
    pub fn new_shared(
        config: SystemConfig,
        params: &WorkloadParams,
        seed: u64,
        programs: &ProgramSet,
    ) -> Self {
        let nodes_n = config.nodes();
        assert_eq!(
            programs.nodes(),
            nodes_n,
            "program set does not cover the mesh"
        );
        debug_assert_eq!(
            programs.seed, seed,
            "program set generated for another seed"
        );
        let root_rng = SimRng::new(seed);
        // Steady state holds roughly one wake per node plus in-flight
        // protocol events; pre-size so the hot loop never grows the queue.
        let mut queue = EventQueue::with_capacity(4 * nodes_n as usize);
        let mut nodes = Vec::with_capacity(nodes_n as usize);
        for i in 0..nodes_n {
            let id = NodeId(i);
            let rmw = config
                .mechanism
                .uses_rmw_predictor()
                .then(RmwPredictor::paper);
            let mut node = NodeState::new(
                id,
                nodes_n,
                L1Cache::new(config.l1),
                HtmUnit::new(id, config.abort_timing, rmw),
                TxLengthBuffer::new(config.puno.txlb_entries),
                BackoffEngine::new(
                    config.mechanism.backoff_kind(),
                    config.backoff,
                    root_rng.derive(0xB0FF ^ i as u64),
                ),
                programs.node(id),
                config.commit_latency,
                config.mechanism.uses_puno() && config.puno.notification_enabled,
            );
            node.set_wakeup_hints(config.mechanism.uses_puno() && config.puno.wakeup_hints);
            if let Some(sig_cfg) = config.signatures {
                node.htm.enable_signatures(sig_cfg);
            }
            queue.schedule_at(0, Event::NodeWake { node: id, epoch: 0 });
            nodes.push(node);
        }
        let dirs = (0..nodes_n)
            .map(|i| DirectoryBank::new(NodeId(i), config.dir))
            .collect();
        // The P-Buffer has exactly one entry per node (Table II); size it
        // to the mesh so non-4x4 configurations work and so the predictor's
        // timestamp decoding (begin = ts / nodes) stays correct.
        let mut puno_cfg = config.puno;
        puno_cfg.pbuffer_entries = nodes_n as usize;
        let predictors = (0..nodes_n)
            .map(|_| {
                if config.mechanism.uses_puno() {
                    PredictorImpl::Puno(Box::new(PunoPredictor::new(puno_cfg)))
                } else {
                    PredictorImpl::Null(NullPredictor)
                }
            })
            .collect();
        let network = Network::new(config.mesh, config.noc);
        Self {
            workload_name: params.name.clone(),
            seed,
            queue,
            network,
            nodes,
            dirs,
            predictors,
            memory: MemoryImage::new(),
            oracle: FalseAbortOracle::default(),
            net_step_armed: false,
            nodes_done: 0,
            finish_cycle: 0,
            tracer: Tracer::off(),
            telemetry: None,
            trace_mask: ChannelMask::NONE,
            fault: FaultInjector::new(FaultPlan::none()),
            pending_jitter: vec![0; nodes_n as usize],
            last_cycle: 0,
            watchdog_next: config.watchdog_window,
            watchdog_last: 0,
            progress_commits: 0,
            dir_scratch: Vec::with_capacity(8),
            delivery_scratch: Vec::with_capacity(nodes_n as usize),
            snapshot_every: 0,
            next_snapshot_at: 0,
            snapshot_ring: VecDeque::new(),
            events_dispatched: 0,
            peak_queue_depth: 0,
            host_wall_secs: 0.0,
            run_threads: 1,
            skipped_net_cycles: 0,
            par_waves: 0,
            par_busy_ns: 0,
            par_span_ns: 0,
            wave_seen: vec![false; nodes_n as usize],
            obs_sample_every: None,
            obs_sampler: None,
            config,
        }
    }

    /// Re-target a finished (or failed) system at a new cell, reusing its
    /// allocations — event-queue buckets, router buffers, directory entry
    /// tables, L1 tag arrays, HTM scratch, memory image — instead of
    /// constructing from scratch. Bit-identical to
    /// `System::new_shared(config, params, seed, programs)`: every leaf
    /// reset restores exactly the state its constructor builds, validated
    /// by the `sweep_engine` golden test. Falls back to full construction
    /// when the geometry (mesh, NoC, L1, directory config) changes.
    pub fn reset(
        &mut self,
        config: SystemConfig,
        params: &WorkloadParams,
        seed: u64,
        programs: &ProgramSet,
    ) {
        let nodes_n = config.nodes();
        let same_geometry = nodes_n == self.nodes.len() as u16
            && config.mesh == self.config.mesh
            && config.noc == self.config.noc
            && config.l1 == self.config.l1
            && config.dir == self.config.dir;
        if !same_geometry {
            *self = System::new_shared(config, params, seed, programs);
            return;
        }
        assert_eq!(
            programs.nodes(),
            nodes_n,
            "program set does not cover the mesh"
        );
        debug_assert_eq!(
            programs.seed, seed,
            "program set generated for another seed"
        );
        let root_rng = SimRng::new(seed);
        self.queue.reset();
        for i in 0..nodes_n {
            let id = NodeId(i);
            let rmw = config
                .mechanism
                .uses_rmw_predictor()
                .then(RmwPredictor::paper);
            let node = &mut self.nodes[i as usize];
            node.reset(
                nodes_n,
                config.l1,
                config.abort_timing,
                rmw,
                TxLengthBuffer::new(config.puno.txlb_entries),
                BackoffEngine::new(
                    config.mechanism.backoff_kind(),
                    config.backoff,
                    root_rng.derive(0xB0FF ^ i as u64),
                ),
                programs.node(id),
                config.commit_latency,
                config.mechanism.uses_puno() && config.puno.notification_enabled,
            );
            node.set_wakeup_hints(config.mechanism.uses_puno() && config.puno.wakeup_hints);
            if let Some(sig_cfg) = config.signatures {
                node.htm.enable_signatures(sig_cfg);
            }
            self.queue
                .schedule_at(0, Event::NodeWake { node: id, epoch: 0 });
        }
        for d in &mut self.dirs {
            d.reset();
        }
        let mut puno_cfg = config.puno;
        puno_cfg.pbuffer_entries = nodes_n as usize;
        for p in &mut self.predictors {
            *p = if config.mechanism.uses_puno() {
                PredictorImpl::Puno(Box::new(PunoPredictor::new(puno_cfg)))
            } else {
                PredictorImpl::Null(NullPredictor)
            };
        }
        self.network.reset();
        self.memory.clear();
        self.workload_name.clear();
        self.workload_name.push_str(&params.name);
        self.seed = seed;
        self.oracle = FalseAbortOracle::default();
        self.net_step_armed = false;
        self.nodes_done = 0;
        self.finish_cycle = 0;
        self.tracer = Tracer::off();
        self.telemetry = None;
        self.trace_mask = ChannelMask::NONE;
        self.fault = FaultInjector::new(FaultPlan::none());
        self.pending_jitter.fill(0);
        self.last_cycle = 0;
        self.watchdog_next = config.watchdog_window;
        self.watchdog_last = 0;
        self.progress_commits = 0;
        self.snapshot_every = 0;
        self.next_snapshot_at = 0;
        self.snapshot_ring.clear();
        self.events_dispatched = 0;
        self.peak_queue_depth = 0;
        self.host_wall_secs = 0.0;
        self.run_threads = 1;
        self.skipped_net_cycles = 0;
        self.par_waves = 0;
        self.par_busy_ns = 0;
        self.par_span_ns = 0;
        self.wave_seen.fill(false);
        self.obs_sample_every = None;
        self.obs_sampler = None;
        self.config = config;
    }

    /// Set the intra-run worker count for subsequent runs. `1` (the
    /// default) is exactly today's serial loop; `n > 1` runs each cycle's
    /// independent events on a persistent pool of `n` threads (capped at
    /// the node count), merged so `RunMetrics` stays bit-identical — see
    /// `crates/harness/src/exec.rs`. Callers compose this with sweep-level
    /// parallelism via `sweep::effective_workers`.
    pub fn set_run_threads(&mut self, threads: usize) {
        self.run_threads = threads.max(1);
    }

    /// The configured intra-run worker count.
    pub fn run_threads(&self) -> usize {
        self.run_threads
    }

    /// No-op, kept for source compatibility: the NoC express path it
    /// toggled is retired. Event-driven network stepping (DESIGN §13)
    /// covers the idle stretches express used to fast-forward, always on.
    pub fn set_noc_express(&mut self, _enabled: bool) {}

    /// Capture a copy-on-write checkpoint of the simulated state. The
    /// clone is deep (event queue, NoC buffers, L1 ways, directory banks,
    /// HTM units, predictor tables, RNG streams, watchdog state) but
    /// one-time: the result shares it behind an [`Arc`], so keeping or
    /// re-cloning snapshots afterwards is free.
    ///
    /// Consistent only *between* events — the run loop snapshots at cycle
    /// boundaries, after the current cycle's batch has fully dispatched
    /// (mid-batch, popped-but-undispatched events would be lost).
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            state: Arc::new(SnapshotState {
                config: self.config,
                workload_name: self.workload_name.clone(),
                seed: self.seed,
                queue: self.queue.clone(),
                network: self.network.clone(),
                nodes: self.nodes.clone(),
                dirs: self.dirs.clone(),
                predictors: self.predictors.clone(),
                memory: self.memory.clone(),
                oracle: self.oracle.clone(),
                fault: self.fault.clone(),
                pending_jitter: self.pending_jitter.clone(),
                net_step_armed: self.net_step_armed,
                nodes_done: self.nodes_done,
                finish_cycle: self.finish_cycle,
                last_cycle: self.last_cycle,
                watchdog_next: self.watchdog_next,
                watchdog_last: self.watchdog_last,
                progress_commits: self.progress_commits,
            }),
        }
    }

    /// Rewind the simulated state to `snap` exactly; continuing the run
    /// from here is bit-identical to a run that never detoured (validated
    /// by the resilience property tests). The currently installed tracer,
    /// telemetry collector, and host-side counters are kept — they
    /// describe the host run, not the simulated machine.
    pub fn restore(&mut self, snap: &SystemSnapshot) {
        let s = &*snap.state;
        self.config = s.config;
        self.workload_name.clear();
        self.workload_name.push_str(&s.workload_name);
        self.seed = s.seed;
        self.queue = s.queue.clone();
        self.network = s.network.clone();
        self.nodes = s.nodes.clone();
        self.dirs = s.dirs.clone();
        self.predictors = s.predictors.clone();
        self.memory = s.memory.clone();
        self.oracle = s.oracle.clone();
        self.fault = s.fault.clone();
        self.pending_jitter.clear();
        self.pending_jitter.extend_from_slice(&s.pending_jitter);
        self.net_step_armed = s.net_step_armed;
        self.nodes_done = s.nodes_done;
        self.finish_cycle = s.finish_cycle;
        self.last_cycle = s.last_cycle;
        self.watchdog_next = s.watchdog_next;
        self.watchdog_last = s.watchdog_last;
        self.progress_commits = s.progress_commits;
        if self.snapshot_every > 0 {
            self.next_snapshot_at = s.last_cycle.saturating_add(self.snapshot_every);
        }
        // The restored nodes carry capture-time trace masks; the installed
        // sinks are authoritative.
        self.recompute_trace_masks();
    }

    /// Arm (or, with 0, disarm) periodic ring snapshots: the run loop
    /// captures a [`SystemSnapshot`] every `every` cycles, keeping the last
    /// [`SNAPSHOT_RING_CAPACITY`]. When the deadlock/livelock watchdog then
    /// fires, the run rewinds to the retained snapshot preceding the stalled
    /// window and replays it with all trace channels forced on, so the
    /// resulting [`RunError`] carries the actual lead-up trace. Snapshots
    /// never perturb simulated behaviour (golden-identity is tested with
    /// the ring armed).
    pub fn set_snapshot_every(&mut self, every: Cycle) {
        self.snapshot_every = every;
        self.snapshot_ring.clear();
        self.next_snapshot_at = self.last_cycle.saturating_add(every.max(1));
    }

    /// Override the live-metrics sampling interval for subsequent runs:
    /// `0` forces sampling off even when the registry is enabled; `n > 0`
    /// samples every `n` cycles regardless of `PUNO_OBS_SAMPLE_CYCLES`.
    /// Without an override, runs read the env var (default
    /// [`crate::obs::DEFAULT_SAMPLE_CYCLES`]). Sampling only ever reads
    /// host-side counters; `RunMetrics::deterministic()` is bit-identical
    /// with it on or off.
    pub fn set_obs_sample_every(&mut self, every: Cycle) {
        self.obs_sample_every = Some(every);
    }

    /// Snapshots currently retained by the ring (diagnostics/tests).
    pub fn snapshot_ring_len(&self) -> usize {
        self.snapshot_ring.len()
    }

    /// The most recent snapshot retained by the ring, if any. Cheap: a
    /// snapshot is an [`Arc`] handle, so this clones a pointer, not the
    /// simulated state.
    pub fn latest_snapshot(&self) -> Option<SystemSnapshot> {
        self.snapshot_ring.back().cloned()
    }

    /// Rotate the ring with a fresh snapshot (called from the run loop at
    /// a cycle boundary).
    fn capture_ring_snapshot(&mut self, now: Cycle) {
        if self.snapshot_ring.len() >= SNAPSHOT_RING_CAPACITY {
            self.snapshot_ring.pop_front();
        }
        self.snapshot_ring.push_back(self.snapshot());
        self.next_snapshot_at = now.saturating_add(self.snapshot_every);
    }

    /// Failure forensics: rewind to the retained snapshot preceding the
    /// stalled window and deterministically replay into the failure with
    /// every trace channel forced on, returning the replayed error (whose
    /// dump now covers the cycles leading into the stall). Falls back to
    /// `original` when the ring is empty or the replay diverges (it cannot:
    /// tracing is behaviour-neutral, but a rewind must never turn a
    /// structured failure into a panic).
    fn rewind_and_dump(&mut self, original: RunError) -> RunError {
        let stall = self.last_cycle;
        let target = stall.saturating_sub(self.config.watchdog_window);
        let snap = match self
            .snapshot_ring
            .iter()
            .rev()
            .find(|s| s.cycle() <= target)
            .or_else(|| self.snapshot_ring.front())
        {
            Some(s) => s.clone(),
            None => return original,
        };
        self.restore(&snap);
        self.install_tracer(Tracer::ring(ChannelMask::ALL, REWIND_TRACE_CAPACITY));
        // No further ring rotation during the replay: the failure state is
        // already known, the replay exists only to trace it.
        self.snapshot_every = 0;
        self.snapshot_ring.clear();
        match self.run_loop_inner() {
            Err(replayed) => replayed,
            Ok(()) => original,
        }
    }

    /// Install a fault plan. Scheduled events are enqueued immediately;
    /// rate-based faults are probed at their hook points. An empty plan is
    /// exactly equivalent to never calling this (no RNG is consulted and no
    /// event is scheduled), so fault-free runs stay bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = FaultInjector::new(plan);
        for ev in self.fault.scheduled_events().to_vec() {
            self.queue.schedule_at(
                ev.at,
                Event::Fault {
                    kind: ev.kind,
                    node: ev.node,
                    magnitude: ev.magnitude,
                },
            );
        }
    }

    /// Faults fired so far (testing/diagnostics).
    pub fn fault_stats(&self) -> &puno_sim::FaultStats {
        &self.fault.stats
    }

    /// Keep the last `capacity` trace events (all channels) in a ring for
    /// debugging; retrieve them with [`System::trace_dump`]. Shorthand for
    /// [`System::install_tracer`] with an all-channel ring tracer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.install_tracer(Tracer::ring(ChannelMask::ALL, capacity));
    }

    /// Install a configured [`Tracer`] (channel mask, ring, optional JSONL
    /// sink) and propagate the effective channel mask to the nodes.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.recompute_trace_masks();
    }

    /// Aggregate per-transaction telemetry into `RunMetrics::telemetry`
    /// (abort blame, contention heat, windowed time series).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = Some(TelemetryCollector::new(config));
        self.recompute_trace_masks();
    }

    /// Recompute the cached effective channel mask (tracer ∪ telemetry
    /// needs) and push the HTM slice down to the nodes, which buffer their
    /// own lifecycle events.
    fn recompute_trace_masks(&mut self) {
        let mut mask = self.tracer.mask();
        if self.telemetry.is_some() {
            mask = mask.union(TelemetryCollector::channels());
        }
        self.trace_mask = mask;
        let node_mask = if mask.contains(TraceChannel::Htm) {
            ChannelMask::NONE.with(TraceChannel::Htm)
        } else {
            ChannelMask::NONE
        };
        for n in &mut self.nodes {
            n.set_trace_mask(node_mask);
        }
    }

    /// The installed tracer (ring/JSONL inspection after a run).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (e.g. to flush the JSONL sink mid-run).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Render the retained trace ring.
    pub fn trace_dump(&self) -> String {
        self.tracer.dump()
    }

    /// Record `event` in every interested sink. Callers check
    /// `self.trace_mask` (via [`System::emit`]) before constructing events,
    /// so this is never reached on the tracing-off path.
    fn sink(&mut self, now: Cycle, event: &TraceEvent) {
        self.tracer.record(now, event);
        if let Some(t) = &mut self.telemetry {
            t.observe(now, event);
        }
    }

    /// Lazily build and record one trace event: `f` only runs when some
    /// sink subscribed to `ch`, so disabled tracing costs one bit test.
    #[inline]
    fn emit(&mut self, now: Cycle, ch: TraceChannel, f: impl FnOnce() -> TraceEvent) {
        if self.trace_mask.contains(ch) {
            self.sink(now, &f());
        }
    }

    /// Move the HTM lifecycle events a node buffered during its last call
    /// into the sinks (the buffer allocation is recycled).
    fn drain_node_trace(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.nodes[idx].has_trace_events() {
            return;
        }
        let mut buf = self.nodes[idx].take_trace_buf();
        for (cycle, event) in buf.drain(..) {
            self.sink(cycle, &event);
        }
        self.nodes[idx].restore_trace_buf(buf);
    }

    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// Scan the structural coherence invariants over `lines`
    /// (single-writer/multi-reader, directory-owner agreement, sharer
    /// conservatism). Expensive; meant for tests.
    pub fn check_invariants(&self, lines: &[LineAddr]) -> Vec<crate::invariants::Violation> {
        crate::invariants::check(&self.nodes, &self.dirs, lines)
    }

    /// Run to completion like [`System::run_full`], additionally scanning
    /// the structural invariants over `lines` every `every` events and
    /// panicking on the first violation.
    pub fn run_checked(mut self, lines: &[LineAddr], every: u64) -> (RunMetrics, MemoryImage) {
        assert!(every > 0);
        let t0 = std::time::Instant::now();
        let mut events = 0u64;
        loop {
            match self.step_once() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => panic!("{e}"),
            }
            events += 1;
            if events.is_multiple_of(every) {
                let violations = self.check_invariants(lines);
                assert!(
                    violations.is_empty(),
                    "coherence invariants violated at cycle {}: {violations:?}",
                    self.last_cycle
                );
            }
        }
        self.host_wall_secs += t0.elapsed().as_secs_f64();
        let memory = std::mem::take(&mut self.memory);
        (self.finalize(), memory)
    }

    pub fn mechanism(&self) -> Mechanism {
        self.config.mechanism
    }

    /// Process one popped event (shared by every run loop).
    fn dispatch_event(&mut self, now: Cycle, event: Event) {
        match event {
            Event::NodeWake { node, epoch } => self.on_node_wake(now, node, epoch),
            Event::NetStep => self.on_net_step(now),
            Event::DirSend { home, dst, msg } => self.inject(now, home, dst, msg),
            Event::MemReady { home, addr } => {
                let mut actions = std::mem::take(&mut self.dir_scratch);
                debug_assert!(actions.is_empty(), "dir scratch reentered");
                self.dirs[home.index()].mem_ready_into(
                    now,
                    addr,
                    &mut self.predictors[home.index()],
                    &mut actions,
                );
                self.apply_dir_actions(now, home, &mut actions);
                self.dir_scratch = actions;
            }
            Event::FaultedInject { src, dst, msg } => self.inject_now(now, src, dst, msg),
            Event::Fault {
                kind,
                node,
                magnitude,
            } => self.on_fault(now, kind, node, magnitude),
        }
    }

    /// Apply one fault at its scheduled firing point. All kinds are
    /// abort-recoverable: messages are delayed or refused, never dropped,
    /// and forced aborts reuse the ordinary abort/restart path.
    fn on_fault(&mut self, now: Cycle, kind: FaultKind, node: NodeId, magnitude: Cycles) {
        self.emit(now, TraceChannel::Fault, || TraceEvent::FaultFired {
            kind,
            node,
            magnitude,
        });
        match kind {
            FaultKind::DelayJitter => {
                // Owed to the node's next injected message; recorded when
                // consumed so the accounting matches messages affected.
                self.pending_jitter[node.index()] += magnitude.max(1);
            }
            FaultKind::LinkStall => {
                self.network.stall_links(now, node, magnitude.max(1));
                self.fault.record_link_stall();
            }
            FaultKind::SpuriousNack => {
                // One-shot: the node's next non-self forward that would
                // have complied is refused instead.
                self.nodes[node.index()].arm_spurious_nack();
            }
            FaultKind::ForcedAbort => {
                let (fired, eff) = self.nodes[node.index()].force_abort(now, &mut self.memory);
                if fired {
                    self.fault.record_forced_abort();
                }
                self.drain_node_trace(node);
                self.apply_effects(now, node, eff);
            }
        }
    }

    /// Run to completion and return the metrics.
    ///
    /// Panics on deadlock/livelock; prefer [`System::try_run`] where a
    /// structured [`RunError`] is more useful (sweeps, fault injection).
    pub fn run(self) -> RunMetrics {
        self.run_full().0
    }

    /// Run to completion keeping the last `capacity` delivered protocol
    /// messages; returns the metrics and the rendered trace.
    pub fn run_traced(mut self, capacity: usize) -> (RunMetrics, String) {
        self.enable_trace(capacity);
        match self.run_loop() {
            Ok(()) => {}
            Err(e) => panic!("{e}"),
        }
        let dump = self.tracer.dump();
        (self.finalize(), dump)
    }

    /// Run to completion, returning both the metrics and the final memory
    /// image (for serializability checking).
    ///
    /// Panics on deadlock/livelock; prefer [`System::try_run_full`] where a
    /// structured [`RunError`] is more useful.
    pub fn run_full(self) -> (RunMetrics, MemoryImage) {
        match self.try_run_full() {
            Ok(pair) => pair,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run to completion, reporting deadlock/livelock as a structured
    /// [`RunError`] (with the NACK wait-for graph and any retained trace)
    /// instead of panicking.
    pub fn try_run(self) -> Result<RunMetrics, RunError> {
        self.try_run_full().map(|(m, _)| m)
    }

    /// Like [`System::try_run`] but also returns the final memory image.
    pub fn try_run_full(mut self) -> Result<(RunMetrics, MemoryImage), RunError> {
        self.run_loop()?;
        let metrics = self.finalize();
        Ok((metrics, std::mem::take(&mut self.memory)))
    }

    /// Run to completion *in place*: like [`System::try_run`], but the
    /// system survives the run so [`System::reset`] can recycle its
    /// allocations for the next cell.
    pub fn try_run_recycled(&mut self) -> Result<RunMetrics, RunError> {
        self.run_loop()?;
        Ok(self.finalize())
    }

    fn run_loop(&mut self) -> Result<(), RunError> {
        let t0 = std::time::Instant::now();
        self.arm_obs_sampler();
        let mut result = self.run_loop_inner();
        if let Err(original) = result {
            result = Err(self.rewind_and_dump(original));
        }
        if let Some(mut sampler) = self.obs_sampler.take() {
            sampler.finish(self.last_cycle, self.events_dispatched);
        }
        self.host_wall_secs += t0.elapsed().as_secs_f64();
        result
    }

    /// Arm the live-metrics sampler for this run, if the global registry
    /// is enabled (see [`crate::obs`]). A disabled registry costs exactly
    /// one relaxed atomic load here and nothing in the hot loop.
    fn arm_obs_sampler(&mut self) {
        self.obs_sampler = None;
        let Some(registry) = crate::obs::global() else {
            return;
        };
        let every = self
            .obs_sample_every
            .unwrap_or_else(crate::obs::env_sample_every);
        if every == 0 {
            return;
        }
        self.obs_sampler = Some(Box::new(crate::obs::RunSampler::new(
            registry,
            every,
            self.last_cycle,
            self.events_dispatched,
        )));
    }

    /// Dispatch to the serial hot loop or, with [`System::set_run_threads`]
    /// above 1, the sharded cycle-epoch executor. Both produce bit-identical
    /// `RunMetrics` (gated by the golden suite and `tests/parallel_exec.rs`).
    fn run_loop_inner(&mut self) -> Result<(), RunError> {
        let workers = self.run_threads.min(self.nodes.len()).max(1);
        if workers <= 1 {
            self.run_loop_serial()
        } else {
            self.run_loop_parallel(workers)
        }
    }

    /// The shared pop preamble of every run loop and `step_once`: record
    /// the pre-pop queue depth, pop via `pop`, advance `last_cycle`, and
    /// run the livelock guards against the popped cycle. `Ok(None)` means
    /// the queue drained (the caller renders the deadlock diagnosis).
    fn pop_guarded<T>(
        &mut self,
        pop: impl FnOnce(&mut EventQueue<Event>) -> Option<(Cycle, T)>,
    ) -> Result<Option<(Cycle, T)>, RunError> {
        let depth = self.queue.len();
        if depth > self.peak_queue_depth {
            self.peak_queue_depth = depth;
        }
        let Some((now, payload)) = pop(&mut self.queue) else {
            return Ok(None);
        };
        self.last_cycle = now;
        self.guards(now)?;
        Ok(Some((now, payload)))
    }

    /// The hot loop: batch-pop every event of the earliest cycle and
    /// dispatch in `(cycle, seq)` order. Per-event this is observably
    /// identical to popping one at a time — the guards (max_cycles,
    /// watchdog) depend only on `now`, which is shared by the whole batch,
    /// and events scheduled mid-batch land at later seqs so the next
    /// `pop_cycle_into` picks them up in exactly the one-at-a-time order.
    fn run_loop_serial(&mut self) -> Result<(), RunError> {
        let mut batch: Vec<Event> = Vec::with_capacity(2 * self.nodes.len());
        loop {
            if self.nodes_done >= self.nodes.len() {
                return Ok(());
            }
            let popped = self.pop_guarded(|q| q.pop_cycle_into(&mut batch).map(|now| (now, ())))?;
            let Some((now, ())) = popped else {
                return Err(self.deadlock_error());
            };
            for event in batch.drain(..) {
                if self.nodes_done >= self.nodes.len() {
                    // The run is over; one-at-a-time popping would never
                    // have dispatched the rest of this cycle either.
                    break;
                }
                self.events_dispatched += 1;
                self.dispatch_event(now, event);
            }
            self.advance_net_token();
            // Ring rotation happens only here, after the popped batch has
            // fully dispatched: mid-batch the queue no longer holds the
            // current cycle's events, so an earlier capture would lose
            // them. Capturing between events cannot perturb behaviour.
            if self.snapshot_every > 0 && now >= self.next_snapshot_at {
                self.capture_ring_snapshot(now);
            }
            // Live-metrics sampling reads host counters only — it can
            // never perturb simulated behaviour (golden-gated both ways).
            if let Some(sampler) = self.obs_sampler.as_mut() {
                if now >= sampler.next_at {
                    sampler.sample(now, self.events_dispatched);
                }
            }
        }
    }

    /// The sharded cycle-epoch executor: same pop/guard/snapshot skeleton
    /// as [`System::run_loop_serial`], with each popped batch split into
    /// waves of independently-owned events that a persistent worker pool
    /// processes concurrently (see `crates/harness/src/exec.rs` for the
    /// merge-order determinism argument).
    fn run_loop_parallel(&mut self, workers: usize) -> Result<(), RunError> {
        let pool = exec::PoolShared::new(workers);
        let mut result = Ok(());
        std::thread::scope(|s| {
            for w in 1..workers {
                let shared = &pool;
                s.spawn(move || exec::worker_loop(shared, w));
            }
            // Retire the pool even if the epoch loop panics: thread::scope
            // joins its workers on the way out.
            let _guard = exec::ShutdownGuard(&pool);
            result = self.parallel_epoch_loop(&pool, workers);
        });
        self.par_busy_ns += pool.total_busy_ns();
        result
    }

    fn parallel_epoch_loop(
        &mut self,
        pool: &exec::PoolShared,
        workers: usize,
    ) -> Result<(), RunError> {
        let mut batch: Vec<Event> = Vec::with_capacity(2 * self.nodes.len());
        let mut outputs: Vec<exec::WaveOutput> = Vec::new();
        let mut nacks: Vec<bool> = Vec::new();
        loop {
            if self.nodes_done >= self.nodes.len() {
                return Ok(());
            }
            let popped = self.pop_guarded(|q| q.pop_cycle_into(&mut batch).map(|now| (now, ())))?;
            let Some((now, ())) = popped else {
                return Err(self.deadlock_error());
            };
            let mut i = 0;
            while i < batch.len() {
                if self.nodes_done >= self.nodes.len() {
                    break;
                }
                let end = self.scan_wave(&batch, i);
                if end == i {
                    // A serial-only event (NetStep reads every router;
                    // Fault mutates the jitter ledger later injects read):
                    // dispatched in place. NetStep's deliveries may
                    // themselves fan out as a delivery wave.
                    self.events_dispatched += 1;
                    match batch[i].clone() {
                        Event::NetStep => {
                            self.on_net_step_parallel(now, pool, workers, &mut outputs, &mut nacks)
                        }
                        event => self.dispatch_event(now, event),
                    }
                    i += 1;
                } else {
                    // Every wave event counts as dispatched (the serial
                    // loop counts guard-skipped events too).
                    self.events_dispatched += (end - i) as u64;
                    self.run_batch_wave(now, &batch[i..end], pool, workers, &mut outputs);
                    i = end;
                }
            }
            batch.clear();
            self.advance_net_token();
            if self.snapshot_every > 0 && now >= self.next_snapshot_at {
                self.capture_ring_snapshot(now);
            }
            if let Some(sampler) = self.obs_sampler.as_mut() {
                if now >= sampler.next_at {
                    sampler.sample(now, self.events_dispatched);
                }
            }
        }
    }

    /// Find the maximal shardable wave starting at `start`: a run of
    /// NodeWake/MemReady/DirSend/FaultedInject events, cut at (a) the first
    /// serial-only event (NetStep, Fault), (b) a repeated wake of the same
    /// node (keeps the finisher pre-scan below exact), and (c) immediately
    /// after the wake that retires the last node — the serial loop breaks
    /// out of the batch there, so later events of this cycle must never
    /// run. Returns the exclusive end; `start` itself means the event at
    /// `start` must dispatch serially.
    fn scan_wave(&mut self, batch: &[Event], start: usize) -> usize {
        if matches!(batch[start], Event::NetStep | Event::Fault { .. }) {
            return start;
        }
        if self.wave_seen.len() < self.nodes.len() {
            self.wave_seen.resize(self.nodes.len(), false);
        }
        let total = self.nodes.len();
        let mut pending_finishers = 0usize;
        let mut end = batch.len();
        for (j, event) in batch.iter().enumerate().skip(start) {
            match event {
                Event::NetStep | Event::Fault { .. } => {
                    end = j;
                    break;
                }
                Event::NodeWake { node, epoch } => {
                    let idx = node.index();
                    if self.wave_seen[idx] {
                        end = j;
                        break;
                    }
                    self.wave_seen[idx] = true;
                    // Exact pre-image of "this wake retires the node": only
                    // `NodeState::step` finishes a node, and it does so iff
                    // the wake is live and the program counter is spent.
                    let n = &self.nodes[idx];
                    let finishes = n.epoch == *epoch
                        && !n.is_done()
                        && n.phase == crate::node::Phase::Ready
                        && n.pc >= n.program.items.len();
                    if finishes {
                        pending_finishers += 1;
                        if self.nodes_done + pending_finishers >= total {
                            end = j + 1;
                            break;
                        }
                    }
                }
                Event::DirSend { .. } | Event::FaultedInject { .. } | Event::MemReady { .. } => {}
            }
        }
        for event in &batch[start..end] {
            if let Event::NodeWake { node, .. } = event {
                self.wave_seen[node.index()] = false;
            }
        }
        end
    }

    /// Run one batch wave: below the pool threshold the events dispatch
    /// serially in place (sound — the scan guarantees any run-ending
    /// finisher is the wave's last event); above it, workers process their
    /// shards concurrently and the merge applies all global effects in
    /// original batch order.
    fn run_batch_wave(
        &mut self,
        now: Cycle,
        wave: &[Event],
        pool: &exec::PoolShared,
        workers: usize,
        outputs: &mut Vec<exec::WaveOutput>,
    ) {
        if wave.len() < exec::MIN_WAVE_PER_WORKER * workers {
            for event in wave {
                self.dispatch_event(now, event.clone());
            }
            return;
        }
        if outputs.len() < wave.len() {
            outputs.resize_with(wave.len(), Default::default);
        }
        for out in outputs[..wave.len()].iter_mut() {
            out.reset();
        }
        self.par_waves += 1;
        let job = exec::WaveJob {
            kind: exec::WaveKind::Batch,
            now,
            events: wave.as_ptr(),
            len: wave.len(),
            nodes: self.nodes.as_mut_ptr(),
            nodes_len: self.nodes.len(),
            dirs: self.dirs.as_mut_ptr(),
            preds: self.predictors.as_mut_ptr(),
            memory: &self.memory,
            outputs: outputs.as_mut_ptr(),
            workers,
            total_nodes: self.config.nodes(),
            fault_active: !self.fault.is_empty(),
            capture_dir_state: false,
            ..Default::default()
        };
        self.par_span_ns += pool.run_wave(job);
        self.merge_batch_wave(now, wave, &mut outputs[..wave.len()]);
    }

    /// Apply a processed batch wave's outputs in original batch order:
    /// exactly the sequence of queue schedules, injections, RNG draws, and
    /// trace emissions the serial loop interleaves with its node steps.
    fn merge_batch_wave(&mut self, now: Cycle, wave: &[Event], outputs: &mut [exec::WaveOutput]) {
        self.publish_wave_writes(outputs);
        for (event, out) in wave.iter().zip(outputs.iter_mut()) {
            match event {
                Event::NodeWake { node, .. } => {
                    if out.skipped {
                        continue;
                    }
                    if out.probe_fired && self.fault.forced_abort() {
                        let at = now + self.fault.forced_abort_delay();
                        self.queue.schedule_at(
                            at,
                            Event::Fault {
                                kind: FaultKind::ForcedAbort,
                                node: *node,
                                magnitude: 0,
                            },
                        );
                    }
                    self.merge_node_trace(*node, out);
                    self.apply_effects(now, *node, std::mem::take(&mut out.effects));
                }
                Event::MemReady { home, .. } => {
                    let mut actions = std::mem::take(&mut out.dir_actions);
                    self.apply_dir_actions(now, *home, &mut actions);
                    out.dir_actions = actions;
                }
                // Inject-only events: no shard state, replayed whole here
                // (in batch order, preserving the jitter/stall RNG streams).
                Event::DirSend { home, dst, msg } => {
                    self.inject(now, *home, *dst, msg.clone());
                }
                Event::FaultedInject { src, dst, msg } => {
                    self.inject_now(now, *src, *dst, msg.clone());
                }
                Event::NetStep | Event::Fault { .. } => {
                    unreachable!("serial-only event leaked into a wave")
                }
            }
        }
    }

    /// Publish every overlay-buffered line write from a processed wave.
    /// Cross-item order is irrelevant: the single-writer protocol invariant
    /// guarantees two same-cycle items never write the same line
    /// (debug-checked); within an item, writes apply in program order.
    fn publish_wave_writes(&mut self, outputs: &mut [exec::WaveOutput]) {
        #[cfg(debug_assertions)]
        {
            let mut writers: std::collections::HashMap<LineAddr, usize> =
                std::collections::HashMap::new();
            for (i, out) in outputs.iter().enumerate() {
                for (addr, _) in &out.mem_writes {
                    if let Some(prev) = writers.insert(*addr, i) {
                        assert_eq!(
                            prev, i,
                            "two wave items wrote line {addr:?}: single-writer violated"
                        );
                    }
                }
            }
        }
        for out in outputs.iter_mut() {
            for (addr, value) in out.mem_writes.drain(..) {
                self.memory.write(addr, value);
            }
        }
    }

    /// Drain a wave item's buffered node trace into the sinks and hand the
    /// buffer allocation back to the node (mirrors `drain_node_trace`).
    fn merge_node_trace(&mut self, node: NodeId, out: &mut exec::WaveOutput) {
        if out.node_trace.is_empty() {
            return;
        }
        let mut buf = std::mem::take(&mut out.node_trace);
        for (cycle, event) in buf.drain(..) {
            self.sink(cycle, &event);
        }
        self.nodes[node.index()].restore_trace_buf(buf);
    }

    /// The parallel path's NetStep: router arbitration stays serial (it is
    /// inherently cross-node), but the cycle's ejections — at most one per
    /// destination — shard cleanly by destination node. Spurious-NACK
    /// decisions are pre-drawn in delivery order so the per-stream RNG
    /// sequence matches the serial loop's.
    fn on_net_step_parallel(
        &mut self,
        now: Cycle,
        pool: &exec::PoolShared,
        workers: usize,
        outputs: &mut Vec<exec::WaveOutput>,
        nacks: &mut Vec<bool>,
    ) {
        let mut delivered = std::mem::take(&mut self.delivery_scratch);
        self.network.step_into(now, &mut delivered);
        if self.network.is_idle() {
            self.net_step_armed = false;
        } else {
            self.queue.schedule_token(now + 1, Event::NetStep);
        }
        if delivered.len() < exec::MIN_WAVE_PER_WORKER * workers {
            for (dst, msg) in delivered.drain(..) {
                self.emit(now, TraceChannel::Noc, || TraceEvent::NocDeliver {
                    dst,
                    vnet: msg.vnet().index() as u8,
                    flits: msg.flits(),
                });
                self.deliver(now, dst, msg);
            }
            self.delivery_scratch = delivered;
            return;
        }
        nacks.clear();
        if self.fault.is_empty() {
            nacks.resize(delivered.len(), false);
        } else {
            for (_, msg) in &delivered {
                let forward = matches!(
                    msg,
                    CoherenceMsg::Inv { .. }
                        | CoherenceMsg::FwdGets { .. }
                        | CoherenceMsg::FwdGetx { .. }
                );
                nacks.push(forward && self.fault.spurious_nack());
            }
        }
        if outputs.len() < delivered.len() {
            outputs.resize_with(delivered.len(), Default::default);
        }
        for out in outputs[..delivered.len()].iter_mut() {
            out.reset();
        }
        self.par_waves += 1;
        let job = exec::WaveJob {
            kind: exec::WaveKind::Deliver,
            now,
            deliveries: delivered.as_ptr(),
            nacks: nacks.as_ptr(),
            len: delivered.len(),
            nodes: self.nodes.as_mut_ptr(),
            nodes_len: self.nodes.len(),
            dirs: self.dirs.as_mut_ptr(),
            preds: self.predictors.as_mut_ptr(),
            memory: &self.memory,
            outputs: outputs.as_mut_ptr(),
            workers,
            total_nodes: self.config.nodes(),
            fault_active: !self.fault.is_empty(),
            capture_dir_state: self.trace_mask.contains(TraceChannel::Dir),
            ..Default::default()
        };
        self.par_span_ns += pool.run_wave(job);
        self.merge_deliver_wave(now, &delivered, &mut outputs[..delivered.len()]);
        delivered.clear();
        self.delivery_scratch = delivered;
    }

    /// Apply a processed delivery wave's outputs in delivery order,
    /// reproducing `deliver`'s per-message emission/effect sequence.
    fn merge_deliver_wave(
        &mut self,
        now: Cycle,
        delivered: &[(NodeId, CoherenceMsg)],
        outputs: &mut [exec::WaveOutput],
    ) {
        self.publish_wave_writes(outputs);
        for ((dst, msg), out) in delivered.iter().zip(outputs.iter_mut()) {
            let dst = *dst;
            self.emit(now, TraceChannel::Noc, || TraceEvent::NocDeliver {
                dst,
                vnet: msg.vnet().index() as u8,
                flits: msg.flits(),
            });
            self.emit(now, TraceChannel::Coh, || TraceEvent::CohRecv {
                dst,
                kind: msg.trace_kind(),
                addr: msg.addr(),
            });
            match msg {
                CoherenceMsg::Gets { .. }
                | CoherenceMsg::Getx { .. }
                | CoherenceMsg::Putx { .. }
                | CoherenceMsg::Puts { .. }
                | CoherenceMsg::Unblock { .. }
                | CoherenceMsg::WbData { .. } => {
                    if let CoherenceMsg::Unblock {
                        addr,
                        mp_node: Some(mp),
                        ..
                    } = msg
                    {
                        let (addr, mp) = (*addr, *mp);
                        self.emit(now, TraceChannel::Pred, || TraceEvent::PredMispredict {
                            home: dst,
                            addr,
                            node: mp,
                        });
                    }
                    let mut actions = std::mem::take(&mut out.dir_actions);
                    self.apply_dir_actions(now, dst, &mut actions);
                    out.dir_actions = actions;
                    if let Some((state, busy)) = out.dir_state.take() {
                        self.sink(
                            now,
                            &TraceEvent::DirState {
                                home: dst,
                                kind: msg.trace_kind(),
                                addr: msg.addr(),
                                state,
                                busy,
                            },
                        );
                    }
                }
                _ => {
                    // Forwards, responses, wakeup hints: the node-side
                    // handling ran in the wave; its effects apply here.
                    self.merge_node_trace(dst, out);
                    self.apply_effects(now, dst, std::mem::take(&mut out.effects));
                }
            }
        }
    }

    /// The livelock guards shared by the batch loop and `step_once`:
    /// max-cycles ceiling and the forward-progress watchdog.
    fn guards(&mut self, now: Cycle) -> Result<(), RunError> {
        if now >= self.config.max_cycles {
            return Err(self.livelock_error(now, self.config.max_cycles));
        }
        if now >= self.watchdog_next {
            let marker = self.progress_marker();
            if marker == self.watchdog_last {
                return Err(self.livelock_error(now, self.config.watchdog_window));
            }
            self.watchdog_last = marker;
            self.watchdog_next = now + self.config.watchdog_window;
        }
        Ok(())
    }

    /// Pop and dispatch one event. Returns `Ok(false)` once every node has
    /// retired, `Ok(true)` if more events remain, and a structured error on
    /// deadlock (drained queue), livelock (`max_cycles` exceeded), or a
    /// stalled forward-progress watchdog window. Used by the invariant-
    /// scanning runner; the plain run paths use the batched loop.
    fn step_once(&mut self) -> Result<bool, RunError> {
        if self.nodes_done >= self.nodes.len() {
            return Ok(false);
        }
        let Some((now, event)) = self.pop_guarded(|q| q.pop())? else {
            return Err(self.deadlock_error());
        };
        self.events_dispatched += 1;
        self.dispatch_event(now, event);
        Ok(true)
    }

    /// Monotone system-wide progress measure sampled by the watchdog:
    /// total commits plus retired nodes (so post-commit drain phases still
    /// count as progress). O(1): `apply_effects` maintains the commit total.
    fn progress_marker(&self) -> u64 {
        debug_assert_eq!(
            self.progress_commits,
            self.nodes
                .iter()
                .map(|n| n.htm.stats().commits.get())
                .sum::<u64>(),
            "running commit counter diverged from per-node stats"
        );
        self.progress_commits + self.nodes_done as u64
    }

    /// Render who-waits-on-whom over nacked lines, for failure diagnostics.
    /// Best-effort: built from each node's retry state and the nackers of
    /// its last failed episode (or its in-flight MSHR).
    fn nack_wait_for_graph(&self) -> String {
        let mut lines = Vec::new();
        for n in &self.nodes {
            if n.is_done() {
                continue;
            }
            if let Some(addr) = n.waiting_on() {
                let nackers: Vec<String> = n
                    .last_nackers()
                    .iter()
                    .map(|id| format!("node {}", id.0))
                    .collect();
                lines.push(format!(
                    "  node {} retries line {:#x}, last nacked by [{}]",
                    n.id.0,
                    addr.0,
                    nackers.join(", ")
                ));
            } else if let Some(mshr) = &n.mshr {
                lines.push(format!(
                    "  node {} blocked in-flight on line {:#x} ({} nacks so far)",
                    n.id.0,
                    mshr.addr.0,
                    mshr.nackers.len()
                ));
            }
        }
        if lines.is_empty() {
            "  (no node is waiting on a nacked line)".to_string()
        } else {
            lines.join("\n")
        }
    }

    fn deadlock_error(&self) -> RunError {
        RunError::Deadlock {
            workload: self.workload_name.clone(),
            seed: self.seed,
            cycle: self.last_cycle,
            unfinished_nodes: self
                .nodes
                .iter()
                .filter(|n| !n.is_done())
                .map(|n| n.id.0)
                .collect(),
            wait_for: self.nack_wait_for_graph(),
            trace: self.tracer.dump(),
        }
    }

    fn livelock_error(&self, now: Cycle, commit_window: u64) -> RunError {
        RunError::Livelock {
            workload: self.workload_name.clone(),
            seed: self.seed,
            cycles: now,
            commit_window,
            wait_for: self.nack_wait_for_graph(),
            trace: self.tracer.dump(),
        }
    }

    fn on_node_wake(&mut self, now: Cycle, node: NodeId, epoch: u64) {
        let idx = node.index();
        if self.nodes[idx].epoch != epoch || self.nodes[idx].is_done() {
            return; // stale wake (control flow was redirected by an abort)
        }
        if self.nodes[idx].phase != crate::node::Phase::Ready {
            return; // blocked on the MSHR; its completion will reschedule
        }
        // Forced-abort hook: detect a transaction beginning across this
        // step and (rate permitting) schedule an abort mid-transaction.
        let probe_begin = !self.fault.is_empty() && self.nodes[idx].htm.current().is_none();
        let eff = self.nodes[idx].step(now, &mut self.memory);
        if probe_begin && self.nodes[idx].htm.current().is_some() && self.fault.forced_abort() {
            let at = now + self.fault.forced_abort_delay();
            self.queue.schedule_at(
                at,
                Event::Fault {
                    kind: FaultKind::ForcedAbort,
                    node,
                    magnitude: 0,
                },
            );
        }
        self.drain_node_trace(node);
        self.apply_effects(now, node, eff);
    }

    fn on_net_step(&mut self, now: Cycle) {
        let mut delivered = std::mem::take(&mut self.delivery_scratch);
        self.network.step_into(now, &mut delivered);
        if self.network.is_idle() {
            self.net_step_armed = false;
        } else {
            self.queue.schedule_token(now + 1, Event::NetStep);
        }
        for (dst, msg) in delivered.drain(..) {
            self.emit(now, TraceChannel::Noc, || TraceEvent::NocDeliver {
                dst,
                vnet: msg.vnet().index() as u8,
                flits: msg.flits(),
            });
            self.deliver(now, dst, msg);
        }
        self.delivery_scratch = delivered;
    }

    fn deliver(&mut self, now: Cycle, dst: NodeId, msg: CoherenceMsg) {
        self.emit(now, TraceChannel::Coh, || TraceEvent::CohRecv {
            dst,
            kind: msg.trace_kind(),
            addr: msg.addr(),
        });
        match &msg {
            // Home-directory traffic.
            CoherenceMsg::Gets { .. }
            | CoherenceMsg::Getx { .. }
            | CoherenceMsg::Putx { .. }
            | CoherenceMsg::Puts { .. }
            | CoherenceMsg::Unblock { .. }
            | CoherenceMsg::WbData { .. } => {
                debug_assert_eq!(
                    dst,
                    puno_coherence::home_node(msg.addr(), self.config.nodes()),
                    "directory message delivered to a non-home node"
                );
                // The transition event needs the message identity after
                // `handle_into` consumes it; capture it only when traced.
                let dir_info = self
                    .trace_mask
                    .contains(TraceChannel::Dir)
                    .then(|| (msg.trace_kind(), msg.addr()));
                if let CoherenceMsg::Unblock {
                    addr,
                    mp_node: Some(mp),
                    ..
                } = &msg
                {
                    let (addr, mp) = (*addr, *mp);
                    self.emit(now, TraceChannel::Pred, || TraceEvent::PredMispredict {
                        home: dst,
                        addr,
                        node: mp,
                    });
                }
                let mut actions = std::mem::take(&mut self.dir_scratch);
                debug_assert!(actions.is_empty(), "dir scratch reentered");
                self.dirs[dst.index()].handle_into(
                    now,
                    msg,
                    &mut self.predictors[dst.index()],
                    &mut actions,
                );
                self.apply_dir_actions(now, dst, &mut actions);
                self.dir_scratch = actions;
                if let Some((kind, addr)) = dir_info {
                    let (state, busy) = self.dirs[dst.index()].trace_state(addr);
                    self.sink(
                        now,
                        &TraceEvent::DirState {
                            home: dst,
                            kind,
                            addr,
                            state,
                            busy,
                        },
                    );
                }
            }
            // Forwards to sharers/owners.
            CoherenceMsg::Inv { .. }
            | CoherenceMsg::FwdGets { .. }
            | CoherenceMsg::FwdGetx { .. } => {
                // Spurious-NACK hook: a conservative refusal is always
                // protocol-legal (the requester backs off and retries), so
                // a fault may downgrade a would-be Comply to a Nack.
                if !self.fault.is_empty() && self.fault.spurious_nack() {
                    self.nodes[dst.index()].arm_spurious_nack();
                }
                let eff = self.nodes[dst.index()].on_forward(now, &msg, &mut self.memory);
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
            // Responses to a requester (or WbAck to an evictor).
            CoherenceMsg::Data { .. }
            | CoherenceMsg::UpgradeAck { .. }
            | CoherenceMsg::Ack { .. }
            | CoherenceMsg::Nack { .. }
            | CoherenceMsg::WbAck { .. } => {
                let eff = self.nodes[dst.index()].on_response(now, &msg, &mut self.memory);
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
            // Extension: early end of a notified backoff.
            CoherenceMsg::WakeupHint { addr, .. } => {
                let eff = self.nodes[dst.index()].on_wakeup_hint(now, *addr);
                self.drain_node_trace(dst);
                self.apply_effects(now, dst, eff);
            }
        }
    }

    /// Apply and drain directory actions (the buffer is the caller's
    /// reusable scratch; it comes back empty).
    fn apply_dir_actions(&mut self, now: Cycle, home: NodeId, actions: &mut Vec<DirAction>) {
        for action in actions.drain(..) {
            match action {
                DirAction::Send { dst, msg, delay } => {
                    self.emit(now, TraceChannel::Dir, || TraceEvent::DirSend {
                        home,
                        dst,
                        kind: msg.trace_kind(),
                        addr: msg.addr(),
                        delay,
                    });
                    if matches!(
                        &msg,
                        CoherenceMsg::Inv { unicast: true, .. }
                            | CoherenceMsg::FwdGetx { unicast: true, .. }
                    ) {
                        self.emit(now, TraceChannel::Pred, || TraceEvent::PredUnicast {
                            home,
                            addr: msg.addr(),
                            target: dst,
                        });
                    }
                    if delay == 0 {
                        self.inject(now, home, dst, msg);
                    } else {
                        self.queue
                            .schedule_at(now + delay, Event::DirSend { home, dst, msg });
                    }
                }
                DirAction::FetchMem { addr, delay } => {
                    self.emit(now, TraceChannel::Dir, || TraceEvent::DirFetchMem {
                        home,
                        addr,
                        delay,
                    });
                    self.queue
                        .schedule_at(now + delay, Event::MemReady { home, addr });
                }
            }
        }
    }

    fn apply_effects(&mut self, now: Cycle, node: NodeId, eff: Effects) {
        for (dst, msg) in eff.sends {
            self.inject(now, node, dst, msg);
        }
        if let Some(at) = eff.wake_at {
            let epoch = self.nodes[node.index()].epoch;
            self.queue
                .schedule_at(at.max(now), Event::NodeWake { node, epoch });
        }
        if eff.committed {
            self.progress_commits += 1;
        }
        if eff.injected_nack {
            // Recorded at application time: the one-shot arm only counts
            // if it actually downgraded a Comply.
            self.fault.record_spurious_nack();
        }
        if let Some((nacked, aborted)) = eff.oracle_episode {
            self.oracle.record_episode(nacked, aborted);
        }
        if eff.finished {
            self.nodes_done += 1;
            self.finish_cycle = self.finish_cycle.max(now);
        }
    }

    /// Fault hook point: every protocol message passes through here before
    /// entering the network. With an empty plan this is a direct call to
    /// [`System::inject_now`] — no RNG is consulted, keeping fault-free
    /// runs bit-identical.
    fn inject(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: CoherenceMsg) {
        self.emit(now, TraceChannel::Coh, || TraceEvent::CohSend {
            src,
            dst,
            kind: msg.trace_kind(),
            addr: msg.addr(),
        });
        if !self.fault.is_empty() {
            let owed = std::mem::take(&mut self.pending_jitter[src.index()]);
            let delay = if owed > 0 {
                self.fault.record_jitter(owed);
                Some(owed)
            } else {
                self.fault.message_delay()
            };
            if let Some(stall) = self.fault.link_stall() {
                self.network.stall_links(now, src, stall);
            }
            if let Some(delay) = delay {
                self.queue
                    .schedule_at(now + delay, Event::FaultedInject { src, dst, msg });
                return;
            }
        }
        self.inject_now(now, src, dst, msg);
    }

    fn inject_now(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: CoherenceMsg) {
        let vnet = msg.vnet();
        let flits = msg.flits();
        self.emit(now, TraceChannel::Noc, || TraceEvent::NocInject {
            src,
            dst,
            vnet: vnet.index() as u8,
            flits,
        });
        self.network.inject(now, src, dst, vnet, flits, msg);
        if !self.net_step_armed {
            self.net_step_armed = true;
            self.queue.schedule_token(now + 1, Event::NetStep);
        }
    }

    /// Idle-step skipping, run between cycle batches: with the step token
    /// armed at `now + 1`, every network step before
    /// [`Network::next_wake`] is an exact no-op, so retime the token to the
    /// earliest of that wake, the next other scheduled event, the
    /// watchdog's next sampling cycle, the max-cycles ceiling, and the next
    /// ring-snapshot capture. The last three caps make the guards and the
    /// snapshot ring fire at exactly the cycles the every-cycle loop would
    /// visit. Because the target never passes another event, no batch runs
    /// inside a skipped stretch, and the token lands at the target with a
    /// seq above every event already queued there — the position the
    /// every-cycle loop's re-armed token would hold (DESIGN §13).
    fn advance_net_token(&mut self) {
        if self.nodes_done >= self.nodes.len() || !self.net_step_armed {
            return;
        }
        let Some(tc) = self.queue.token_cycle() else {
            return; // token dropped with the run already decided
        };
        debug_assert_eq!(
            tc,
            self.last_cycle + 1,
            "a busy batch ran without the token"
        );
        let mut target = self
            .network
            .next_wake()
            .min(self.queue.peek_cycle_ignoring_token().unwrap_or(Cycle::MAX))
            .min(self.watchdog_next)
            .min(self.config.max_cycles);
        if self.snapshot_every > 0 {
            target = target.min(self.next_snapshot_at);
        }
        if target > tc {
            self.skipped_net_cycles += target - tc;
            self.queue.retime_token(target);
        }
    }

    fn finalize(&mut self) -> RunMetrics {
        let mut htm = HtmStats::default();
        for n in &self.nodes {
            htm.merge(n.htm.stats());
        }
        let mut dir = puno_coherence::DirStats::default();
        for d in &self.dirs {
            dir.merge(d.stats());
        }
        let mut puno = PunoStats::default();
        for p in &self.predictors {
            if let PredictorImpl::Puno(pp) = p {
                puno.merge(pp.stats());
            }
        }
        RunMetrics::from_parts(
            &self.workload_name,
            self.config.mechanism.name(),
            self.seed,
            self.finish_cycle,
            htm,
            dir,
            self.network.stats(),
            self.network.link_stats().skew(),
            self.oracle.clone(),
            puno,
            self.fault.stats.clone(),
            crate::metrics::HostPerf {
                wall_secs: self.host_wall_secs,
                events_dispatched: self.events_dispatched,
                peak_queue_depth: self.peak_queue_depth as u64,
                noc_active_scan_ratio: self.network.active_scan_ratio(),
                quiesced_cycles: self.skipped_net_cycles,
                run_workers: self.run_threads as u64,
                par_waves: self.par_waves,
                worker_idle_frac: if self.par_span_ns > 0 {
                    let capacity = self.par_span_ns.saturating_mul(self.run_threads as u64);
                    (1.0 - self.par_busy_ns as f64 / capacity as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                ..Default::default()
            }
            .finish(self.finish_cycle),
            self.telemetry.as_ref().map(|t| t.report()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_workloads::micro;

    fn run(mechanism: Mechanism, params: &WorkloadParams, seed: u64) -> RunMetrics {
        let config = SystemConfig::paper(mechanism);
        System::new(config, params, seed).run()
    }

    #[test]
    fn private_workload_commits_everything_without_aborts() {
        let params = micro::private_only(20);
        let m = run(Mechanism::Baseline, &params, 1);
        assert_eq!(m.committed, 16 * 20);
        assert_eq!(m.htm.aborts.get(), 0);
        assert_eq!(m.oracle.false_abort_episodes, 0);
        assert!(m.cycles > 0);
    }

    #[test]
    fn counter_workload_is_serializable() {
        // Every committed transactional write is an increment; the final
        // memory values must sum to exactly the number of committed writes.
        let params = micro::counter(4, 25);
        let config = SystemConfig::paper(Mechanism::Baseline);
        let (metrics, memory) = System::new(config, &params, 3).run_full();
        assert_eq!(metrics.committed, 16 * 25);
        let total: u64 = (0..4).map(|i| memory.read(LineAddr(i))).sum();
        // Each committed counter transaction performs exactly one write.
        assert_eq!(total, 16 * 25, "lost or duplicated committed increments");
    }

    #[test]
    fn hotspot_baseline_exhibits_false_aborting() {
        let params = micro::hotspot(30);
        let m = run(Mechanism::Baseline, &params, 5);
        assert!(m.htm.aborts.get() > 0, "hotspot must conflict");
        assert!(
            m.oracle.false_abort_episodes > 0,
            "multicast under contention must produce false aborts"
        );
    }

    #[test]
    fn puno_reduces_aborts_on_hotspot() {
        let params = micro::hotspot(30);
        let base = run(Mechanism::Baseline, &params, 5);
        let puno = run(Mechanism::Puno, &params, 5);
        assert_eq!(base.committed, puno.committed, "same offered work");
        assert!(
            (puno.htm.aborts.get() as f64) < base.htm.aborts.get() as f64 * 0.9,
            "PUNO {} vs baseline {} aborts",
            puno.htm.aborts.get(),
            base.htm.aborts.get()
        );
        assert!(puno.puno.unicasts.get() > 0, "prediction must engage");
    }

    #[test]
    fn invariants_hold_throughout_a_contended_run() {
        // Scan single-writer/multi-reader + directory agreement every 64
        // events across the whole hotspot region.
        let params = micro::hotspot(10);
        let lines: Vec<LineAddr> = (0..8).map(LineAddr).collect();
        let config = SystemConfig::paper(Mechanism::Puno);
        let (metrics, _) = System::new(config, &params, 5).run_checked(&lines, 64);
        assert_eq!(metrics.committed, 16 * 10);
    }

    #[test]
    fn watchdog_trips_on_a_stalled_window() {
        // A watchdog window far below any commit latency must flag the run
        // as livelocked long before max_cycles, with diagnostics attached.
        let params = micro::hotspot(10);
        let mut config = SystemConfig::paper(Mechanism::Baseline);
        config.watchdog_window = 5;
        let err = System::new(config, &params, 1)
            .try_run()
            .expect_err("a 5-cycle progress window cannot be met");
        match &err {
            crate::error::RunError::Livelock {
                cycles,
                commit_window,
                wait_for,
                ..
            } => {
                assert!(*cycles < config.max_cycles, "watchdog must fire first");
                assert_eq!(*commit_window, 5);
                assert!(!wait_for.is_empty(), "wait-for graph must be rendered");
            }
            other => panic!("expected Livelock, got {other:?}"),
        }
        assert_eq!(err.kind(), "livelock");
        assert!(err.to_string().contains("wait-for graph"));
    }

    #[test]
    fn max_cycles_guard_reports_structured_livelock() {
        let params = micro::hotspot(10);
        let mut config = SystemConfig::paper(Mechanism::Baseline);
        config.max_cycles = 50;
        config.watchdog_window = 1_000_000;
        let err = System::new(config, &params, 1)
            .try_run()
            .expect_err("50 cycles cannot complete a hotspot run");
        assert_eq!(err.kind(), "livelock");
    }

    #[test]
    fn healthy_runs_pass_the_default_watchdog() {
        let params = micro::hotspot(10);
        let config = SystemConfig::paper(Mechanism::Puno);
        let m = System::new(config, &params, 5)
            .try_run()
            .expect("default watchdog must not false-trip");
        assert_eq!(m.committed, 16 * 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let params = micro::hotspot(10);
        let a = run(Mechanism::Puno, &params, 9);
        let b = run(Mechanism::Puno, &params, 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.htm.aborts.get(), b.htm.aborts.get());
        assert_eq!(a.traffic_router_traversals, b.traffic_router_traversals);
    }

    #[test]
    fn shared_programs_match_per_cell_generation() {
        let params = micro::hotspot(10);
        let config = SystemConfig::paper(Mechanism::Puno);
        let programs = ProgramSet::generate(&params, config.nodes(), 9);
        let shared = System::new_shared(config, &params, 9, &programs).run();
        let fresh = run(Mechanism::Puno, &params, 9);
        assert_eq!(
            serde_json::to_string(&shared.deterministic()).unwrap(),
            serde_json::to_string(&fresh.deterministic()).unwrap(),
            "shared-program run must be bit-identical"
        );
    }

    #[test]
    fn recycled_system_is_bit_identical_to_fresh() {
        let hot = micro::hotspot(10);
        let quiet = micro::private_only(5);
        let fresh: Vec<String> = [
            (Mechanism::Baseline, &hot, 5u64),
            (Mechanism::Puno, &hot, 5),
            (Mechanism::Puno, &quiet, 7),
        ]
        .into_iter()
        .map(|(mech, params, seed)| {
            let m = run(mech, params, seed);
            serde_json::to_string(&m.deterministic()).unwrap()
        })
        .collect();

        // One system recycled across all three cells (workload, mechanism,
        // and seed all change between resets).
        let mk = |mech, params: &WorkloadParams, seed| {
            (
                SystemConfig::paper(mech),
                ProgramSet::generate(params, SystemConfig::paper(mech).nodes(), seed),
            )
        };
        let (c0, p0) = mk(Mechanism::Baseline, &hot, 5);
        let mut sys = System::new_shared(c0, &hot, 5, &p0);
        let m0 = sys.try_run_recycled().unwrap();
        let (c1, p1) = mk(Mechanism::Puno, &hot, 5);
        sys.reset(c1, &hot, 5, &p1);
        let m1 = sys.try_run_recycled().unwrap();
        let (c2, p2) = mk(Mechanism::Puno, &quiet, 7);
        sys.reset(c2, &quiet, 7, &p2);
        let m2 = sys.try_run_recycled().unwrap();

        for (i, (got, want)) in [m0, m1, m2].iter().zip(&fresh).enumerate() {
            assert_eq!(
                &serde_json::to_string(&got.deterministic()).unwrap(),
                want,
                "recycled cell {i} diverged from fresh construction"
            );
        }
    }
}
