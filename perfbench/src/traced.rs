//! The traced run: splits host time across the simulator's layers, timing
//! the calls into each layer from outside, and counts the work each did.
//!
//! Every simulated cell runs directly three ways: untraced (the host time
//! to split), with a ring tracer carrying only the NoC channel, and as a
//! replay of that trace's injections through a standalone `Network`, whose
//! `inject` and `step_into` calls are timed. The replay stands in for the
//! simulator's NoC layer: it must reproduce the cell's packet, flit and
//! router-traversal counts.

use crate::cells::{det_digest, Ledger, Workload};
use crate::timed::{
    cached_sweep, copy_dir, fill_cache, generate_inputs, prepare_system, CachedSweep, Inputs,
};
use crate::{metric, Metric};
use puno_coherence::DirStats;
use puno_core::PunoStats;
use puno_harness::sweep::effective_workers;
use puno_harness::{RunMetrics, System, SystemConfig};
use puno_htm::HtmStats;
use puno_noc::{Network, VirtualNetwork};
use puno_sim::{ChannelMask, Cycle, NodeId, TraceChannel, TraceEvent, Tracer};
use std::path::Path;
use std::time::Instant;

/// In-memory spans, written out once when the run ends.
struct Spans {
    t0: Instant,
    spans: Vec<(String, f64, f64, Option<usize>)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: String, parent: Option<usize>) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push((name, now, now, parent));
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.2 = self.t0.elapsed().as_secs_f64();
        span.2 - span.1
    }

    fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, (name, start, end, parent))| {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"parent\": {parent}, \"start_s\": {start}, \"end_s\": {end}}}",
                    crate::json_str(name)
                )
            })
            .collect();
        let text = format!("{{{header}, \"spans\": [\n{}\n]}}\n", rows.join(",\n"));
        std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
    }
}

/// What the NoC replay of one cell measured.
#[derive(Default)]
struct Replay {
    replay_s: f64,
    inject_s: f64,
    step_s: f64,
    step_calls: u64,
    packets: u64,
    delivered: u64,
    flits: u64,
    traversals: u64,
    /// Router visits arbitration made (scan ratio x steps x routers).
    visits: f64,
    latency_sum: f64,
    /// Delivered packets and router traversals before the step in the
    /// cell's final cycle.
    before_last_step: Option<(u64, u64)>,
}

/// Sums over every directly run cell.
#[derive(Default)]
struct Totals {
    generate_s: f64,
    construct_s: f64,
    run_s: f64,
    traced_run_s: f64,
    events: u64,
    peak_queue_depth: u64,
    express_packets: u64,
    noc: Replay,
    routers_x_steps: f64,
    dir: DirStats,
    htm: HtmStats,
    puno: PunoStats,
    tx_getx_episodes: u64,
    false_abort_episodes: u64,
}

/// Sweep- and cache-layer figures.
#[derive(Default)]
struct SweepLayer {
    wall_s: f64,
    cell_sum_s: f64,
    workers: u64,
    prefix_forks: u64,
    open_s: f64,
    entries: u64,
    bytes: u64,
    hits: u64,
    stores: u64,
    skipped: u64,
    replay_s: f64,
}

impl SweepLayer {
    fn add(&mut self, s: &CachedSweep, cells: usize, dir: &Path) {
        self.wall_s += s.sweep_s;
        self.open_s += s.open_s;
        self.workers = effective_workers(cells) as u64;
        // A hit's host block is the stored one, so only cells simulated in
        // this sweep count as sweep work.
        if s.stats.hits == 0 {
            let simulated = s.outcomes.iter().filter_map(|o| o.metrics());
            for m in simulated {
                self.cell_sum_s += m.host.wall_secs;
                self.prefix_forks += m.host.prefix_forks;
            }
        }
        self.entries = s.stats.entries;
        self.bytes = std::fs::metadata(dir.join("results.jsonl")).map_or(0, |m| m.len());
        self.hits += s.stats.hits;
        self.stores += s.stats.stores;
        // Records the open skipped as corrupt or from another engine version.
        self.skipped += s.stats.corrupt_skipped + s.stats.stale_skipped;
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    work: &Path,
    spans_path: &Path,
    host: &str,
) -> Result<(Ledger, Vec<Metric>), String> {
    let mut spans = Spans::new();
    let mut ledger = Ledger::default();
    let mut totals = Totals::default();
    let mut layer = SweepLayer::default();
    let top = spans.open(format!("traced {}", workload.name()), None);
    match workload {
        Workload::PaperGrid | Workload::Mesh8Hc => {
            // One seed: enough to split the time, and every cell of it runs.
            let seed = workload.seeds(seed)[0];
            let g = spans.open("generate".into(), Some(top));
            let inputs = generate_inputs(workload, &[seed], &mut ledger);
            totals.generate_s = spans.close(g);
            if workload == Workload::PaperGrid {
                let dir = work.join("grid");
                let s = spans.open("sweep".into(), Some(top));
                let sweep = cached_sweep(workload, seed, &dir, false, &mut ledger)?;
                spans.close(s);
                layer.add(&sweep, workload.cells(), &dir);
            }
            direct_cells(
                workload,
                seed,
                &inputs,
                &mut ledger,
                &mut totals,
                &mut spans,
                top,
            );
        }
        Workload::CacheReplay => {
            let seeds = workload.seeds(seed);
            let g = spans.open("generate".into(), Some(top));
            generate_inputs(workload, &seeds, &mut ledger);
            totals.generate_s = spans.close(g);
            let filled = work.join("filled");
            let f = spans.open("cache fill".into(), Some(top));
            fill_cache(workload, &seeds, &filled, &mut ledger)?;
            spans.close(f);
            layer.stores = (seeds.len() * workload.cells()) as u64;
            let dir = work.join("replay");
            copy_dir(&filled, &dir)?;
            let r = spans.open("cache replay".into(), Some(top));
            for &s in &seeds {
                let id = spans.open(format!("replay seed {s}"), Some(r));
                let sweep = cached_sweep(workload, s, &dir, true, &mut ledger)?;
                spans.close(id);
                layer.add(&sweep, workload.cells(), &dir);
            }
            layer.replay_s = spans.close(r);
        }
    }
    spans.close(top);
    let header = format!(
        "\"workload\": {}, \"seed\": {seed}, \"host\": {}",
        crate::json_str(workload.name()),
        crate::json_str(host)
    );
    spans.write(spans_path, &header)?;
    Ok((ledger, layer_metrics(&totals, &layer)))
}

/// Run every cell of `seed` untraced, traced, and as a NoC replay.
fn direct_cells(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    ledger: &mut Ledger,
    totals: &mut Totals,
    spans: &mut Spans,
    top: usize,
) {
    let mut sys: Option<System> = None;
    for &w in workload.workloads() {
        let params = w.params().scaled(workload.scale());
        let programs = &inputs[&(seed, w)];
        for &mech in workload.mechanisms() {
            let config = (workload.config())(mech);
            let cell = spans.open(format!("cell {} {}", w.name(), mech.name()), Some(top));
            let c = spans.open("construct".into(), Some(cell));
            let s = prepare_system(&mut sys, config, &params, seed, programs);
            totals.construct_s += spans.close(c);
            let r = spans.open("run".into(), Some(cell));
            let result = s.try_run_recycled();
            totals.run_s += spans.close(r);
            let verdict = result.map_err(|e| format!("{e:?}")).and_then(|m| {
                let flits = m.traffic_flits_injected as usize;
                let s = prepare_system(&mut sys, config, &params, seed, programs);
                // Each packet leaves one inject and one deliver record,
                // and a packet has at least one flit.
                s.install_tracer(Tracer::ring(
                    ChannelMask::NONE.with(TraceChannel::Noc),
                    2 * flits + 64,
                ));
                let t = spans.open("run traced".into(), Some(cell));
                let traced = s
                    .try_run_recycled()
                    .map_err(|e| format!("traced run: {e:?}"))?;
                totals.traced_run_s += spans.close(t);
                if det_digest(&traced) != det_digest(&m) {
                    return Err("tracing changed the simulated metrics".into());
                }
                let ring = s.tracer().ring_ref();
                if ring.dropped() != 0 {
                    return Err(format!("trace ring dropped {} records", ring.dropped()));
                }
                let records: Vec<(Cycle, TraceEvent)> = ring.records().copied().collect();
                let n = spans.open("noc replay".into(), Some(cell));
                let replay = replay_noc(&config, &records, m.cycles);
                spans.close(n);
                check_replay(&replay, &records, &m)?;
                totals.add(&m, &replay, config.mesh.nodes());
                Ok(m)
            });
            spans.close(cell);
            ledger.record(seed, w, mech, verdict.as_ref().map_err(Clone::clone), false);
        }
    }
}

/// Feed the recorded injections through a fresh `Network` at their
/// recorded cycles, stepping it every cycle it holds a packet, up to the
/// cell's final cycle. A step due in the cycle of an injection runs first.
fn replay_noc(config: &SystemConfig, records: &[(Cycle, TraceEvent)], last_cycle: Cycle) -> Replay {
    const VNETS: [VirtualNetwork; 3] = [
        VirtualNetwork::Request,
        VirtualNetwork::Forward,
        VirtualNetwork::Response,
    ];
    let injects: Vec<(Cycle, NodeId, NodeId, VirtualNetwork, u32)> = records
        .iter()
        .filter_map(|&(cycle, ev)| match ev {
            TraceEvent::NocInject {
                src,
                dst,
                vnet,
                flits,
            } => Some((cycle, src, dst, VNETS[vnet as usize], flits)),
            _ => None,
        })
        .collect();
    let mut net: Network<()> = Network::new(config.mesh, config.noc);
    let mut out = Vec::new();
    let mut r = Replay::default();
    let mut next = 0;
    let mut next_step: Option<Cycle> = None;
    let start = Instant::now();
    loop {
        let due = injects.get(next).map(|i| i.0);
        let step = match (next_step, due) {
            (Some(s), Some(c)) => (s <= c).then_some(s),
            (Some(s), None) => Some(s),
            (None, Some(_)) => None,
            (None, None) => break,
        };
        if let Some(s) = step {
            if s > last_cycle {
                break;
            }
            if s == last_cycle {
                let stats = net.stats();
                r.before_last_step = Some((stats.packets_delivered(), stats.router_traversals()));
            }
            let t = Instant::now();
            net.step_into(s, &mut out);
            r.step_s += t.elapsed().as_secs_f64();
            r.step_calls += 1;
            next_step = (!net.is_idle()).then_some(s + 1);
        } else if let Some(c) = due {
            let t = Instant::now();
            while let Some(&(cycle, src, dst, vnet, flits)) = injects.get(next).filter(|i| i.0 == c)
            {
                net.inject(cycle, src, dst, vnet, flits, ());
                next += 1;
            }
            r.inject_s += t.elapsed().as_secs_f64();
            next_step.get_or_insert(c + 1);
        }
    }
    r.replay_s = start.elapsed().as_secs_f64();
    let stats = net.stats();
    r.packets = stats.packets_injected();
    r.delivered = stats.packets_delivered();
    r.flits = stats.flits_injected();
    r.traversals = stats.router_traversals();
    r.visits = net.active_scan_ratio() * (r.step_calls * config.mesh.nodes() as u64) as f64;
    r.latency_sum = stats.mean_latency() * r.delivered as f64;
    r
}

/// The run stops as soon as its last node finishes, which may come before
/// or after the network step in that cycle; the trace does not say which,
/// so the replay's counts must match the state after that step or before it.
fn check_replay(r: &Replay, records: &[(Cycle, TraceEvent)], m: &RunMetrics) -> Result<(), String> {
    let delivered = records
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::NocDeliver { .. }))
        .count() as u64;
    if r.flits != m.traffic_flits_injected {
        return Err(format!(
            "NoC replay injected {} flits, the cell {}",
            r.flits, m.traffic_flits_injected
        ));
    }
    let cell = (delivered, m.traffic_router_traversals);
    if (r.delivered, r.traversals) != cell && r.before_last_step != Some(cell) {
        return Err(format!(
            "NoC replay delivered {} packets over {} router traversals, the cell {} over {}",
            r.delivered, r.traversals, cell.0, cell.1
        ));
    }
    Ok(())
}

impl Totals {
    fn add(&mut self, m: &RunMetrics, r: &Replay, routers: usize) {
        self.events += m.host.events_dispatched;
        self.peak_queue_depth = self.peak_queue_depth.max(m.host.peak_queue_depth);
        self.express_packets += m.host.express_packets;
        self.noc.replay_s += r.replay_s;
        self.noc.inject_s += r.inject_s;
        self.noc.step_s += r.step_s;
        self.noc.step_calls += r.step_calls;
        self.noc.packets += r.packets;
        self.noc.delivered += r.delivered;
        self.noc.flits += r.flits;
        self.noc.traversals += r.traversals;
        self.noc.visits += r.visits;
        self.noc.latency_sum += r.latency_sum;
        self.routers_x_steps += (r.step_calls * routers as u64) as f64;
        self.dir.merge(&m.dir);
        self.htm.merge(&m.htm);
        self.puno.merge(&m.puno);
        self.tx_getx_episodes += m.oracle.tx_getx_episodes;
        self.false_abort_episodes += m.oracle.false_abort_episodes;
    }
}

/// `a / b`, or 0 when nothing was measured (a layer the workload bypasses).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn layer_metrics(t: &Totals, l: &SweepLayer) -> Vec<Metric> {
    let n = &t.noc;
    let htm = &t.htm;
    let (good, discarded) = (
        htm.good_cycles.get() as f64,
        htm.discarded_cycles.get() as f64,
    );
    let dir = &t.dir;
    let requests = dir.gets_received.get() + dir.getx_received.get() + dir.putx_received.get();
    vec![
        metric("workloads.generate_s", t.generate_s, "s"),
        metric("sim.events", t.events as f64, "count"),
        metric("sim.events_per_s", ratio(t.events as f64, t.run_s), "1/s"),
        metric("sim.peak_queue_depth", t.peak_queue_depth as f64, "count"),
        metric("system.construct_s", t.construct_s, "s"),
        metric("system.run_s", t.run_s, "s"),
        metric("system.non_noc_s", t.run_s - n.replay_s, "s"),
        metric(
            "system.trace_overhead_frac",
            ratio(t.traced_run_s - t.run_s, t.run_s),
            "frac",
        ),
        metric("noc.replay_s", n.replay_s, "s"),
        metric("noc.share", ratio(n.replay_s, t.run_s), "frac"),
        metric("noc.step_calls", n.step_calls as f64, "count"),
        metric(
            "noc.step_ns",
            ratio(n.step_s * 1e9, n.step_calls as f64),
            "ns",
        ),
        metric("noc.inject_s", n.inject_s, "s"),
        metric("noc.packets", n.packets as f64, "count"),
        metric("noc.flits", n.flits as f64, "count"),
        metric("noc.router_traversals", n.traversals as f64, "count"),
        metric(
            "noc.active_scan_ratio",
            ratio(n.visits, t.routers_x_steps),
            "frac",
        ),
        metric(
            "noc.traversals_per_visit",
            ratio(n.traversals as f64, n.visits),
            "count",
        ),
        metric("noc.express_packets", t.express_packets as f64, "count"),
        metric(
            "noc.mean_latency",
            ratio(n.latency_sum, n.delivered as f64),
            "cycles",
        ),
        metric("coherence.requests", requests as f64, "count"),
        metric(
            "coherence.invalidations",
            dir.invalidations_sent.get() as f64,
            "count",
        ),
        metric(
            "coherence.mem_fetches",
            dir.mem_fetches.get() as f64,
            "count",
        ),
        metric(
            "coherence.blocking_cycles_per_tx_getx",
            dir.blocking_cycles_tx_getx.mean(),
            "cycles",
        ),
        metric("htm.commits", htm.commits.get() as f64, "count"),
        metric(
            "htm.aborts_per_commit",
            ratio(htm.aborts.get() as f64, htm.commits.get() as f64),
            "count",
        ),
        metric(
            "htm.nacks_received",
            htm.nacks_received.get() as f64,
            "count",
        ),
        metric("htm.useful_frac", ratio(good, good + discarded), "frac"),
        metric(
            "htm.false_abort_frac",
            ratio(t.false_abort_episodes as f64, t.tx_getx_episodes as f64),
            "frac",
        ),
        metric("core.unicasts", t.puno.unicasts.get() as f64, "count"),
        metric(
            "core.accuracy",
            ratio(
                (t.puno.unicasts.get() - t.puno.mispredictions.get()) as f64,
                t.puno.unicasts.get() as f64,
            ),
            "frac",
        ),
        metric(
            "core.notifications",
            htm.notifications_sent.get() as f64,
            "count",
        ),
        metric("sweep.wall_s", l.wall_s, "s"),
        metric("sweep.cell_sum_s", l.cell_sum_s, "s"),
        metric("sweep.workers", l.workers as f64, "count"),
        metric(
            "sweep.efficiency",
            ratio(l.cell_sum_s, l.wall_s * l.workers as f64),
            "frac",
        ),
        metric(
            "sweep.overhead_s",
            l.wall_s - ratio(l.cell_sum_s, l.workers as f64),
            "s",
        ),
        metric("sweep.prefix_forks", l.prefix_forks as f64, "count"),
        metric("cache.open_s", l.open_s, "s"),
        metric("cache.entries", l.entries as f64, "count"),
        metric("cache.bytes", l.bytes as f64, "bytes"),
        metric("cache.hits", l.hits as f64, "count"),
        metric("cache.stores", l.stores as f64, "count"),
        metric("cache.skipped", l.skipped as f64, "count"),
        metric("cache.replay_s", l.replay_s, "s"),
    ]
}
