//! Differential test: `Network` against a naive reference stepper.
//!
//! The reference below is the switch allocator written the obvious way:
//! every cycle it drains every NI queue, then visits every router in
//! `0..n`, every output port, and every (input port, vnet) candidate in
//! round-robin order, calling `Mesh::route_xy` on each head. `Network`
//! gets the same answers with cached routes, inline FIFO head state, a
//! router wake calendar and per-port eligibility masks; this file checks
//! that claim cycle by cycle under seeded traffic (uniform, hotspot with
//! credit saturation at several buffer sizes, `stall_links` bursts, and
//! stacked stalls many times the calendar's 64-cycle horizon) on square
//! and non-square meshes, including ones whose router masks span several
//! 64-bit words (9x9 leaves the last word partly empty), and on networks
//! recycled by `reset` in mid-flight.
//!
//! Each scenario drives three networks: the reference, `Network` stepped
//! every cycle, and `Network` stepped only when `next_wake` (or an
//! injection or stall in that cycle) says a step can do anything — the
//! schedule the system run loop uses. Deliveries, `TrafficStats` and
//! `LinkStats` must agree, and so must a follow-up probe burst, which
//! exposes any difference in round-robin pointers or link horizons.

use puno_noc::topology::Port;
use puno_noc::{
    LinkStats, Mesh, Network, NocConfig, Packet, TrafficStats, VirtualNetwork, CONTROL_FLITS,
    DATA_FLITS,
};
use puno_sim::{Cycle, Cycles, NodeId, SimRng};
use std::collections::VecDeque;

const CANDIDATES: usize = 5 * VirtualNetwork::COUNT;

fn opposite(port: Port) -> Port {
    match port {
        Port::East => Port::West,
        Port::West => Port::East,
        Port::North => Port::South,
        Port::South => Port::North,
        Port::Local => Port::Local,
    }
}

/// An input FIFO of `(ready_at, packet)` entries.
type Fifo = VecDeque<(Cycle, Packet<u32>)>;

struct RefRouter {
    /// `inputs[port][vnet]`.
    inputs: Vec<Vec<Fifo>>,
    occupied: [[u32; 3]; 5],
    link_busy_until: [Cycle; 5],
    rr_pointer: [usize; 5],
}

/// The reference stepper: full scans, no caching, no skipping.
struct RefNet {
    mesh: Mesh,
    config: NocConfig,
    routers: Vec<RefRouter>,
    inject_queues: Vec<Vec<VecDeque<Packet<u32>>>>,
    deliveries: Vec<(Cycle, NodeId, Packet<u32>)>,
    stats: TrafficStats,
    link_stats: LinkStats,
    next_id: u64,
    in_network: usize,
}

impl RefNet {
    fn new(mesh: Mesh, config: NocConfig) -> Self {
        let n = mesh.nodes();
        Self {
            mesh,
            config,
            routers: (0..n)
                .map(|_| RefRouter {
                    inputs: (0..5)
                        .map(|_| (0..3).map(|_| VecDeque::new()).collect())
                        .collect(),
                    occupied: [[0; 3]; 5],
                    link_busy_until: [0; 5],
                    rr_pointer: [0; 5],
                })
                .collect(),
            inject_queues: (0..n)
                .map(|_| (0..3).map(|_| VecDeque::new()).collect())
                .collect(),
            deliveries: Vec::new(),
            stats: TrafficStats::default(),
            link_stats: LinkStats::new(mesh),
            next_id: 0,
            in_network: 0,
        }
    }

    fn inject(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        flits: u32,
        payload: u32,
    ) {
        let packet = Packet {
            id: self.next_id,
            src,
            dst,
            vnet,
            flits,
            injected_at: now,
            payload,
        };
        self.next_id += 1;
        self.stats.record_injection(vnet, flits);
        self.in_network += 1;
        self.inject_queues[src.index()][vnet.index()].push_back(packet);
    }

    fn stall_links(&mut self, now: Cycle, node: NodeId, cycles: Cycles) {
        for slot in &mut self.routers[node.index()].link_busy_until {
            *slot = (*slot).max(now + cycles);
        }
    }

    fn step(&mut self, now: Cycle) -> Vec<(NodeId, u32)> {
        let n = self.mesh.nodes();
        let cap = self.config.buffer_flits;
        let p = self.config.pipeline_depth as Cycle;
        for r in 0..n {
            for v in 0..3 {
                while let Some(front) = self.inject_queues[r][v].front() {
                    if cap - self.routers[r].occupied[0][v] < front.flits {
                        break;
                    }
                    let packet = self.inject_queues[r][v].pop_front().unwrap();
                    self.routers[r].occupied[0][v] += packet.flits;
                    self.routers[r].inputs[0][v].push_back((now + p - 1, packet));
                }
            }
        }
        for r in 0..n {
            let here = NodeId(r as u16);
            for out in Port::ALL {
                let o = out.index();
                if self.routers[r].link_busy_until[o] > now {
                    continue;
                }
                let start = self.routers[r].rr_pointer[o];
                let mut winner = None;
                for k in 0..CANDIDATES {
                    let idx = (start + k) % CANDIDATES;
                    let (in_port, v) = (idx / 3, idx % 3);
                    let Some((ready_at, head)) = self.routers[r].inputs[in_port][v].front() else {
                        continue;
                    };
                    if *ready_at > now || self.mesh.route_xy(here, head.dst) != out {
                        continue;
                    }
                    if out != Port::Local {
                        let next = self.mesh.neighbor(here, out).unwrap().index();
                        let back = opposite(out).index();
                        if cap - self.routers[next].occupied[back][v] < head.flits {
                            continue;
                        }
                    }
                    winner = Some(idx);
                    break;
                }
                let Some(idx) = winner else { continue };
                let (in_port, v) = (idx / 3, idx % 3);
                let router = &mut self.routers[r];
                router.rr_pointer[o] = (idx + 1) % CANDIDATES;
                let (_, packet) = router.inputs[in_port][v].pop_front().unwrap();
                router.occupied[in_port][v] -= packet.flits;
                router.link_busy_until[o] = now + packet.flits as Cycle;
                self.stats.record_traversal(packet.vnet, packet.flits);
                self.link_stats.record(here, out, packet.flits);
                if out == Port::Local {
                    self.deliveries
                        .push((now + packet.flits as Cycle, here, packet));
                } else {
                    let next = self.mesh.neighbor(here, out).unwrap().index();
                    let back = opposite(out).index();
                    let ready_at = now + packet.flits as Cycle + p - 1;
                    self.routers[next].occupied[back][v] += packet.flits;
                    self.routers[next].inputs[back][v].push_back((ready_at, packet));
                }
            }
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.deliveries.len() {
            if self.deliveries[i].0 <= now {
                let (_, node, packet) = self.deliveries.remove(i);
                self.stats.record_delivery(now - packet.injected_at);
                self.in_network -= 1;
                out.push((node, packet.payload));
            } else {
                i += 1;
            }
        }
        out.sort_by_key(|(node, _)| node.0);
        out
    }
}

/// What happens at one cycle, before that cycle's network step.
#[derive(Clone, Copy)]
enum Action {
    Inject {
        src: u16,
        dst: u16,
        vnet: VirtualNetwork,
        flits: u32,
        payload: u32,
    },
    Stall {
        node: u16,
        cycles: Cycles,
    },
}

type Plan = Vec<(Cycle, Action)>;
type Trace = Vec<(Cycle, NodeId, u32)>;

/// The three networks under comparison, driven in lockstep.
struct Trio {
    reference: RefNet,
    every: Network<u32>,
    skipping: Network<u32>,
    /// Cycles stepped by the reference, and by the skipping network.
    cycles: u64,
    skipping_steps: u64,
}

impl Trio {
    fn new(mesh: Mesh, config: NocConfig) -> Self {
        Self::with(
            mesh,
            config,
            Network::new(mesh, config),
            Network::new(mesh, config),
        )
    }

    /// A trio whose two `Network`s are given (e.g. recycled by `reset`).
    fn with(mesh: Mesh, config: NocConfig, every: Network<u32>, skipping: Network<u32>) -> Self {
        Self {
            reference: RefNet::new(mesh, config),
            every,
            skipping,
            cycles: 0,
            skipping_steps: 0,
        }
    }

    fn apply(&mut self, now: Cycle, action: Action) {
        match action {
            Action::Inject {
                src,
                dst,
                vnet,
                flits,
                payload,
            } => {
                let (src, dst) = (NodeId(src), NodeId(dst));
                self.reference.inject(now, src, dst, vnet, flits, payload);
                self.every.inject(now, src, dst, vnet, flits, payload);
                self.skipping.inject(now, src, dst, vnet, flits, payload);
            }
            Action::Stall { node, cycles } => {
                self.reference.stall_links(now, NodeId(node), cycles);
                self.every.stall_links(now, NodeId(node), cycles);
                self.skipping.stall_links(now, NodeId(node), cycles);
            }
        }
    }

    /// Play `plan` from cycle `from`, then keep stepping until all three
    /// drain. Returns the reference's delivery trace.
    fn play(&mut self, plan: &[(Cycle, Action)], from: Cycle, label: &str) -> Trace {
        let mut trace = Vec::new();
        let mut out = Vec::new();
        let mut cursor = 0;
        let mut now = from;
        // The skipping network's next step: the first cycle with an action,
        // or its own wake bound, whichever is earlier.
        let mut skip_next = from;
        loop {
            let mut acted = false;
            while cursor < plan.len() && plan[cursor].0 == now {
                self.apply(now, plan[cursor].1);
                cursor += 1;
                acted = true;
            }
            let want = self.reference.step(now);
            self.cycles += 1;
            self.every.step_into(now, &mut out);
            assert_eq!(
                out, want,
                "{label}: every-cycle Network diverged at cycle {now}"
            );
            if acted || now >= skip_next {
                self.skipping.step_into(now, &mut out);
                self.skipping_steps += 1;
                skip_next = self.skipping.next_wake();
                assert!(
                    skip_next > now,
                    "{label}: next_wake {skip_next} not after {now}"
                );
            } else {
                out.clear();
            }
            assert_eq!(
                out, want,
                "{label}: skipping Network diverged at cycle {now}"
            );
            trace.extend(want.iter().map(|&(node, payload)| (now, node, payload)));
            if cursor == plan.len() && self.reference.in_network == 0 {
                assert!(self.every.is_idle() && self.skipping.is_idle(), "{label}");
                return trace;
            }
            now += 1;
            assert!(now < from + 1_000_000, "{label}: network did not drain");
        }
    }

    fn assert_stats_agree(&self, label: &str) {
        let want = format!("{:?}", self.reference.stats);
        assert_eq!(
            format!("{:?}", self.every.stats()),
            want,
            "{label}: traffic stats"
        );
        assert_eq!(
            format!("{:?}", self.skipping.stats()),
            want,
            "{label}: traffic stats"
        );
        let want = format!("{:?}", self.reference.link_stats);
        assert_eq!(
            format!("{:?}", self.every.link_stats()),
            want,
            "{label}: link stats"
        );
        assert_eq!(
            format!("{:?}", self.skipping.link_stats()),
            want,
            "{label}: link stats"
        );
    }
}

/// A burst from every node at once — many packets contending at every
/// router — whose outcome depends on the round-robin pointers and link
/// horizons the scenario left behind.
fn probe_burst(mesh: Mesh, at: Cycle) -> Plan {
    let n = mesh.nodes() as u16;
    let mut plan = Vec::new();
    for i in 0..n {
        plan.push((
            at,
            Action::Inject {
                src: i,
                dst: (i * 7 + 3) % n,
                vnet: VirtualNetwork::Request,
                flits: CONTROL_FLITS,
                payload: 10_000 + i as u32,
            },
        ));
        plan.push((
            at,
            Action::Inject {
                src: (i * 5 + 1) % n,
                dst: (i * 11 + 2) % n,
                vnet: VirtualNetwork::Response,
                flits: DATA_FLITS,
                payload: 20_000 + i as u32,
            },
        ));
    }
    plan
}

/// Run `plan`, stall links right before the probe so it meets both fresh
/// and expired horizons, then run the probe burst; every step compared.
fn check(mesh: Mesh, config: NocConfig, plan: &Plan, label: &str) -> Trio {
    check_trio(Trio::new(mesh, config), mesh, plan, label)
}

fn check_trio(mut trio: Trio, mesh: Mesh, plan: &Plan, label: &str) -> Trio {
    let first = trio.play(plan, 0, label);
    assert!(!first.is_empty(), "{label}: scenario delivered nothing");
    trio.assert_stats_agree(label);
    let end = first.last().map_or(0, |d| d.0) + 1;
    let mut probe = vec![(end, Action::Stall { node: 0, cycles: 7 })];
    probe.extend(probe_burst(mesh, end + 2));
    let probed = trio.play(&probe, end, label);
    assert_eq!(
        probed.len(),
        2 * mesh.nodes(),
        "{label}: probe lost packets"
    );
    trio.assert_stats_agree(label);
    trio
}

fn meshes() -> [Mesh; 3] {
    [Mesh::new(4, 4), Mesh::new(8, 8), Mesh::new(3, 5)]
}

/// Meshes of more than 64 routers: 9x9 leaves its last mask word partly
/// empty, 16x16 fills four.
fn large_meshes() -> [Mesh; 2] {
    [Mesh::new(9, 9), Mesh::new(16, 16)]
}

/// `count` uniformly random packets injected over `window` cycles.
fn uniform_plan(rng: &mut SimRng, n: u64, count: u32, window: u64) -> Plan {
    let mut plan: Plan = (0..count)
        .map(|i| (rng.gen_range(window), random_packet(rng, n, i).2))
        .collect();
    plan.sort_by_key(|a| a.0);
    plan
}

fn random_packet(rng: &mut SimRng, n: u64, payload: u32) -> (VirtualNetwork, u32, Action) {
    let vnet = VirtualNetwork::ALL[rng.gen_range(3) as usize];
    let flits = if vnet == VirtualNetwork::Response && rng.gen_bool(0.7) {
        DATA_FLITS
    } else {
        CONTROL_FLITS
    };
    let action = Action::Inject {
        src: rng.gen_range(n) as u16,
        dst: rng.gen_range(n) as u16,
        vnet,
        flits,
        payload,
    };
    (vnet, flits, action)
}

#[test]
fn uniform_traffic_matches_reference() {
    for (k, mesh) in meshes().into_iter().chain(large_meshes()).enumerate() {
        let n = mesh.nodes() as u64;
        let mut rng = SimRng::new(0xD1FF + k as u64);
        let plan = uniform_plan(&mut rng, n, 40 * n as u32, 1_500);
        let trio = check(
            mesh,
            NocConfig::default(),
            &plan,
            &format!("uniform {mesh:?}"),
        );
        // Pipeline waits must actually have been skipped.
        assert!(
            trio.skipping_steps < trio.cycles,
            "uniform {mesh:?}: only {} of {} steps skipped",
            trio.cycles - trio.skipping_steps,
            trio.cycles
        );
    }
}

#[test]
fn hotspot_traffic_with_credit_saturation_matches_reference() {
    for (k, mesh) in meshes().into_iter().chain([Mesh::new(9, 9)]).enumerate() {
        let n = mesh.nodes() as u64;
        let mut rng = SimRng::new(0x407 + k as u64);
        let hot = (n / 2) as u16;
        // Data packets converge on one node in bursts: every buffer on the
        // way fills, so heads sit credit-blocked with free links.
        let mut plan: Plan = (0..30 * n as u32)
            .map(|i| {
                let at = rng.gen_range(40) * 25;
                let src = rng.gen_range(n) as u16;
                let (vnet, flits) = if rng.gen_bool(0.6) {
                    (VirtualNetwork::Response, DATA_FLITS)
                } else {
                    (VirtualNetwork::Request, CONTROL_FLITS)
                };
                let action = Action::Inject {
                    src,
                    dst: hot,
                    vnet,
                    flits,
                    payload: i,
                };
                (at, action)
            })
            .collect();
        plan.sort_by_key(|a| a.0);
        for config in [
            NocConfig::default(),
            NocConfig {
                pipeline_depth: 1,
                buffer_flits: DATA_FLITS,
            },
            // Buffers that hold one data packet, or one plus a control
            // packet: credit runs out at every hop.
            NocConfig {
                pipeline_depth: 4,
                buffer_flits: 5,
            },
            NocConfig {
                pipeline_depth: 3,
                buffer_flits: 6,
            },
        ] {
            check(mesh, config, &plan, &format!("hotspot {mesh:?} {config:?}"));
        }
    }
}

#[test]
fn link_stall_bursts_match_reference() {
    for (k, mesh) in meshes().into_iter().chain(large_meshes()).enumerate() {
        let n = mesh.nodes() as u64;
        let mut rng = SimRng::new(0x57A11 + k as u64);
        let mut plan: Plan = (0..20 * n as u32)
            .map(|i| (rng.gen_range(2_000), random_packet(&mut rng, n, i).2))
            .collect();
        // Bursts of stalls on neighbouring routers, some landing while
        // earlier ones still hold the links.
        for burst in 0..25u64 {
            let at = burst * 80 + rng.gen_range(30);
            for j in 0..3 {
                plan.push((
                    at + j * 5,
                    Action::Stall {
                        node: ((burst * 3 + j) % n) as u16,
                        cycles: 1 + rng.gen_range(60),
                    },
                ));
            }
        }
        plan.sort_by_key(|a| a.0);
        check(
            mesh,
            NocConfig::default(),
            &plan,
            &format!("stalls {mesh:?}"),
        );
    }
}

/// Stalls of 4-10x the wake calendar's 64-cycle horizon, several stacked
/// on one router (longer ones extending it, shorter ones landing inside
/// it), so routers wait in the calendar's far set and must migrate back.
fn long_stall_plan(rng: &mut SimRng, n: u64) -> Plan {
    let mut plan = uniform_plan(rng, n, 12 * n as u32, 3_000);
    for burst in 0..8u64 {
        let at = burst * 350 + rng.gen_range(50);
        let node = rng.gen_range(n) as u16;
        for (j, cycles) in [256, 640, 300, 100].into_iter().enumerate() {
            plan.push((at + j as u64 * 20, Action::Stall { node, cycles }));
        }
        let other = rng.gen_range(n) as u16;
        plan.push((
            at + 7,
            Action::Stall {
                node: other,
                cycles: 256 + rng.gen_range(400),
            },
        ));
    }
    plan.sort_by_key(|a| a.0);
    plan
}

#[test]
fn long_stacked_stalls_match_reference() {
    for (k, mesh) in [Mesh::new(4, 4), Mesh::new(3, 5), Mesh::new(9, 9)]
        .into_iter()
        .enumerate()
    {
        let mut rng = SimRng::new(0xFA2 + k as u64);
        let plan = long_stall_plan(&mut rng, mesh.nodes() as u64);
        let trio = check(
            mesh,
            NocConfig::default(),
            &plan,
            &format!("long stalls {mesh:?}"),
        );
        assert!(
            trio.skipping_steps < trio.cycles,
            "long stalls {mesh:?}: no step skipped"
        );
    }
}

/// `reset` in mid-flight — packets in NI queues, FIFOs and ejection, and
/// routers filed both near and far in the wake calendar — leaves networks
/// that replay a scenario exactly like fresh ones.
#[test]
fn networks_reset_in_mid_flight_match_fresh_ones() {
    for (k, mesh) in [Mesh::new(4, 4), Mesh::new(9, 9)].into_iter().enumerate() {
        let n = mesh.nodes() as u64;
        let config = NocConfig::default();
        let mut rng = SimRng::new(0x2E5E7 + k as u64);
        let dirty = long_stall_plan(&mut rng, n);
        let plan = uniform_plan(&mut rng, n, 20 * n as u32, 800);
        let label = format!("reset {mesh:?}");
        let fresh = check(mesh, config, &plan, &label);

        let mut recycled = [Network::new(mesh, config), Network::new(mesh, config)];
        let mut out = Vec::new();
        for (i, net) in recycled.iter_mut().enumerate() {
            let stop = 600 + 173 * i as Cycle;
            let mut cursor = 0;
            for now in 0..stop {
                while cursor < dirty.len() && dirty[cursor].0 == now {
                    match dirty[cursor].1 {
                        Action::Inject {
                            src,
                            dst,
                            vnet,
                            flits,
                            payload,
                        } => net.inject(now, NodeId(src), NodeId(dst), vnet, flits, payload),
                        Action::Stall { node, cycles } => {
                            net.stall_links(now, NodeId(node), cycles)
                        }
                    }
                    cursor += 1;
                }
                net.step_into(now, &mut out);
            }
            assert!(
                !net.is_idle(),
                "{label}: dirtying traffic drained before the reset"
            );
            net.reset();
            assert!(net.is_idle() && net.active_router_count() == 0, "{label}");
            assert_eq!(net.next_wake(), Cycle::MAX, "{label}");
        }
        let [every, skipping] = recycled;
        let trio = check_trio(
            Trio::with(mesh, config, every, skipping),
            mesh,
            &plan,
            &label,
        );
        assert_eq!(
            trio.skipping.active_scan_ratio(),
            fresh.skipping.active_scan_ratio(),
            "{label}: recycled network visited different routers"
        );
    }
}
