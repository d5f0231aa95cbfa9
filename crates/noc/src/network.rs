//! The network: routers wired into a mesh, injection interfaces, the per-cycle
//! step function, and delivery of ejected packets.

use crate::packet::{Packet, VirtualNetwork};
use crate::router::Router;
use crate::topology::{Mesh, Port};
use crate::traffic::TrafficStats;
use puno_sim::{Cycle, Cycles, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Network timing/sizing knobs (Table II: 4-stage routers, VC flow control).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Router pipeline depth in cycles; the last stage is link traversal.
    pub pipeline_depth: u32,
    /// Input buffer capacity per (port, vnet), in flits.
    pub buffer_flits: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            pipeline_depth: 4,
            buffer_flits: 8,
        }
    }
}

#[derive(Clone)]
struct PendingDelivery<P> {
    due: Cycle,
    node: NodeId,
    packet: Packet<P>,
}

/// The on-chip network. Payload type `P` is opaque freight.
#[derive(Clone)]
pub struct Network<P> {
    mesh: Mesh,
    config: NocConfig,
    routers: Vec<Router<P>>,
    /// `neighbors[r][port]`: the router behind each output port of router
    /// `r` (unused for `Local` and for ports off the mesh edge, which XY
    /// routing never picks).
    neighbors: Vec<[u16; 5]>,
    /// Per-node, per-vnet unbounded injection queues (the NI). Packets wait
    /// here until the local input buffer has space — injection backpressure
    /// without loss.
    inject_queues: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Ejections in flight (tail flit still crossing into the NI).
    deliveries: Vec<PendingDelivery<P>>,
    stats: TrafficStats,
    link_stats: crate::linkstats::LinkStats,
    next_packet_id: u64,
    in_network: usize,
    /// Occupancy: packets waiting in each router's NI injection queues.
    inject_pending: Vec<u32>,
    /// Occupancy: packets resident in each router's input buffers.
    resident: Vec<u32>,
    /// Routers with any buffered or injection-pending packet, as a bitmask
    /// (bit `r % 64` of word `r / 64`) — per-cycle work visits only these,
    /// and iterating set bits in ascending index order makes the active-set
    /// walk bit-identical to the full 0..n scan it replaces (see
    /// `step_into`'s determinism note).
    active: Vec<u64>,
    /// Reused snapshot of `active` for the per-cycle walks.
    scratch_active: Vec<u64>,
    /// Lower bound on the next cycle at which a step can change any state;
    /// see [`Network::next_wake`].
    wake_hint: Cycle,
    /// Host-side observability: routers actually visited by arbitration vs
    /// the `routers * steps` a full scan would have touched.
    scan_visits: u64,
    scan_steps: u64,
}

impl<P> Network<P> {
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        assert!(config.pipeline_depth >= 1);
        assert!(
            config.buffer_flits >= crate::packet::DATA_FLITS,
            "buffers must fit a data packet"
        );
        let n = mesh.nodes();
        let neighbors = (0..n)
            .map(|r| {
                Port::ALL.map(|port| {
                    mesh.neighbor(NodeId(r as u16), port)
                        .map_or(u16::MAX, |node| node.0)
                })
            })
            .collect();
        Self {
            mesh,
            config,
            routers: (0..n).map(|_| Router::new()).collect(),
            neighbors,
            inject_queues: (0..n)
                .map(|_| {
                    (0..VirtualNetwork::COUNT)
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
            deliveries: Vec::new(),
            stats: TrafficStats::default(),
            link_stats: crate::linkstats::LinkStats::new(mesh),
            next_packet_id: 0,
            in_network: 0,
            inject_pending: vec![0; n],
            resident: vec![0; n],
            active: vec![0; n.div_ceil(64)],
            scratch_active: Vec::with_capacity(n.div_ceil(64)),
            wake_hint: Cycle::MAX,
            scan_visits: 0,
            scan_steps: 0,
        }
    }

    /// Return the network to its freshly constructed state — empty routers,
    /// free links, zeroed stats and packet ids — while keeping every buffer
    /// allocation. Mesh geometry and config are unchanged. A recycled
    /// network is bit-identical in behaviour to `Network::new(mesh, config)`:
    /// every field the constructor initializes is restored here.
    pub fn reset(&mut self) {
        for router in &mut self.routers {
            router.reset();
        }
        for per_node in &mut self.inject_queues {
            for q in per_node {
                q.clear();
            }
        }
        self.deliveries.clear();
        self.stats = TrafficStats::default();
        self.link_stats.reset();
        self.next_packet_id = 0;
        self.in_network = 0;
        self.inject_pending.fill(0);
        self.resident.fill(0);
        self.active.fill(0);
        self.scratch_active.clear();
        self.wake_hint = Cycle::MAX;
        self.scan_visits = 0;
        self.scan_steps = 0;
    }

    /// Re-evaluate router `r`'s membership in the active set after an
    /// occupancy change.
    #[inline]
    fn note_occupancy(&mut self, r: usize) {
        if self.inject_pending[r] == 0 && self.resident[r] == 0 {
            self.active[r / 64] &= !(1u64 << (r % 64));
        } else {
            self.active[r / 64] |= 1u64 << (r % 64);
        }
    }

    #[inline]
    fn mark_active(&mut self, r: usize) {
        self.active[r / 64] |= 1u64 << (r % 64);
    }

    /// Take the reusable walk buffer filled with a snapshot of the current
    /// active set. Walking a snapshot (not `self.active` itself) keeps each
    /// per-cycle pass bit-identical to the full `0..n` scan even as the pass
    /// mutates the live set; hand the buffer back via
    /// [`Network::put_active_snapshot`] when the walk is done.
    #[inline]
    fn take_active_snapshot(&mut self) -> Vec<u64> {
        let mut snapshot = std::mem::take(&mut self.scratch_active);
        snapshot.clear();
        snapshot.extend_from_slice(&self.active);
        snapshot
    }

    #[inline]
    fn put_active_snapshot(&mut self, snapshot: Vec<u64>) {
        self.scratch_active = snapshot;
    }

    /// Fraction of (router x step) slots arbitration actually visited; 1.0
    /// would be the old scan-everything behaviour, and an idle-dominated run
    /// sits far below it.
    pub fn active_scan_ratio(&self) -> f64 {
        let total = self.scan_steps.saturating_mul(self.routers.len() as u64);
        if total == 0 {
            0.0
        } else {
            self.scan_visits as f64 / total as f64
        }
    }

    #[inline]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Per-directed-link flit counts (hotspot analysis).
    pub fn link_stats(&self) -> &crate::linkstats::LinkStats {
        &self.link_stats
    }

    /// True when no packet is anywhere in the network; the caller may stop
    /// scheduling step events.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.in_network == 0
    }

    /// Earliest cycle after the last step at which [`Network::step_into`]
    /// can change any state: the minimum of every occupied router's
    /// `wake_at`, every pending ejection's due cycle, and `now + 1` while
    /// an NI queue may drain (after an injection at `now`, or after a
    /// local-port win freed buffer space behind an NI backlog), clamped to
    /// at least one past the last step. `Cycle::MAX` when idle.
    ///
    /// Valid between steps. Stepping any cycle before it is an exact no-op
    /// — no drain, no traversal, no delivery, no arbitration state touched
    /// — so a caller may skip straight to it (DESIGN §13). The bound may be
    /// early (a wake on a credit-blocked head, a link horizon later
    /// extended by [`Network::stall_links`]), never late.
    #[inline]
    pub fn next_wake(&self) -> Cycle {
        self.wake_hint
    }

    /// Packets currently buffered inside routers (diagnostics).
    pub fn resident_packets(&self) -> usize {
        self.routers.iter().map(|r| r.resident_packets()).sum()
    }

    /// Routers currently in the active (occupied) set (diagnostics/tests).
    pub fn active_router_count(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fault-injection hook: hold every output link of `node`'s router busy
    /// until at least `now + cycles`. Flits already in flight are unaffected
    /// (their busy horizon only ever extends); queued flits wait out the
    /// stall under normal credit backpressure, so nothing is lost. Extending
    /// a horizon can only make `wake_at` early, so it is left as is.
    pub fn stall_links(&mut self, now: Cycle, node: NodeId, cycles: Cycles) {
        let until = now + cycles;
        let router = &mut self.routers[node.index()];
        for port in Port::ALL {
            let slot = &mut router.link_busy_until[port.index()];
            *slot = (*slot).max(until);
        }
    }

    /// Hand a packet to the source node's network interface at cycle `now`.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        flits: u32,
        payload: P,
    ) {
        assert!(flits >= 1);
        let packet = Packet {
            id: self.next_packet_id,
            src,
            dst,
            vnet,
            flits,
            injected_at: now,
            payload,
        };
        self.next_packet_id += 1;
        self.stats.record_injection(vnet, flits);
        self.in_network += 1;
        self.inject_queues[src.index()][vnet.index()].push_back(packet);
        self.inject_pending[src.index()] += 1;
        self.mark_active(src.index());
        // A step at `now` (if still to come) drains it and recomputes the
        // hint; otherwise the step at `now + 1` must not be skipped.
        self.wake_hint = self.wake_hint.min(now + 1);
    }

    /// Advance the network one cycle. Returns packets delivered to their
    /// destination NI this cycle, in deterministic order.
    ///
    /// Thin allocation-per-call wrapper over [`Network::step_into`]; hot
    /// loops should hold a reusable buffer and call `step_into` directly.
    pub fn step(&mut self, now: Cycle) -> Vec<(NodeId, P)> {
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advance the network one cycle, appending this cycle's deliveries to
    /// `out` (cleared first) in deterministic order.
    ///
    /// Work is proportional to *eligible* work, not machine size: injection
    /// drain walks only the routers in the active set (buffered or
    /// injection-pending packets), and switch allocation only those whose
    /// `wake_at` has arrived, both in ascending router-index order. That
    /// order makes the walk bit-identical to the full `0..n` scan it
    /// replaces: a skipped router has no head-of-line packet that could win
    /// this cycle, so the full scan would touch neither its round-robin
    /// pointers nor its links — skipping it changes no state and no
    /// arbitration outcome.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, P)>) {
        out.clear();
        self.wake_hint = Cycle::MAX;
        if self.in_network == 0 {
            return;
        }
        self.scan_steps += 1;
        // One ascending walk over a snapshot of the active set drains each
        // router's NI queues and then runs its switch allocation. Draining
        // router `r` just before its own allocation, instead of draining
        // every router first, changes nothing: a drain touches only `r`'s
        // local input FIFOs, which no other router's allocation reads
        // (credit checks read a neighbour's mesh-side inputs). Routers that
        // only *become* active mid-walk (receiving a forwarded packet) need
        // no visit: the packet's ready_at is in the future, so the full scan
        // would have found no eligible candidate there either.
        let snapshot = self.take_active_snapshot();
        for (word_idx, &word) in snapshot.iter().enumerate() {
            let mut bits = word; // ascending router index: low bits first
            while bits != 0 {
                let r = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.inject_pending[r] > 0 {
                    self.drain_injection_queues(r, now);
                }
                if self.resident[r] == 0 {
                    continue; // injection-queue backlog only
                }
                if self.routers[r].wake_at <= now {
                    self.scan_visits += 1;
                    self.visit(r, now);
                    self.note_occupancy(r);
                }
                if self.resident[r] > 0 {
                    self.wake_hint = self.wake_hint.min(self.routers[r].wake_at);
                }
            }
        }
        self.put_active_snapshot(snapshot);
        self.collect_deliveries_into(now, out);
        // A credit-blocked head keeps its router's wake at or before `now`:
        // the next step is then simply the next cycle.
        self.wake_hint = self.wake_hint.max(now + 1);
        // swap_remove disturbs order; restore determinism by destination
        // (at most one ejection can complete per node per cycle — the local
        // link serializes them — so the node index is a total key).
        out.sort_by_key(|(node, _)| node.0);
    }

    /// Move packets from router `r`'s NI injection queues into its local
    /// input buffers while space permits. Each packet is routed once, here,
    /// for this router.
    fn drain_injection_queues(&mut self, r: usize, now: Cycle) {
        let ready_at = now + self.config.pipeline_depth as Cycle - 1;
        let here = NodeId(r as u16);
        for vnet_idx in 0..VirtualNetwork::COUNT {
            while let Some(front) = self.inject_queues[r][vnet_idx].front() {
                let buf = self.routers[r].buffer(Port::Local, front.vnet);
                if buf.free_flits(self.config.buffer_flits) < front.flits {
                    break;
                }
                let packet = self.inject_queues[r][vnet_idx].pop_front().unwrap();
                let out = self.mesh.route_xy(here, packet.dst);
                self.routers[r].accept(Port::Local, packet.vnet, ready_at, out, packet);
                self.inject_pending[r] -= 1;
                self.resident[r] += 1;
            }
        }
    }

    /// One router's switch allocation: for every output port whose link is
    /// free, pick one eligible head-of-line packet (round-robin over the
    /// (input port, vnet) space) and traverse.
    ///
    /// Each port's candidates come from an eligibility mask built once per
    /// visit (heads past the pipeline, keyed by their cached route). A win
    /// exposes the FIFO's next packet, which joins its own port's mask at
    /// once — a later port may still take it this cycle, exactly as the
    /// per-port rescan of every head did.
    fn visit(&mut self, r: usize, now: Cycle) {
        const CANDIDATES: usize = 5 * VirtualNetwork::COUNT;
        let mut eligible = [0u16; 5];
        {
            let router = &self.routers[r];
            let mut occ = router.occupancy;
            while occ != 0 {
                let idx = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let head = router.head(idx);
                if head.ready_at <= now {
                    eligible[head.out.index()] |= 1 << idx;
                }
            }
        }
        let here = NodeId(r as u16);
        for out_port in Port::ALL {
            let o = out_port.index();
            if eligible[o] == 0 || self.routers[r].link_busy_until[o] > now {
                continue;
            }
            let next = self.neighbors[r][o] as usize;
            // Round-robin order start..n then 0..start; an ineligible
            // candidate is exactly a skipped one in the full scan, so the
            // restriction is order-preserving.
            let below = (1u16 << self.routers[r].rr_pointer[o]) - 1;
            let mut winner = None;
            'scan: for part in [eligible[o] & !below, eligible[o] & below] {
                let mut cand_bits = part;
                while cand_bits != 0 {
                    let idx = cand_bits.trailing_zeros() as usize;
                    cand_bits &= cand_bits - 1;
                    // Check downstream space (credit): ejection always has
                    // room (NI sinks immediately).
                    if out_port != Port::Local {
                        let flits = self.routers[r].head(idx).packet.flits;
                        let downstream = opposite(out_port).index() * VirtualNetwork::COUNT
                            + idx % VirtualNetwork::COUNT;
                        let free = self.routers[next].inputs[downstream]
                            .free_flits(self.config.buffer_flits);
                        if free < flits {
                            continue;
                        }
                    }
                    winner = Some(idx);
                    break 'scan;
                }
            }
            let Some(idx) = winner else {
                continue;
            };
            let in_port = idx / VirtualNetwork::COUNT;
            // Dequeue the winner, exposing the FIFO's next head.
            let packet = {
                let router = &mut self.routers[r];
                router.rr_pointer[o] = (idx + 1) % CANDIDATES;
                let buf = &mut router.inputs[idx];
                let bp = buf.queue.pop_front().unwrap();
                buf.occupied_flits -= bp.packet.flits;
                match buf.queue.front() {
                    None => router.occupancy &= !(1u16 << idx),
                    Some(head) if head.ready_at <= now => eligible[head.out.index()] |= 1 << idx,
                    Some(_) => {}
                }
                bp.packet
            };
            let flits = packet.flits;
            // The Figure 11 metric: every flit leaving a router crossbar is
            // one router traversal.
            self.stats.record_traversal(packet.vnet, flits);
            self.link_stats.record(here, out_port, flits);
            self.routers[r].link_busy_until[o] = now + flits as Cycle;
            self.resident[r] -= 1;
            if in_port == Port::Local.index() && self.inject_pending[r] > 0 {
                // Local buffer space freed behind an NI backlog: the next
                // cycle's drain may move it.
                self.wake_hint = self.wake_hint.min(now + 1);
            }
            if out_port == Port::Local {
                self.deliveries.push(PendingDelivery {
                    due: now + flits as Cycle,
                    node: here,
                    packet,
                });
            } else {
                let ready_at = now + flits as Cycle + self.config.pipeline_depth as Cycle - 1;
                let route = self.mesh.route_xy(NodeId(next as u16), packet.dst);
                let vnet = packet.vnet;
                self.routers[next].accept(opposite(out_port), vnet, ready_at, route, packet);
                self.resident[next] += 1;
                self.mark_active(next);
                self.wake_hint = self.wake_hint.min(self.routers[next].wake_at);
            }
        }
        self.routers[r].refresh_wake();
    }

    fn collect_deliveries_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, P)>) {
        let mut i = 0;
        while i < self.deliveries.len() {
            let due = self.deliveries[i].due;
            if due <= now {
                let d = self.deliveries.swap_remove(i);
                self.stats.record_delivery(now - d.packet.injected_at);
                self.in_network -= 1;
                out.push((d.node, d.packet.payload));
            } else {
                self.wake_hint = self.wake_hint.min(due);
                i += 1;
            }
        }
    }
}

#[inline]
fn opposite(port: Port) -> Port {
    match port {
        Port::East => Port::West,
        Port::West => Port::East,
        Port::North => Port::South,
        Port::South => Port::North,
        Port::Local => Port::Local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CONTROL_FLITS, DATA_FLITS};

    fn run_until_idle(
        net: &mut Network<u32>,
        start: Cycle,
        max: Cycle,
    ) -> Vec<(Cycle, NodeId, u32)> {
        let mut delivered = Vec::new();
        let mut now = start;
        while !net.is_idle() {
            for (node, payload) in net.step(now) {
                delivered.push((now, node, payload));
            }
            now += 1;
            assert!(now < max, "network did not drain");
        }
        delivered
    }

    #[test]
    fn delivers_single_packet_with_expected_latency() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Request,
            CONTROL_FLITS,
            7,
        );
        let delivered = run_until_idle(&mut net, 0, 1000);
        assert_eq!(delivered.len(), 1);
        let (cycle, node, payload) = delivered[0];
        assert_eq!(node, NodeId(3));
        assert_eq!(payload, 7);
        // 3 hops + ejection = 4 router traversals; each costs pipeline-1 wait
        // (3 cycles) + 1 cycle link per flit. Zero-load: 4 * (3 + 1) = 16.
        assert_eq!(cycle, 16);
    }

    #[test]
    fn local_delivery_goes_through_one_router() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(5),
            NodeId(5),
            VirtualNetwork::Response,
            DATA_FLITS,
            1,
        );
        let delivered = run_until_idle(&mut net, 0, 100);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, NodeId(5));
        assert_eq!(net.stats().router_traversals(), DATA_FLITS as u64);
    }

    #[test]
    fn traversal_count_is_flits_times_routers() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        // 0 -> 15 is 6 hops; the packet crosses 7 routers (incl. ejection).
        net.inject(
            0,
            NodeId(0),
            NodeId(15),
            VirtualNetwork::Response,
            DATA_FLITS,
            9,
        );
        run_until_idle(&mut net, 0, 1000);
        assert_eq!(net.stats().router_traversals(), 7 * DATA_FLITS as u64);
        assert_eq!(net.stats().flits_injected(), DATA_FLITS as u64);
    }

    #[test]
    fn every_injected_packet_is_delivered_exactly_once() {
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        let mut expected = Vec::new();
        let mut id = 0u32;
        for src in 0..16u16 {
            for dst in 0..16u16 {
                net.inject(
                    0,
                    NodeId(src),
                    NodeId(dst),
                    VirtualNetwork::Request,
                    CONTROL_FLITS,
                    id,
                );
                expected.push(id);
                id += 1;
            }
        }
        let delivered = run_until_idle(&mut net, 0, 100_000);
        let mut got: Vec<u32> = delivered.iter().map(|&(_, _, p)| p).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two data packets from node 0 and node 1, both to node 3: they share
        // the (2 -> 3) link, so the second must finish >= DATA_FLITS cycles
        // after the first.
        let mut net = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Response,
            DATA_FLITS,
            0,
        );
        net.inject(
            0,
            NodeId(1),
            NodeId(3),
            VirtualNetwork::Response,
            DATA_FLITS,
            1,
        );
        let delivered = run_until_idle(&mut net, 0, 10_000);
        assert_eq!(delivered.len(), 2);
        let t0 = delivered.iter().find(|d| d.2 == 0).unwrap().0;
        let t1 = delivered.iter().find(|d| d.2 == 1).unwrap().0;
        assert!(t0.abs_diff(t1) >= DATA_FLITS as Cycle, "t0={t0} t1={t1}");
    }

    #[test]
    fn vnets_do_not_block_each_other_at_injection() {
        let mut net = Network::new(
            Mesh::paper(),
            NocConfig {
                pipeline_depth: 4,
                buffer_flits: 5,
            },
        );
        // Saturate the request vnet's local buffer at node 0...
        for i in 0..10 {
            net.inject(
                0,
                NodeId(0),
                NodeId(1),
                VirtualNetwork::Request,
                DATA_FLITS,
                i,
            );
        }
        // ...a response packet must still make timely progress.
        net.inject(
            0,
            NodeId(0),
            NodeId(1),
            VirtualNetwork::Response,
            CONTROL_FLITS,
            99,
        );
        let delivered = run_until_idle(&mut net, 0, 100_000);
        let resp_cycle = delivered.iter().find(|d| d.2 == 99).unwrap().0;
        let last_req = delivered
            .iter()
            .filter(|d| d.2 < 10)
            .map(|d| d.0)
            .max()
            .unwrap();
        assert!(
            resp_cycle < last_req,
            "response {resp_cycle} should beat backlogged requests {last_req}"
        );
    }

    #[test]
    fn step_into_reuses_buffer_and_matches_step() {
        let drive = |use_into: bool| {
            let mut net = Network::new(Mesh::paper(), NocConfig::default());
            let mut rng = puno_sim::SimRng::new(11);
            for i in 0..64u32 {
                net.inject(
                    0,
                    NodeId(rng.gen_range(16) as u16),
                    NodeId(rng.gen_range(16) as u16),
                    VirtualNetwork::Request,
                    CONTROL_FLITS,
                    i,
                );
            }
            let mut all = Vec::new();
            let mut buf = Vec::new();
            let mut now = 0;
            while !net.is_idle() {
                if use_into {
                    net.step_into(now, &mut buf);
                    all.extend(buf.iter().map(|&(n, p)| (now, n, p)));
                } else {
                    all.extend(net.step(now).into_iter().map(|(n, p)| (now, n, p)));
                }
                now += 1;
                assert!(now < 100_000);
            }
            all
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn occupancy_set_tracks_live_work_and_empties_at_idle() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        assert_eq!(net.active_router_count(), 0);
        net.inject(0, NodeId(2), NodeId(9), VirtualNetwork::Request, 1, 0);
        assert_eq!(net.active_router_count(), 1);
        run_until_idle(&mut net, 0, 1000);
        assert_eq!(net.active_router_count(), 0);
        // One packet crossing a 16-router mesh must touch far fewer than
        // 16 routers per cycle.
        assert!(
            net.active_scan_ratio() < 0.2,
            "scan ratio {} not work-proportional",
            net.active_scan_ratio()
        );
    }

    /// ISSUE 2 satellite: a packet injected on the very cycle the network
    /// drains idle must not strand. This emulates the system's `NetStep`
    /// arming protocol exactly: step while armed, disarm when idle is
    /// observed *before* deliveries are handled, re-arm on inject.
    #[test]
    fn same_cycle_injection_after_drain_is_delivered() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        net.inject(
            0,
            NodeId(0),
            NodeId(1),
            VirtualNetwork::Request,
            CONTROL_FLITS,
            1,
        );
        let mut armed = true;
        let mut now: Cycle = 0;
        let mut delivered = Vec::new();
        let mut reinjected = false;
        while armed {
            let out = net.step(now);
            // The system checks idle before processing deliveries.
            if net.is_idle() {
                armed = false;
            }
            for (node, payload) in out {
                delivered.push((now, node, payload));
                if !reinjected {
                    // React to the delivery on the drain cycle itself, like
                    // a node answering a request.
                    reinjected = true;
                    net.inject(now, NodeId(1), NodeId(0), VirtualNetwork::Response, 1, 2);
                    if !armed {
                        armed = true; // inject_now re-arms NetStep
                    }
                }
            }
            now += 1;
            assert!(now < 1000, "network did not drain");
        }
        assert_eq!(delivered.len(), 2, "stranded packet: {delivered:?}");
        assert!(net.is_idle());
        assert_eq!(net.active_router_count(), 0);
    }

    #[test]
    fn reset_network_matches_fresh_network() {
        let drive = |net: &mut Network<u32>| {
            let mut rng = puno_sim::SimRng::new(7);
            for i in 0..48u32 {
                net.inject(
                    0,
                    NodeId(rng.gen_range(16) as u16),
                    NodeId(rng.gen_range(16) as u16),
                    VirtualNetwork::Request,
                    CONTROL_FLITS,
                    i,
                );
            }
            run_until_idle(net, 0, 100_000)
        };
        let mut fresh = Network::new(Mesh::paper(), NocConfig::default());
        let expected = drive(&mut fresh);
        let expected_stats = format!("{:?}", fresh.stats());

        let mut recycled = Network::new(Mesh::paper(), NocConfig::default());
        // Dirty it with unrelated traffic, then reset.
        recycled.inject(0, NodeId(3), NodeId(12), VirtualNetwork::Response, 5, 999);
        run_until_idle(&mut recycled, 0, 10_000);
        recycled.reset();
        assert!(recycled.is_idle());
        assert_eq!(recycled.active_router_count(), 0);
        assert_eq!(recycled.stats().packets_injected(), 0);
        assert_eq!(recycled.link_stats().total(), 0);

        let got = drive(&mut recycled);
        assert_eq!(got, expected, "recycled network must replay identically");
        assert_eq!(format!("{:?}", recycled.stats()), expected_stats);
    }

    #[test]
    fn idle_network_reports_idle() {
        let mut net: Network<u32> = Network::new(Mesh::paper(), NocConfig::default());
        assert!(net.is_idle());
        net.inject(0, NodeId(0), NodeId(1), VirtualNetwork::Request, 1, 0);
        assert!(!net.is_idle());
        run_until_idle(&mut net, 0, 100);
        assert!(net.is_idle());
    }
}
