//! Per-router state: input virtual-channel buffers, output links, round-robin
//! switch arbitration pointers.
//!
//! The router is a 4-stage pipeline (buffer write / route compute, VC
//! allocation, switch allocation, switch+link traversal), modeled as a fixed
//! `pipeline_depth - 1` cycle delay between a packet's arrival at an input
//! buffer and its eligibility for switch allocation; the final stage is the
//! link traversal itself, which occupies the output link for one cycle per
//! flit (virtual cut-through).

use crate::packet::{Packet, VirtualNetwork};
use crate::topology::Port;
use puno_sim::Cycle;
use std::collections::VecDeque;

/// A packet waiting in an input buffer, annotated with the cycle at which it
/// has cleared the router pipeline and may compete for the switch, and with
/// the output port XY routing picked for it when it entered the buffer.
#[derive(Clone)]
pub(crate) struct BufferedPacket<P> {
    pub ready_at: Cycle,
    pub out: Port,
    pub packet: Packet<P>,
}

/// One input unit: a FIFO per (input port, virtual network), with occupancy
/// accounted in flits against a fixed capacity.
#[derive(Clone)]
pub(crate) struct InputBuffer<P> {
    pub queue: VecDeque<BufferedPacket<P>>,
    pub occupied_flits: u32,
}

impl<P> InputBuffer<P> {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            occupied_flits: 0,
        }
    }

    pub fn free_flits(&self, capacity: u32) -> u32 {
        capacity.saturating_sub(self.occupied_flits)
    }
}

/// Index of the (input port, vnet) FIFO in the flattened candidate space
/// shared by `Router::inputs`, `occupancy`, and the round-robin pointers.
#[inline]
fn fifo_index(port: Port, vnet: VirtualNetwork) -> usize {
    port.index() * VirtualNetwork::COUNT + vnet.index()
}

/// Router state. Ports: 0 = Local (injection/ejection), 1..=4 = E/W/N/S.
#[derive(Clone)]
pub(crate) struct Router<P> {
    /// Input FIFOs, indexed by [`fifo_index`].
    pub inputs: Vec<InputBuffer<P>>,
    /// Output link busy-until cycle, per output port.
    pub link_busy_until: [Cycle; 5],
    /// Round-robin arbitration pointer per output port, over the flattened
    /// (input port, vnet) candidate space.
    pub rr_pointer: [usize; 5],
    /// Non-empty-buffer bitmask over the same flattened (input port, vnet)
    /// space: bit `port.index() * VirtualNetwork::COUNT + vnet.index()` is
    /// set iff that input FIFO holds at least one packet. Switch allocation
    /// scans only set bits — an empty buffer is exactly a skipped candidate
    /// in the full scan, so the restriction changes no arbitration outcome.
    pub occupancy: u16,
    /// Earliest cycle at which any head-of-line packet could win switch
    /// allocation: the minimum, over non-empty FIFOs, of
    /// `max(head.ready_at, link_busy_until[head.out])` (`Cycle::MAX` when
    /// empty). Never late, possibly early: it ignores credit, and link
    /// horizons only grow between recomputations (see DESIGN §13).
    pub wake_at: Cycle,
}

impl<P> Router<P> {
    pub fn new() -> Self {
        Self {
            inputs: (0..5 * VirtualNetwork::COUNT)
                .map(|_| InputBuffer::new())
                .collect(),
            link_busy_until: [0; 5],
            rr_pointer: [0; 5],
            occupancy: 0,
            wake_at: Cycle::MAX,
        }
    }

    /// Return to the freshly constructed state (empty buffers, free links,
    /// arbitration pointers at zero) without dropping buffer allocations.
    pub fn reset(&mut self) {
        for buf in &mut self.inputs {
            buf.queue.clear();
            buf.occupied_flits = 0;
        }
        self.link_busy_until = [0; 5];
        self.rr_pointer = [0; 5];
        self.occupancy = 0;
        self.wake_at = Cycle::MAX;
    }

    pub fn buffer(&self, port: Port, vnet: VirtualNetwork) -> &InputBuffer<P> {
        &self.inputs[fifo_index(port, vnet)]
    }

    /// Enqueue a packet routed to output `out` into an input buffer. Caller
    /// must have checked space. A packet landing in an empty FIFO becomes
    /// its head, so it may lower `wake_at`; behind an existing head it
    /// cannot.
    pub fn accept(
        &mut self,
        port: Port,
        vnet: VirtualNetwork,
        ready_at: Cycle,
        out: Port,
        packet: Packet<P>,
    ) {
        let idx = fifo_index(port, vnet);
        self.occupancy |= 1 << idx;
        let buf = &mut self.inputs[idx];
        if buf.queue.is_empty() {
            let busy = self.link_busy_until[out.index()];
            self.wake_at = self.wake_at.min(ready_at.max(busy));
        }
        buf.occupied_flits += packet.flits;
        buf.queue.push_back(BufferedPacket {
            ready_at,
            out,
            packet,
        });
    }

    /// Head of the FIFO at flattened index `idx`, which must be occupied.
    #[inline]
    pub fn head(&self, idx: usize) -> &BufferedPacket<P> {
        self.inputs[idx]
            .queue
            .front()
            .expect("occupancy bit set on an empty FIFO")
    }

    /// Recompute `wake_at` exactly from the current heads and link horizons.
    pub fn refresh_wake(&mut self) {
        let mut wake = Cycle::MAX;
        let mut occ = self.occupancy;
        while occ != 0 {
            let idx = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let head = self.head(idx);
            wake = wake.min(head.ready_at.max(self.link_busy_until[head.out.index()]));
        }
        self.wake_at = wake;
    }

    /// Total packets resident in this router's input buffers.
    pub fn resident_packets(&self) -> usize {
        self.inputs.iter().map(|b| b.queue.len()).sum()
    }
}
