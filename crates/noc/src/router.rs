//! Per-router state: input virtual-channel FIFOs, output links, round-robin
//! switch arbitration pointers.
//!
//! The router is a 4-stage pipeline (buffer write / route compute, VC
//! allocation, switch allocation, switch+link traversal), modeled as a fixed
//! `pipeline_depth - 1` cycle delay between a packet's arrival at an input
//! buffer and its eligibility for switch allocation; the final stage is the
//! link traversal itself, which occupies the output link for one cycle per
//! flit (virtual cut-through).
//!
//! Packets themselves live in the network's slab; a FIFO is a fixed ring of
//! 4-byte slab slot indices, and the state arbitration reads — each head's
//! `ready_at`, routed output port and size, and each FIFO's flit occupancy —
//! is held inline here, so eligibility, credit checks and wake refreshes
//! never leave the router's own arrays.

use crate::packet::VirtualNetwork;
use crate::topology::Port;
use puno_sim::Cycle;

/// (input port, vnet) FIFOs per router.
pub(crate) const FIFOS: usize = 5 * VirtualNetwork::COUNT;

/// Packet capacity of every FIFO ring. A packet holds at least one flit, so
/// a FIFO of `buffer_flits` flits never holds more than `buffer_flits`
/// packets; `Network::new` rejects a `buffer_flits` above this.
pub const RING_SLOTS: usize = 8;

/// A buffered packet's arbitration state at the router it waits in: the
/// cycle it clears the pipeline, the output port XY routing picked for it
/// when it entered the buffer, and its size.
#[derive(Clone, Copy)]
pub(crate) struct Head {
    pub ready_at: Cycle,
    pub out: Port,
    pub flits: u32,
}

/// A packet's slab record: its state at the router it waits in, and its
/// destination's mesh coordinates (for routing at each router it enters).
#[derive(Clone, Copy)]
pub(crate) struct Hop {
    pub head: Head,
    pub dst: (u16, u16),
}

/// Index of the (input port, vnet) FIFO in the flattened candidate space
/// shared by the FIFO arrays, `occupancy`, and the round-robin pointers.
#[inline]
pub(crate) fn fifo_index(port: Port, vnet: usize) -> usize {
    port.index() * VirtualNetwork::COUNT + vnet
}

/// Router state. Ports: 0 = Local (injection/ejection), 1..=4 = E/W/N/S.
#[derive(Clone)]
pub(crate) struct Router {
    /// Head-of-line state per FIFO, valid while its `occupancy` bit is set.
    /// Always equal to the slab record of the slot at the front of the ring.
    pub head: [Head; FIFOS],
    /// Flits buffered per FIFO, against the `buffer_flits` credit limit.
    pub flits: [u32; FIFOS],
    /// Output link busy-until cycle, per output port.
    pub link_busy_until: [Cycle; 5],
    /// Earliest cycle at which any head-of-line packet could win switch
    /// allocation: the minimum, over non-empty FIFOs, of
    /// `max(head.ready_at, link_busy_until[head.out])` (`Cycle::MAX` when
    /// empty). Never late, possibly early: it ignores credit, and link
    /// horizons only grow between recomputations (see DESIGN §13).
    pub wake_at: Cycle,
    /// Non-empty-FIFO bitmask over the flattened (input port, vnet) space.
    /// Switch allocation scans only set bits — an empty buffer is exactly a
    /// skipped candidate in the full scan, so the restriction changes no
    /// arbitration outcome.
    pub occupancy: u16,
    /// Round-robin arbitration pointer per output port, over the flattened
    /// (input port, vnet) candidate space.
    pub rr_pointer: [u8; 5],
    /// Ring read position and length per FIFO.
    start: [u8; FIFOS],
    len: [u8; FIFOS],
    /// Slab slots of each FIFO's packets, oldest at `start`.
    ring: [[u32; RING_SLOTS]; FIFOS],
}

impl Router {
    pub fn new() -> Self {
        Self {
            head: [Head {
                ready_at: Cycle::MAX,
                out: Port::Local,
                flits: 0,
            }; FIFOS],
            flits: [0; FIFOS],
            link_busy_until: [0; 5],
            wake_at: Cycle::MAX,
            occupancy: 0,
            rr_pointer: [0; 5],
            start: [0; FIFOS],
            len: [0; FIFOS],
            ring: [[0; RING_SLOTS]; FIFOS],
        }
    }

    /// Buffer the packet in slab slot `slot`, whose state here is `head`,
    /// at the back of FIFO `idx`. Caller must have checked space. A packet
    /// landing in an empty FIFO becomes its head, so it may lower
    /// `wake_at`; behind an existing head it cannot.
    #[inline]
    pub fn accept(&mut self, idx: usize, slot: u32, head: Head) {
        let len = self.len[idx] as usize;
        debug_assert!(len < RING_SLOTS, "FIFO ring overflow");
        if len == 0 {
            self.head[idx] = head;
            self.occupancy |= 1 << idx;
            let busy = self.link_busy_until[head.out.index()];
            self.wake_at = self.wake_at.min(head.ready_at.max(busy));
        }
        self.flits[idx] += head.flits;
        self.ring[idx][(self.start[idx] as usize + len) % RING_SLOTS] = slot;
        self.len[idx] += 1;
    }

    /// Dequeue the head of occupied FIFO `idx`, returning its slab slot, and
    /// load the next packet's state from its slab record into the inline
    /// head.
    #[inline]
    pub fn pop(&mut self, idx: usize, slab: &[Hop]) -> u32 {
        let start = self.start[idx] as usize;
        let slot = self.ring[idx][start];
        self.flits[idx] -= self.head[idx].flits;
        self.start[idx] = ((start + 1) % RING_SLOTS) as u8;
        self.len[idx] -= 1;
        if self.len[idx] == 0 {
            self.occupancy &= !(1 << idx);
        } else {
            let next = self.ring[idx][self.start[idx] as usize];
            self.head[idx] = slab[next as usize].head;
        }
        slot
    }

    /// Recompute `wake_at` exactly from the current heads and link horizons.
    pub fn refresh_wake(&mut self) {
        let mut wake = Cycle::MAX;
        let mut occ = self.occupancy;
        while occ != 0 {
            let idx = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let head = self.head[idx];
            wake = wake.min(head.ready_at.max(self.link_busy_until[head.out.index()]));
        }
        self.wake_at = wake;
    }
}
