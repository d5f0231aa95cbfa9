//! Packets and virtual networks.

use puno_sim::{Cycle, NodeId};

/// Flits in a control message (requests, forwards, acks, nacks, unblocks).
///
/// The paper notes that PUNO's message extensions (U-bit, MP-bit, notification
/// field, MP-node) "fit into the existing flits, requiring no extra flits on
/// the network" — so control messages are one flit with or without PUNO.
pub const CONTROL_FLITS: u32 = 1;

/// Flits in a data message: 64-byte line over 16-byte channels plus head.
pub const DATA_FLITS: u32 = 5;

/// Virtual networks separate dependent message classes so the protocol cannot
/// deadlock in the network: a blocked request can never back-pressure the
/// response that would unblock it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VirtualNetwork {
    /// Requester -> directory (GETS/GETX/PUT).
    Request,
    /// Directory -> sharers/owner (forwards, invalidations).
    Forward,
    /// Terminal messages (data, ack, nack, unblock, wb-ack).
    Response,
}

impl VirtualNetwork {
    pub const COUNT: usize = 3;

    /// Every virtual network, in index order.
    pub const ALL: [VirtualNetwork; 3] = [
        VirtualNetwork::Request,
        VirtualNetwork::Forward,
        VirtualNetwork::Response,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            VirtualNetwork::Request => 0,
            VirtualNetwork::Forward => 1,
            VirtualNetwork::Response => 2,
        }
    }

    /// Short lowercase name (trace output and exporter track labels).
    pub fn name(self) -> &'static str {
        match self {
            VirtualNetwork::Request => "request",
            VirtualNetwork::Forward => "forward",
            VirtualNetwork::Response => "response",
        }
    }
}

/// A packet in flight. `P` is the protocol payload; the network treats it as
/// opaque freight.
#[derive(Clone, Debug)]
pub struct Packet<P> {
    pub id: u64,
    pub src: NodeId,
    pub dst: NodeId,
    pub vnet: VirtualNetwork,
    pub flits: u32,
    pub injected_at: Cycle,
    pub payload: P,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vnet_indices_are_distinct() {
        let idx: Vec<usize> = [
            VirtualNetwork::Request,
            VirtualNetwork::Forward,
            VirtualNetwork::Response,
        ]
        .iter()
        .map(|v| v.index())
        .collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn data_messages_are_bigger_than_control() {
        let (data, control) = (DATA_FLITS, CONTROL_FLITS);
        assert!(data > control);
    }
}
