//! The assembled on-chip network: topology + latency + traffic accounting.
//!
//! [`Network`] is the single object the coherence simulator talks to. Every
//! `send`/`multicast` both *accounts* the traffic (byte-links, Table IV's
//! metric) and *returns* the base latency of the transfer so the timing
//! model can accumulate transaction latencies.
//!
//! Every message needs a hop count, and [`Mesh::hops`] derives it from
//! node coordinates with a divide and a remainder by the runtime mesh
//! width. A network therefore tabulates, once at construction, the hop
//! count of every node pair and the nearest memory port of every node
//! from [`Mesh::hops`] and [`Mesh::nearest_port`], which stay the
//! definitions; clones share the tables.

use std::sync::Arc;

use crate::fault::{Delivery, LinkFaults};
use crate::latency::LatencyModel;
use crate::message::MessageKind;
use crate::topology::{Mesh, NetConfigError, NodeId};
use crate::traffic::TrafficStats;

/// Outcome of a fault-aware [`Network::send`].
///
/// Traffic is accounted whether or not the message arrives (it was put on
/// the wire); `delivered` tells the caller whether the destination ever
/// sees it, and `latency` includes any injected delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendOutcome {
    /// Whether the destination receives the message.
    pub delivered: bool,
    /// Latency in cycles, including injected delay.
    pub latency: u64,
}

/// Outcome of a fault-aware [`Network::send_fanout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FanoutOutcome {
    /// The destinations that receive the message, as a node bit mask.
    pub delivered: u64,
    /// The worst leg's latency in cycles, including injected delay (0
    /// for an empty destination set).
    pub latency: u64,
}

/// An on-chip mesh network with memory-controller ports.
///
/// Hop counts and nearest ports come from tables built at construction
/// (see the module docs and [`Network::hops`]). The hop table has one
/// entry per node pair: 1 KiB for the paper's 4x4 mesh, 16 KiB at 64
/// nodes, so it is sized for on-chip meshes.
///
/// # Examples
///
/// ```
/// use sim_net::{Network, Mesh, MessageKind, NodeId};
///
/// let mut net = Network::new(Mesh::new(4, 4));
/// let lat = net.unicast(NodeId::new(0), NodeId::new(3), MessageKind::Request);
/// assert_eq!(lat, 15); // 3 hops x 5 cycles
/// assert_eq!(net.traffic().byte_links(), 24); // 8 bytes x 3 links
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    mesh: Mesh,
    latency: LatencyModel,
    ports: Vec<NodeId>,
    /// `hop_table[a * n + b]` is `mesh.hops(a, b)` for an `n`-node mesh.
    hop_table: Arc<[u32]>,
    /// `port_table[a]` is `mesh.nearest_port(a, &ports)`.
    port_table: Arc<[NodeId]>,
    traffic: TrafficStats,
    faults: Option<LinkFaults>,
    /// Optional per-node byte attribution (source + destination each
    /// charged the message size) — the observability layer's traffic
    /// heatmap. `None` (the default) keeps accounting on the two
    /// aggregate counters only, at the cost of one branch per message.
    node_tally: Option<Box<[u64]>>,
}

impl Network {
    /// Creates a network over `mesh` with the default latency model and
    /// memory ports at the mesh corners.
    pub fn new(mesh: Mesh) -> Self {
        Self::build(mesh, LatencyModel::default(), mesh.corner_ports())
    }

    /// Assembles a network over a validated, non-empty port list,
    /// tabulating hops and nearest ports.
    fn build(mesh: Mesh, latency: LatencyModel, ports: Vec<NodeId>) -> Self {
        let hop_table = mesh
            .nodes()
            .flat_map(|a| mesh.nodes().map(move |b| mesh.hops(a, b)))
            .collect();
        let port_table = mesh.nodes().map(|a| mesh.nearest_port(a, &ports)).collect();
        Network {
            mesh,
            latency,
            ports,
            hop_table,
            port_table,
            traffic: TrafficStats::default(),
            faults: None,
            node_tally: None,
        }
    }

    /// Creates a network with an explicit latency model and memory ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or contains a node outside the mesh;
    /// use [`Network::try_with_config`] to get a typed error instead.
    pub fn with_config(mesh: Mesh, latency: LatencyModel, ports: Vec<NodeId>) -> Self {
        match Self::try_with_config(mesh, latency, ports) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a network with an explicit latency model and memory ports,
    /// rejecting port lists that would strand memory traffic.
    ///
    /// # Errors
    ///
    /// Returns [`NetConfigError::NoMemoryPorts`] for an empty port list
    /// and [`NetConfigError::PortOutsideMesh`] for a port the mesh does
    /// not contain.
    pub fn try_with_config(
        mesh: Mesh,
        latency: LatencyModel,
        ports: Vec<NodeId>,
    ) -> Result<Self, NetConfigError> {
        if ports.is_empty() {
            return Err(NetConfigError::NoMemoryPorts {
                width: mesh.width(),
                height: mesh.height(),
            });
        }
        if let Some(&bad) = ports.iter().find(|p| p.index() >= mesh.len()) {
            return Err(NetConfigError::PortOutsideMesh {
                port: bad,
                width: mesh.width(),
                height: mesh.height(),
            });
        }
        Ok(Self::build(mesh, latency, ports))
    }

    /// Enables the per-node byte tally (idempotent). Every subsequent
    /// message charges its size to both endpoint nodes, giving the
    /// traffic heatmap [`Network::node_bytes`] reports.
    pub fn enable_node_tally(&mut self) {
        if self.node_tally.is_none() {
            self.node_tally = Some(vec![0u64; self.mesh.len()].into_boxed_slice());
        }
    }

    /// Bytes attributed to each mesh node (source + destination), or an
    /// empty slice when the tally is disabled.
    pub fn node_bytes(&self) -> &[u64] {
        self.node_tally.as_deref().unwrap_or(&[])
    }

    /// Installs (or, with `None`, clears) link-fault injection state.
    ///
    /// With no faults installed, [`Network::send`] behaves exactly like
    /// [`Network::unicast`] with guaranteed delivery.
    pub fn install_faults(&mut self, faults: Option<LinkFaults>) {
        self.faults = faults;
    }

    /// Returns the installed link-fault state, if any.
    pub fn link_faults(&self) -> Option<&LinkFaults> {
        self.faults.as_ref()
    }

    /// Returns the topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Returns the latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Returns the memory-controller ports.
    pub fn memory_ports(&self) -> &[NodeId] {
        &self.ports
    }

    /// Links a message from `a` to `b` crosses: [`Mesh::hops`], read from
    /// the network's table.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the mesh.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        // One port entry per node. Slicing the row bounds-checks `b`
        // against the node count, so no pair aliases another.
        let n = self.port_table.len();
        self.hop_table[a.index() * n..][..n][b.index()]
    }

    /// The memory port nearest `node`: [`Mesh::nearest_port`] over
    /// [`Network::memory_ports`], read from the network's table.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[inline]
    pub fn nearest_port(&self, node: NodeId) -> NodeId {
        self.port_table[node.index()]
    }

    /// Returns accumulated traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Folds another network's accumulated traffic into this one's
    /// counters (saturation flags propagate). The parallel engine merges
    /// its per-shard traffic lenses back through this, in fixed shard
    /// order.
    pub fn merge_traffic(&mut self, other: &TrafficStats) {
        self.traffic.merge(other);
    }

    /// Resets traffic statistics (e.g. after warm-up). The per-node
    /// tally, if enabled, is zeroed but stays enabled.
    pub fn reset_traffic(&mut self) {
        self.traffic = TrafficStats::default();
        if let Some(t) = &mut self.node_tally {
            t.fill(0);
        }
    }

    /// Sends one message; returns its base latency in cycles.
    pub fn unicast(&mut self, src: NodeId, dst: NodeId, kind: MessageKind) -> u64 {
        let hops = self.hops(src, dst);
        self.traffic.record(kind, hops);
        if let Some(t) = &mut self.node_tally {
            let bytes = u64::from(kind.bytes());
            t[src.index()] += bytes;
            t[dst.index()] += bytes;
        }
        self.latency.base_latency(hops, kind.bytes())
    }

    /// Sends the same message to every destination (modelled as repeated
    /// unicasts); returns the *maximum* base latency over the
    /// destinations, or 0 for an empty destination set.
    ///
    /// Traffic is accounted once for the whole destination set via
    /// [`TrafficStats::record_batch`]; because every per-destination
    /// message has the same size, the batched total is exactly the sum
    /// the per-unicast loop would have produced.
    pub fn multicast(
        &mut self,
        src: NodeId,
        dests: impl IntoIterator<Item = NodeId>,
        kind: MessageKind,
    ) -> u64 {
        let mut worst = 0;
        let mut total_hops = 0u64;
        let mut messages = 0u64;
        let mut worst_hops = 0u32;
        // Borrows only the table, so the tally below stays writable.
        let n = self.port_table.len();
        let row = &self.hop_table[src.index() * n..][..n];
        for d in dests {
            let hops = row[d.index()];
            total_hops += u64::from(hops);
            messages += 1;
            worst_hops = worst_hops.max(hops);
            if let Some(t) = &mut self.node_tally {
                t[d.index()] += u64::from(kind.bytes());
            }
        }
        if messages > 0 {
            self.traffic.record_batch(kind, total_hops, messages);
            if let Some(t) = &mut self.node_tally {
                t[src.index()] += u64::from(kind.bytes()) * messages;
            }
            worst = self.latency.base_latency(worst_hops, kind.bytes());
        }
        worst
    }

    /// Sends one message subject to installed link faults.
    ///
    /// Traffic and base latency are accounted exactly as for
    /// [`Network::unicast`]; on top of that the installed [`LinkFaults`]
    /// (if any) may drop the message (`delivered == false`) or delay it
    /// (extra cycles added to `latency`).
    pub fn send(&mut self, src: NodeId, dst: NodeId, kind: MessageKind) -> SendOutcome {
        let base = self.unicast(src, dst, kind);
        match self.faults.as_mut().map(|f| f.judge(kind)) {
            None | Some(Delivery::Deliver) => SendOutcome {
                delivered: true,
                latency: base,
            },
            Some(Delivery::Delayed(extra)) => SendOutcome {
                delivered: true,
                latency: base + extra,
            },
            Some(Delivery::Dropped) => SendOutcome {
                delivered: false,
                latency: base,
            },
        }
    }

    /// Sends one message to every node of the bit mask `dests` (nodes
    /// 0-63), each subject to installed link faults: the fault-aware
    /// [`Network::multicast`].
    ///
    /// Destinations are judged in ascending node order, one
    /// [`LinkFaults::judge`] each, exactly as a loop of
    /// [`Network::send`]s would; traffic is accounted once for the whole
    /// set via [`TrafficStats::record_batch`], dropped legs included. The
    /// latency is the farthest leg's base latency, or a delayed leg's
    /// base latency plus its delay if that is larger, which is the
    /// maximum the loop of sends would have returned.
    pub fn send_fanout(&mut self, src: NodeId, dests: u64, kind: MessageKind) -> FanoutOutcome {
        let bytes = kind.bytes();
        let mut delivered = dests;
        let mut total_hops = 0u64;
        let mut worst_hops = 0u32;
        let mut worst_delayed = 0u64;
        let n = self.port_table.len();
        let row = &self.hop_table[src.index() * n..][..n];
        let mut pending = dests;
        while pending != 0 {
            let d = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let hops = row[d];
            total_hops += u64::from(hops);
            worst_hops = worst_hops.max(hops);
            if let Some(t) = &mut self.node_tally {
                t[d] += u64::from(bytes);
            }
            match self.faults.as_mut().map(|f| f.judge(kind)) {
                None | Some(Delivery::Deliver) => {}
                Some(Delivery::Delayed(extra)) => {
                    let late = self.latency.base_latency(hops, bytes) + extra;
                    worst_delayed = worst_delayed.max(late);
                }
                Some(Delivery::Dropped) => delivered &= !(1u64 << d),
            }
        }
        if dests == 0 {
            return FanoutOutcome {
                delivered,
                latency: 0,
            };
        }
        let messages = u64::from(dests.count_ones());
        self.traffic.record_batch(kind, total_hops, messages);
        if let Some(t) = &mut self.node_tally {
            t[src.index()] += u64::from(bytes) * messages;
        }
        FanoutOutcome {
            delivered,
            latency: self
                .latency
                .base_latency(worst_hops, bytes)
                .max(worst_delayed),
        }
    }

    /// Fault-aware variant of [`Network::to_memory`]: sends toward the
    /// nearest memory controller, subject to installed link faults.
    pub fn send_to_memory(&mut self, src: NodeId, kind: MessageKind) -> SendOutcome {
        let port = self.nearest_port(src);
        self.send(src, port, kind)
    }

    /// Sends a message from `src` to the nearest memory controller;
    /// returns the base latency (network part only; the caller adds DRAM
    /// access time).
    pub fn to_memory(&mut self, src: NodeId, kind: MessageKind) -> u64 {
        let port = self.nearest_port(src);
        self.unicast(src, port, kind)
    }

    /// Sends a message from the memory controller nearest `dst` to `dst`.
    pub fn from_memory(&mut self, dst: NodeId, kind: MessageKind) -> u64 {
        let port = self.nearest_port(dst);
        self.unicast(port, dst, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portless_network_is_refused_with_dimensions() {
        let mesh = Mesh::new(3, 2);
        match Network::try_with_config(mesh, LatencyModel::default(), vec![]) {
            Err(NetConfigError::NoMemoryPorts {
                width: 3,
                height: 2,
            }) => {}
            other => panic!("expected NoMemoryPorts, got {other:?}"),
        }
        match Network::try_with_config(mesh, LatencyModel::default(), vec![NodeId::new(6)]) {
            Err(NetConfigError::PortOutsideMesh {
                port,
                width: 3,
                height: 2,
            }) => {
                assert_eq!(port, NodeId::new(6));
            }
            other => panic!("expected PortOutsideMesh, got {other:?}"),
        }
        assert!(
            Network::try_with_config(mesh, LatencyModel::default(), vec![NodeId::new(5)]).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "no memory ports")]
    fn portless_panicking_constructor_names_the_problem() {
        let _ = Network::with_config(Mesh::new(2, 2), LatencyModel::default(), vec![]);
    }

    /// The tables are exactly their definitions, for every node pair, on
    /// degenerate, non-square and large meshes, with corner ports and
    /// with an arbitrary port list.
    #[test]
    fn tables_equal_mesh_hops_and_nearest_ports() {
        let check = |net: &Network| {
            let mesh = *net.mesh();
            for a in mesh.nodes() {
                assert_eq!(
                    net.nearest_port(a),
                    mesh.nearest_port(a, net.memory_ports())
                );
                for b in mesh.nodes() {
                    assert_eq!(net.hops(a, b), mesh.hops(a, b), "{a} -> {b}");
                }
            }
        };
        for (w, h) in [(1, 1), (1, 5), (3, 2), (4, 4), (8, 8)] {
            check(&Network::new(Mesh::new(w, h)));
        }
        let mesh = Mesh::new(5, 3);
        let ports = vec![NodeId::new(7), NodeId::new(2), NodeId::new(13)];
        let net = Network::try_with_config(mesh, LatencyModel::default(), ports).unwrap();
        check(&net);
        // Ties break toward the lower node index: node 12 = (2,2) is one
        // hop from both 7 = (2,1) and 13 = (3,2).
        assert_eq!(net.nearest_port(NodeId::new(12)), NodeId::new(7));
        assert_eq!(net.nearest_port(NodeId::new(0)), NodeId::new(2));
    }

    #[test]
    fn multicast_accounts_every_destination() {
        let mut net = Network::new(Mesh::new(4, 4));
        let src = NodeId::new(0);
        let dests: Vec<NodeId> = (1..16).map(NodeId::new).collect();
        let lat = net.multicast(src, dests.clone(), MessageKind::Request);
        // Farthest destination is 6 hops -> 30 cycles.
        assert_eq!(lat, 30);
        // 48 total hops from the corner (see topology tests) x 8 bytes.
        assert_eq!(net.traffic().byte_links(), 48 * 8);
        assert_eq!(net.traffic().messages(), 15);
    }

    #[test]
    fn empty_multicast_is_free() {
        let mut net = Network::new(Mesh::new(2, 2));
        let lat = net.multicast(NodeId::new(0), std::iter::empty(), MessageKind::Request);
        assert_eq!(lat, 0);
        assert_eq!(net.traffic().messages(), 0);
    }

    #[test]
    fn memory_roundtrip_uses_nearest_port() {
        let mut net = Network::new(Mesh::new(4, 4));
        // Node 5 = (1,1); nearest corner is (0,0), 2 hops away.
        let req = net.to_memory(NodeId::new(5), MessageKind::Request);
        assert_eq!(req, 10);
        let resp = net.from_memory(NodeId::new(5), MessageKind::Data);
        assert_eq!(resp, 2 * 5 + 4);
        assert_eq!(net.traffic().byte_links(), 8 * 2 + 72 * 2);
    }

    #[test]
    fn reset_traffic_clears_counters() {
        let mut net = Network::new(Mesh::new(2, 2));
        net.unicast(NodeId::new(0), NodeId::new(3), MessageKind::Data);
        assert!(net.traffic().byte_links() > 0);
        net.reset_traffic();
        assert_eq!(net.traffic().byte_links(), 0);
    }

    #[test]
    fn send_without_faults_matches_unicast() {
        let mut a = Network::new(Mesh::new(4, 4));
        let mut b = Network::new(Mesh::new(4, 4));
        let lat = a.unicast(NodeId::new(0), NodeId::new(3), MessageKind::Request);
        let out = b.send(NodeId::new(0), NodeId::new(3), MessageKind::Request);
        assert!(out.delivered);
        assert_eq!(out.latency, lat);
        assert_eq!(a.traffic().byte_links(), b.traffic().byte_links());
    }

    #[test]
    fn dropped_send_still_accounts_traffic() {
        use crate::fault::{LinkFaultConfig, LinkFaults};
        let mut net = Network::new(Mesh::new(4, 4));
        net.install_faults(Some(LinkFaults::new(
            LinkFaultConfig {
                drop_p: 1.0,
                delay_p: 0.0,
                max_delay_cycles: 0,
            },
            42,
        )));
        let out = net.send(NodeId::new(0), NodeId::new(3), MessageKind::Request);
        assert!(!out.delivered);
        assert_eq!(net.traffic().messages(), 1);
        assert_eq!(net.link_faults().unwrap().drops(), 1);
        // Reliable kinds are immune even at drop_p = 1.
        let out = net.send(NodeId::new(0), NodeId::new(3), MessageKind::Persistent);
        assert!(out.delivered);
    }

    #[test]
    fn delayed_send_adds_latency() {
        use crate::fault::{LinkFaultConfig, LinkFaults};
        let mut net = Network::new(Mesh::new(4, 4));
        let base = net.unicast(NodeId::new(0), NodeId::new(3), MessageKind::Data);
        net.install_faults(Some(LinkFaults::new(
            LinkFaultConfig {
                drop_p: 0.0,
                delay_p: 1.0,
                max_delay_cycles: 4,
            },
            42,
        )));
        let out = net.send(NodeId::new(0), NodeId::new(3), MessageKind::Data);
        assert!(out.delivered);
        assert!(out.latency > base && out.latency <= base + 4);
    }

    /// A fan-out is the loop of [`Network::send`]s it replaces: the same
    /// fault stream, delivered set, worst latency and traffic, on a
    /// mesh with drops and delays armed.
    #[test]
    fn send_fanout_equals_a_loop_of_sends() {
        use crate::fault::{LinkFaultConfig, LinkFaults};
        let faults = LinkFaults::new(
            LinkFaultConfig {
                drop_p: 0.3,
                delay_p: 0.4,
                max_delay_cycles: 40,
            },
            7,
        );
        let mut batched = Network::new(Mesh::new(4, 4));
        batched.install_faults(Some(faults.clone()));
        batched.enable_node_tally();
        let mut looped = batched.clone();
        let mut masks = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..500u16 {
            masks = masks.rotate_left(13) ^ u64::from(round);
            let dests = masks & 0xFFFF;
            let src = NodeId::new(round % 16);
            let kind = if round % 3 == 0 {
                MessageKind::Persistent
            } else {
                MessageKind::Request
            };
            let (mut delivered, mut latency) = (0u64, 0u64);
            for d in (0..16).filter(|d| dests & (1 << d) != 0) {
                let out = looped.send(src, NodeId::new(d), kind);
                latency = latency.max(out.latency);
                if out.delivered {
                    delivered |= 1 << d;
                }
            }
            let out = batched.send_fanout(src, dests, kind);
            assert_eq!(
                (out.delivered, out.latency),
                (delivered, latency),
                "round {round}"
            );
        }
        assert_eq!(batched.traffic(), looped.traffic());
        assert_eq!(batched.node_bytes(), looped.node_bytes());
        let (b, l) = (
            batched.link_faults().unwrap(),
            looped.link_faults().unwrap(),
        );
        assert_eq!((b.drops(), b.delays()), (l.drops(), l.delays()));
        assert!(
            b.drops() > 0 && b.delays() > 0,
            "both faults were exercised"
        );
    }

    #[test]
    #[should_panic(expected = "memory port")]
    fn bad_port_rejected() {
        let _ = Network::with_config(
            Mesh::new(2, 2),
            LatencyModel::default(),
            vec![NodeId::new(9)],
        );
    }
}
