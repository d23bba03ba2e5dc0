//! 2D mesh topology with dimension-ordered (XY) routing.
//!
//! The paper's simulated system uses a 4x4 2D mesh with 16-byte links
//! (Table II). Snoop traffic cost is dominated by how many links each
//! message crosses, so the topology's job is hop accounting: XY routing
//! makes the hop count between two nodes their Manhattan distance.

use std::fmt;

/// A structurally invalid network description, rejected at construction.
///
/// Carries the offending dimensions so callers (and the simulator's
/// `SimError::InvalidConfig`) can say exactly which configuration was
/// refused instead of aborting deep inside hop accounting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetConfigError {
    /// A mesh dimension was zero.
    EmptyMesh {
        /// Requested width (columns).
        width: usize,
        /// Requested height (rows).
        height: usize,
    },
    /// A network was configured with no memory-controller ports; every
    /// memory round-trip would have nowhere to go.
    NoMemoryPorts {
        /// Mesh width the ports were declared for.
        width: usize,
        /// Mesh height the ports were declared for.
        height: usize,
    },
    /// A declared memory port does not exist on the mesh.
    PortOutsideMesh {
        /// The out-of-range port.
        port: NodeId,
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
}

impl fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetConfigError::EmptyMesh { width, height } => {
                write!(f, "mesh dimensions must be positive (got {width}x{height})")
            }
            NetConfigError::NoMemoryPorts { width, height } => {
                write!(f, "{width}x{height} mesh has no memory ports")
            }
            NetConfigError::PortOutsideMesh {
                port,
                width,
                height,
            } => {
                write!(f, "memory port {port} outside {width}x{height} mesh")
            }
        }
    }
}

impl std::error::Error for NetConfigError {}

/// A node (router) of the mesh; node *i* hosts core *i* in row-major order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node identifier from a dense index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(i: u16) -> Self {
        NodeId(i)
    }
}

/// A `width` x `height` 2D mesh.
///
/// # Examples
///
/// ```
/// use sim_net::{Mesh, NodeId};
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.nodes().count(), 16);
/// // Opposite corners of a 4x4 mesh are 6 hops apart under XY routing.
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(15)), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh {
    width: usize,
    height: usize,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; use [`Mesh::try_new`] to get a
    /// typed error instead.
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("mesh dimensions must be positive")
    }

    /// Creates a mesh, rejecting degenerate dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`NetConfigError::EmptyMesh`] if either dimension is zero.
    pub fn try_new(width: usize, height: usize) -> Result<Self, NetConfigError> {
        if width == 0 || height == 0 {
            return Err(NetConfigError::EmptyMesh { width, height });
        }
        Ok(Mesh { width, height })
    }

    /// Returns the mesh width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns the mesh height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Returns the number of nodes.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Returns `true` for a degenerate 0-node mesh (never constructible).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all node identifiers in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u16).map(NodeId::new)
    }

    /// Returns the `(x, y)` coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        assert!(
            i < self.len(),
            "node {node} out of range for {}x{} mesh",
            self.width,
            self.height
        );
        (i % self.width, i / self.width)
    }

    /// Returns the node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        NodeId::new((y * self.width + x) as u16)
    }

    /// Number of links a message from `a` to `b` traverses under XY
    /// routing (the Manhattan distance).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Number of directed links: two per pair of adjacent routers, so
    /// zero for a 1x1 mesh.
    pub fn links(&self) -> usize {
        let (w, h) = (self.width, self.height);
        2 * ((w - 1) * h + w * (h - 1))
    }

    /// Sum of hop counts from `src` to each destination (multicasts are
    /// modelled as repeated unicasts, as in the GEMS/Garnet baseline).
    pub fn sum_hops(&self, src: NodeId, dests: impl IntoIterator<Item = NodeId>) -> u64 {
        dests
            .into_iter()
            .map(|d| u64::from(self.hops(src, d)))
            .sum()
    }

    /// Returns the default memory-controller ports: the four corner nodes
    /// (or fewer for degenerate meshes).
    pub fn corner_ports(&self) -> Vec<NodeId> {
        let mut v = vec![
            self.node_at(0, 0),
            self.node_at(self.width - 1, 0),
            self.node_at(0, self.height - 1),
            self.node_at(self.width - 1, self.height - 1),
        ];
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Returns the memory port (from `ports`) closest to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty; a port-less network is refused at
    /// construction by [`crate::Network::try_with_config`], so reaching
    /// this with no ports means the caller bypassed validation — use
    /// [`Mesh::try_nearest_port`] there instead.
    pub fn nearest_port(&self, node: NodeId, ports: &[NodeId]) -> NodeId {
        self.try_nearest_port(node, ports)
            .expect("need at least one memory port")
    }

    /// Returns the memory port (from `ports`) closest to `node`, or
    /// `None` when `ports` is empty.
    pub fn try_nearest_port(&self, node: NodeId, ports: &[NodeId]) -> Option<NodeId> {
        ports
            .iter()
            .min_by_key(|&&p| (self.hops(node, p), p.index()))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_mesh_is_refused_with_dimensions() {
        match Mesh::try_new(0, 4) {
            Err(NetConfigError::EmptyMesh {
                width: 0,
                height: 4,
            }) => {}
            other => panic!("expected EmptyMesh, got {other:?}"),
        }
        let msg = Mesh::try_new(4, 0).unwrap_err().to_string();
        assert!(
            msg.contains("4x0"),
            "message must name the dimensions: {msg}"
        );
        assert!(Mesh::try_new(1, 1).is_ok());
    }

    #[test]
    fn nearest_port_of_empty_port_list_is_none() {
        let m = Mesh::new(2, 2);
        assert_eq!(m.try_nearest_port(NodeId::new(0), &[]), None);
        assert_eq!(
            m.try_nearest_port(NodeId::new(3), &m.corner_ports()),
            Some(NodeId::new(3))
        );
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(4, 4);
        for n in m.nodes() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.hops(m.node_at(0, 0), m.node_at(0, 0)), 0);
        assert_eq!(m.hops(m.node_at(0, 0), m.node_at(3, 0)), 3);
        assert_eq!(m.hops(m.node_at(1, 1), m.node_at(2, 3)), 3);
        // symmetric
        assert_eq!(
            m.hops(m.node_at(0, 2), m.node_at(3, 1)),
            m.hops(m.node_at(3, 1), m.node_at(0, 2))
        );
    }

    #[test]
    fn sum_hops_broadcast_4x4() {
        let m = Mesh::new(4, 4);
        let src = m.node_at(0, 0);
        let total = m.sum_hops(src, m.nodes().filter(|&n| n != src));
        // Sum of Manhattan distances from corner (0,0) of 4x4:
        // sum over x,y of (x + y) = 4*(0+1+2+3)*2 = 48.
        assert_eq!(total, 48);
    }

    #[test]
    fn corner_ports_and_nearest() {
        let m = Mesh::new(4, 4);
        let ports = m.corner_ports();
        assert_eq!(ports.len(), 4);
        assert_eq!(m.nearest_port(m.node_at(1, 1), &ports), m.node_at(0, 0));
        assert_eq!(m.nearest_port(m.node_at(2, 3), &ports), m.node_at(3, 3));
    }

    #[test]
    fn single_row_mesh() {
        let m = Mesh::new(8, 1);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(7)), 7);
        assert_eq!(m.corner_ports().len(), 2);
    }

    #[test]
    fn directed_links() {
        assert_eq!(Mesh::new(4, 4).links(), 48);
        assert_eq!(Mesh::new(3, 2).links(), 14);
        assert_eq!(Mesh::new(1, 5).links(), 8);
        assert_eq!(Mesh::new(1, 1).links(), 0);
    }

    #[test]
    fn one_by_one_mesh() {
        let m = Mesh::new(1, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.corner_ports().len(), 1);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(0)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_rejected() {
        let m = Mesh::new(2, 2);
        let _ = m.coords(NodeId::new(4));
    }
}
