//! On-chip network substrate for the *virtual snooping* reproduction.
//!
//! Models the interconnect of the paper's simulated system (Table II): a
//! 4x4 2D mesh with 16-byte links and a 4-cycle router pipeline, with
//! XY-routed hop accounting, GEMS-style message sizing (8-byte control,
//! 72-byte data), per-kind traffic statistics in byte-links, and a simple
//! contention-aware latency model.
//!
//! The crate is deliberately independent of the cache and virtualization
//! layers: it deals in [`NodeId`]s and [`MessageKind`]s only.
//!
//! # Examples
//!
//! ```
//! use sim_net::{Network, Mesh, MessageKind, NodeId};
//!
//! let mut net = Network::new(Mesh::new(4, 4));
//! // A broadcast snoop from node 0 to everyone else:
//! let dests: Vec<_> = net.mesh().nodes().filter(|&n| n != NodeId::new(0)).collect();
//! net.multicast(NodeId::new(0), dests, MessageKind::Request);
//! assert_eq!(net.traffic().messages(), 15);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
mod latency;
mod message;
mod network;
mod topology;
mod traffic;

pub use fault::{Delivery, LinkFaultConfig, LinkFaults};
pub use latency::LatencyModel;
pub use message::MessageKind;
pub use network::{FanoutOutcome, Network, SendOutcome};
pub use topology::{Mesh, NetConfigError, NodeId};
pub use traffic::TrafficStats;
