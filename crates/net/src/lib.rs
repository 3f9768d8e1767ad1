//! Lightweight network message protocol.
//!
//! Locus' transaction and locking machinery rides on "lightweight network
//! protocols" (Section 1): single request/response exchanges between kernels,
//! with no connection setup. We model that as a [`Transport`] over which a
//! caller performs a synchronous [`Transport::rpc`]: the message is
//! dispatched directly to the destination site's [`SiteHandler`], the
//! response returned, and the round-trip's modeled cost charged to the
//! caller's [`locus_sim::Account`].
//!
//! The [`SimTransport`] adds the failure machinery of Section 4.3/4.4: sites
//! can crash and reboot, and the network can partition; unreachable
//! destinations fail the RPC with [`locus_types::Error::SiteDown`] or
//! [`locus_types::Error::Partitioned`], which the transaction layer turns into aborts.

pub mod msg;
pub mod transport;
pub mod wire;

pub use msg::{FileMsg, Held, LockMsg, Msg, ProcMsg, ReplicaMsg, TxnMsg};
pub use transport::{FaultDecision, FaultInjector, SimTransport, SiteHandler, Transport};
pub use wire::{decode as decode_msg, encode as encode_msg};
