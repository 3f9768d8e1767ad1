//! The typed RPC service layer: one module per subsystem, each owning both
//! sides of its protocol — the system-call (client) surface and the
//! storage-site (server) request handler for its request enum.
//!
//! | module    | request enum          | subsystem                          |
//! |-----------|-----------------------|------------------------------------|
//! | `file`    | [`locus_net::FileMsg`]| open/read/write, single-file commit|
//! | `lock`    | [`locus_net::LockMsg`]| record locking                     |
//! | `proc`    | [`locus_net::ProcMsg`]| migration, file-list merging       |
//! | `replica` | [`locus_net::ReplicaMsg`] | primary-site replication       |
//! | `txn`     | [`locus_net::TxnMsg`] | 2PC control plane (via [`TxnService`]) |
//!
//! `dispatch` is the single entry point: it routes each [`Msg`] to the
//! owning service's `ServiceHandler` and unrolls [`Msg::Batch`] envelopes
//! into positional per-member responses.

pub mod file;
pub mod lock;
pub mod proc;
pub mod replica;
pub mod txn;

pub use lock::LockOpts;
pub use txn::TxnService;

use locus_net::Msg;
use locus_sim::Account;
use locus_types::{ByteRange, Error, Result, SiteId};

use crate::kernel::Kernel;

/// A typed per-subsystem request handler: consumes the service's request
/// enum and produces the response message. Implementations are stateless —
/// all state lives on the [`Kernel`] they are handed.
pub(crate) trait ServiceHandler {
    /// The service's request enum (one of the `Msg` sub-enums).
    type Request;

    fn handle(k: &Kernel, from: SiteId, req: Self::Request, acct: &mut Account) -> Result<Msg>;
}

/// Refuses a range whose `start + len` does not fit the address space, at
/// the two kinds of place one enters the kernel: a system call's `pos + len`
/// and a range in a message from another site. Past this check
/// [`ByteRange::end`] cannot overflow.
pub(crate) fn check_range(range: ByteRange) -> Result<()> {
    match range.checked_end() {
        Some(_) => Ok(()),
        None => Err(Error::InvalidArgument(format!(
            "byte range {}+{} overflows the file address space",
            range.start, range.len
        ))),
    }
}

/// Routes one message to its service handler. Batch members are dispatched
/// in order and their responses (including per-member errors) returned as a
/// positional `Msg::Batch`; a failing member does not stop later members.
pub(crate) fn dispatch(k: &Kernel, from: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
    match msg {
        Msg::File(req) => file::FileService::handle(k, from, req, acct),
        Msg::Lock(req) => lock::LockService::handle(k, from, req, acct),
        Msg::Proc(req) => proc::ProcService::handle(k, from, req, acct),
        Msg::Replica(req) => replica::ReplicaService::handle(k, from, req, acct),
        Msg::Txn(req) => Ok(k.txn_service_ref()?.handle_txn(from, req, acct)),
        Msg::Batch(members) => {
            let mut resps = Vec::with_capacity(members.len());
            for m in members {
                if matches!(m, Msg::Batch(_)) {
                    return Err(Error::ProtocolViolation("nested batch".into()));
                }
                resps.push(match dispatch(k, from, m, acct) {
                    Ok(r) => r,
                    Err(e) => Msg::Err(e),
                });
            }
            Ok(Msg::Batch(resps))
        }
        Msg::Ok | Msg::Err(_) => Err(Error::ProtocolViolation(format!(
            "kernel cannot handle a bare response (from {from})"
        ))),
    }
}
