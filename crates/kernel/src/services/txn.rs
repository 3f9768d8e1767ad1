//! The transaction service hook.
//!
//! Two-phase commit, cascading abort, and recovery status inquiries are the
//! transaction manager's business, and that lives above the kernel (in
//! `locus-core`). The kernel still routes `Msg::Txn` — including members of
//! a [`locus_net::Msg::Batch`] — so the control plane gets batching, tracing,
//! and per-service accounting for free; it does so through this trait, which
//! the transaction manager implements and registers via
//! [`crate::Kernel::set_txn_service`].

use locus_net::{Msg, TxnMsg};
use locus_sim::Account;
use locus_types::TransId;

/// The transaction control plane of a site, as seen by its kernel.
pub trait TxnService: Send + Sync {
    /// Handles one transaction control-plane request, returning the response
    /// message (`Msg::Err` for failures — the kernel embeds it verbatim).
    fn handle_txn(&self, req: TxnMsg, acct: &mut Account) -> Msg;

    /// A request here is about to wait on, or be refused by, a lock `tid`
    /// holds: settle `tid`'s outcome at this site now if it can be learned
    /// without the message that would bring it. Returns whether it was —
    /// its locks are gone, and the request may ask again.
    fn wanted(&self, tid: TransId, acct: &mut Account) -> bool;

    /// Whether this site rolled `tid` back and refuses it: the transaction
    /// can only abort, and an access of it here is refused.
    fn refused(&self, tid: TransId) -> bool;
}
