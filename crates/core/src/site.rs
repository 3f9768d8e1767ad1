//! A complete Locus site: kernel (data plane) plus transaction manager
//! (control plane), presented to the network as one message handler.

use std::sync::Arc;

use locus_kernel::Kernel;
use locus_net::{Msg, SiteHandler};
use locus_sim::Account;
use locus_types::SiteId;

use crate::manager::TxnManager;

/// One site of the distributed system.
pub struct Site {
    pub kernel: Arc<Kernel>,
    pub txn: Arc<TxnManager>,
}

impl Site {
    pub fn new(kernel: Arc<Kernel>) -> Self {
        let txn = Arc::new(TxnManager::new(kernel.clone()));
        // The kernel's service dispatcher routes `Msg::Txn` (standalone or
        // inside a `Msg::Batch`) to the manager through this registration.
        kernel.set_txn_service(txn.clone());
        Site { kernel, txn }
    }

    pub fn id(&self) -> SiteId {
        self.kernel.site
    }

    /// Crashes the site: volatile kernel state is lost; the transaction
    /// manager's in-memory coordination state dies with it (the durable
    /// coordinator/prepare logs survive on disk).
    pub fn crash(&self) {
        self.kernel.crash();
    }

    /// Reboots and runs transaction recovery before permitting new
    /// transactions (Section 4.4).
    pub fn reboot_and_recover(&self, acct: &mut Account) -> crate::manager::RecoveryReport {
        self.kernel.reboot();
        let report = self.txn.recover(acct);
        // Re-drive whatever phase-two work recovery queued.
        self.txn.run_async_work(acct);
        // Steady-state purges are lazy and ride the next commit's flush;
        // recovery forces its own, so a second crash before any commit does
        // not resurface the records and redo the pass.
        if let Ok(home) = self.kernel.home() {
            let _ = home.log_barrier(acct);
        }
        report
    }
}

impl SiteHandler for Site {
    fn handle(&self, from: SiteId, msg: Msg, acct: &mut Account) -> Msg {
        // All services — including the transaction control plane, which is
        // registered with the kernel as its `TxnService` — go through the
        // kernel's typed service dispatcher.
        self.kernel.handle_kernel_msg(from, msg, acct)
    }
}
