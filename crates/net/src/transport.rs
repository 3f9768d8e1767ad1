//! Transports: how a message gets from one site's kernel to another's.
//!
//! [`SimTransport`] is the workhorse: a direct-dispatch transport that
//! synchronously invokes the destination site's handler on the caller's
//! thread, charging the modeled round-trip latency and per-page transfer
//! time to the caller's [`Account`]. It also owns the failure model: site
//! up/down state and the partition (reachability) relation, with registered
//! topology-change listeners so the transaction layer can abort transactions
//! that span a lost partition (Section 4.3).

use std::sync::Arc;

use parking_lot::RwLock;

use locus_sim::{Account, CostModel, Counters, Event, EventLog, SpanPhase, VirtSpan};
use locus_types::{Error, Result, SiteId};

use crate::msg::Msg;

/// A site's message handler: the kernel-plus-transaction-manager assembly
/// implements this to serve remote requests.
pub trait SiteHandler: Send + Sync {
    /// Handles one request and produces a response message.
    ///
    /// The account is already switched to execute at this site; CPU charged
    /// here is attributed to the serving site.
    fn handle(&self, from: SiteId, msg: Msg, acct: &mut Account) -> Msg;
}

/// Message delivery abstraction.
pub trait Transport: Send + Sync {
    /// Synchronous request/response exchange. The returned message is the
    /// destination's response (possibly `Msg::Err`), already unwrapped into
    /// `Result` for transport-level failures.
    fn rpc(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg>;

    /// One-way notification (lock grant pushes, phase-two messages). Charged
    /// at half a round trip. Delivery failures are reported but carry no
    /// payload back.
    fn notify(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<()>;

    /// Whether `to` is currently reachable from `from`.
    fn reachable(&self, from: SiteId, to: SiteId) -> bool;

    /// All sites currently up and reachable from `site` (including itself).
    fn partition_of(&self, site: SiteId) -> Vec<SiteId>;
}

/// Callback invoked when network topology changes (site crash, partition).
/// The new reachability is queried through the transport itself.
pub type TopologyListener = Arc<dyn Fn(SiteId) + Send + Sync>;

/// What the fault injector decided for one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// The request is lost on the wire: the handler never runs and the
    /// sender sees a transport failure (indistinguishable from a timeout).
    /// For one-way notifications the loss is silent.
    Drop,
    /// The request is delivered and processed, but the reply is lost: the
    /// sender sees a transport failure even though the side effect happened.
    /// Equivalent to `Deliver` for one-way notifications.
    DropReply,
    /// The message is delivered twice (handlers must be idempotent).
    Duplicate,
    /// The message is delayed by this many extra milliseconds of flight
    /// time before normal delivery.
    Delay(u64),
}

/// Wire-level fault policy consulted for every remote message. Implemented
/// by the chaos harness; `oneway` distinguishes notifications (no reply)
/// from request/response RPCs so policies can avoid unrecoverable losses.
pub trait FaultInjector: Send + Sync {
    fn decide(&self, from: SiteId, to: SiteId, msg: &Msg, oneway: bool) -> FaultDecision;
}

struct NetState {
    handlers: Vec<Option<Arc<dyn SiteHandler>>>,
    up: Vec<bool>,
    /// `groups[i]` is the partition group of site `i`; sites communicate only
    /// within a group. Default: everyone in group 0.
    groups: Vec<u32>,
}

/// Direct-dispatch simulated network.
pub struct SimTransport {
    state: RwLock<NetState>,
    model: Arc<CostModel>,
    counters: Arc<Counters>,
    events: Arc<EventLog>,
    listeners: RwLock<Vec<TopologyListener>>,
    injector: RwLock<Option<Arc<dyn FaultInjector>>>,
}

impl SimTransport {
    pub fn new(
        n_sites: usize,
        model: Arc<CostModel>,
        counters: Arc<Counters>,
        events: Arc<EventLog>,
    ) -> Self {
        SimTransport {
            state: RwLock::new(NetState {
                handlers: (0..n_sites).map(|_| None).collect(),
                up: vec![true; n_sites],
                groups: vec![0; n_sites],
            }),
            model,
            counters,
            events,
            listeners: RwLock::new(Vec::new()),
            injector: RwLock::new(None),
        }
    }

    /// Installs (or clears) the wire-level fault injector consulted for
    /// every remote message. Used by the chaos harness.
    pub fn set_fault_injector(&self, inj: Option<Arc<dyn FaultInjector>>) {
        *self.injector.write() = inj;
    }

    fn decide_fault(&self, from: SiteId, to: SiteId, msg: &Msg, oneway: bool) -> FaultDecision {
        match self.injector.read().as_ref() {
            Some(inj) => inj.decide(from, to, msg, oneway),
            None => FaultDecision::Deliver,
        }
    }

    /// Registers the handler serving requests addressed to `site`.
    pub fn register(&self, site: SiteId, handler: Arc<dyn SiteHandler>) {
        let mut st = self.state.write();
        let idx = site.0 as usize;
        assert!(idx < st.handlers.len(), "unknown site {site}");
        st.handlers[idx] = Some(handler);
    }

    /// Registers a topology-change listener (called once per *surviving*
    /// site whenever a site goes down or the partition map changes).
    pub fn on_topology_change(&self, l: TopologyListener) {
        self.listeners.write().push(l);
    }

    fn fire_topology_change(&self) {
        let survivors: Vec<SiteId> = {
            let st = self.state.read();
            (0..st.up.len())
                .filter(|i| st.up[*i])
                .map(|i| SiteId(i as u32))
                .collect()
        };
        let listeners = self.listeners.read().clone();
        for l in &listeners {
            for s in &survivors {
                l(*s);
            }
        }
    }

    /// Marks a site down. In-flight behaviour: subsequent RPCs fail with
    /// [`Error::SiteDown`]. Volatile state loss is the kernel's concern.
    pub fn site_down(&self, site: SiteId) {
        self.state.write().up[site.0 as usize] = false;
        self.fire_topology_change();
    }

    /// Marks a site up again (after reboot + recovery).
    pub fn site_up(&self, site: SiteId) {
        self.state.write().up[site.0 as usize] = true;
        self.fire_topology_change();
    }

    /// Splits the network: sites in `isolated` form their own partition.
    pub fn partition(&self, isolated: &[SiteId]) {
        {
            let mut st = self.state.write();
            let next = st.groups.iter().max().copied().unwrap_or(0) + 1;
            for s in isolated {
                st.groups[s.0 as usize] = next;
            }
        }
        self.fire_topology_change();
    }

    /// Heals all partitions.
    pub fn heal(&self) {
        {
            let mut st = self.state.write();
            for g in st.groups.iter_mut() {
                *g = 0;
            }
        }
        self.fire_topology_change();
    }

    fn check_path(&self, from: SiteId, to: SiteId) -> Result<Arc<dyn SiteHandler>> {
        let st = self.state.read();
        let (fi, ti) = (from.0 as usize, to.0 as usize);
        if fi >= st.up.len() || ti >= st.up.len() {
            return Err(Error::SiteDown(to));
        }
        if !st.up[fi] {
            return Err(Error::Crashed(from));
        }
        if !st.up[ti] {
            return Err(Error::SiteDown(to));
        }
        if st.groups[fi] != st.groups[ti] {
            return Err(Error::Partitioned { from, to });
        }
        st.handlers[ti].clone().ok_or(Error::SiteDown(to))
    }

    /// Tags the outgoing message in the event log and per-service counters.
    /// A batch counts as one network message but each member is traced and
    /// counted under its own service.
    fn trace_msg(&self, from: SiteId, to: SiteId, msg: &Msg) {
        match msg {
            Msg::Batch(members) => {
                self.counters.batches_sent();
                for m in members {
                    self.counters.service_msg(m.service());
                    self.events.push(Event::Rpc {
                        from,
                        to,
                        service: m.service(),
                        kind: m.kind(),
                        batched: true,
                    });
                }
            }
            m => {
                self.counters.service_msg(m.service());
                self.events.push(Event::Rpc {
                    from,
                    to,
                    service: m.service(),
                    kind: m.kind(),
                    batched: false,
                });
            }
        }
    }

    fn charge_send(
        &self,
        from: SiteId,
        to: SiteId,
        msg: &Msg,
        acct: &mut Account,
        round_trip: bool,
    ) {
        self.counters.messages_sent();
        self.trace_msg(from, to, msg);
        acct.messages += 1;
        acct.cpu_instrs(&self.model, self.model.msg_handler_instrs);
        let flight = if round_trip {
            self.model.net_rtt
        } else {
            self.model.net_rtt / 2
        };
        acct.wait(flight);
        let pages = msg.pages_carried(self.model.page_size);
        if pages > 0 {
            acct.wait(self.model.net_page_transfer * pages);
        }
    }
}

impl Transport for SimTransport {
    fn rpc(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
        if from == to {
            // Local "RPC" is a direct function call: no message, no charge.
            let handler = self.check_path(from, to)?;
            return Ok(handler.handle(from, msg, acct));
        }
        let span = VirtSpan::begin(SpanPhase::RpcSend, acct);
        let res = self.rpc_remote(from, to, msg, acct);
        span.finish(&self.counters.spans, &self.model, acct);
        res
    }

    fn notify(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<()> {
        if from == to {
            let handler = self.check_path(from, to)?;
            handler.handle(from, msg, acct);
            return Ok(());
        }
        let span = VirtSpan::begin(SpanPhase::RpcSend, acct);
        let res = self.notify_remote(from, to, msg, acct);
        span.finish(&self.counters.spans, &self.model, acct);
        res
    }

    fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.check_path(from, to).is_ok()
    }

    fn partition_of(&self, site: SiteId) -> Vec<SiteId> {
        let st = self.state.read();
        let idx = site.0 as usize;
        if idx >= st.up.len() || !st.up[idx] {
            return Vec::new();
        }
        let g = st.groups[idx];
        (0..st.up.len())
            .filter(|i| st.up[*i] && st.groups[*i] == g)
            .map(|i| SiteId(i as u32))
            .collect()
    }
}

impl SimTransport {
    /// Remote request/response exchange ([`Transport::rpc`] after the
    /// local-call fast path), wrapped in an `RpcSend` span by the caller.
    fn rpc_remote(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
        let handler = self.check_path(from, to)?;
        let fault = self.decide_fault(from, to, &msg, false);
        self.charge_send(from, to, &msg, acct, true);
        match fault {
            FaultDecision::Drop => {
                // The request vanished on the wire: nothing ran at the
                // destination, the sender's timeout fires.
                self.events.push(Event::ChaosDrop {
                    from,
                    to,
                    service: msg.service(),
                    kind: msg.kind(),
                });
                return Err(Error::SiteDown(to));
            }
            FaultDecision::Delay(ms) => {
                self.events.push(Event::ChaosDelay {
                    from,
                    to,
                    millis: ms,
                });
                acct.wait(locus_sim::SimDuration::from_millis(ms));
            }
            _ => {}
        }
        self.counters.messages_handled();
        let deliveries = if fault == FaultDecision::Duplicate {
            self.events.push(Event::ChaosDup {
                from,
                to,
                service: msg.service(),
                kind: msg.kind(),
            });
            2
        } else {
            1
        };
        // The message is moved into the last delivery; cloning (and with it
        // copying any data payload) only happens for injected duplicates.
        let (service, kind) = (msg.service(), msg.kind());
        let mut resp = None;
        let mut msg = Some(msg);
        for i in 0..deliveries {
            let m = if i + 1 == deliveries {
                msg.take().expect("taken once, on the last delivery")
            } else {
                msg.as_ref()
                    .expect("present until the last delivery")
                    .clone()
            };
            let r = acct.at_site(to, |acct| {
                let recv = VirtSpan::begin(SpanPhase::RpcRecv, acct);
                acct.cpu_instrs(&self.model, self.model.msg_handler_instrs);
                let r = handler.handle(from, m, acct);
                recv.finish(&self.counters.spans, &self.model, acct);
                r
            });
            // The sender acts on the first reply; a duplicate's reply is
            // discarded (it would arrive after the exchange completed).
            if resp.is_none() {
                resp = Some(r);
            }
        }
        let resp = resp.expect("at least one delivery");
        if fault == FaultDecision::DropReply {
            // The side effect happened but the reply was lost.
            self.events.push(Event::ChaosDropReply {
                from,
                to,
                service,
                kind,
            });
            return Err(Error::SiteDown(to));
        }
        // Response payload (e.g. remote read data) pays transfer time too.
        let pages = resp.pages_carried(self.model.page_size);
        if pages > 0 {
            acct.wait(self.model.net_page_transfer * pages);
        }
        Ok(resp)
    }

    /// Remote one-way notification ([`Transport::notify`] after the
    /// local-call fast path), wrapped in an `RpcSend` span by the caller.
    fn notify_remote(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<()> {
        let handler = self.check_path(from, to)?;
        let fault = self.decide_fault(from, to, &msg, true);
        self.charge_send(from, to, &msg, acct, false);
        match fault {
            FaultDecision::Drop => {
                // A lost notification is silent: the sender proceeds.
                self.events.push(Event::ChaosDrop {
                    from,
                    to,
                    service: msg.service(),
                    kind: msg.kind(),
                });
                return Ok(());
            }
            FaultDecision::Delay(ms) => {
                self.events.push(Event::ChaosDelay {
                    from,
                    to,
                    millis: ms,
                });
                acct.wait(locus_sim::SimDuration::from_millis(ms));
            }
            _ => {}
        }
        self.counters.messages_handled();
        let deliveries = if fault == FaultDecision::Duplicate {
            self.events.push(Event::ChaosDup {
                from,
                to,
                service: msg.service(),
                kind: msg.kind(),
            });
            2
        } else {
            1
        };
        let mut msg = Some(msg);
        for i in 0..deliveries {
            let m = if i + 1 == deliveries {
                msg.take().expect("taken once, on the last delivery")
            } else {
                msg.as_ref()
                    .expect("present until the last delivery")
                    .clone()
            };
            acct.at_site(to, |acct| {
                let recv = VirtSpan::begin(SpanPhase::RpcRecv, acct);
                acct.cpu_instrs(&self.model, self.model.msg_handler_instrs);
                handler.handle(from, m, acct);
                recv.finish(&self.counters.spans, &self.model, acct);
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_sim::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Echo {
        hits: AtomicU64,
    }

    impl SiteHandler for Echo {
        fn handle(&self, _from: SiteId, msg: Msg, _acct: &mut Account) -> Msg {
            self.hits.fetch_add(1, Ordering::Relaxed);
            msg
        }
    }

    fn net() -> (SimTransport, Arc<Echo>, Arc<Echo>) {
        let model = Arc::new(CostModel::default());
        let t = SimTransport::new(
            2,
            model,
            Arc::new(Counters::default()),
            Arc::new(EventLog::new()),
        );
        let a = Arc::new(Echo {
            hits: AtomicU64::new(0),
        });
        let b = Arc::new(Echo {
            hits: AtomicU64::new(0),
        });
        t.register(SiteId(0), a.clone());
        t.register(SiteId(1), b.clone());
        (t, a, b)
    }

    #[test]
    fn rpc_dispatches_and_charges_rtt() {
        let (t, _a, b) = net();
        let mut acct = Account::new(SiteId(0));
        let resp = t.rpc(SiteId(0), SiteId(1), Msg::Ok, &mut acct).unwrap();
        assert_eq!(resp, Msg::Ok);
        assert_eq!(b.hits.load(Ordering::Relaxed), 1);
        assert!(acct.elapsed >= SimDuration::from_millis(15));
        assert_eq!(acct.messages, 1);
    }

    #[test]
    fn local_rpc_is_free_of_network_cost() {
        let (t, a, _b) = net();
        let mut acct = Account::new(SiteId(0));
        t.rpc(SiteId(0), SiteId(0), Msg::Ok, &mut acct).unwrap();
        assert_eq!(a.hits.load(Ordering::Relaxed), 1);
        assert_eq!(acct.messages, 0);
        assert_eq!(acct.elapsed, SimDuration::ZERO);
    }

    #[test]
    fn down_site_fails_rpc() {
        let (t, _a, b) = net();
        t.site_down(SiteId(1));
        let mut acct = Account::new(SiteId(0));
        let err = t.rpc(SiteId(0), SiteId(1), Msg::Ok, &mut acct).unwrap_err();
        assert_eq!(err, Error::SiteDown(SiteId(1)));
        assert_eq!(b.hits.load(Ordering::Relaxed), 0);
        t.site_up(SiteId(1));
        assert!(t.rpc(SiteId(0), SiteId(1), Msg::Ok, &mut acct).is_ok());
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let (t, _a, _b) = net();
        t.partition(&[SiteId(1)]);
        let mut acct = Account::new(SiteId(0));
        let err = t.rpc(SiteId(0), SiteId(1), Msg::Ok, &mut acct).unwrap_err();
        assert_eq!(
            err,
            Error::Partitioned {
                from: SiteId(0),
                to: SiteId(1)
            }
        );
        assert_eq!(t.partition_of(SiteId(0)), vec![SiteId(0)]);
        t.heal();
        assert_eq!(t.partition_of(SiteId(0)), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn payload_pages_add_transfer_time() {
        let (t, _a, _b) = net();
        let mut small = Account::new(SiteId(0));
        t.rpc(SiteId(0), SiteId(1), Msg::Ok, &mut small).unwrap();
        let mut big = Account::new(SiteId(0));
        t.rpc(
            SiteId(0),
            SiteId(1),
            Msg::File(crate::msg::FileMsg::WriteReq {
                fid: locus_types::Fid::new(locus_types::VolumeId(0), 1),
                pid: locus_types::Pid::new(SiteId(0), 1),
                owner: locus_types::Owner::Proc(locus_types::Pid::new(SiteId(0), 1)),
                range: locus_types::ByteRange::new(0, 2048),
                data: vec![0; 2048],
                lock: false,
            }),
            &mut big,
        )
        .unwrap();
        assert!(big.elapsed > small.elapsed);
        // Two pages at 10 ms each way (the echo handler returns the payload).
        assert_eq!(big.elapsed - small.elapsed, SimDuration::from_millis(40));
    }

    #[test]
    fn topology_listener_fires_for_survivors() {
        let (t, _a, _b) = net();
        let calls = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let c2 = calls.clone();
        t.on_topology_change(Arc::new(move |s| c2.lock().push(s)));
        t.site_down(SiteId(1));
        assert_eq!(calls.lock().clone(), vec![SiteId(0)]);
    }

    #[test]
    fn rpc_traces_service_and_kind() {
        use locus_types::Service;
        let model = Arc::new(CostModel::default());
        let counters = Arc::new(Counters::default());
        let events = Arc::new(EventLog::new());
        let t = SimTransport::new(2, model, counters.clone(), events.clone());
        t.register(
            SiteId(0),
            Arc::new(Echo {
                hits: AtomicU64::new(0),
            }),
        );
        t.register(
            SiteId(1),
            Arc::new(Echo {
                hits: AtomicU64::new(0),
            }),
        );
        let mut acct = Account::new(SiteId(0));
        let tid = locus_types::TransId::new(SiteId(0), 1);
        t.rpc(
            SiteId(0),
            SiteId(1),
            Msg::Txn(crate::msg::TxnMsg::StatusInquiry { tid }),
            &mut acct,
        )
        .unwrap();
        let s = counters.snapshot();
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.msgs_for(Service::Txn), 1);
        assert_eq!(s.batches_sent, 0);
        assert_eq!(
            events.all(),
            vec![Event::Rpc {
                from: SiteId(0),
                to: SiteId(1),
                service: Service::Txn,
                kind: "StatusInquiry",
                batched: false,
            }]
        );
    }

    #[test]
    fn batch_counts_one_network_message_but_traces_members() {
        use locus_types::Service;
        let model = Arc::new(CostModel::default());
        let counters = Arc::new(Counters::default());
        let events = Arc::new(EventLog::new());
        let t = SimTransport::new(2, model, counters.clone(), events.clone());
        t.register(
            SiteId(0),
            Arc::new(Echo {
                hits: AtomicU64::new(0),
            }),
        );
        t.register(
            SiteId(1),
            Arc::new(Echo {
                hits: AtomicU64::new(0),
            }),
        );
        let mut acct = Account::new(SiteId(0));
        let fid = locus_types::Fid::new(locus_types::VolumeId(0), 1);
        let pid = locus_types::Pid::new(SiteId(0), 1);
        let batch = Msg::Batch(vec![
            Msg::File(crate::msg::FileMsg::CommitReq {
                fid,
                owner: locus_types::Owner::Proc(pid),
            }),
            Msg::Lock(crate::msg::LockMsg::UnlockAll { fid, pid }),
        ]);
        t.rpc(SiteId(0), SiteId(1), batch, &mut acct).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.batches_sent, 1);
        assert_eq!(s.msgs_for(Service::File), 1);
        assert_eq!(s.msgs_for(Service::Lock), 1);
        assert_eq!(acct.messages, 1);
        let evs = events.all();
        assert_eq!(evs.len(), 2);
        assert!(evs
            .iter()
            .all(|e| matches!(e, Event::Rpc { batched: true, .. })));
    }

    #[test]
    fn notify_charges_half_rtt() {
        let (t, _a, _b) = net();
        let mut acct = Account::new(SiteId(0));
        t.notify(SiteId(0), SiteId(1), Msg::Ok, &mut acct).unwrap();
        assert!(acct.elapsed >= SimDuration::from_millis(8));
        assert!(acct.elapsed < SimDuration::from_millis(16));
    }
}
