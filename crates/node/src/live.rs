//! The live deployment: one tokio task per router/host, wall-clock
//! timers, command/query channels for the application layer.
//!
//! The node task loops are the live data plane's hot path: each wakeup
//! takes runs holding up to [`RX_BATCH`] queued frames out of the inbox
//! under one lock, runs their frames through the engine by reference,
//! moves the whole outbox into one shared [`Batch`](crate::inbox::Batch)
//! from the task's [`BatchPool`] and hands that to
//! [`Fabric::dispatch_batch`]. The fill first gives the task's
//! [`Outbox`] back the buffers of the frames that block carried last
//! time and nobody else still views, and the next wakeup builds its
//! frames in them: a task recycles only what it sent, so steady state
//! forwards without per-wakeup or per-frame allocations.

use crate::fabric::{DataPlaneConfig, Fabric, FabricStats};
use crate::inbox::{BatchPool, InboxRx, Run};
use cbt::{CbtConfig, HostApp, RouteHandle, RouterNode};
use cbt_netsim::{Entity, Outbox, SimNode, SimTime};
use cbt_obs::DropReason;
use cbt_routing::Rib;
use cbt_topology::{HostId, NetworkSpec, RouterId};
use cbt_wire::{Addr, GroupId};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use tokio::sync::{mpsc, oneshot};
use tokio::task::JoinHandle;
use tokio::time::{Duration, Instant};

/// How many queued frames a node task drains per wakeup before
/// flushing its outbox (the last run taken is split at the limit).
pub const RX_BATCH: usize = 64;

/// Commands the application layer sends to a host task.
enum HostCmd {
    Join { group: GroupId, cores: Vec<Addr> },
    Leave { group: GroupId },
    Send { group: GroupId, payload: Vec<u8>, ttl: u8 },
    SendBurst { group: GroupId, payloads: Vec<Vec<u8>>, ttl: u8 },
    Received { resp: oneshot::Sender<cbt::Deliveries> },
    ReceivedCount { resp: oneshot::Sender<usize> },
}

/// Queries for a router task.
enum RouterCmd {
    Snapshot { group: GroupId, resp: oneshot::Sender<RouterSnapshot> },
}

/// A point-in-time view of one router's state for a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Is the router on-tree for the group?
    pub on_tree: bool,
    /// Parent address, if any.
    pub parent: Option<Addr>,
    /// Child addresses.
    pub children: Vec<Addr>,
    /// Full observability snapshot: drop taxonomy, per-group protocol
    /// counters, latency histograms. [`LiveNet::router_snapshot`] folds
    /// the fabric's transport-level drops for this node (inbox
    /// overflow) into `obs.drops` so one snapshot covers both layers.
    pub obs: cbt_obs::ObsSnapshot,
    /// The deepest this router's inbox has been
    /// ([`Fabric::inbox_high_water`]); like the transport-level
    /// drops it is the fabric's to know, and
    /// [`LiveNet::router_snapshot`] fills it in.
    pub inbox_high_water: usize,
}

/// Why a [`LiveNet`] query could not be answered.
///
/// A query hitting a dead task is a real failure (the router or host
/// task panicked or was shut down) and must surface as an error — the
/// old API swallowed it into an empty answer, which made panicked
/// router tasks look like healthy silent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveError {
    /// The deployment has no node with that id.
    UnknownNode,
    /// The node's task is gone: it panicked, or the deployment was
    /// shut down.
    NodeDead,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::UnknownNode => write!(f, "no such node in this deployment"),
            LiveError::NodeDead => write!(f, "node task is dead (panicked or shut down)"),
        }
    }
}

impl std::error::Error for LiveError {}

/// A running multi-node CBT deployment.
///
/// With `cfg.shards > 1` every router runs as N independent tokio
/// tasks, each owning one engine shard ([`cbt::ShardedRouter`] slice);
/// the fabric steers each frame to the shard owning its group, so the
/// shard tasks never contend on engine state.
pub struct LiveNet {
    /// The network being run.
    pub net: Arc<NetworkSpec>,
    epoch: Instant,
    host_cmds: HashMap<HostId, mpsc::UnboundedSender<HostCmd>>,
    /// One command channel per shard task, index = shard.
    router_cmds: HashMap<RouterId, Vec<mpsc::UnboundedSender<RouterCmd>>>,
    fabric: Arc<Fabric>,
    tasks: Vec<JoinHandle<()>>,
}

impl LiveNet {
    /// Spawns every router and host of `net` as tokio tasks, with the
    /// default (batched, zero-copy) data plane.
    pub fn spawn(net: NetworkSpec, cfg: CbtConfig) -> LiveNet {
        LiveNet::spawn_with(net, cfg, DataPlaneConfig::default())
    }

    /// Spawns with explicit data-plane tuning (inbox depth).
    pub fn spawn_with(net: NetworkSpec, cfg: CbtConfig, dp: DataPlaneConfig) -> LiveNet {
        let shards = cfg.shards.max(1);
        let net = Arc::new(net);
        let epoch = Instant::now();
        let rib = Arc::new(RwLock::new(Rib::converged(net.clone())));
        let (fabric, rxs) = Fabric::with_shards(&net, dp, shards);

        let mut tasks = Vec::new();
        let mut router_cmds = HashMap::new();
        let mut host_cmds = HashMap::new();
        for (entity, shard_rxs) in fabric.plan().entities().zip(rxs) {
            match entity {
                Entity::Router(me) => {
                    let mut cmd_txs = Vec::with_capacity(shards);
                    for (k, rx) in shard_rxs.into_iter().enumerate() {
                        let node = RouterNode::new_shard_slice(
                            &net,
                            me,
                            cfg.clone(),
                            RouteHandle::new(rib.clone(), me.0),
                            SimTime::ZERO,
                            k,
                            shards,
                        );
                        let (cmd_tx, cmd_rx) = mpsc::unbounded_channel();
                        cmd_txs.push(cmd_tx);
                        tasks.push(tokio::spawn(node_task(
                            node,
                            entity,
                            fabric.clone(),
                            rx,
                            cmd_rx,
                            epoch,
                            router_cmd,
                        )));
                    }
                    router_cmds.insert(me, cmd_txs);
                }
                Entity::Host(hid) => {
                    let app = HostApp::new(net.host_addr(hid), 3, cfg.igmp);
                    let rx = shard_rxs.into_iter().next().expect("one inbox per host");
                    let (cmd_tx, cmd_rx) = mpsc::unbounded_channel();
                    host_cmds.insert(hid, cmd_tx);
                    tasks.push(tokio::spawn(node_task(
                        app,
                        entity,
                        fabric.clone(),
                        rx,
                        cmd_rx,
                        epoch,
                        host_cmd,
                    )));
                }
            }
        }
        LiveNet { net, epoch, host_cmds, router_cmds, fabric, tasks }
    }

    /// Tells a host application to join a group.
    pub fn host_join(&self, h: HostId, group: GroupId, cores: Vec<Addr>) {
        let _ = self.host_cmds[&h].send(HostCmd::Join { group, cores });
    }

    /// Tells a host application to leave a group.
    pub fn host_leave(&self, h: HostId, group: GroupId) {
        let _ = self.host_cmds[&h].send(HostCmd::Leave { group });
    }

    /// Tells a host to transmit a multicast payload.
    pub fn host_send(&self, h: HostId, group: GroupId, payload: impl Into<Vec<u8>>, ttl: u8) {
        let _ = self.host_cmds[&h].send(HostCmd::Send { group, payload: payload.into(), ttl });
    }

    /// Tells a host to transmit a burst of multicast payloads as one
    /// coalesced command: the host task queues them all, then pays one
    /// timer dispatch and one outbox flush for the whole burst instead
    /// of one per packet.
    pub fn host_send_burst(&self, h: HostId, group: GroupId, payloads: Vec<Vec<u8>>, ttl: u8) {
        let _ = self.host_cmds[&h].send(HostCmd::SendBurst { group, payloads, ttl });
    }

    /// Fetches everything a host has received so far: a snapshot that
    /// shares the host's log, O(1) on the host task. While the caller
    /// holds it, the host's next delivery copies the log once. Errs
    /// when the host is unknown or its task has died.
    pub async fn host_received(&self, h: HostId) -> Result<cbt::Deliveries, LiveError> {
        let cmds = self.host_cmds.get(&h).ok_or(LiveError::UnknownNode)?;
        let (tx, rx) = oneshot::channel();
        cmds.send(HostCmd::Received { resp: tx }).map_err(|_| LiveError::NodeDead)?;
        rx.await.map_err(|_| LiveError::NodeDead)
    }

    /// How many deliveries a host has received so far. Load generators
    /// poll this in a loop: a [`host_received`](LiveNet::host_received)
    /// snapshot held across deliveries would make the receiving task
    /// copy megabytes of log, perturbing the very data plane being
    /// measured.
    pub async fn host_received_count(&self, h: HostId) -> Result<usize, LiveError> {
        let cmds = self.host_cmds.get(&h).ok_or(LiveError::UnknownNode)?;
        let (tx, rx) = oneshot::channel();
        cmds.send(HostCmd::ReceivedCount { resp: tx }).map_err(|_| LiveError::NodeDead)?;
        rx.await.map_err(|_| LiveError::NodeDead)
    }

    /// Snapshots a router's per-group protocol state. Errs when the
    /// router is unknown or any of its shard tasks has died.
    ///
    /// Under sharding the per-group tree fields (`on_tree`, `parent`,
    /// `children`) come from the shard that owns the group, while
    /// `obs` is merged across every shard — the answer is
    /// indistinguishable from an unsharded router's for event-driven
    /// counters.
    pub async fn router_snapshot(
        &self,
        r: RouterId,
        group: GroupId,
    ) -> Result<RouterSnapshot, LiveError> {
        let cmds = self.router_cmds.get(&r).ok_or(LiveError::UnknownNode)?;
        let owner = cbt::shard_of(group, cmds.len());
        let mut snaps = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            let (tx, rx) = oneshot::channel();
            cmd.send(RouterCmd::Snapshot { group, resp: tx }).map_err(|_| LiveError::NodeDead)?;
            snaps.push(rx.await.map_err(|_| LiveError::NodeDead)?);
        }
        // The owning shard's answer carries the tree fields; fold the
        // other shards' counters in.
        let mut snap = snaps.swap_remove(owner);
        for other in &snaps {
            snap.obs.merge(&other.obs);
        }
        // Transport-level drops (bounded-inbox overflow) and inbox depth
        // happen in the fabric, outside the engine; fold this node's
        // row in so the snapshot covers every layer.
        let me = Entity::Router(r);
        snap.obs.drops.add(DropReason::InboxOverflow, self.fabric.overflowed(me));
        snap.inbox_high_water = self.fabric.inbox_high_water(me);
        Ok(snap)
    }

    /// Fabric delivery counters (frames enqueued / dropped on
    /// overflow, deepest inbox), cumulative over the deployment's
    /// lifetime.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.snapshot()
    }

    /// Time since the deployment started, as the nodes' virtual clock.
    pub fn now(&self) -> SimTime {
        instant_to_sim(self.epoch, Instant::now())
    }

    /// Stops every task.
    pub fn shutdown(&self) {
        for t in &self.tasks {
            t.abort();
        }
    }
}

fn instant_to_sim(epoch: Instant, at: Instant) -> SimTime {
    SimTime::from_micros(at.duration_since(epoch).as_micros() as u64)
}

fn sim_to_instant(epoch: Instant, at: SimTime) -> Instant {
    epoch + Duration::from_micros(at.micros())
}

/// One node's task loop: a command from the application layer, a
/// batch from the inbox or the node's own timer — commands first when
/// several are ready — then one flush of everything the node sent, as
/// one shared batch in a block the task reuses once its readers are
/// done with it; later frames are built in the buffers that block
/// gives back. Routers and hosts differ only in the commands they take, which
/// `on_cmd` handles.
async fn node_task<N: SimNode, C>(
    mut node: N,
    me: Entity,
    fabric: Arc<Fabric>,
    mut rx: InboxRx,
    mut cmds: mpsc::UnboundedReceiver<C>,
    epoch: Instant,
    on_cmd: fn(&mut N, C, SimTime, &mut Outbox),
) {
    let mut out = Outbox::new();
    let mut pool = BatchPool::default();
    let mut runs = Vec::new();
    loop {
        let wake = node.next_wakeup().map(|t| sim_to_instant(epoch, t));
        tokio::select! {
            biased;
            cmd = cmds.recv() => {
                let Some(cmd) = cmd else { break };
                on_cmd(&mut node, cmd, instant_to_sim(epoch, Instant::now()), &mut out);
            }
            _ = rx.recv_batch(RX_BATCH, &mut runs) => {
                let now = instant_to_sim(epoch, Instant::now());
                receive_batch(&mut node, &mut runs, now, &mut out);
            }
            _ = sleep_maybe(wake) => {
                let now = instant_to_sim(epoch, Instant::now());
                node.on_timer(now, &mut out);
            }
        }
        if !out.is_empty() {
            fabric.dispatch_batch(me, &pool.fill_from(&mut out));
        }
    }
}

/// A router task's queries: they read the engine and the group table
/// in the task's outbox, and send nothing.
fn router_cmd(node: &mut RouterNode, cmd: RouterCmd, _now: SimTime, out: &mut Outbox) {
    match cmd {
        RouterCmd::Snapshot { group, resp } => {
            let e = node.sharded();
            let v = e.group_view(group);
            let mut obs = e.obs_snapshot();
            obs.add_groups(&out.groups);
            let _ = resp.send(RouterSnapshot {
                on_tree: v.on_tree,
                parent: v.parent,
                children: v.children,
                obs,
                inbox_high_water: 0,
            });
        }
    }
}

/// A host task's commands: membership changes and sends run the app's
/// timer at once, so what they cause leaves in this wakeup's flush.
fn host_cmd(app: &mut HostApp, cmd: HostCmd, now: SimTime, out: &mut Outbox) {
    match cmd {
        HostCmd::Join { group, cores } => {
            app.join_at(now, group, cores);
            app.on_timer(now, out);
        }
        HostCmd::Leave { group } => {
            app.leave_at(now, group);
            app.on_timer(now, out);
        }
        HostCmd::Send { group, payload, ttl } => {
            app.send_at(now, group, payload, ttl);
            app.on_timer(now, out);
        }
        HostCmd::SendBurst { group, payloads, ttl } => {
            for payload in payloads {
                app.send_at(now, group, payload, ttl);
            }
            app.on_timer(now, out);
        }
        HostCmd::Received { resp } => {
            let _ = resp.send(app.received_snapshot());
        }
        HostCmd::ReceivedCount { resp } => {
            let _ = resp.send(app.received().len());
        }
    }
}

/// Runs the frames of the runs one wakeup took out of the inbox through
/// `node` by reference, all at the same `now` — a burst pays one
/// wakeup, one inbox lock and one outbox flush, not one per packet, and
/// a run one handle, not one per frame. Leaves `runs` empty, with its
/// capacity.
fn receive_batch(node: &mut dyn SimNode, runs: &mut Vec<Run>, now: SimTime, out: &mut Outbox) {
    for run in runs.drain(..) {
        for frame in run.frames() {
            node.on_packet(now, run.iface, run.link_src, frame, out);
        }
    }
}

/// Sleeps until `deadline` — or forever when the node has no timer.
async fn sleep_maybe(deadline: Option<Instant>) {
    match deadline {
        Some(d) => tokio::time::sleep_until(d).await,
        None => std::future::pending().await,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_netsim::Bytes;
    use cbt_obs::CtlKind;
    use cbt_topology::{IfIndex, NetworkBuilder};
    use std::collections::HashSet;
    use std::future::Future;
    use std::task::{Context, Waker};

    fn chain() -> (NetworkSpec, RouterId, RouterId, RouterId, HostId, HostId) {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let bb = b.host("B", s1);
        (b.build(), r0, r1, r2, a, bb)
    }

    /// The live runtime reaches the same protocol fixpoint as the
    /// deterministic simulator on the same topology.
    #[tokio::test(start_paused = true)]
    async fn live_join_and_delivery() {
        let (net, r0, r1, _r2, a, bb) = chain();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(5);
        let live = LiveNet::spawn(net, CbtConfig::fast());

        live.host_join(a, group, vec![core]);
        live.host_join(bb, group, vec![core]);
        tokio::time::sleep(Duration::from_secs(3)).await;

        let snap = live.router_snapshot(r0, group).await.expect("snapshot");
        assert!(snap.on_tree, "R0 joined under wall-clock timers: {snap:?}");
        assert!(snap.parent.is_some());

        live.host_send(bb, group, b"live!".to_vec(), 16);
        tokio::time::sleep(Duration::from_secs(1)).await;
        let got = live.host_received(a).await.expect("host alive");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got.get(0).unwrap().payload, b"live!");
        assert!(live.fabric_stats().delivered > 0);
        assert_eq!(live.fabric_stats().dropped_overflow, 0);
        live.shutdown();
    }

    /// Keepalives flow and teardown works in wall-clock time.
    #[tokio::test(start_paused = true)]
    async fn live_leave_triggers_teardown() {
        let (net, r0, r1, _r2, a, _bb) = chain();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(6);
        let live = LiveNet::spawn(net, CbtConfig::fast());
        live.host_join(a, group, vec![core]);
        tokio::time::sleep(Duration::from_secs(3)).await;
        assert!(live.router_snapshot(r0, group).await.unwrap().on_tree);

        live.host_leave(a, group);
        tokio::time::sleep(Duration::from_secs(10)).await;
        let snap = live.router_snapshot(r0, group).await.unwrap();
        assert!(!snap.on_tree, "quit after leave: {snap:?}");
        assert!(snap.obs.ctl.sent(CtlKind::QuitRequest) >= 1);
        live.shutdown();
    }

    /// Echo keepalives are actually exchanged over the live fabric.
    #[tokio::test(start_paused = true)]
    async fn live_echoes_flow() {
        let (net, r0, r1, _r2, a, _bb) = chain();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(7);
        let live = LiveNet::spawn(net, CbtConfig::fast());
        live.host_join(a, group, vec![core]);
        // fast echo interval = 3 s; run 12 s.
        tokio::time::sleep(Duration::from_secs(12)).await;
        let snap = live.router_snapshot(r0, group).await.unwrap();
        assert!(snap.obs.ctl.sent(CtlKind::EchoRequest) >= 2, "{snap:?}");
        assert_eq!(snap.obs.parent_failures, 0, "parent stayed alive");
        live.shutdown();
    }

    /// The sharded live plane — four shard tasks per router, frames
    /// steered by group — reaches the same join/delivery fixpoint as
    /// the single-task deployment.
    #[tokio::test(start_paused = true)]
    async fn sharded_live_join_and_delivery() {
        let (net, r0, r1, _r2, a, bb) = chain();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(5);
        let cfg = CbtConfig { shards: 4, ..CbtConfig::fast() };
        let live = LiveNet::spawn(net, cfg);

        live.host_join(a, group, vec![core]);
        live.host_join(bb, group, vec![core]);
        tokio::time::sleep(Duration::from_secs(3)).await;

        let snap = live.router_snapshot(r0, group).await.expect("snapshot");
        assert!(snap.on_tree, "R0 joined across shard tasks: {snap:?}");
        assert!(snap.parent.is_some());

        live.host_send(bb, group, b"sharded".to_vec(), 16);
        tokio::time::sleep(Duration::from_secs(1)).await;
        let got = live.host_received(a).await.expect("host alive");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got.get(0).unwrap().payload, b"sharded");
        assert_eq!(live.fabric_stats().dropped_overflow, 0);
        live.shutdown();
    }

    /// Groups owned by different shards join, deliver and tear down
    /// independently, and the merged snapshot sees all of them.
    #[tokio::test(start_paused = true)]
    async fn sharded_groups_are_independent() {
        let (net, r0, r1, _r2, a, bb) = chain();
        let core = net.router_addr(r1);
        // numbered(0) and numbered(1) live on different shards of 4
        // (pinned by the shard.rs golden test).
        let (ga, gb) = (GroupId::numbered(0), GroupId::numbered(1));
        assert_ne!(cbt::shard_of(ga, 4), cbt::shard_of(gb, 4));
        let cfg = CbtConfig { shards: 4, ..CbtConfig::fast() };
        let live = LiveNet::spawn(net, cfg);

        live.host_join(a, ga, vec![core]);
        live.host_join(a, gb, vec![core]);
        live.host_join(bb, ga, vec![core]);
        live.host_join(bb, gb, vec![core]);
        tokio::time::sleep(Duration::from_secs(3)).await;
        for g in [ga, gb] {
            let snap = live.router_snapshot(r0, g).await.expect("snapshot");
            assert!(snap.on_tree, "{g}: {snap:?}");
        }

        live.host_send(bb, ga, b"to-a".to_vec(), 16);
        live.host_send(bb, gb, b"to-b".to_vec(), 16);
        tokio::time::sleep(Duration::from_secs(1)).await;
        let got = live.host_received(a).await.expect("host alive");
        assert_eq!(got.len(), 2, "both groups delivered: {got:?}");

        // Leaving one group must not disturb the other shard's tree.
        live.host_leave(a, ga);
        live.host_leave(bb, ga);
        tokio::time::sleep(Duration::from_secs(10)).await;
        let snap_a = live.router_snapshot(r0, ga).await.unwrap();
        let snap_b = live.router_snapshot(r0, gb).await.unwrap();
        assert!(!snap_a.on_tree, "left group torn down: {snap_a:?}");
        assert!(snap_b.on_tree, "other shard's tree untouched: {snap_b:?}");
        // The merged counters see both shards' activity: the quit that
        // tore ga down and the joins from both groups.
        let obs = &snap_b.obs;
        assert!(obs.ctl.sent(CtlKind::QuitRequest) >= 1, "merged counters span shards: {obs:?}");
        assert!(obs.joins_originated >= 2, "{obs:?}");
        live.shutdown();
    }

    /// A host bursts 64 packets onto a LAN whose only router is R, whose
    /// inbox holds 4: one run lands in one shard inbox, which takes 4
    /// and sheds 60. R's snapshot carries the fabric's overflow row and
    /// inbox depth, and the fabric-wide stats agree.
    #[tokio::test(start_paused = true)]
    async fn router_snapshot_folds_in_the_fabric_overflow() {
        const BURST: u64 = 64;
        const CAPACITY: usize = 4;
        for shards in [1, 2] {
            let mut b = NetworkBuilder::new();
            let r = b.router("R");
            let lan = b.lan("S");
            b.attach(lan, r);
            let h = b.host("H", lan);
            let group = GroupId::numbered(3);
            let cfg = CbtConfig { shards, ..CbtConfig::fast() };
            let dp = DataPlaneConfig { inbox_capacity: CAPACITY };
            let live = LiveNet::spawn_with(b.build(), cfg, dp);

            let burst = (0..BURST).map(|i| vec![i as u8; 8]).collect();
            live.host_send_burst(h, group, burst, 16);
            tokio::time::sleep(Duration::from_secs(1)).await;

            let shed = BURST - CAPACITY as u64;
            let snap = live.router_snapshot(r, group).await.expect("snapshot");
            assert_eq!(snap.obs.drops.get(DropReason::InboxOverflow), shed, "{shards} shard(s)");
            assert_eq!(snap.inbox_high_water, CAPACITY, "{shards} shard(s)");
            assert_eq!(live.fabric_stats().dropped_overflow, shed, "{shards} shard(s)");
            live.shutdown();
        }
    }

    /// A node that reads every frame and sends nothing.
    struct Sink;
    impl SimNode for Sink {
        fn on_packet(&mut self, _: SimTime, _: IfIndex, _: Addr, _: &Bytes, _: &mut Outbox) {}
        fn on_timer(&mut self, _: SimTime, _: &mut Outbox) {}
        fn next_wakeup(&self) -> Option<SimTime> {
            None
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// A task's pool holds only buffers that task built. A router task
    /// bursts three full wakeups onto a LAN before its member's task
    /// reads, then keeps sending short runs while the member runs
    /// `receive_batch` on everything queued after each one. The router
    /// pools only buffers of its own frames, never more than its blocks
    /// carried; the member, which builds nothing, pools nothing.
    #[test]
    fn a_task_pools_only_the_buffers_it_built() {
        const BURST: usize = 3;
        let mut b = NetworkBuilder::new();
        let r = b.router("R");
        let lan = b.lan("S");
        b.attach(lan, r);
        let m = b.host("M", lan);
        let (fabric, rxs) = Fabric::with_shards(&b.build(), DataPlaneConfig::default(), 1);
        let member = fabric.plan().entities().zip(rxs).find(|(e, _)| *e == Entity::Host(m));
        let mut rx = member.and_then(|(_, rx)| rx.into_iter().next()).expect("the member's inbox");
        let (mut out, mut pool, mut built) = (Outbox::new(), BatchPool::default(), HashSet::new());
        let (mut member_out, mut runs) = (Outbox::new(), Vec::new());
        for wakeup in 0..4 * BURST {
            let n = if wakeup < BURST { RX_BATCH } else { 1 + wakeup % 4 };
            for _ in 0..n {
                let mut buf = out.buffer();
                let bytes = buf.as_mut_vec();
                bytes.clear();
                bytes.resize(32, wakeup as u8);
                let frame = buf.freeze();
                built.insert(frame.as_ptr());
                out.send(IfIndex(0), frame);
            }
            fabric.dispatch_batch(Entity::Router(r), &pool.fill_from(&mut out));
            if wakeup + 1 >= BURST {
                let mut cx = Context::from_waker(Waker::noop());
                while std::pin::pin!(rx.recv_batch(RX_BATCH, &mut runs)).poll(&mut cx).is_ready() {
                    receive_batch(&mut Sink, &mut runs, SimTime::ZERO, &mut member_out);
                }
            }
            assert_eq!(
                member_out.pooled(),
                0,
                "wakeup {wakeup}: the member pooled a frame it never built"
            );
            assert!(out.pooled() <= BURST * RX_BATCH, "wakeup {wakeup}: {} pooled", out.pooled());
        }
        let pooled: Vec<*const u8> =
            std::iter::from_fn(|| (out.pooled() > 0).then(|| out.buffer().as_ptr())).collect();
        assert!(!pooled.is_empty(), "the burst's buffers came back");
        assert!(
            pooled.iter().all(|p| built.contains(p)),
            "the router pooled a buffer it never built"
        );
    }

    /// Dead tasks surface as errors instead of empty answers — a
    /// panicked router must not look like a healthy silent one.
    #[tokio::test(start_paused = true)]
    async fn queries_after_shutdown_fail_loudly() {
        let (net, r0, r1, _r2, a, _bb) = chain();
        let _ = r1;
        let group = GroupId::numbered(9);
        let live = LiveNet::spawn(net, CbtConfig::fast());
        tokio::time::sleep(Duration::from_millis(10)).await;
        live.shutdown();
        tokio::task::yield_now().await;
        assert_eq!(live.host_received(a).await, Err(LiveError::NodeDead));
        assert_eq!(live.router_snapshot(r0, group).await, Err(LiveError::NodeDead));
        // Unknown ids are distinguished from dead tasks.
        assert_eq!(live.router_snapshot(RouterId(99), group).await, Err(LiveError::UnknownNode));
    }
}
