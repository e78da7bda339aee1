//! Tree joining: origination, hop-by-hop forwarding, acknowledgement,
//! proxy-acks, rejoins and loop detection (§2.5, §2.6, §6.1–6.3, §8.3).

use crate::engine::{CbtRouter, TimerKind};
use crate::events::RouterAction;
use crate::fib::{FibEntry, Parent};
use crate::pending::{CachedJoin, Campaign, JoinReason, PendingJoin};
use cbt_netsim::SimTime;
use cbt_routing::Hop;
use cbt_topology::IfIndex;
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, IgmpMessage, JoinSubcode};
use std::collections::BTreeSet;

impl CbtRouter {
    /// D-DR join origination (§2.5): local membership appeared on LAN
    /// `iface` and this router must establish the subnet on the tree.
    pub(crate) fn trigger_join(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        group: GroupId,
        target_core_index: usize,
        act: &mut Vec<RouterAction>,
    ) {
        let origin = self.iface(iface).map(|i| i.addr).unwrap_or(self.id_addr());
        self.join_for_member(now, group, origin, target_core_index, act);
        if self.fib.on_tree(group) {
            // On-tree (before, or just now as one of the group's
            // cores): this LAN just needs to be served.
            self.lan_mut(iface).gdr.insert(group);
        } else {
            // The LAN is remembered so the eventual ack serves it,
            // whether the pending join is the one just launched, a
            // transit join we are forwarding or a re-attachment.
            self.edit(group, |t| {
                if let Some(p) = t.join.as_mut().filter(|p| !p.lans.contains(&iface)) {
                    p.lans.push(iface);
                }
            });
        }
    }

    /// Establishes this router on `group`'s tree for a member that just
    /// appeared: as a core if it is listed as one, otherwise by an
    /// ACTIVE_JOIN from `origin` toward `cores[core_index]`. Does
    /// nothing when already on-tree, or with a join already pending
    /// (§2.6: "If an IGMP RP/Core-Report is received by a D-DR with a
    /// join for the same group already pending, it takes no action") —
    /// its ack will serve this member too. Without any core knowledge
    /// (§2.4 v1/v2 hosts without managed mappings) nothing can be
    /// done; the LAN path's IFF scan retries, netscale callers supply
    /// managed mappings up front.
    fn join_for_member(
        &mut self,
        now: SimTime,
        group: GroupId,
        origin: Addr,
        core_index: usize,
        act: &mut Vec<RouterAction>,
    ) {
        if self.fib.on_tree(group) || self.has_pending_join(group) {
            return;
        }
        let Some(cores) = self.cores_for(group) else { return };
        self.learn_cores(group, &cores);
        if self.i_am_listed_core(&cores) {
            self.become_core(now, group, &cores, act);
            return;
        }
        let core_index = core_index.min(cores.len() - 1);
        let (subcode, reason) = (JoinSubcode::ActiveJoin, JoinReason::LocalMembership);
        self.launch_join(now, group, origin, cores, core_index, subcode, reason, act);
    }

    /// A member of `group` appeared directly on this router (netscale
    /// p2p mode: the router itself stands in for a member subnet, there
    /// is no LAN and no IGMP). Joins the tree exactly like a D-DR whose
    /// LAN gained presence, minus the subnet bookkeeping.
    pub(crate) fn member_joined(
        &mut self,
        now: SimTime,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        // `serves_members` consults `local_members`, so an existing
        // branch or in-flight join serves this membership as it is.
        self.local_members.insert(group);
        let origin = self.id_addr();
        self.join_for_member(now, group, origin, 0, act);
    }

    /// The last directly attached member of `group` left this router.
    /// Quits the tree immediately when nothing else needs the branch —
    /// the eager analogue of the LAN path's periodic IFF scan.
    pub(crate) fn member_left(
        &mut self,
        now: SimTime,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        if self.local_members.remove(&group) {
            if self.local_members.is_empty() {
                self.local_members = BTreeSet::new();
            }
            self.maybe_quit(now, group, act);
        }
    }

    /// Instates this router as an on-tree core for `group`. A
    /// non-primary core additionally joins the primary (the on-demand
    /// core tree, §1/§2.5/§6.2).
    pub(crate) fn become_core(
        &mut self,
        now: SimTime,
        group: GroupId,
        cores: &[Addr],
        act: &mut Vec<RouterAction>,
    ) {
        let entry = self.fib.entry(group);
        entry.cores = cores.to_vec();
        entry.i_am_core = true;
        // A join may (maliciously or due to damage) carry no core list
        // at all; we can still serve as a root, but there is no primary
        // to join toward. The primary itself joins no one.
        if cores.is_empty() || self.i_am_primary(cores) {
            return;
        }
        // A non-primary core's fragment may outlive its RECONNECT
        // campaign; the IFF scan's backbone safety net re-joins it.
        if !self.timers.is_armed(TimerKind::IffScan) {
            self.timers.arm(TimerKind::IffScan, now + self.cfg.iff_scan_interval);
        }
        if self.fib.get(group).unwrap().parent.is_none() {
            let primary = cores[0];
            if !self.has_pending_join(group) {
                let cores = cores.to_vec();
                let origin = self.id_addr();
                // §2.5: the non-primary core joins the primary with
                // subcode REJOIN-ACTIVE.
                self.launch_join_to(
                    now,
                    group,
                    origin,
                    cores,
                    0,
                    primary,
                    JoinSubcode::RejoinActive,
                    JoinReason::Reattach,
                    act,
                );
            }
        }
    }

    /// Sends a join toward `cores[core_index]` and records the pending
    /// state. Does nothing if the core is unreachable and no later core
    /// is reachable either.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch_join(
        &mut self,
        now: SimTime,
        group: GroupId,
        origin: Addr,
        cores: Vec<Addr>,
        core_index: usize,
        subcode: JoinSubcode,
        reason: JoinReason,
        act: &mut Vec<RouterAction>,
    ) {
        // Find the first reachable core starting from core_index.
        for probe in 0..cores.len() {
            let idx = (core_index + probe) % cores.len();
            let target = cores[idx];
            if self.is_my_addr(target) {
                continue;
            }
            if self.routes.hop_toward(target).is_some() {
                self.launch_join_to(now, group, origin, cores, idx, target, subcode, reason, act);
                return;
            }
        }
        // Every core unreachable: give up silently; IFF-scan retries.
    }

    /// Lower-level variant with an explicit target.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch_join_to(
        &mut self,
        now: SimTime,
        group: GroupId,
        origin: Addr,
        cores: Vec<Addr>,
        core_index: usize,
        target: Addr,
        subcode: JoinSubcode,
        reason: JoinReason,
        act: &mut Vec<RouterAction>,
    ) {
        let Some(hop) = self.routes.hop_toward(target) else { return };
        // §2.7: if the best next hop is one of our current children, the
        // downstream branch must be flushed before re-joining through it.
        if let Some(entry) = self.fib.get(group) {
            if entry.has_child(hop.addr) {
                self.flush_child(now, group, hop.addr, act);
            }
        }
        self.obs.joins_originated += 1;
        self.send_join(now, group, hop, reason, origin, target, cores, core_index, subcode, act);
    }

    /// Sends a JOIN_REQUEST to `hop` and records it as pending, with
    /// its retransmit timer armed — the one place a [`PendingJoin`]
    /// is built, for joins this router originates and joins it
    /// forwards alike.
    #[allow(clippy::too_many_arguments)]
    fn send_join(
        &mut self,
        now: SimTime,
        group: GroupId,
        hop: Hop,
        reason: JoinReason,
        origin: Addr,
        target_core: Addr,
        cores: Vec<Addr>,
        core_index: usize,
        subcode: JoinSubcode,
        act: &mut Vec<RouterAction>,
    ) {
        let next_retransmit = now + self.cfg.pend_join_interval;
        let p = PendingJoin {
            reason,
            origin,
            target_core,
            cores,
            upstream: (hop.iface, hop.addr),
            sent_subcode: subcode,
            cached: Vec::new(),
            lans: Vec::new(),
            started: now,
            attempt_started: now,
            next_retransmit,
            core_index,
        };
        self.send_control(act, hop.iface, hop.addr, p.request(group));
        self.edit(group, |t| {
            let prev = t.join.replace(Box::new(p));
            assert!(prev.is_none(), "second pending join for {group}");
        });
        self.timers.arm(TimerKind::PendingJoin(group), next_retransmit);
    }

    /// §6.3: one parent-ward step of the NACTIVE loop-detection walk.
    /// The first on-tree non-core router to see an active rejoin starts
    /// it (before acknowledging the rejoin downstream) with itself as
    /// `converter` — the core-address field, so the primary can ack it
    /// directly (§8.3.1) — and every router above passes it on.
    /// `origin` never changes, so the originator can recognise its own
    /// rejoin coming back.
    fn forward_nactive(
        &mut self,
        group: GroupId,
        origin: Addr,
        converter: Addr,
        cores: Vec<Addr>,
        act: &mut Vec<RouterAction>,
    ) {
        let Some(parent) = self.fib.get(group).and_then(|e| e.parent) else { return };
        let fwd = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinNactive,
            group,
            origin,
            target_core: converter,
            cores,
        };
        self.obs.joins_forwarded += 1;
        self.send_control(act, parent.iface, parent.addr, fwd);
    }

    /// Instates `src`, heard on `iface`, as the group's parent — what
    /// every non-proxy JOIN_ACK does — keeping the ack's core list, or
    /// the join's own if the ack carried none.
    fn instate_parent(
        &mut self,
        now: SimTime,
        group: GroupId,
        iface: IfIndex,
        src: Addr,
        ack_cores: &[Addr],
        p: &PendingJoin,
    ) -> &mut FibEntry {
        let next_echo = now + self.cfg.echo_interval;
        let entry = self.fib.entry(group);
        entry.parent = Some(Parent { addr: src, iface, last_reply: now, next_echo });
        entry.cores = if ack_cores.is_empty() { p.cores.clone() } else { ack_cores.to_vec() };
        entry
    }

    /// Receipt of a JOIN_REQUEST (§2.5, §6.2, §6.3).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_join_request(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        subcode: JoinSubcode,
        group: GroupId,
        origin: Addr,
        target_core: Addr,
        cores: &[Addr],
        act: &mut Vec<RouterAction>,
    ) {
        self.learn_cores(group, cores);
        if subcode == JoinSubcode::RejoinNactive {
            self.on_nactive_rejoin(now, group, origin, target_core, cores, act);
            return;
        }

        let join = CachedJoin { from_iface: iface, from_addr: src, origin, subcode };

        // On-tree and able to acknowledge? (§2.5: a pending-join router
        // must cache instead.) A core or on-tree router terminates the
        // join with an ack; an active rejoin reaching a non-core first
        // sets off the §6.3 loop-detection walk.
        if self.fib.on_tree(group) && !self.has_pending_join(group) {
            let i_am_core_here = self.fib.get(group).is_some_and(|e| e.i_am_core);
            if subcode == JoinSubcode::RejoinActive && !i_am_core_here {
                self.forward_nactive(group, origin, self.id_addr(), cores.to_vec(), act);
            }
            self.ack_downstream(now, group, &join, act);
            return;
        }

        // §6.2 core restart discovery: "a core only becomes aware that
        // it is such by receiving a JOIN-REQUEST".
        if self.is_my_addr(target_core) || self.i_am_listed_core(cores) {
            self.become_core(now, group, cores, act);
            self.ack_downstream(now, group, &join, act);
            return;
        }

        // Waiting for our own ack: cache (§2.5).
        if let Some(p) = self.pending_join(group) {
            let dup = p.cached.iter().any(|c| c.from_addr == src && c.origin == origin)
                || (p.upstream.1 == src);
            if !dup {
                self.edit(group, |t| t.join.as_mut().expect("pending").cached.push(join));
                self.obs.joins_cached += 1;
            }
            return;
        }

        // Forward hop-by-hop toward the target core (§2.5).
        match self.routes.hop_toward(target_core) {
            Some(hop) if hop.addr != src => {
                let reason = JoinReason::Forwarded { from_iface: iface, from_addr: src, subcode };
                let core_index = cores.iter().position(|c| *c == target_core).unwrap_or(0);
                self.obs.joins_forwarded += 1;
                self.send_join(
                    now,
                    group,
                    hop,
                    reason,
                    origin,
                    target_core,
                    cores.to_vec(),
                    core_index,
                    subcode,
                    act,
                );
            }
            _ => {
                // Unreachable core, or routing points straight back:
                // negative acknowledgement (§8.3).
                let nack = ControlMessage::JoinNack { group, origin, target_core };
                self.send_control(act, iface, src, nack);
            }
        }
    }

    /// §6.3: a NACTIVE rejoin walking parent-ward.
    fn on_nactive_rejoin(
        &mut self,
        now: SimTime,
        group: GroupId,
        origin: Addr,
        converter: Addr,
        cores: &[Addr],
        act: &mut Vec<RouterAction>,
    ) {
        if self.is_my_addr(origin) {
            // A walk can outlive the branch it started from. Without a
            // FIB entry there is no loop to break, and any join pending
            // now is a new one (a member's, a transit join) to leave be.
            let Some(entry) = self.fib.get_mut(group) else { return };
            // Our own rejoin came back: the new parent path loops.
            // "It immediately sends a QUIT_REQUEST to its newly-
            // established parent and the loop is broken."
            let parent = entry.parent.take();
            self.obs.loops_broken += 1;
            if let Some(p) = parent {
                let quit = ControlMessage::QuitRequest { group, origin: self.id_addr() };
                self.send_control(act, p.iface, p.addr, quit);
                self.timers.cancel(TimerKind::Echo(group));
            }
            // The loop may be detected before our rejoin's ack retraces
            // it (the NACTIVE walk and the ack race hop for hop): cancel
            // the pending rejoin so a late ack cannot instate the
            // looping parent.
            self.edit(group, |t| t.join = None);
            self.timers.cancel(TimerKind::PendingJoin(group));
            // "It then attempts to re-join again" — after a short
            // backoff via the next core, giving routing time to settle.
            // A broken loop is a failed attempt of the ongoing §6.1
            // RECONNECT campaign, so the backoff runs the campaign clock
            // and repeated loop-break cycles cannot retry forever (the
            // instating ack may have been taken for a success elsewhere).
            let next_attempt = now + self.cfg.pend_join_interval;
            self.defer_reattach(now, group, next_attempt, 1);
            return;
        }
        let i_primary = self.i_am_primary(cores)
            || self.fib.get(group).is_some_and(|e| e.i_am_core && e.parent.is_none());
        if i_primary {
            // Terminate the walk: ack the converting router directly
            // (§8.3.1 JOIN-ACK subcode REJOIN-NACTIVE).
            let Some(hop) = self.routes.hop_toward(converter) else { return };
            let ack = ControlMessage::JoinAck {
                subcode: AckSubcode::RejoinNactive,
                group,
                origin,
                target_core: converter,
                cores: cores.to_vec(),
            };
            self.send_control(act, hop.iface, hop.addr, ack);
            return;
        }
        // Keep walking parent-ward.
        self.forward_nactive(group, origin, converter, cores.to_vec(), act);
    }

    /// Acknowledges a join received from downstream, applying the §2.6
    /// proxy-ack rule. Adds the sender as a child unless proxied.
    pub(crate) fn ack_downstream(
        &mut self,
        now: SimTime,
        group: GroupId,
        join: &CachedJoin,
        act: &mut Vec<RouterAction>,
    ) {
        let affiliation =
            self.fib.get(group).and_then(|e| e.primary_core()).unwrap_or(self.id_addr());
        let cores = self.fib.get(group).map(|e| e.cores.clone()).unwrap_or_default();

        // §2.6 proxy test: the previous hop *is* the join's origin and
        // sits on the subnet we are about to ack over — the origin is a
        // D-DR whose first hop stayed on its own LAN.
        let proxy = join.subcode == JoinSubcode::ActiveJoin
            && join.from_addr == join.origin
            && self
                .iface(join.from_iface)
                .is_some_and(|i| i.lan.is_some() && i.contains(join.origin));

        if proxy {
            let ack = ControlMessage::JoinAck {
                subcode: AckSubcode::ProxyAck,
                group,
                origin: join.origin,
                target_core: affiliation,
                cores,
            };
            self.obs.proxy_acks_sent += 1;
            self.send_control(act, join.from_iface, join.from_addr, ack);
            // We are now the group's attachment on that LAN (§2.6).
            self.lan_mut(join.from_iface).gdr.insert(group);
            return;
        }

        // Normal ack: the previous hop becomes a child (§8.3: "it is
        // the receipt of a JOIN-ACK that actually creates a branch" —
        // state on our side is created when we *send* one).
        let cap = self.cfg.max_children;
        let entry = self.fib.entry(group);
        if !entry.add_child_capped(join.from_addr, join.from_iface, now, cap) {
            let nack =
                ControlMessage::JoinNack { group, origin: join.origin, target_core: affiliation };
            self.send_control(act, join.from_iface, join.from_addr, nack);
            return;
        }
        self.track_child_deadline(now);
        let ack = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group,
            origin: join.origin,
            target_core: affiliation,
            cores,
        };
        self.send_control(act, join.from_iface, join.from_addr, ack);
    }

    /// Receipt of a JOIN_ACK (§2.5/§2.6/§8.3).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_join_ack(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        src: Addr,
        subcode: AckSubcode,
        group: GroupId,
        _origin: Addr,
        _target_core: Addr,
        cores: &[Addr],
        act: &mut Vec<RouterAction>,
    ) {
        self.learn_cores(group, cores);
        if subcode == AckSubcode::RejoinNactive {
            // Direct confirmation from the primary that the NACTIVE
            // walk we started terminated loop-free. Nothing to change.
            return;
        }
        let Some(p) = self.take_pending_from(group, src) else { return };
        self.obs.record_join_rtt(now.since(p.started).micros());

        let proxied =
            matches!((&p.reason, subcode), (JoinReason::LocalMembership, AckSubcode::ProxyAck));
        match (&p.reason, subcode) {
            (JoinReason::LocalMembership, AckSubcode::ProxyAck) => {
                // §2.6: cancel transient state, keep **no** FIB entry;
                // the proxy sender is the G-DR.
                for &lan in &p.lans {
                    let origin_lan = self.iface(lan).is_some_and(|i| i.contains(p.origin));
                    if origin_lan {
                        self.lan_mut(lan).proxy.insert(group, src);
                    } else {
                        // Additional member LANs that the G-DR cannot
                        // serve (it is not attached to them): join again
                        // with that LAN's address as origin.
                        self.trigger_join(now, lan, group, 0, act);
                    }
                }
            }
            (JoinReason::LocalMembership, _) => {
                self.instate_parent(now, group, iface, src, cores, &p).i_am_core = false;
            }
            (JoinReason::Forwarded { from_iface, from_addr, subcode: down_sub }, _) => {
                self.instate_parent(now, group, iface, src, cores, &p);
                self.ack_downstream(
                    now,
                    group,
                    &CachedJoin {
                        from_iface: *from_iface,
                        from_addr: *from_addr,
                        origin: p.origin,
                        subcode: *down_sub,
                    },
                    act,
                );
            }
            (JoinReason::Reattach, _) => {
                self.instate_parent(now, group, iface, src, cores, &p);
                // The RECONNECT campaign budget is NOT retired here: an
                // ack whose path runs through our own subtree instates
                // a parent that the §6.3 NACTIVE walk tears right back
                // down, and treating that as success would reset the
                // budget every oscillation. The budget is retired when
                // the new parent proves real by answering an echo
                // (`on_echo_reply`).
            }
        }
        if !proxied {
            // The branch exists now, whoever asked for it: every member
            // LAN that waited on this join gets its attachment point.
            // A LAN that appeared while a *transit* join was in flight
            // used to be forgotten here — its host then sat on an
            // on-tree router and heard nothing.
            for &lan in &p.lans {
                self.lan_mut(lan).gdr.insert(group);
                // §2.5 proposal: notify member hosts on the subnet
                // that the tree has been joined.
                act.push(RouterAction::SendIgmp {
                    iface: lan,
                    dst: group.addr(),
                    msg: IgmpMessage::TreeJoined { group, core: p.target_core },
                });
            }
        }
        self.arm_echo(group);

        // §2.5: "only then can it acknowledge any cached joins."
        for cached in p.cached {
            if self.fib.on_tree(group) {
                // §6.3: a cached ACTIVE_REJOIN gets the same loop-
                // detection treatment as one received while on-tree:
                // convert to a NACTIVE walk up our (new) parent path
                // before acknowledging. Skipping this lets a rejoin
                // that was cached while we were pending — and whose ack
                // path runs THROUGH its own originator — instate a
                // stable parent/child cycle that nothing ever breaks.
                let entry = self.fib.get(group).expect("on tree");
                if cached.subcode == JoinSubcode::RejoinActive && !entry.i_am_core {
                    let cores = entry.cores.clone();
                    self.forward_nactive(group, cached.origin, self.id_addr(), cores, act);
                }
                self.ack_downstream(now, group, &cached, act);
            } else {
                // Proxy-acked ourselves: we hold no entry, so re-process
                // the cached join as a fresh arrival (it will be
                // forwarded upstream independently).
                let target = p.target_core;
                let cores = p.cores.clone();
                self.on_join_request(
                    now,
                    cached.from_iface,
                    cached.from_addr,
                    cached.subcode,
                    group,
                    cached.origin,
                    target,
                    &cores,
                    act,
                );
            }
        }
        // A directly attached member that left while its join was still
        // pending (`local_leave` defers to the in-flight join): the ack
        // just instated a branch nobody needs. Quit right away — LAN
        // memberships rely on the IFF scan for this, but local ones
        // tear down eagerly. The same applies to a §6.1 reattach whose
        // membership vanished mid-campaign: without the re-check the
        // ack instates a memberless, childless branch that persists
        // until the IFF scan (or forever, if the scan never runs).
        let eager = match &p.reason {
            JoinReason::LocalMembership => p.lans.is_empty(),
            JoinReason::Reattach => true,
            JoinReason::Forwarded { .. } => false,
        };
        if eager && !self.local_members.contains(&group) {
            self.maybe_quit(now, group, act);
        }
    }

    /// Receipt of a JOIN_NACK: the upstream attempt failed.
    pub(crate) fn on_join_nack(
        &mut self,
        now: SimTime,
        _iface: IfIndex,
        src: Addr,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        let Some(p) = self.take_pending_from(group, src) else { return };
        self.fail_pending(now, group, p, act);
    }

    /// Takes the group's pending join, its timer cancelled, if `src` is
    /// the hop it actually went to: an ack or nack from anyone else —
    /// or with nothing pending — is stale, duplicate or spoofed.
    fn take_pending_from(&mut self, group: GroupId, src: Addr) -> Option<PendingJoin> {
        if self.pending_join(group)?.upstream.1 != src {
            return None;
        }
        self.timers.cancel(TimerKind::PendingJoin(group));
        self.edit(group, |t| t.join.take()).map(|p| *p)
    }

    /// A pending join failed (nack or timeout): try the next core or
    /// propagate the failure downstream. `p` must already be taken out
    /// of the group's record.
    pub(crate) fn fail_pending(
        &mut self,
        now: SimTime,
        group: GroupId,
        p: PendingJoin,
        act: &mut Vec<RouterAction>,
    ) {
        let overall_deadline = p.started + self.cfg.expire_pending_join;
        let more_cores = p.cores.len() > 1;
        if now < overall_deadline && more_cores {
            // §6.1: "an alternate core is arbitrarily elected from the
            // core list. The process is repeated until a JOIN-ACK is
            // received, for a maximum of RECONNECT-TIMEOUT seconds."
            let next_index = (p.core_index + 1) % p.cores.len();
            self.launch_join(
                now,
                group,
                p.origin,
                p.cores.clone(),
                next_index,
                p.sent_subcode,
                p.reason.clone(),
                act,
            );
            if self.has_pending_join(group) {
                // Carry over the original start time and any cached
                // joins so the overall budget and downstream
                // obligations survive the retry.
                self.edit(group, |t| {
                    let npj = t.join.as_mut().expect("relaunched");
                    npj.started = p.started;
                    npj.cached = p.cached;
                    npj.lans = p.lans;
                });
            } else {
                // Relaunch found no reachable core at all: give up.
                self.give_up_pending(now, group, p, act);
            }
            return;
        }
        self.give_up_pending(now, group, p, act);
    }

    /// Abandons a pending join entirely.
    fn give_up_pending(
        &mut self,
        now: SimTime,
        group: GroupId,
        p: PendingJoin,
        act: &mut Vec<RouterAction>,
    ) {
        // Downstream waiters get nacks.
        if let JoinReason::Forwarded { from_iface, from_addr, .. } = p.reason {
            let nack =
                ControlMessage::JoinNack { group, origin: p.origin, target_core: p.target_core };
            self.send_control(act, from_iface, from_addr, nack);
        }
        for c in &p.cached {
            let nack =
                ControlMessage::JoinNack { group, origin: c.origin, target_core: p.target_core };
            self.send_control(act, c.from_iface, c.from_addr, nack);
        }
        if matches!(p.reason, JoinReason::Reattach) {
            // §6.1 re-attachment failed for RECONNECT-TIMEOUT: tear the
            // subtree down; downstream routers will re-join on their own
            // (they serve their own member subnets). The campaign ends
            // with the branch it served.
            self.flush_all_children(now, group, act);
            self.drop_group_state(group);
        }
    }

    /// Retransmission / core-switch / expiry service for one due
    /// pending join (phase 3 of the timer service).
    pub(crate) fn service_pending_join_group(
        &mut self,
        now: SimTime,
        group: GroupId,
        act: &mut Vec<RouterAction>,
    ) {
        let p = self.pending_join(group).expect("due implies present");
        let expired = now.since(p.started) >= self.cfg.expire_pending_join;
        if expired || now.since(p.attempt_started) >= self.cfg.pend_join_timeout {
            let p = *self.edit(group, |t| t.join.take()).expect("present");
            if expired {
                self.give_up_pending(now, group, p, act);
            } else {
                // §9 PEND-JOIN-TIMEOUT: "time to try joining a
                // different core".
                self.fail_pending(now, group, p, act);
            }
        } else {
            // §9 PEND-JOIN-INTERVAL: retransmit the same join.
            let ((up_iface, up_addr), request) = (p.upstream, p.request(group));
            self.send_control(act, up_iface, up_addr, request);
            let next = now + self.cfg.pend_join_interval;
            self.edit(group, |t| t.join.as_mut().expect("present").next_retransmit = next);
            self.timers.arm(TimerKind::PendingJoin(group), next);
        }
    }

    /// §6.1: the parent (or the path to it) failed — re-attach, serving
    /// the whole subtree below us. `start_index` picks where in the
    /// core list to start trying.
    pub(crate) fn start_reattach(
        &mut self,
        now: SimTime,
        group: GroupId,
        start_index: usize,
        act: &mut Vec<RouterAction>,
    ) {
        if self.has_pending_join(group) {
            return;
        }
        let Some(entry) = self.fib.get_mut(group) else { return };
        entry.parent = None;
        let entry_cores = entry.cores.clone();
        self.timers.cancel(TimerKind::Echo(group));
        let cores = if entry_cores.is_empty() { self.cores_for(group) } else { Some(entry_cores) };
        let Some(cores) = cores else { return };
        if self.i_am_primary(&cores) {
            self.end_campaign(group);
            return; // the primary waits to be joined (§6.2)
        }
        // §6.1 RECONNECT-TIMEOUT: the whole campaign (including periods
        // where no core is even reachable) is bounded; past the budget
        // the subtree is flushed so downstream routers fend for
        // themselves.
        let campaign = Campaign { since: now, backoff: None };
        let started = self.edit(group, |t| t.campaign.get_or_insert(campaign).since);
        if now.since(started) >= self.cfg.expire_pending_join {
            self.end_campaign(group);
            if self.fib.get(group).is_some_and(|e| e.i_am_core) {
                // A core with an intact subtree is a legitimate root
                // (§6.1 fallback; §6.2: the primary waits to be
                // joined). Give up the campaign toward the primary
                // quietly and keep serving — flushing paying members
                // because the core *backbone* link cannot form would
                // punish the wrong party. The IFF-scan safety net
                // retries the link later.
                return;
            }
            self.flush_all_children(now, group, act);
            self.drop_group_state(group);
            return;
        }
        let has_children = !self.fib.get(group).expect("checked").children.is_empty();
        // §6.1: ACTIVE_JOIN if no children attached, ACTIVE_REJOIN if at
        // least one child is.
        let subcode =
            if has_children { JoinSubcode::RejoinActive } else { JoinSubcode::ActiveJoin };
        let origin = self.id_addr();
        let start = start_index.min(cores.len().saturating_sub(1));
        self.launch_join(now, group, origin, cores, start, subcode, JoinReason::Reattach, act);
        if !self.has_pending_join(group) {
            // No core currently reachable: retry after a backoff (the
            // IGP may still be converging), inside the same budget.
            let retry = now + self.cfg.pend_join_interval;
            self.defer_reattach(now, group, retry, start_index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::*;
    use crate::CbtConfig;
    use cbt_routing::Hop;
    use cbt_topology::RouterId;
    use std::collections::BTreeMap;

    fn g() -> GroupId {
        GroupId::numbered(1)
    }

    fn core_a() -> Addr {
        Addr::from_octets(10, 255, 0, 77)
    }

    fn core_b() -> Addr {
        Addr::from_octets(10, 255, 0, 88)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Engine with a route to both cores via the "up" link (if1).
    fn routed_engine() -> CbtRouter {
        let mut e = engine(CbtConfig::default());
        let mut map = BTreeMap::new();
        map.insert(core_a(), up_hop());
        map.insert(core_b(), up_hop());
        set_routes(&mut e, map);
        e
    }

    fn trigger(e: &mut CbtRouter, now: SimTime) -> Vec<RouterAction> {
        let mut act = Vec::new();
        e.learn_cores(g(), &[core_a(), core_b()]);
        e.trigger_join(now, IfIndex(0), g(), 0, &mut act);
        act
    }

    #[test]
    fn trigger_sends_active_join_toward_core() {
        let mut e = routed_engine();
        let act = trigger(&mut e, t(0));
        assert_eq!(act.len(), 1);
        match &act[0] {
            RouterAction::SendControl { iface, dst, msg } => {
                assert_eq!(*iface, IfIndex(1));
                assert_eq!(*dst, up_hop().addr);
                match msg {
                    ControlMessage::JoinRequest { subcode, group, origin, target_core, cores } => {
                        assert_eq!(*subcode, JoinSubcode::ActiveJoin);
                        assert_eq!(*group, g());
                        assert_eq!(*origin, Addr::from_octets(10, 1, 0, 1), "LAN iface addr");
                        assert_eq!(*target_core, core_a());
                        assert_eq!(cores, &vec![core_a(), core_b()]);
                    }
                    other => panic!("expected join, got {other:?}"),
                }
            }
            other => panic!("expected control send, got {other:?}"),
        }
        assert!(e.has_pending_join(g()));
        assert!(!e.is_on_tree(g()), "no FIB entry until the ack (§8.3)");
    }

    #[test]
    fn second_trigger_while_pending_is_coalesced() {
        let mut e = routed_engine();
        let first = trigger(&mut e, t(0));
        assert_eq!(first.len(), 1);
        let mut act = Vec::new();
        e.trigger_join(t(1), IfIndex(0), g(), 0, &mut act);
        assert!(act.is_empty(), "§2.6: join already pending ⇒ no action");
    }

    #[test]
    fn ack_creates_fib_entry_and_notifies_hosts() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g()));
        assert_eq!(e.parent_of(g()), Some(up_hop().addr));
        assert!(e.is_gdr(IfIndex(0), g()));
        assert!(!e.has_pending_join(g()));
        // The §2.5 tree-joined notification went onto the member LAN.
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendIgmp { iface: IfIndex(0), msg: IgmpMessage::TreeJoined { .. }, .. }
        )));
    }

    #[test]
    fn ack_from_wrong_hop_is_ignored() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::NULL,
            target_core: core_a(),
            cores: vec![],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(!e.is_on_tree(g()));
        assert!(e.has_pending_join(g()), "still waiting for the real ack");
    }

    #[test]
    fn join_forwarding_creates_transient_state() {
        let mut e = routed_engine();
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        let act = e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Forwarded upstream unchanged.
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(1),
                msg: ControlMessage::JoinRequest {
                    subcode: JoinSubcode::ActiveJoin,
                    origin,
                    ..
                },
                ..
            } if *origin == Addr::from_octets(10, 9, 0, 1)
        ));
        assert!(e.has_pending_join(g()));
        assert_eq!(e.obs().joins_forwarded, 1);

        // Ack comes back: entry created, downstream acked as a child.
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        let act = e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g()));
        assert_eq!(e.children_of(g()), vec![down_addr()]);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::JoinAck { subcode: AckSubcode::Normal, .. },
                ..
            }
        )));
    }

    /// The silent member loss the benchmark's Poisson joins found: a
    /// host on the *transit* router's own LAN reports membership while
    /// the router's forwarded join is still in flight (the 1–4 ms the
    /// ack takes to retrace). The trigger is coalesced onto the pending
    /// join — and the ack must then serve that LAN, or the host sits
    /// behind an on-tree router and hears nothing, forever.
    #[test]
    fn lan_joining_behind_a_pending_transit_join_is_served_by_the_ack() {
        let ms = |n: u64| SimTime::from_micros(1_000_000 + n * 1_000);
        let transit_join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        let ack = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        for gap_ms in 1..=4 {
            let mut e = routed_engine();
            e.feed(
                ms(0),
                Input::Control { iface: IfIndex(2), src: down_addr(), msg: transit_join.clone() },
            );
            assert!(e.has_pending_join(g()));
            // The local host's report lands mid-flight, through the
            // same IGMP entry point a real LAN would use.
            e.learn_cores(g(), &[core_a()]);
            let msg = IgmpMessage::Report { version: 2, group: g() };
            let act = e.feed(
                ms(gap_ms),
                Input::Igmp { iface: IfIndex(0), src: Addr::from_octets(10, 1, 0, 77), msg },
            );
            assert!(
                !act.iter().any(|a| matches!(a, RouterAction::SendControl { .. })),
                "gap {gap_ms} ms: §2.6 — a join is already pending, no second one"
            );
            let act = e.feed(
                ms(5),
                Input::Control { iface: IfIndex(1), src: up_hop().addr, msg: ack.clone() },
            );
            assert_eq!(e.children_of(g()), vec![down_addr()], "transit obligation kept");
            assert!(e.is_gdr(IfIndex(0), g()), "gap {gap_ms} ms: member LAN left unserved");
            assert!(
                act.iter().any(|a| matches!(
                    a,
                    RouterAction::SendIgmp {
                        iface: IfIndex(0),
                        msg: IgmpMessage::TreeJoined { .. },
                        ..
                    }
                )),
                "gap {gap_ms} ms: hosts are told the tree was joined"
            );
            // And the data plane agrees: a packet from the parent
            // reaches both the child and the member LAN.
            let mut fwd = Vec::new();
            let pkt = cbt_wire::DataPacket::new(Addr::from_octets(10, 7, 0, 9), g(), 16, vec![1]);
            e.step(
                ms(10),
                Input::NativeData { iface: IfIndex(1), link_src: up_hop().addr, pkt },
                &mut fwd,
            );
            let mut out: Vec<IfIndex> = fwd
                .iter()
                .filter_map(|a| match a {
                    RouterAction::SendNativeData { iface, .. } => Some(*iface),
                    _ => None,
                })
                .collect();
            out.sort();
            assert_eq!(out, vec![IfIndex(0), IfIndex(2)], "gap {gap_ms} ms: fan-out");
        }
    }

    #[test]
    fn concurrent_joins_are_cached_until_own_ack() {
        let mut e = routed_engine();
        trigger(&mut e, t(0)); // our own pending join
        let act = e.feed(
            t(1),
            Input::Control {
                iface: IfIndex(2),
                src: down_addr(),
                msg: ControlMessage::JoinRequest {
                    subcode: JoinSubcode::ActiveJoin,
                    group: g(),
                    origin: Addr::from_octets(10, 9, 0, 1),
                    target_core: core_a(),
                    cores: vec![core_a(), core_b()],
                },
            },
        );
        assert!(act.is_empty(), "§2.5: cached, not acked, not forwarded");
        assert_eq!(e.obs().joins_cached, 1);
        // Our ack arrives: the cached join is acked too.
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(2), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::JoinAck { subcode: AckSubcode::Normal, .. },
                ..
            }
        )));
        assert_eq!(e.children_of(g()), vec![down_addr()]);
    }

    #[test]
    fn on_tree_router_terminates_joins() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        // Now on-tree. A join from downstream terminates here.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(act.len(), 1, "ack only — join not propagated (§2.5)");
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                msg: ControlMessage::JoinAck { subcode: AckSubcode::Normal, .. },
                ..
            }
        ));
        assert_eq!(e.children_of(g()), vec![down_addr()]);
    }

    #[test]
    fn proxy_ack_when_origin_is_previous_hop_on_shared_lan() {
        // A join arrives on our LAN iface directly from its origin (a
        // D-DR on our subnet); we are on-tree. §2.6 says: proxy-ack, no
        // child, we become G-DR.
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let ddr = Addr::from_octets(10, 1, 0, 2); // another router on our LAN
        let act = e.feed(
            t(2),
            Input::Control {
                iface: IfIndex(0),
                src: ddr,
                msg: ControlMessage::JoinRequest {
                    subcode: JoinSubcode::ActiveJoin,
                    group: g(),
                    origin: ddr,
                    target_core: core_a(),
                    cores: vec![core_a()],
                },
            },
        );
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(0),
                dst,
                msg: ControlMessage::JoinAck { subcode: AckSubcode::ProxyAck, .. },
            } if *dst == ddr
        ));
        assert!(e.children_of(g()).is_empty(), "proxy-ack adds no child");
        assert!(e.is_gdr(IfIndex(0), g()), "proxy sender becomes G-DR");
        assert_eq!(e.obs().proxy_acks_sent, 1);
    }

    #[test]
    fn receiving_proxy_ack_cancels_without_fib_entry() {
        let mut e = engine(CbtConfig::default());
        // Route to the core goes via a router on our own LAN (if0).
        let lan_peer = Addr::from_octets(10, 1, 0, 2);
        let mut map = BTreeMap::new();
        map.insert(
            core_a(),
            Hop { iface: IfIndex(0), router: RouterId(1), addr: lan_peer, dist: 2 },
        );
        set_routes(&mut e, map);
        e.learn_cores(g(), &[core_a()]);
        let mut act = Vec::new();
        e.trigger_join(t(0), IfIndex(0), g(), 0, &mut act);
        assert!(e.has_pending_join(g()));
        // The LAN peer proxy-acks us.
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::ProxyAck,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(0), src: lan_peer, msg });
        assert!(!e.is_on_tree(g()), "§2.6: D-DR keeps no FIB entry");
        assert!(!e.has_pending_join(g()));
        assert!(!e.is_gdr(IfIndex(0), g()));
        // And membership reports for the group do not retrigger joins.
        let mut act = Vec::new();
        e.trigger_join(t(2), IfIndex(0), g(), 0, &mut act);
        // (trigger_join is only called on NewGroup events; with the
        // group proxy-handled, presence still exists, so no NewGroup
        // fires. Direct call here shows it would join again — which is
        // correct after a genuine expiry.)
        assert_eq!(act.len(), 1);
    }

    #[test]
    fn join_toward_unreachable_core_gets_nack() {
        let mut e = engine(CbtConfig::default()); // no routes at all
        let act = e.feed(
            t(0),
            Input::Control {
                iface: IfIndex(2),
                src: down_addr(),
                msg: ControlMessage::JoinRequest {
                    subcode: JoinSubcode::ActiveJoin,
                    group: g(),
                    origin: Addr::from_octets(10, 9, 0, 1),
                    target_core: core_a(),
                    cores: vec![core_a()],
                },
            },
        );
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(2),
                msg: ControlMessage::JoinNack { .. },
                ..
            }
        ));
        assert!(!e.has_pending_join(g()));
    }

    #[test]
    fn nack_switches_to_alternate_core() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinNack {
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
        };
        let act = e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        // A fresh join toward core B went out.
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                msg: ControlMessage::JoinRequest { target_core, .. },
                ..
            } if *target_core == core_b()
        )));
        assert!(e.has_pending_join(g()));
    }

    #[test]
    fn retransmission_then_core_switch_then_expiry() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        // t=10: PEND-JOIN-INTERVAL retransmission of the same join.
        let act = e.feed(t(10), Input::Timer);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                msg: ControlMessage::JoinRequest { target_core, .. },
                ..
            } if *target_core == core_a()
        )));
        // t=30: PEND-JOIN-TIMEOUT switches to core B.
        let act = e.feed(t(30), Input::Timer);
        assert!(act.iter().any(|a| matches!(
            a,
            RouterAction::SendControl {
                msg: ControlMessage::JoinRequest { target_core, .. },
                ..
            } if *target_core == core_b()
        )));
        // t=90+: EXPIRE-PENDING-JOIN gives up entirely.
        e.feed(t(60), Input::Timer);
        e.feed(t(91), Input::Timer);
        assert!(!e.has_pending_join(g()), "overall budget exhausted");
    }

    #[test]
    fn core_discovers_itself_from_join_and_acks() {
        // §6.2: a (re-started) core learns its role from the join's
        // core list.
        let mut e = routed_engine();
        let my_id = e.id_addr();
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![my_id, core_b()],
        };
        let act = e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(e.is_on_tree(g()));
        assert!(e.fib().get(g()).unwrap().i_am_core);
        assert!(e.fib().get(g()).unwrap().parent.is_none(), "primary core has no parent");
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                msg: ControlMessage::JoinAck { subcode: AckSubcode::Normal, .. },
                ..
            }
        ));
        assert_eq!(e.children_of(g()), vec![down_addr()]);
    }

    #[test]
    fn secondary_core_acks_then_rejoins_primary() {
        // §2.5: a non-primary core receiving a join first acks it, then
        // sends REJOIN-ACTIVE to the primary.
        let mut e = routed_engine();
        let my_id = e.id_addr();
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![core_a(), my_id], // primary is core_a
        };
        let act = e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        let acks: Vec<_> = act
            .iter()
            .filter(|a| {
                matches!(a, RouterAction::SendControl { msg: ControlMessage::JoinAck { .. }, .. })
            })
            .collect();
        assert_eq!(acks.len(), 1);
        let rejoins: Vec<_> = act
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    RouterAction::SendControl {
                        msg: ControlMessage::JoinRequest {
                            subcode: JoinSubcode::RejoinActive,
                            target_core,
                            ..
                        },
                        ..
                    } if *target_core == core_a()
                )
            })
            .collect();
        assert_eq!(rejoins.len(), 1, "core tree built on demand (§1)");
        assert!(e.has_pending_join(g()));
    }

    #[test]
    fn nactive_rejoin_walks_parentward() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let converter = Addr::from_octets(10, 255, 0, 50);
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinNactive,
            group: g(),
            origin: Addr::from_octets(10, 255, 0, 60), // someone else's rejoin
            target_core: converter,
            cores: vec![core_a()],
        };
        let act = e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Forwarded out our parent interface, fields unchanged.
        assert!(matches!(
            &act[0],
            RouterAction::SendControl {
                iface: IfIndex(1),
                msg: ControlMessage::JoinRequest {
                    subcode: JoinSubcode::RejoinNactive,
                    origin,
                    target_core,
                    ..
                },
                ..
            } if *origin == Addr::from_octets(10, 255, 0, 60) && *target_core == converter
        ));
    }

    #[test]
    fn own_nactive_rejoin_breaks_loop_with_quit() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let my_id = e.id_addr();
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinNactive,
            group: g(),
            origin: my_id, // our own rejoin came back!
            target_core: Addr::from_octets(10, 255, 0, 50),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    msg: ControlMessage::QuitRequest { .. },
                    ..
                }
            )),
            "§6.3: quit to the newly-established parent"
        );
        assert_eq!(e.obs().loops_broken, 1);
        assert_eq!(e.parent_of(g()), None);
    }

    /// Our own NACTIVE walk returning after the branch it served is
    /// gone finds no loop: a member's pending join survives it, and no
    /// campaign starts that no reattach could end (`start_reattach`
    /// needs the FIB entry).
    #[test]
    fn own_nactive_rejoin_after_the_branch_is_gone_is_ignored() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        assert!(e.has_pending_join(g()) && !e.is_on_tree(g()));
        let my_id = e.id_addr();
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinNactive,
            group: g(),
            origin: my_id,
            target_core: Addr::from_octets(10, 255, 0, 50),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(e.has_pending_join(g()), "the member's join was cancelled");
        assert_eq!(e.protocol_phase(g(), t(1)), crate::ProtocolPhase::PendingJoin);
        assert_eq!(e.obs().loops_broken, 0);
    }

    #[test]
    fn primary_core_acks_nactive_rejoin_directly_to_converter() {
        let mut e = routed_engine();
        let my_id = e.id_addr();
        // Become primary core by receiving a join listing us first.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![my_id],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Route to the converter for the direct ack.
        let converter = Addr::from_octets(10, 255, 0, 50);
        let mut map = BTreeMap::new();
        map.insert(converter, up_hop());
        set_routes(&mut e, map);
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinNactive,
            group: g(),
            origin: Addr::from_octets(10, 255, 0, 60),
            target_core: converter,
            cores: vec![my_id],
        };
        let act = e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(
            matches!(
                &act[0],
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    dst,
                    msg: ControlMessage::JoinAck { subcode: AckSubcode::RejoinNactive, .. },
                } if *dst == up_hop().addr
            ),
            "unicast directly toward the converting router (§8.3.1)"
        );
    }

    #[test]
    fn reattach_uses_rejoin_active_iff_children_exist() {
        let mut e = routed_engine();
        // On-tree with a child.
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.children_of(g()).len(), 1);
        let mut act = Vec::new();
        e.start_reattach(t(3), g(), 0, &mut act);
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    msg: ControlMessage::JoinRequest { subcode: JoinSubcode::RejoinActive, .. },
                    ..
                }
            )),
            "§6.1: subcode ACTIVE_REJOIN when a child is attached"
        );
    }

    #[test]
    fn child_limit_produces_nack() {
        let mut e = routed_engine();
        let my_id = e.id_addr();
        // Become primary core.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![my_id],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        // Fill to 16 children.
        for i in 1..crate::fib::MAX_CHILDREN {
            let child = Addr::from_octets(172, 31, 10, i as u8);
            let msg = ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g(),
                origin: Addr::from_octets(10, 9, 0, i as u8),
                target_core: my_id,
                cores: vec![my_id],
            };
            e.feed(t(1), Input::Control { iface: IfIndex(2), src: child, msg });
        }
        assert_eq!(e.children_of(g()).len(), crate::fib::MAX_CHILDREN);
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 1, 1),
            target_core: my_id,
            cores: vec![my_id],
        };
        let act = e.feed(
            t(2),
            Input::Control { iface: IfIndex(2), src: Addr::from_octets(172, 31, 11, 1), msg },
        );
        assert!(matches!(
            &act[0],
            RouterAction::SendControl { msg: ControlMessage::JoinNack { .. }, .. }
        ));
    }

    /// Deviation 7 regression: an ACTIVE_REJOIN cached while we were
    /// pending (§2.5) must get the §6.3 NACTIVE conversion when it is
    /// finally served, exactly as if it had arrived while we were
    /// on-tree — otherwise an ack path running through the rejoin's own
    /// originator instates an undetectable parent/child cycle.
    #[test]
    fn cached_rejoin_active_is_nactive_converted_at_service_time() {
        let mut e = routed_engine();
        trigger(&mut e, t(0)); // our own pending join
        let rejoin_origin = Addr::from_octets(10, 255, 0, 60);
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::RejoinActive,
            group: g(),
            origin: rejoin_origin,
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(1), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert!(act.is_empty(), "§2.5: cached while pending");
        assert_eq!(e.obs().joins_cached, 1);
        // Our ack arrives; serving the cached rejoin must launch the
        // loop-detection walk up our new parent path AND ack downstream.
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        let act = e.feed(t(2), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let my_id = e.id_addr();
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(1),
                    dst,
                    msg: ControlMessage::JoinRequest {
                        subcode: JoinSubcode::RejoinNactive,
                        origin,
                        target_core,
                        ..
                    },
                } if *dst == up_hop().addr && *origin == rejoin_origin && *target_core == my_id
            )),
            "§6.3 walk parent-ward, origin preserved, converter in the core field: {act:?}"
        );
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl {
                    iface: IfIndex(2),
                    msg: ControlMessage::JoinAck { subcode: AckSubcode::Normal, .. },
                    ..
                }
            )),
            "the cached rejoin is still acknowledged downstream"
        );
    }

    /// Deviation 7 regression: a core whose RECONNECT campaign toward
    /// the primary expires gives up *quietly* — it keeps its subtree
    /// and stays a serving root — instead of flushing its members.
    #[test]
    fn core_past_reconnect_budget_keeps_serving_as_root() {
        let mut e = routed_engine();
        let my_id = e.id_addr();
        // Become a non-primary core (primary listed first) with a child.
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: my_id,
            cores: vec![core_a(), my_id],
        };
        e.feed(t(0), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.children_of(g()).len(), 1);
        // A campaign has been failing since t=0 (become_core's rejoin
        // attempt, cleared)...
        e.edit(g(), |r| {
            r.join = None;
            r.campaign = Some(Campaign { since: t(0), backoff: None });
        });
        // ...and the next retry lands past the budget.
        let past = t(0) + e.cfg.expire_pending_join;
        let mut act = Vec::new();
        e.start_reattach(past, g(), 0, &mut act);
        assert!(
            !act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl { msg: ControlMessage::FlushTree { .. }, .. }
            )),
            "no flush: the members are not punished for a dead backbone link"
        );
        assert!(e.is_on_tree(g()), "still a serving root");
        assert_eq!(e.children_of(g()).len(), 1, "subtree intact");
        assert!(!e.has_transient_state(g()), "campaign retired");
    }

    /// A §6.1 reattach join that expires ends its whole campaign: the
    /// router is left with no transient state, not reporting
    /// `CoreUnreachable` forever with a campaign clock that would put
    /// every later campaign over budget from its first attempt.
    #[test]
    fn expired_reattach_join_ends_the_campaign() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a(), core_b()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        assert!(e.is_on_tree(g()));
        // The parent never answers: the campaign starts at 91 s, and
        // its reattach join expires unanswered.
        while let Some(w) = e.next_wakeup().filter(|w| *w <= t(1_000)) {
            e.feed(w, Input::Timer);
        }
        assert_eq!(e.obs().parent_failures, 1);
        assert!(!e.is_on_tree(g()));
        assert_eq!(e.protocol_phase(g(), t(1_000)), crate::ProtocolPhase::Idle);
        assert!(!e.has_transient_state(g()), "the campaign outlived its reattach join");
    }

    /// Contrast case: a NON-core router past the same budget flushes
    /// downstream and drops its state (§6.1's RECONNECT-TIMEOUT).
    #[test]
    fn non_core_past_reconnect_budget_flushes_downstream() {
        let mut e = routed_engine();
        trigger(&mut e, t(0));
        let msg = ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: g(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(1), Input::Control { iface: IfIndex(1), src: up_hop().addr, msg });
        let msg = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core_a(),
            cores: vec![core_a()],
        };
        e.feed(t(2), Input::Control { iface: IfIndex(2), src: down_addr(), msg });
        assert_eq!(e.children_of(g()).len(), 1);
        e.edit(g(), |r| r.campaign = Some(Campaign { since: t(2), backoff: None }));
        let past = t(2) + e.cfg.expire_pending_join;
        let mut act = Vec::new();
        e.start_reattach(past, g(), 0, &mut act);
        assert!(
            act.iter().any(|a| matches!(
                a,
                RouterAction::SendControl { msg: ControlMessage::FlushTree { .. }, .. }
            )),
            "§6.1: downstream flushed to fend for itself: {act:?}"
        );
        assert!(!e.is_on_tree(g()), "state dropped");
    }
}
