//! §7 interception: an off-tree encapsulated packet from a non-member
//! sender is grabbed by the FIRST on-tree router its unicast path
//! crosses — it must not travel all the way to the core when the tree
//! is closer.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Entity, PacketKind, SimTime, WorldConfig};
use cbt_topology::{NetworkBuilder, RouterId};
use cbt_wire::GroupId;

/// sender —[Ssnd]— Rsnd — Rmid — Rcore, receiver —[Srcv]— Rmid.
///
/// The receiver's branch is Rmid—Rcore... no: receiver's DR is Rmid,
/// which joins the core directly, so **Rmid is on-tree**. The
/// non-member sender's DR (Rsnd) encapsulates toward the core; the
/// packet's unicast path is Rsnd → Rmid → Rcore. §7 says Rmid — on-tree
/// — intercepts, marks on-tree, and delivers to the receiver without
/// the core ever seeing a data packet travel back down.
#[test]
fn first_on_tree_router_intercepts_non_member_data() {
    let mut b = NetworkBuilder::new();
    let r_snd = b.router("Rsnd");
    let r_mid = b.router("Rmid");
    let r_core = b.router("Rcore");
    let s_snd = b.lan("Ssnd");
    b.attach(s_snd, r_snd);
    let sender = b.host("SND", s_snd);
    b.link(r_snd, r_mid, 1);
    b.link(r_mid, r_core, 1);
    let s_rcv = b.lan("Srcv");
    b.attach(s_rcv, r_mid);
    let receiver = b.host("RCV", s_rcv);
    let net = b.build();
    let core = net.router_addr(r_core);
    let group = GroupId::numbered(1);

    // CBT mode so the §7 on-tree bit is on the wire; the sender's group
    // mapping comes from managed configuration (§5.1).
    let cfg = CbtConfig::fast()
        .with_mode(cbt::config::ForwardingMode::CbtMode)
        .with_mapping(group, vec![core]);
    let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
    cw.host(receiver).join_at(SimTime::from_secs(1), group, vec![core]);
    cw.host(sender).send_at(SimTime::from_secs(3), group, b"intercepted".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));

    // Delivered exactly once.
    let got = cw.host(receiver).received();
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got.get(0).unwrap().payload, b"intercepted");

    // §7 evidence: Rmid intercepted. Count CBT-mode data frames by
    // sender: Rsnd sent the off-tree unicast (1). If Rmid intercepted,
    // it spans the tree *from itself*: it still owes the parent (core)
    // a copy, but the core must NOT send any data frame back down —
    // delivery happened at Rmid directly.
    let data_from = |r: RouterId| {
        cw.world
            .trace()
            .entries()
            .iter()
            .filter(|e| e.from == Entity::Router(r) && e.kind.is_data())
            .count()
    };
    assert!(data_from(r_snd) >= 1, "sender DR encapsulated");
    assert!(data_from(r_mid) >= 1, "Rmid forwarded (intercepted)");
    assert_eq!(
        data_from(r_core),
        0,
        "the core received its tree copy but had nothing further to send"
    );
    // The receiver-facing copy was a decapsulated native multicast.
    assert!(cw.world.trace().count(PacketKind::DataNative) >= 1);
    assert!(cw.world.trace().count(PacketKind::DataCbt) >= 1);
}
