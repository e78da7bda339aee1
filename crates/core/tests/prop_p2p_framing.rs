//! `P2pNode` framing under arbitrary input, the way the wire decoders
//! are fuzzed: whatever bytes arrive, the adapter neither panics nor
//! miscounts, and whatever the engine asks it to send, an encode
//! failure costs exactly one counted, un-queued frame.

mod common;

use cbt::{node_addr, RouterAction};
use cbt_netsim::NsNode;
use cbt_topology::IfIndex;
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, JoinSubcode};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Addr> {
    // The line's own routers, so some frames meet real state.
    prop_oneof![(0u32..3).prop_map(node_addr), (0u32..0xE000_0000).prop_map(Addr)]
}

fn arb_group() -> impl Strategy<Value = GroupId> {
    prop_oneof![Just(common::group()), (1u16..400).prop_map(GroupId::numbered)]
}

prop_compose! {
    /// Any control message; `max_cores` above 8 makes some unencodable.
    fn arb_control(max_cores: usize)(
        which in 0u8..8,
        group in arb_group(),
        origin in arb_addr(),
        target in arb_addr(),
        cores in proptest::collection::vec(arb_addr(), 0..=max_cores),
        mask in proptest::option::of(arb_addr()),
    ) -> ControlMessage {
        match which {
            0 => ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin, group, origin, target_core: target, cores,
            },
            1 => ControlMessage::JoinAck {
                subcode: AckSubcode::Normal, group, origin, target_core: target, cores,
            },
            2 => ControlMessage::JoinNack { group, origin, target_core: target },
            3 => ControlMessage::QuitRequest { group, origin },
            4 => ControlMessage::QuitAck { group, origin },
            5 => ControlMessage::FlushTree { group, origin },
            6 => ControlMessage::EchoRequest { group, origin, group_mask: mask },
            _ => ControlMessage::EchoReply { group, origin, group_mask: mask },
        }
    }
}

prop_compose! {
    /// A frame as the wire could deliver it: noise, a well-formed
    /// `[src | message]`, or one of those cut short or with a bit flipped.
    fn arb_frame()(
        shape in 0u8..4,
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        src in arb_addr(),
        msg in arb_control(8),
        at in 0usize..4096,
        bit in 0u8..8,
    ) -> Vec<u8> {
        let mut f = src.octets().to_vec();
        msg.encode_append(&mut f).expect("at most 8 cores");
        let at = at % f.len();
        match shape {
            0 => return noise,
            1 => {}
            2 => f.truncate(at),
            _ => f[at] ^= 1 << bit,
        }
        f
    }
}

proptest! {
    #[test]
    fn on_frame_survives_anything_and_counts_exactly_the_undecodable(
        frames in proptest::collection::vec((0u32..2, arb_frame()), 1..40),
    ) {
        // Router 1 is on-tree between a child and the core, so echoes,
        // quits and joins in the mix find a parent and a child to hit.
        let mut world = common::line(&common::rib());
        common::join(&mut world, 2);
        world.run_until(cbt_netsim::SimTime::from_secs(1));
        for (iface, frame) in frames {
            let decodable = frame.len() >= 4 && ControlMessage::decode(&frame[4..]).is_ok();
            let (sent, errors) = (world.trace.frames, world.node(1).decode_errors);
            world.with_node(1, |nd, now, out| nd.on_frame(now, iface, &frame, out));
            let errors = world.node(1).decode_errors - errors;
            prop_assert_eq!(errors, u64::from(!decodable));
            if !decodable {
                prop_assert_eq!(world.trace.frames, sent, "an undecodable frame emits nothing");
            }
        }
        prop_assert_eq!(world.node(1).encode_errors, 0);
    }

    #[test]
    fn an_unencodable_message_costs_one_counted_unqueued_frame(
        msgs in proptest::collection::vec((0u32..2, arb_control(12)), 1..24),
    ) {
        let mut world = common::line(&common::rib());
        let encodable: Vec<bool> = msgs.iter().map(|(_, m)| m.encode().is_ok()).collect();
        let actions = msgs
            .into_iter()
            .map(|(iface, msg)| RouterAction::SendControl {
                iface: IfIndex(iface),
                dst: node_addr(0),
                msg,
            })
            .collect();
        world.with_node(1, |nd, _now, out| nd.deliver(actions, out));
        let good = encodable.iter().filter(|ok| **ok).count() as u64;
        prop_assert_eq!(world.trace.frames, good, "every encodable message went out");
        prop_assert_eq!(world.node(1).encode_errors, encodable.len() as u64 - good);
        // A failed frame's buffer went back to the pool, where the
        // next frame of the same call found it.
        let pooled = encodable.iter().fold(0usize, |p, ok| p.saturating_sub(1) + usize::from(!ok));
        prop_assert_eq!(world.pooled_frames(), pooled);
        // What did go out is `[src | encode()]`, byte for byte.
        world.run_until(cbt_netsim::SimTime::from_micros(1_000));
        prop_assert_eq!(world.node(0).decode_errors + world.node(2).decode_errors, 0);
    }
}
