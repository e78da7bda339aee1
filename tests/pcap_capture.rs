//! End-to-end pcap capture: a full protocol run captured to the
//! libpcap format, parsed back, and the CBT control messages recovered
//! byte-exactly from the capture records — proving a Wireshark user
//! would see real CBT traffic.

use cbt::{CbtConfig, CbtWorld};
use cbt_netsim::{Bytes, Capture, SimTime, WorldConfig};
use cbt_topology::figure1;
use cbt_wire::{ControlMessage, IpProto, JoinSubcode, UdpHeader, CBT_AUX_PORT, CBT_PRIMARY_PORT};

#[test]
fn figure1_run_produces_a_parseable_capture() {
    let fig = figure1();
    let group = cbt_wire::GroupId::numbered(1);
    let cores =
        vec![fig.net.router_addr(fig.primary_core()), fig.net.router_addr(fig.secondary_core())];
    let mut cw = CbtWorld::build(
        fig.net.clone(),
        CbtConfig::fast(),
        WorldConfig { capture_pcap: true, ..Default::default() },
    );
    cw.host(fig.hosts.a).join_at(SimTime::from_secs(1), group, cores.clone());
    cw.host(fig.hosts.g).join_at(SimTime::from_secs(1), group, cores);
    cw.host(fig.hosts.g).send_at(SimTime::from_secs(3), group, b"captured".to_vec(), 32);
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(5));

    let cap = cw.world.capture().expect("capture enabled");
    assert!(!cap.is_empty());

    // Serialise and re-parse the capture file.
    let mut buf = Vec::new();
    cap.write_to(&mut buf).unwrap();
    let records = Capture::parse(&buf).unwrap();
    assert_eq!(records.len(), cap.len());

    // Timestamps are monotone non-decreasing.
    for w in records.windows(2) {
        assert!(w[0].0 <= w[1].0, "capture timestamps ordered");
    }

    // Recover the CBT control conversation from raw capture bytes: at
    // least one ACTIVE_JOIN and one ack must decode from UDP/7777.
    let mut joins = 0;
    let mut acks = 0;
    let mut echoes = 0;
    for (_, frame) in &records {
        let Ok((hdr, body)) = cbt_wire::ipv4::split_datagram(frame) else { continue };
        if hdr.proto != IpProto::Udp {
            continue;
        }
        let Ok((udp, payload)) = UdpHeader::unwrap(body) else { continue };
        if udp.dst_port != CBT_PRIMARY_PORT && udp.dst_port != CBT_AUX_PORT {
            continue;
        }
        match ControlMessage::decode(payload) {
            Ok(ControlMessage::JoinRequest { subcode: JoinSubcode::ActiveJoin, .. }) => joins += 1,
            Ok(ControlMessage::JoinAck { .. }) => acks += 1,
            Ok(ControlMessage::EchoRequest { .. }) => {
                assert_eq!(udp.dst_port, CBT_AUX_PORT, "echoes ride the aux port (§3)");
                echoes += 1;
            }
            _ => {}
        }
    }
    assert!(joins >= 2, "capture holds the join conversation ({joins})");
    assert!(acks >= 2, "and its acknowledgements ({acks})");
    assert!(echoes >= 1, "and the keepalives ({echoes})");

    // The multicast data payload is in there too, recoverable.
    let data_frames: Vec<_> = records
        .iter()
        .filter_map(|(_, f)| cbt_wire::DataPacket::decode_bytes(&Bytes::copy_from_slice(f)).ok())
        .filter(|p| p.payload == b"captured")
        .collect();
    assert!(!data_frames.is_empty(), "application payload visible in the capture");
}
