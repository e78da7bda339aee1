//! Use-after-reclaim oracle for the simulator's frame pool. A frame's
//! buffer goes back to the pool when its *last* handle drops; anything
//! that still views it — a delivery handed up by reference, a second
//! receiver on the LAN, the pcap capture — must keep its bytes however
//! many later frames are built in recycled buffers.

use cbt::{CbtConfig, CbtWorld, RX_COPYBREAK};
use cbt_netsim::{Capture, SimTime, TraceEntry, WorldConfig};
use cbt_topology::{HostId, NetworkBuilder};
use cbt_wire::GroupId;

const GROUP: u16 = 1;
/// Packets whose every record is snapshotted...
const EARLY: u64 = 200;
/// ...and packets sent afterwards to cycle the pool over them.
const LATER: u64 = 10_000;

/// A —S0— R0 —— R1 (core) —— R2 —S1— B, C: three native hops, and a
/// member LAN where two receivers share each arrival frame.
struct Line {
    cw: CbtWorld,
    sender: HostId,
    members: [HostId; 2],
}

fn line(capture_pcap: bool) -> Line {
    let mut b = NetworkBuilder::new();
    let (r0, r1, r2) = (b.router("R0"), b.router("R1"), b.router("R2"));
    let s0 = b.lan("S0");
    b.attach(s0, r0);
    let sender = b.host("A", s0);
    b.link(r0, r1, 1);
    b.link(r1, r2, 1);
    let s1 = b.lan("S1");
    b.attach(s1, r2);
    let members = [b.host("B", s1), b.host("C", s1)];
    let net = b.build();
    let core = net.router_addr(r1);
    let cfg = WorldConfig { capture_pcap, record_trace: true, ..WorldConfig::default() };
    let mut cw = CbtWorld::build(net, CbtConfig::fast(), cfg);
    for h in [sender, members[0], members[1]] {
        cw.host(h).join_at(SimTime::from_secs(1), GroupId::numbered(GROUP), vec![core]);
    }
    cw.world.start();
    cw.world.run_until(SimTime::from_secs(4));
    Line { cw, sender, members }
}

/// Payload of packet `seq`: long enough to be delivered by reference
/// on even sequence numbers, copied out (so that the frame's buffer is
/// free to go round) on odd ones; the bytes depend on `seq` throughout.
fn payload(seq: u64) -> Vec<u8> {
    let len = if seq.is_multiple_of(2) { RX_COPYBREAK + (seq % 97) as usize } else { 40 };
    (0..len as u64).map(|i| (seq.wrapping_mul(31) + i) as u8).collect()
}

impl Line {
    /// Sends packets `seqs`, 1 ms apart from `at_ms`, and runs until
    /// the last is delivered.
    fn flood(&mut self, at_ms: u64, seqs: std::ops::Range<u64>) {
        let n = seqs.end - seqs.start;
        for (i, seq) in seqs.enumerate() {
            let at = SimTime::from_micros((at_ms + i as u64) * 1000);
            self.cw.host(self.sender).send_at(at, GroupId::numbered(GROUP), payload(seq), 16);
        }
        self.cw.touch_host(self.sender);
        self.cw.world.run_until(SimTime::from_micros((at_ms + n + 5) * 1000));
    }

    /// Everything the world and the members recorded so far, by value.
    fn records(&mut self) -> Records {
        let deliveries = self
            .members
            .map(|m| self.cw.host(m).received().iter().map(|d| d.payload.to_vec()).collect());
        let captured = self.cw.world.capture().map(|cap| {
            let mut file = Vec::new();
            cap.write_to(&mut file).expect("writing to a Vec");
            Capture::parse(&file).expect("our own capture parses")
        });
        Records { deliveries, captured, trace: self.cw.world.trace().entries().to_vec() }
    }
}

#[derive(Debug, PartialEq)]
struct Records {
    deliveries: [Vec<Vec<u8>>; 2],
    captured: Option<Vec<(u64, Vec<u8>)>>,
    trace: Vec<TraceEntry>,
}

impl Records {
    /// The first part of `later` that was already there when `self`
    /// was taken.
    fn prefix_of(&self, later: &Records) -> Records {
        Records {
            deliveries: [0, 1].map(|m| later.deliveries[m][..self.deliveries[m].len()].to_vec()),
            captured: self
                .captured
                .as_ref()
                .map(|c| later.captured.as_ref().unwrap()[..c.len()].to_vec()),
            trace: later.trace[..self.trace.len()].to_vec(),
        }
    }
}

fn early_records_survive_later_traffic(capture_pcap: bool) -> Line {
    let mut line = line(capture_pcap);
    line.flood(4_100, 0..EARLY);
    let early = line.records();
    for m in 0..2 {
        let want: Vec<Vec<u8>> = (0..EARLY).map(payload).collect();
        assert_eq!(early.deliveries[m], want, "member {m} heard every early packet, intact");
    }

    line.flood(4_400, EARLY..EARLY + LATER);
    let all = line.records();
    assert_eq!(all.deliveries[0].len() as u64, EARLY + LATER);
    assert_eq!(all.deliveries[0], (0..EARLY + LATER).map(payload).collect::<Vec<_>>());
    assert_eq!(all.deliveries[0], all.deliveries[1]);
    assert_eq!(early.prefix_of(&all), early, "nothing recorded earlier moved");
    line
}

/// Deliveries by reference pin their frames; every other buffer goes
/// round thousands of times underneath them.
#[test]
fn deliveries_and_trace_survive_ten_thousand_recycled_frames() {
    let line = early_records_survive_later_traffic(false);
    let pooled = line.cw.world.pooled_frames();
    assert!(pooled > 0, "the pool did cycle");
    assert!(
        pooled <= 16,
        "and stayed the size of what is in flight, not of what was sent: {pooled}"
    );
}

/// With the capture on every transmitted frame has a second handle for
/// good: none is ever reclaimed, and the capture reads back exactly.
#[test]
fn a_captured_frame_is_never_reclaimed() {
    let line = early_records_survive_later_traffic(true);
    assert_eq!(line.cw.world.pooled_frames(), 0, "no frame ever entered the pool");
    let cap = line.cw.world.capture().expect("capture enabled");
    assert!(cap.len() as u64 >= 4 * (EARLY + LATER), "every hop of every packet is in it");
}
