//! Spec-E7 bench: wire-format encode/decode throughput for every CBT
//! packet format (§8), through the in-place writers and the readers the
//! routers and hosts call.

use bytes::Bytes;
use cbt_wire::checksum::internet_checksum;
use cbt_wire::ipv4::{split_datagram, IPV4_HEADER_LEN};
use cbt_wire::{
    Addr, CbtDataHeader, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage,
    JoinSubcode,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn sample_join() -> ControlMessage {
    ControlMessage::JoinRequest {
        subcode: JoinSubcode::ActiveJoin,
        group: GroupId::numbered(7),
        origin: Addr::from_octets(10, 1, 0, 1),
        target_core: Addr::from_octets(10, 255, 0, 4),
        cores: vec![Addr::from_octets(10, 255, 0, 4), Addr::from_octets(10, 255, 0, 9)],
    }
}

fn bench_control(c: &mut Criterion) {
    let msg = sample_join();
    let mut bytes = Vec::new();
    msg.encode_into(&mut bytes).unwrap();
    let mut g = c.benchmark_group("control");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    let mut buf = Vec::new();
    g.bench_function("encode_join", |b| b.iter(|| black_box(&msg).encode_into(&mut buf).unwrap()));
    g.bench_function("decode_join", |b| {
        b.iter(|| ControlMessage::decode(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_data_header(c: &mut Criterion) {
    let h = CbtDataHeader::new(
        GroupId::numbered(7),
        Addr::from_octets(10, 255, 0, 4),
        Addr::from_octets(10, 1, 0, 100),
        64,
    );
    let bytes = h.encode();
    let mut g = c.benchmark_group("cbt_header");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(&h).encode()));
    g.bench_function("decode", |b| b.iter(|| CbtDataHeader::decode(black_box(&bytes)).unwrap()));
    g.finish();
}

fn bench_igmp(c: &mut Criterion) {
    let msg = IgmpMessage::Report { version: 3, group: GroupId::numbered(7) };
    let mut bytes = Vec::new();
    msg.encode_append(&mut bytes);
    let mut buf = Vec::new();
    c.bench_function("igmp/report_roundtrip", |b| {
        b.iter(|| {
            buf.clear();
            black_box(&msg).encode_append(&mut buf);
            IgmpMessage::decode(&buf).unwrap()
        })
    });
    c.bench_function("igmp/decode", |b| b.iter(|| IgmpMessage::decode(black_box(&bytes)).unwrap()));
}

fn bench_full_datagram(c: &mut Criterion) {
    for size in [64usize, 512, 1400] {
        let native = DataPacket::new(
            Addr::from_octets(10, 1, 0, 100),
            GroupId::numbered(7),
            32,
            vec![0xab; size],
        );
        let enc = CbtDataPacket::encapsulate(&native, Addr::from_octets(10, 255, 0, 4));
        let mut wire = Vec::new();
        enc.wrap_unicast_into(
            Addr::from_octets(172, 31, 0, 1),
            Addr::from_octets(172, 31, 0, 2),
            None,
            &mut wire,
        );
        let wire = Bytes::from(wire);
        let mut g = c.benchmark_group(format!("datagram_{size}B"));
        g.throughput(Throughput::Bytes(wire.len() as u64));
        // What a router does with a CBT-mode arrival: split the outer
        // header, then parse the payload as views into the frame.
        g.bench_function("split_decode", |b| {
            b.iter(|| {
                let (outer, _) = split_datagram(black_box(&wire)).unwrap();
                let payload = wire.slice(IPV4_HEADER_LEN..usize::from(outer.total_len));
                CbtDataPacket::decode_payload_bytes(&payload).unwrap()
            })
        });
        g.finish();
    }
}

/// The Internet checksum per buffer size: a CBT data header (20 B),
/// IPv4 plus CBT headers (40 B), a JOIN_REQUEST frame (72 B), a small
/// data packet (264 B) and a full one (1 400 B).
fn bench_checksum(c: &mut Criterion) {
    for size in [20usize, 40, 72, 264, 1400] {
        let buf: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        let mut g = c.benchmark_group(format!("checksum_{size}B"));
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function("sum", |b| b.iter(|| internet_checksum(black_box(&buf))));
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_control,
    bench_data_header,
    bench_igmp,
    bench_full_datagram,
    bench_checksum
);
criterion_main!(benches);
