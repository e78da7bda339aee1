//! The corpus of named checker traces: each replays from its scope's
//! boot through the small-scope checker's world
//! (`cbt_eval::experiments::explore`) and must come out clean —
//! healed, quiescent, tree invariants, one root while the primary core
//! is up, one copy of every member's probe at every other member —
//! under one and two engine shards.
//!
//! The first eight pin protocol situations worth replaying on every
//! change. The other five are defects the exhaustive search found, each
//! with the trace that shows it; the fix of each is the reason it now
//! replays clean.

use cbt_eval::experiments::explore::Trace;

const TRACES: [(&str, &str); 13] = [
    // §6.1: the core dies under a built branch; echo timers run while
    // it is down, then it restarts empty (§6.2).
    ("chain core crash", "line: crash r1, timer, timer, timer, timer"),
    // §2.5: the first JOIN_REQUEST of a new member's router is lost.
    ("early control drop", "line: join h1, deliver 0, deliver 0, drop 0"),
    // §2.7: the member LAN goes down with the QUIT_REQUEST in flight.
    ("LAN cut across a teardown", "line: leave h0, deliver 0, timer, cut s0"),
    // A lost join, then the joining router itself crashes.
    ("drop, then crash", "line: join h1, deliver 0, deliver 0, drop 0, crash r2"),
    // §6.1: the primary core crashes; the branch falls back to the
    // secondary, then the primary revives.
    ("diamond crash", "diamond: crash r3, timer, timer, timer, timer"),
    // The only link toward the core is cut while a join is pending.
    ("partition during a pending join", "line: join h1, deliver 0, deliver 0, cut l1"),
    // §2.3: the D-DR crashes under a member LAN and restarts empty.
    ("dual-DR crash", "dual-dr: crash r0, timer, timer, timer, timer"),
    // §6.1: a keepalive from the D-DR's branch is lost.
    ("dual-DR drop", "dual-dr: timer, timer, timer, drop 0"),
    // The non-DR router restarts, takes the D-DR role until it hears
    // the lower querier, and joins for the LAN: until it handed the LAN
    // back with the role, the member received every packet twice.
    ("restarted non-DR router", "dual-dr: join h1, crash r1"),
    // The same through a join still pending when the restarted router
    // hears the lower querier: the ack used to make it G-DR anyway.
    (
        "both LAN routers restart",
        "dual-dr: join h1, crash r0, crash r1, restart r1, timer, deliver 2, timer, restart r0, timer",
    ),
    // The revived primary hears its own LAN's new member before the
    // RP/Core-Report, so with no core list to join toward, then becomes
    // a core through the fragment's rejoin: while being on-tree counted
    // as serving the LAN, member Y never received a packet.
    (
        "core's own member LAN",
        "two-core: timer, timer, timer, timer, timer, timer, join h1, deliver 6",
    ),
    // With the D-DR's uplink cut its rejoin is proxy-acked by the other
    // router, whose own view of the LAN expired (it heard the leave
    // after the report) and which quit; until the IFF scan re-validated
    // proxied LANs, the D-DR's proxy record was trusted forever.
    (
        "stale proxy-ack record",
        "dual-dr: leave h0, deliver 0, timer, deliver 2, join h0, deliver 6, cut l0, deliver 4",
    ),
    // The member rejoins while the primary is down, so its router's
    // join makes the secondary a core again; the primary revives before
    // that join lands, and the secondary's rejoin toward it ran through
    // the very router it was about to ack. Acked first, that router
    // became the secondary's child and parent at once, a loop only the
    // §6.3 walk breaks, and the walk is lost. The secondary now acks
    // first and flushes that child before rejoining through it.
    (
        "rejoin through the requester",
        "two-core: crash r0, leave h0, deliver 0, timer, deliver 2, join h0, deliver 3, deliver 3, \
         restart r0, deliver 3, deliver 4, deliver 3, drop 4",
    ),
];

fn parsed() -> Vec<(&'static str, Trace)> {
    TRACES
        .iter()
        .map(|&(name, text)| {
            let trace = Trace::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(trace.to_string(), text, "{name}: parse → render is not byte-identical");
            (name, trace)
        })
        .collect()
}

/// Every named trace renders back to its text byte for byte and
/// replays clean under one engine shard.
#[test]
fn corpus_replays_byte_identically() {
    for (name, trace) in parsed() {
        let v = trace.replay(1).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(v.is_clean(), "{name} under 1 shard: {v:?}");
    }
}

/// Sharding is observationally irrelevant: under two engine shards
/// (the `CBT_SHARDS=2` configuration) every named trace replays clean
/// too, to the verdict it has under one.
#[test]
fn corpus_verdicts_identical_under_two_shards() {
    for (name, trace) in parsed() {
        let one = trace.replay(1).unwrap_or_else(|e| panic!("{name}: {e}"));
        let two = trace.replay(2).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(two.is_clean(), "{name} under 2 shards: {two:?}");
        assert_eq!(two, one, "{name}: verdict differs between 1 and 2 shards");
    }
}
