//! Seeded fault injection, smoltcp-style: probabilistic packet drop and
//! single-byte corruption applied to transmissions in flight.
//!
//! Corruption flips exactly one random bit of one random byte — the
//! adversary the Internet checksum is designed for; the wire crate's
//! property tests guarantee such packets never parse, so the protocol
//! sees corruption as loss (exactly what a real router does).
//!
//! # Stream isolation
//!
//! Every (decision, traffic-class) pair draws from its **own** seeded
//! RNG stream: control drops, data drops, control corruption and data
//! corruption are four independent ChaCha8 sequences derived from the
//! one world seed. The fate of the nth control frame therefore depends
//! only on n and the seed — adding data-plane traffic to a scenario
//! can never perturb a control-plane fault replay. The exploration
//! harness leans on this: a counterexample's targeted drops stay
//! pinned to the same control transmissions no matter what background
//! load the replay adds.

use bytes::Bytes;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Traffic class a frame belongs to, from the injector's point of
/// view. Classification is done by the world (which already parses
/// every transmission for its trace): CBT control and IGMP frames are
/// [`FaultClass::Control`], everything else is [`FaultClass::Data`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum FaultClass {
    /// CBT control messages and IGMP.
    Control = 0,
    /// Multicast data (native or CBT-mode) and anything unclassified.
    Data = 1,
}

impl FaultClass {
    /// Number of classes (array sizing).
    pub const COUNT: usize = 2;
}

/// Fault injection plan: probabilistic rates plus targeted drops.
///
/// Targeted drops name exact per-class transmission sequence numbers
/// (0-based, counted separately for control and data): the nth control
/// frame the injector sees is dropped iff `n` is listed in
/// [`FaultPlan::drop_control_seqs`]. Because each class keeps its own
/// counter, a targeted control drop is a deterministic, load-immune
/// fault — the unit the exploration harness enumerates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability that any transmission is silently dropped.
    pub drop_chance: f64,
    /// Probability that a surviving transmission has one bit flipped.
    pub corrupt_chance: f64,
    /// Control-class sequence numbers to drop deterministically.
    pub drop_control_seqs: Vec<u64>,
    /// Data-class sequence numbers to drop deterministically.
    pub drop_data_seqs: Vec<u64>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Uniform drop probability, no corruption.
    pub fn drops(p: f64) -> Self {
        FaultPlan { drop_chance: p, ..FaultPlan::default() }
    }

    /// Uniform corruption probability, no drops.
    pub fn corruption(p: f64) -> Self {
        FaultPlan { corrupt_chance: p, ..FaultPlan::default() }
    }

    /// Adds targeted control-frame drops (per-class sequence numbers).
    pub fn with_control_drops(mut self, seqs: impl Into<Vec<u64>>) -> Self {
        self.drop_control_seqs = seqs.into();
        self
    }

    /// Adds targeted data-frame drops (per-class sequence numbers).
    pub fn with_data_drops(mut self, seqs: impl Into<Vec<u64>>) -> Self {
        self.drop_data_seqs = seqs.into();
        self
    }

    fn targets(&self, class: FaultClass) -> &[u64] {
        match class {
            FaultClass::Control => &self.drop_control_seqs,
            FaultClass::Data => &self.drop_data_seqs,
        }
    }
}

/// Per-(decision, class) seed derivation constants. Any four distinct
/// odd constants would do; these are splitmix64/xxhash multipliers.
const STREAM_SALTS: [[u64; FaultClass::COUNT]; 2] = [
    // drop: control, data
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F],
    // corrupt: control, data
    [0x1656_67B1_9E37_79F9, 0x27D4_EB2F_1656_67C5],
];

/// Stateful injector: owns its RNG streams so a fixed seed reproduces
/// the same fault pattern run after run.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    drop_rng: [ChaCha8Rng; FaultClass::COUNT],
    corrupt_rng: [ChaCha8Rng; FaultClass::COUNT],
    /// Per-class transmission counters (targeted drops index these).
    seq: [u64; FaultClass::COUNT],
    dropped: u64,
    corrupted: u64,
    passed: u64,
}

impl FaultInjector {
    /// New injector with the given plan and seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let stream = |decision: usize, class: usize| {
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(STREAM_SALTS[decision][class]))
        };
        FaultInjector {
            plan,
            drop_rng: [stream(0, 0), stream(0, 1)],
            corrupt_rng: [stream(1, 0), stream(1, 1)],
            seq: [0; FaultClass::COUNT],
            dropped: 0,
            corrupted: 0,
            passed: 0,
        }
    }

    /// Applies the plan to a frame in flight: `Ok` with the (possibly
    /// corrupted) frame to deliver, or `Err` with the frame handed
    /// back, its buffer the caller's to reuse, when it is dropped.
    ///
    /// The clean path is zero-copy: the refcounted frame passes through
    /// untouched. Corruption is copy-on-write — the injector clones the
    /// payload into a fresh allocation before flipping its bit, so
    /// other receivers of the same broadcast still see the original.
    pub fn apply(&mut self, class: FaultClass, frame: Bytes) -> Result<Bytes, Bytes> {
        let c = class as usize;
        let seq = self.seq[c];
        self.seq[c] += 1;
        if self.plan.targets(class).contains(&seq) {
            self.dropped += 1;
            return Err(frame);
        }
        if self.plan.drop_chance > 0.0 && self.drop_rng[c].gen::<f64>() < self.plan.drop_chance {
            self.dropped += 1;
            return Err(frame);
        }
        if self.plan.corrupt_chance > 0.0
            && !frame.is_empty()
            && self.corrupt_rng[c].gen::<f64>() < self.plan.corrupt_chance
        {
            let mut owned = frame.to_vec();
            let byte = self.corrupt_rng[c].gen_range(0..owned.len());
            let bit = self.corrupt_rng[c].gen_range(0..8u8);
            owned[byte] ^= 1 << bit;
            self.corrupted += 1;
            return Ok(Bytes::from(owned));
        }
        self.passed += 1;
        Ok(frame)
    }

    /// Replaces the plan mid-flight, keeping RNG streams, per-class
    /// sequence counters and statistics. A harness that heals the
    /// network with `set_plan(FaultPlan::none())` therefore still
    /// reports the storm's cumulative drop/corruption counts, and
    /// targeted sequence numbers keep counting from where they were.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// (passed clean, corrupted, dropped) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.passed, self.corrupted, self.dropped)
    }

    /// How many frames of `class` have passed through so far (the next
    /// frame of that class gets this sequence number).
    pub fn seq(&self, class: FaultClass) -> u64 {
        self.seq[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_everything_untouched() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        for i in 0..100u8 {
            let frame = Bytes::from(vec![i; 16]);
            assert_eq!(inj.apply(FaultClass::Data, frame.clone()), Ok(frame));
        }
        assert_eq!(inj.stats(), (100, 0, 0));
    }

    #[test]
    fn clean_pass_shares_the_allocation() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        let frame = Bytes::from(vec![7u8; 64]);
        let out = inj.apply(FaultClass::Control, frame.clone()).unwrap();
        assert!(out.shares_allocation_with(&frame), "clean path must be zero-copy");
    }

    #[test]
    fn full_drop_drops_everything() {
        let mut inj = FaultInjector::new(FaultPlan::drops(1.0), 1);
        for _ in 0..50 {
            let frame = Bytes::from(vec![0; 8]);
            let ptr = frame.as_ptr();
            let back = inj.apply(FaultClass::Data, frame).expect_err("dropped");
            assert_eq!(back.as_ptr(), ptr, "the dropped frame comes back for its buffer");
        }
        assert_eq!(inj.stats(), (0, 0, 50));
    }

    #[test]
    fn full_corruption_flips_exactly_one_bit() {
        let mut inj = FaultInjector::new(FaultPlan::corruption(1.0), 7);
        for _ in 0..50 {
            let original = Bytes::from(vec![0u8; 32]);
            let out = inj.apply(FaultClass::Data, original.clone()).unwrap();
            let flipped: u32 = out.iter().zip(&original).map(|(a, b)| (a ^ b).count_ones()).sum();
            assert_eq!(flipped, 1);
        }
    }

    #[test]
    fn corruption_is_copy_on_write() {
        // Two receivers of one broadcast share the allocation; when the
        // injector corrupts one copy, the other must see the original.
        let mut inj = FaultInjector::new(FaultPlan::corruption(1.0), 9);
        let original = Bytes::from(vec![0u8; 32]);
        let other_receiver = original.clone();
        let corrupted = inj.apply(FaultClass::Data, original.clone()).unwrap();
        assert!(!corrupted.shares_allocation_with(&original), "corruption must not alias");
        assert_eq!(other_receiver, original, "peer's copy untouched");
        assert_ne!(corrupted, original);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::drops(0.3), 42);
        let n = 10_000;
        let mut dropped = 0;
        for _ in 0..n {
            if inj.apply(FaultClass::Data, Bytes::from(vec![0; 4])).is_err() {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn same_seed_same_fate() {
        let run = |seed| {
            let mut inj = FaultInjector::new(
                FaultPlan { drop_chance: 0.2, corrupt_chance: 0.2, ..FaultPlan::default() },
                seed,
            );
            (0..200)
                .map(|i| inj.apply(FaultClass::Control, Bytes::from(vec![i as u8; 12])).ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn empty_frame_never_corrupted() {
        let mut inj = FaultInjector::new(FaultPlan::corruption(1.0), 1);
        assert_eq!(inj.apply(FaultClass::Data, Bytes::new()), Ok(Bytes::new()));
    }

    #[test]
    fn targeted_drop_hits_exact_sequence_numbers() {
        let plan = FaultPlan::none().with_control_drops(vec![0, 3]);
        let mut inj = FaultInjector::new(plan, 11);
        let fates: Vec<bool> = (0..6)
            .map(|_| inj.apply(FaultClass::Control, Bytes::from(vec![1u8; 4])).is_ok())
            .collect();
        assert_eq!(fates, vec![false, true, true, false, true, true]);
        // Data frames keep their own counter: none of them are hit.
        for _ in 0..6 {
            assert!(inj.apply(FaultClass::Data, Bytes::from(vec![2u8; 4])).is_ok());
        }
        assert_eq!(inj.stats(), (10, 0, 2));
    }

    /// The satellite-3 contract at the injector level: interleaving
    /// any amount of data traffic between control frames must not
    /// change which control frames drop.
    #[test]
    fn control_fates_are_immune_to_data_interleaving() {
        let plan = FaultPlan { drop_chance: 0.3, corrupt_chance: 0.2, ..FaultPlan::default() };
        let control_fates = |data_between: usize| {
            let mut inj = FaultInjector::new(plan.clone(), 77);
            let mut fates = Vec::new();
            for i in 0..100u8 {
                for _ in 0..data_between {
                    let _ = inj.apply(FaultClass::Data, Bytes::from(vec![0xDD; 20]));
                }
                fates.push(inj.apply(FaultClass::Control, Bytes::from(vec![i; 12])).ok());
            }
            fates
        };
        let quiet = control_fates(0);
        assert_eq!(quiet, control_fates(1));
        assert_eq!(quiet, control_fates(7));
    }
}
