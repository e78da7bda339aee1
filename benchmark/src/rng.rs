//! xorshift64* — the repo's stock dependency-free PRNG, so every
//! benchmark input is a pure function of `--seed`.

/// The generator.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the stream; `salt` separates independent streams drawn
    /// from one `--seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        XorShift((seed ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is safe.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// FNV-1a over a byte stream: the input digest the determinism tests
/// compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
