//! Deterministic random number generation.
//!
//! Two generators cover the suite's needs:
//!
//! * [`DetRng`] — a sequential xoshiro256++ stream for cases where draw order
//!   is naturally fixed (workload construction, event jitter);
//! * [`NoiseStream`] — an *indexed* stream: the value at sample index `k` is
//!   `f(seed, k)` regardless of how many other indices were queried first.
//!   Sensor models use this so that reading a sensor out of order (or twice)
//!   cannot perturb the values any other reader observes — a property the
//!   reproducibility integration tests rely on.
//!
//! Neither generator is cryptographic; both are fully specified here so the
//! suite has no behavioural dependency on an external crate's stream layout.

/// SplitMix64 step: the canonical seeding/stream-derivation mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless 64-bit mix of two words (used to index noise by sample slot).
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0xD6E8_FEB8_6659_FD93;
    let mut z = splitmix64(&mut s);
    z ^= splitmix64(&mut s);
    z
}

/// Sequential deterministic generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent child stream labelled by `label`.
    ///
    /// Components (a sensor, a BPM, a workload rank) each take their own
    /// child so adding a component never shifts another component's draws.
    pub fn child(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        DetRng::new(mix64(self.s[0] ^ self.s[2], h))
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Panics if `lo > hi` or either is non-finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (u128::from(x)) * (u128::from(n));
            let lo = m as u64;
            if lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Standard normal draw (Box–Muller; one of the pair is discarded so the
    /// stream position advances by exactly two raw draws per call).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            let u2 = self.next_f64();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Indexed (order-independent) noise stream.
///
/// `value(k)` depends only on `(seed, k)`. Sensor models use the sensor's
/// update-grid slot index as `k`, which makes every reader observe identical
/// noise for the same slot no matter when or how often it queries.
#[derive(Clone, Copy, Debug)]
pub struct NoiseStream {
    seed: u64,
}

impl NoiseStream {
    /// Create a stream from a seed.
    pub fn new(seed: u64) -> Self {
        NoiseStream { seed }
    }

    /// Derive a child stream by label (same intent as [`DetRng::child`]).
    pub fn child(&self, label: &str) -> NoiseStream {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        NoiseStream {
            seed: mix64(self.seed, h),
        }
    }

    /// Raw 64-bit value at index `k`.
    #[inline]
    pub fn raw(&self, k: u64) -> u64 {
        mix64(self.seed, k)
    }

    /// Uniform value in `[0, 1)` at index `k`.
    #[inline]
    pub fn uniform01(&self, k: u64) -> f64 {
        (self.raw(k) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[-1, 1)` at index `k`.
    #[inline]
    pub fn uniform_pm1(&self, k: u64) -> f64 {
        2.0 * self.uniform01(k) - 1.0
    }

    /// Standard normal value at index `k` (Box–Muller over two derived
    /// uniforms; fully determined by `(seed, k)`).
    pub fn normal(&self, k: u64) -> f64 {
        let u1 = self.uniform01(k).max(f64::MIN_POSITIVE);
        let u2 = (mix64(self.raw(k), 0x9E37) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds nearly identical");
    }

    #[test]
    fn child_streams_are_independent_of_siblings() {
        let root = DetRng::new(7);
        let mut a1 = root.child("sensor-a");
        let _unused = root.child("sensor-b"); // must not affect sensor-a
        let mut a2 = DetRng::new(7).child("sensor-a");
        for _ in 0..32 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = DetRng::new(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(5);
        let n = 100_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn noise_stream_is_order_independent() {
        let s = NoiseStream::new(99);
        let forward: Vec<f64> = (0..16).map(|k| s.uniform01(k)).collect();
        let backward: Vec<f64> = (0..16).rev().map(|k| s.uniform01(k)).collect();
        let backward_reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
    }

    #[test]
    fn noise_stream_children_differ() {
        let s = NoiseStream::new(1);
        let a = s.child("a");
        let b = s.child("b");
        let same = (0..64).filter(|&k| a.raw(k) == b.raw(k)).count();
        assert!(same < 4);
    }

    #[test]
    fn noise_normal_reasonable() {
        let s = NoiseStream::new(4242);
        let n = 50_000u64;
        let mean: f64 = (0..n).map(|k| s.normal(k)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }
}
