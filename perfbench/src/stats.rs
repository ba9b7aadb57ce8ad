//! Order statistics over exact samples.

/// Per-sample values are nanoseconds held in a `u32` (saturating at
/// ~4.29 s, far beyond any latency this benchmark expects).
type Sample = u32;

/// Latency samples kept exactly, in a buffer allocated and touched up
/// front so that resident memory does not grow with throughput. Once the
/// buffer is full every other sample is dropped and the keep-stride
/// doubles, so a much faster system still yields an unbiased, bounded
/// sample of the same stream.
#[derive(Debug, Clone)]
pub struct Samples {
    buf: Vec<Sample>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    /// A sample buffer of `cap` values (at least 2).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            // Filled with a non-zero value so the pages are written (and
            // resident) now, not as samples arrive.
            buf: vec![Sample::MAX; cap.max(2)],
            len: 0,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one value in nanoseconds.
    pub fn push(&mut self, ns: u64) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.len == self.buf.len() {
            for i in 0..self.len / 2 {
                self.buf[i] = self.buf[2 * i];
            }
            self.len /= 2;
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf[self.len] = Sample::try_from(ns).unwrap_or(Sample::MAX);
        self.len += 1;
    }

    /// Values offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept values, ascending, as nanoseconds.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buf[..self.len].iter().map(|&s| u64::from(s)).collect();
        v.sort_unstable();
        v
    }

    /// The kept values of several buffers, ascending.
    pub fn sorted_all(parts: &[&Samples]) -> Vec<u64> {
        let mut v: Vec<u64> = parts
            .iter()
            .flat_map(|s| s.buf[..s.len].iter().map(|&x| u64::from(x)))
            .collect();
        v.sort_unstable();
        v
    }
}

/// The nearest-rank `q`-quantile of ascending values (`None` when empty).
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn full_buffer_thins_by_a_fixed_stride() {
        let mut s = Samples::with_capacity(8);
        for v in 0..32u64 {
            s.push(v);
        }
        assert_eq!(s.seen(), 32);
        // Stride 4 after two halvings: every fourth value, from the start.
        assert_eq!(s.sorted(), vec![0, 4, 8, 12, 16, 20, 24, 28]);
    }

    #[test]
    fn values_saturate_instead_of_wrapping() {
        let mut s = Samples::with_capacity(4);
        s.push(u64::MAX);
        assert_eq!(s.sorted(), vec![u64::from(u32::MAX)]);
    }
}
