//! Small measurement helpers: percentiles and means, a stable text
//! digest, and the process facts every result records.

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// order statistics. 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A running 64-bit digest, stable across platforms and Rust releases
/// (so digests can be pinned), fast enough to fold hundreds of megabytes
/// of rendered output: eight bytes per multiply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }

    /// Fold a byte string (length first, so concatenations differ).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }
}

/// Fold equally long rows position by position: entry `i` folds every
/// row's entry `i`, starting from `init`. Empty when there are no rows.
fn fold_columns(rows: &[&[f64]], init: f64, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let mut acc = vec![init; first.len()];
    for row in rows {
        assert_eq!(row.len(), acc.len(), "rows of unequal length");
        acc.iter_mut().zip(*row).for_each(|(a, v)| *a = f(*a, *v));
    }
    acc
}

/// Entry `i` is the mean of every row's entry `i`.
pub fn column_means(rows: &[&[f64]]) -> Vec<f64> {
    let mut sums = fold_columns(rows, 0.0, |a, v| a + v);
    sums.iter_mut().for_each(|s| *s /= rows.len() as f64);
    sums
}

/// Entry `i` is the least of every row's entry `i`.
pub fn column_mins(rows: &[&[f64]]) -> Vec<f64> {
    fold_columns(rows, f64::INFINITY, f64::min)
}

/// One numeric field of `/proc/self/status` (e.g. `Threads`, `VmHWM` in
/// kB). `None` where the file or field is missing.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map_or_else(
            || "unknown".to_owned(),
            |h| h.trim().chars().take(12).collect(),
        ),
        None => head.chars().take(12).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn columns_fold_each_position() {
        let rows = [&[1.0, 20.0][..], &[3.0, 10.0][..]];
        assert_eq!(column_means(&rows), vec![2.0, 15.0]);
        assert_eq!(column_mins(&rows), vec![1.0, 10.0]);
        assert!(column_means(&[]).is_empty());
    }

    #[test]
    fn digest_separates_splits_and_is_pinned() {
        let mut a = Digest::default();
        a.bytes(b"abc");
        a.bytes(b"def");
        let mut b = Digest::default();
        b.bytes(b"abcdef");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.bytes(b"hello, world");
        assert_eq!(c.0, {
            let mut d = Digest::default();
            d.word(12);
            d.word(u64::from_le_bytes(*b"hello, w"));
            d.word(u64::from_le_bytes(*b"orld\0\0\0\0"));
            d.0
        });
    }
}
