//! Order statistics over sorted samples, and per-input averages.

use std::collections::BTreeMap;

/// The `q`-quantile of ascending `sorted` by linear interpolation
/// between closest ranks; 0 for no samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and takes the `q`-quantile.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, q)
}

/// Per-operation figures kept per input, so every input weighs the same
/// however often a run visited it: counts the program makes then repeat
/// exactly between runs that visited every input.
pub struct PerItem<const N: usize> {
    sums: BTreeMap<usize, ([f64; N], u64)>,
}

impl<const N: usize> PerItem<N> {
    pub fn new() -> Self {
        PerItem {
            sums: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, item: usize, values: [f64; N]) {
        let e = self.sums.entry(item).or_insert(([0.0; N], 0));
        for (sum, v) in e.0.iter_mut().zip(values) {
            *sum += v;
        }
        e.1 += 1;
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.sums.values().map(|e| e.1).sum()
    }

    /// Field `k` summed over one visit to every input: each input's mean.
    pub fn round(&self, k: usize) -> f64 {
        self.sums.values().map(|(s, n)| s[k] / *n as f64).sum()
    }

    /// Field `k` per operation: [`round`](Self::round) over the inputs.
    pub fn mean(&self, k: usize) -> f64 {
        self.round(k) / self.sums.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn per_item_weighs_inputs_equally() {
        let mut p = PerItem::<1>::new();
        p.add(0, [10.0]);
        p.add(0, [10.0]);
        p.add(0, [10.0]);
        p.add(1, [2.0]);
        assert_eq!(p.ops(), 4);
        assert_eq!(p.round(0), 12.0);
        assert_eq!(p.mean(0), 6.0);
    }
}
