//! Sample summaries: medians, nearest-rank percentiles, and the "tail"
//! percentile rule the benchmark reports.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples beyond a percentile needed before it may be called the tail.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// A bag of measurements (seconds, milliseconds, ratios — the caller
/// keeps the unit).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle values for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` (0–100).
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The tail: the highest candidate percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it. Returns `(percentile, value)`;
    /// with fewer than 20 samples this degrades to the median.
    pub fn tail(&self) -> (f64, f64) {
        let p = Samples::tail_percentile(self.0.len());
        (p, self.percentile(p))
    }

    /// The percentile [`Samples::tail`] reports for `n` samples.
    pub fn tail_percentile(n: usize) -> f64 {
        TAIL_CANDIDATES
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
            .unwrap_or(50.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        Samples(v.to_vec())
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        let s = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = of(&(1..=400).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 95.0);
        let s = of(&(1..=54).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 75.0);
        let s = of(&(1..=10_000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 99.9);
        assert_eq!(of(&[1.0, 2.0]).tail().0, 50.0);
    }
}
