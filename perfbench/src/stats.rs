//! Order statistics and the per-class aggregation behind the end-to-end
//! latency metrics.

use std::collections::BTreeMap;

/// Nearest-rank percentile `p` (0–1] of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Per-class latency samples in milliseconds. A class is one query on
/// one deployment (query × backend on `single_user`, query alone on the
/// service workloads).
#[derive(Default)]
pub struct Classes {
    samples: BTreeMap<(usize, usize), ClassSamples>,
}

#[derive(Default)]
struct ClassSamples {
    latency: Vec<f64>,
    ttfi: Vec<f64>,
    /// Per-chunk percentiles reported by the service, when the samples
    /// themselves stay inside it: `(p50, p95, ttfi_p50, count)`.
    chunks: Vec<(f64, f64, f64, usize)>,
}

impl Classes {
    /// Record one request measured by the benchmark itself.
    pub fn push(&mut self, class: (usize, usize), latency_ms: f64, ttfi_ms: f64) {
        let c = self.samples.entry(class).or_default();
        c.latency.push(latency_ms);
        c.ttfi.push(ttfi_ms);
    }

    /// Record one closed-loop chunk's percentiles for a class.
    pub fn push_chunk(&mut self, class: (usize, usize), p50: f64, p95: f64, ttfi: f64, n: usize) {
        self.samples
            .entry(class)
            .or_default()
            .chunks
            .push((p50, p95, ttfi, n));
    }

    /// Fewest samples any class has.
    pub fn min_samples(&self) -> usize {
        self.samples
            .values()
            .map(|c| c.latency.len() + c.chunks.iter().map(|k| k.3).sum::<usize>())
            .min()
            .unwrap_or(0)
    }

    /// Number of classes seen.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Per class `(p50, p95, ttfi_p50)`. Classes measured request by
    /// request use their own samples; chunked classes take the median of
    /// their chunks' percentiles.
    fn per_class(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.samples.values().map(|c| {
            if c.chunks.is_empty() {
                let mut lat = c.latency.clone();
                lat.sort_by(f64::total_cmp);
                (
                    percentile(&lat, 0.5),
                    percentile(&lat, 0.95),
                    median(&c.ttfi),
                )
            } else {
                let pick = |f: fn(&(f64, f64, f64, usize)) -> f64| {
                    median(&c.chunks.iter().map(f).collect::<Vec<_>>())
                };
                (pick(|k| k.0), pick(|k| k.1), pick(|k| k.2))
            }
        })
    }

    /// Geometric mean over classes of each class's median latency.
    pub fn latency_p50(&self) -> f64 {
        geomean(self.per_class().map(|c| c.0))
    }

    /// Geometric mean over classes of each class's median time to first
    /// item.
    pub fn ttfi_p50(&self) -> f64 {
        geomean(self.per_class().map(|c| c.2))
    }

    /// Geometric mean over classes of each class's fastest request, for
    /// classes measured request by request.
    pub fn latency_min(&self) -> f64 {
        geomean(self.samples.values().map(|c| min(&c.latency)))
    }

    /// [`Classes::latency_min`] for time to first item.
    pub fn ttfi_min(&self) -> f64 {
        geomean(self.samples.values().map(|c| min(&c.ttfi)))
    }

    /// Geometric mean over classes of each class's p95.
    pub fn p95_geomean(&self) -> f64 {
        geomean(self.per_class().map(|c| c.1))
    }

    /// The worst class p95.
    pub fn worst_p95(&self) -> f64 {
        self.per_class().map(|c| c.1).fold(0.0, f64::max)
    }

    /// A table of the classes' p50, p95 and ttfi p50 in ms, slowest p95
    /// first, at most `limit` rows.
    pub fn table(&self, label: impl Fn((usize, usize)) -> String, limit: usize) -> String {
        let mut rows: Vec<_> = self
            .samples
            .keys()
            .zip(self.per_class())
            .map(|(k, c)| (*k, c))
            .collect();
        rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
        let mut out = format!(
            "{:<10} {:>10} {:>10} {:>10}",
            "class", "p50_ms", "p95_ms", "ttfi_ms"
        );
        for (k, (p50, p95, ttfi)) in rows.into_iter().take(limit) {
            out.push_str(&format!(
                "\n{:<10} {p50:>10.4} {p95:>10.4} {ttfi:>10.4}",
                label(k)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn classes_aggregate_medians_and_chunks() {
        let mut c = Classes::default();
        for ms in [1.0, 2.0, 3.0] {
            c.push((0, 1), ms, ms / 2.0);
        }
        c.push_chunk((0, 2), 4.0, 8.0, 4.0, 10);
        c.push_chunk((0, 2), 4.0, 10.0, 4.0, 10);
        c.push_chunk((0, 2), 5.0, 9.0, 4.0, 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.min_samples(), 3);
        assert!((c.latency_p50() - (2.0f64 * 4.0).sqrt()).abs() < 1e-12);
        let mut raw = Classes::default();
        for (ms, ttfi) in [(2.0, 1.0), (1.0, 0.75), (3.0, 0.5)] {
            raw.push((0, 1), ms, ttfi);
            raw.push((1, 1), 4.0 * ms, 4.0 * ttfi);
        }
        assert!((raw.latency_min() - 2.0).abs() < 1e-12);
        assert!((raw.ttfi_min() - 1.0).abs() < 1e-12);
        assert_eq!(c.worst_p95(), 9.0);
        assert!((c.p95_geomean() - (3.0f64 * 9.0).sqrt()).abs() < 1e-12);
    }
}
