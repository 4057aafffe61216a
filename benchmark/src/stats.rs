//! Sample statistics: nearest-rank percentiles, the "highest percentile
//! with at least ten samples beyond it" rule, quartiles as Python's
//! `statistics.quantiles(n=4)` computes them (so a spread computed here
//! equals the one the driver computes), and span self time.

/// Percentiles a tail may be reported at, ascending.
const TAIL_CANDIDATES: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

/// Nearest-rank percentile `p` (1..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// The highest candidate percentile that still has at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method, identical
/// to Python's `statistics.quantiles(xs, n=4)`. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A timing summary: every emitted timing carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail reported, as (percentile, value): see [`tail_percentile`].
    /// `None` when there are too few samples for any.
    pub tail: Option<(u32, f64)>,
}

/// Summarise `xs` as median + qualifying tail.
pub fn timing(xs: &[f64]) -> Timing {
    Timing {
        n: xs.len(),
        p50: median(xs),
        tail: tail_percentile(xs.len()).map(|p| (p, percentile(xs, p))),
    }
}

/// `(start, end, parent)` of one span; `parent` indexes the same slice.
pub type SpanBounds = (u64, u64, Option<usize>);

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may nest, abut or overlap;
/// the covered part is the union of their intervals clipped to the
/// parent).
pub fn self_times(spans: &[SpanBounds]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(s, e, parent) in spans {
        if let Some(p) = parent {
            let (ps, pe, _) = spans[p];
            let (s, e) = (s.max(ps), e.min(pe));
            if s < e {
                kids[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(&(s, e, _), kids)| {
            kids.sort_unstable();
            let (mut covered, mut upto) = (0u64, s);
            for &(ks, ke) in kids.iter() {
                let from = ks.max(upto);
                if ke > from {
                    covered += ke - from;
                    upto = ke;
                }
            }
            (e - s).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 90), 9.0);
        assert_eq!(percentile(&xs, 91), 10.0);
        assert_eq!(percentile(&xs, 100), 10.0);
        assert_eq!(percentile(&xs, 1), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(256), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&xs), Some(1.0));
    }

    #[test]
    fn timing_carries_count_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = timing(&xs);
        assert_eq!((t.n, t.p50, t.tail), (100, 50.5, Some((90, 90.0))));
        let few = timing(&[1.0, 2.0, 3.0]);
        assert_eq!((few.n, few.p50, few.tail), (3, 2.0, None));
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 with adjacent children 10..30 and 30..50, the first
        // of which has a nested child 15..20.
        let spans = [
            (0, 100, None),
            (10, 30, Some(0)),
            (30, 50, Some(0)),
            (15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 15, 20, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [(0, 100, None), (10, 60, Some(0)), (40, 80, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 50, 40]);
        // A child reaching past its parent is clipped to it.
        let spans = [(10, 20, None), (5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }
}
