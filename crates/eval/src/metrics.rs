//! Detection metrics: ROC curves, AUC and operating points (§V-A).

/// One scored monitoring window with its ground-truth label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledScore {
    /// Scheme score for the window.
    pub score: f64,
    /// True when a human was present in the monitored area.
    pub positive: bool,
}

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate in `[0, 1]`.
    pub fp: f64,
    /// True-positive (detection) rate in `[0, 1]`.
    pub tp: f64,
}

/// A ROC curve swept over every distinct score threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    points: Vec<RocPoint>,
}

impl RocCurve {
    /// Builds the curve from labeled scores.
    ///
    /// # Panics
    /// Panics unless both classes are represented.
    pub fn from_scores(scores: &[LabeledScore]) -> Self {
        let positives = scores.iter().filter(|s| s.positive).count();
        let negatives = scores.len() - positives;
        assert!(
            positives > 0 && negatives > 0,
            "ROC needs both positive and negative samples"
        );
        let mut sorted: Vec<LabeledScore> = scores.to_vec();
        // Descending by score: walking down the list lowers the threshold.
        sorted.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fp: 0.0,
            tp: 0.0,
        }];
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            let threshold = sorted[i].score;
            // Consume ties together so the curve is well-defined.
            while i < sorted.len() && sorted[i].score == threshold {
                if sorted[i].positive {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push(RocPoint {
                threshold,
                fp: fp as f64 / negatives as f64,
                tp: tp as f64 / positives as f64,
            });
        }
        RocCurve { points }
    }

    /// The swept points, from `(0,0)` to `(1,1)`.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve by trapezoidal integration.
    pub fn auc(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].fp - w[0].fp) * (w[1].tp + w[0].tp) / 2.0)
            .sum()
    }

    /// The operating point maximizing balanced accuracy `(tp + (1−fp))/2`
    /// — the "balanced detection accuracy" the paper reports from Fig. 7.
    pub fn balanced_operating_point(&self) -> RocPoint {
        *self
            .points
            .iter()
            .max_by(|a, b| {
                let ba = a.tp + 1.0 - a.fp;
                let bb = b.tp + 1.0 - b.fp;
                ba.total_cmp(&bb)
            })
            // An empty sweep degrades to the "never detect" origin point.
            .unwrap_or(&RocPoint {
                threshold: 0.0,
                fp: 0.0,
                tp: 0.0,
            })
    }

    /// Largest detection rate achievable at a false-positive rate not
    /// exceeding `max_fp`.
    pub fn tp_at_fp(&self, max_fp: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.fp <= max_fp)
            .map(|p| p.tp)
            .fold(0.0, f64::max)
    }

    /// Samples the curve at evenly spaced FP values (for plotting).
    pub fn sampled(&self, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let fp = i as f64 / (n - 1).max(1) as f64;
                (fp, self.tp_at_fp(fp))
            })
            .collect()
    }
}

/// Detection rate of positive scores at a fixed threshold.
pub fn detection_rate(scores: &[f64], threshold: f64) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().filter(|&&s| s > threshold).count() as f64 / scores.len() as f64
}

/// Summary statistics for one scheme's campaign, reported like the
/// paper's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeSummary {
    /// Balanced-accuracy operating point.
    pub operating: RocPoint,
    /// Area under the ROC curve.
    pub auc: f64,
}

impl SchemeSummary {
    /// Builds the summary from labeled scores.
    ///
    /// # Panics
    /// Same conditions as [`RocCurve::from_scores`].
    pub fn from_scores(scores: &[LabeledScore]) -> Self {
        let roc = RocCurve::from_scores(scores);
        SchemeSummary {
            operating: roc.balanced_operating_point(),
            auc: roc.auc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(pos: &[f64], neg: &[f64]) -> Vec<LabeledScore> {
        pos.iter()
            .map(|&s| LabeledScore {
                score: s,
                positive: true,
            })
            .chain(neg.iter().map(|&s| LabeledScore {
                score: s,
                positive: false,
            }))
            .collect()
    }

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = labeled(&[2.0, 3.0, 4.0], &[0.1, 0.2, 0.3]);
        let roc = RocCurve::from_scores(&scores);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        let op = roc.balanced_operating_point();
        assert_eq!(op.tp, 1.0);
        assert_eq!(op.fp, 0.0);
        assert_eq!(roc.tp_at_fp(0.0), 1.0);
    }

    #[test]
    fn random_scores_give_auc_half() {
        // Interleaved identical distributions.
        let scores = labeled(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]);
        let roc = RocCurve::from_scores(&scores);
        assert!((roc.auc() - 0.5).abs() < 1e-9, "auc {}", roc.auc());
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scores = labeled(&[0.1, 0.2], &[1.0, 2.0]);
        let roc = RocCurve::from_scores(&scores);
        assert!(roc.auc() < 0.01);
    }

    #[test]
    fn curve_is_monotone() {
        let scores = labeled(&[0.5, 1.5, 2.5, 3.0, 0.2], &[0.1, 0.6, 1.4, 2.0]);
        let roc = RocCurve::from_scores(&scores);
        for w in roc.points().windows(2) {
            assert!(w[1].fp >= w[0].fp);
            assert!(w[1].tp >= w[0].tp);
        }
        let last = roc.points().last().unwrap();
        assert_eq!((last.fp, last.tp), (1.0, 1.0));
    }

    #[test]
    fn ties_are_consumed_together() {
        let scores = labeled(&[1.0, 1.0], &[1.0]);
        let roc = RocCurve::from_scores(&scores);
        // Only (0,0) and (1,1): the tie moves both rates at once.
        assert_eq!(roc.points().len(), 2);
    }

    #[test]
    fn tp_at_fp_budget() {
        let scores = labeled(&[3.0, 2.0, 1.0, 0.5], &[2.5, 0.4, 0.3, 0.2]);
        let roc = RocCurve::from_scores(&scores);
        // At fp=0: only scores >2.5 count ⇒ tp=0.25.
        assert!((roc.tp_at_fp(0.0) - 0.25).abs() < 1e-12);
        assert!(roc.tp_at_fp(0.5) >= 0.75);
    }

    #[test]
    fn sampled_curve_has_requested_length() {
        let scores = labeled(&[1.0, 2.0], &[0.5, 0.6]);
        let roc = RocCurve::from_scores(&scores);
        let s = roc.sampled(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10].0, 1.0);
    }

    #[test]
    fn detection_rate_thresholding() {
        let scores = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(detection_rate(&scores, 2.5), 0.5);
        assert_eq!(detection_rate(&scores, 0.0), 1.0);
        assert_eq!(detection_rate(&scores, 10.0), 0.0);
        assert_eq!(detection_rate(&[], 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "both positive and negative")]
    fn single_class_panics() {
        let scores = labeled(&[1.0], &[]);
        let _ = RocCurve::from_scores(&scores);
    }

    #[test]
    fn summary_smoke() {
        let scores = labeled(&[2.0, 3.0, 2.5], &[0.5, 1.0, 0.7]);
        let s = SchemeSummary::from_scores(&scores);
        assert!(s.auc > 0.9);
        assert!(s.operating.tp >= 0.9);
    }
}
