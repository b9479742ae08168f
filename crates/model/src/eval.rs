//! Scoring a detector's report against a model's embedded labels.
//!
//! Every planted statement carries its ground-truth [`Label`], so a
//! corpus of models doubles as a precision/recall suite: harmful and
//! benign labels are *expected* in the report (the benign ones are the
//! false positives the paper's Table 1 counts), while `Filtered` and
//! `Ordered` labels are expected to be suppressed — by the heuristic
//! filters and the happens-before model respectively. [`Score`]
//! tallies both sides per label bucket; the `catalog_regression`
//! suite, `cafa gen --format counts` and perfbench's `fleet-1m` check
//! all join reports through it.

use crate::truth::{FpType, GroundTruth, Label, TrueClass};
use cafa_trace::VarId;

/// Planted-vs-reported tally for one label bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Variables carrying this label in the ground truth.
    pub planted: usize,
    /// Of those, how many the detector reported.
    pub reported: usize,
}

impl Tally {
    /// Fraction of planted variables that were reported (1.0 when
    /// nothing was planted: vacuous recall).
    pub fn recall(&self) -> f64 {
        if self.planted == 0 {
            1.0
        } else {
            self.reported as f64 / self.planted as f64
        }
    }

    /// Fraction of planted variables the detector kept *out* of the
    /// report — the success metric for `Filtered`/`Ordered` buckets.
    pub fn suppression(&self) -> f64 {
        if self.planted == 0 {
            1.0
        } else {
            1.0 - self.recall()
        }
    }
}

/// Per-label detection tallies over one app or a whole corpus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Score {
    /// Apps tallied into this score.
    pub apps: usize,
    /// Races the detector reported in total.
    pub reported: usize,
    /// True intra-thread races (class a).
    pub a: Tally,
    /// True inter-thread races (class b).
    pub b: Tally,
    /// True conventional races (class c).
    pub c: Tally,
    /// Type I false positives (missing listener records).
    pub fp1: Tally,
    /// Type II false positives (imprecise commutativity).
    pub fp2: Tally,
    /// Type III false positives (dereference mismatch).
    pub fp3: Tally,
    /// Patterns the heuristic filters must prune.
    pub filtered: Tally,
    /// Patterns the happens-before rules must order.
    pub ordered: Tally,
    /// Predictive-only patterns: silent under the HB backend (this
    /// tally's `reported` counts any that leak into its report, and
    /// must stay 0); the predictive backend's extra reports on them
    /// are scored by the replay adjudication harness, not here.
    pub predictive: Tally,
    /// Reported races with no ground-truth label (must stay 0: the
    /// workloads label every variable a correct detector can report).
    pub unlabeled: usize,
}

impl Score {
    /// Empty score.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tallies one app: its ground truth against the variables the
    /// detector reported for its trace.
    pub fn tally_app(&mut self, truth: &GroundTruth, reported: impl IntoIterator<Item = VarId>) {
        self.apps += 1;
        for (_, label) in truth.iter() {
            self.bucket_mut(label).planted += 1;
        }
        for var in reported {
            self.reported += 1;
            match truth.get(var) {
                Some(label) => self.bucket_mut(label).reported += 1,
                None => self.unlabeled += 1,
            }
        }
    }

    /// Folds another score (e.g. one app's) into this one.
    pub fn merge(&mut self, other: &Score) {
        self.apps += other.apps;
        self.reported += other.reported;
        self.unlabeled += other.unlabeled;
        for (mine, theirs) in self.buckets_mut().into_iter().zip(other.buckets()) {
            mine.planted += theirs.planted;
            mine.reported += theirs.reported;
        }
    }

    fn bucket_mut(&mut self, label: Label) -> &mut Tally {
        match label {
            Label::Harmful {
                class: TrueClass::IntraThread,
                ..
            } => &mut self.a,
            Label::Harmful {
                class: TrueClass::InterThread,
                ..
            } => &mut self.b,
            Label::Harmful {
                class: TrueClass::Conventional,
                ..
            } => &mut self.c,
            Label::Benign {
                fp: FpType::MissingListener,
            } => &mut self.fp1,
            Label::Benign {
                fp: FpType::ImpreciseCommutativity,
            } => &mut self.fp2,
            Label::Benign {
                fp: FpType::DerefMismatch,
            } => &mut self.fp3,
            Label::Filtered => &mut self.filtered,
            Label::Ordered => &mut self.ordered,
            Label::Predictive { .. } => &mut self.predictive,
        }
    }

    fn buckets(&self) -> [Tally; 9] {
        [
            self.a,
            self.b,
            self.c,
            self.fp1,
            self.fp2,
            self.fp3,
            self.filtered,
            self.ordered,
            self.predictive,
        ]
    }

    fn buckets_mut(&mut self) -> [&mut Tally; 9] {
        [
            &mut self.a,
            &mut self.b,
            &mut self.c,
            &mut self.fp1,
            &mut self.fp2,
            &mut self.fp3,
            &mut self.filtered,
            &mut self.ordered,
            &mut self.predictive,
        ]
    }

    /// Reported true races (classes a+b+c).
    pub fn true_reported(&self) -> usize {
        self.a.reported + self.b.reported + self.c.reported
    }

    /// Planted true races (classes a+b+c).
    pub fn true_planted(&self) -> usize {
        self.a.planted + self.b.planted + self.c.planted
    }

    /// Reported benign races (FP types I+II+III).
    pub fn benign_reported(&self) -> usize {
        self.fp1.reported + self.fp2.reported + self.fp3.reported
    }

    /// Planted benign races (FP types I+II+III).
    pub fn benign_planted(&self) -> usize {
        self.fp1.planted + self.fp2.planted + self.fp3.planted
    }

    /// Detector precision: true reports over all reports (the paper's
    /// headline 60%). 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.reported == 0 {
            1.0
        } else {
            self.true_reported() as f64 / self.reported as f64
        }
    }

    /// Recall over planted harmful races.
    pub fn harmful_recall(&self) -> f64 {
        if self.true_planted() == 0 {
            1.0
        } else {
            self.true_reported() as f64 / self.true_planted() as f64
        }
    }

    /// Recall over planted benign (expected-false-positive) races.
    pub fn benign_recall(&self) -> f64 {
        if self.benign_planted() == 0 {
            1.0
        } else {
            self.benign_reported() as f64 / self.benign_planted() as f64
        }
    }

    /// The stable one-line rendering `cafa gen --format counts` prints
    /// per app (and as a TOTAL row), pinned by the CI golden file:
    /// each bucket shows `reported/planted`.
    pub fn counts_line(&self, name: &str) -> String {
        format!(
            "{name} reported={} a={}/{} b={}/{} c={}/{} fp1={}/{} fp2={}/{} fp3={}/{} \
             filtered={}/{} ordered={}/{} predictive={}/{} unlabeled={}",
            self.reported,
            self.a.reported,
            self.a.planted,
            self.b.reported,
            self.b.planted,
            self.c.reported,
            self.c.planted,
            self.fp1.reported,
            self.fp1.planted,
            self.fp2.reported,
            self.fp2.planted,
            self.fp3.reported,
            self.fp3.planted,
            self.filtered.reported,
            self.filtered.planted,
            self.ordered.reported,
            self.ordered.planted,
            self.predictive.reported,
            self.predictive.planted,
            self.unlabeled,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: u32) -> VarId {
        VarId::new(n)
    }

    fn sample_truth() -> GroundTruth {
        let mut t = GroundTruth::new();
        t.insert(
            var(1),
            Label::Harmful {
                class: TrueClass::IntraThread,
                known: false,
            },
        );
        t.insert(
            var(2),
            Label::Benign {
                fp: FpType::ImpreciseCommutativity,
            },
        );
        t.insert(var(3), Label::Filtered);
        t.insert(var(4), Label::Ordered);
        t.insert(var(5), Label::Predictive { confirmable: true });
        t
    }

    #[test]
    fn tallies_planted_and_reported_per_bucket() {
        let mut s = Score::new();
        s.tally_app(&sample_truth(), [var(1), var(2)]);
        assert_eq!(s.apps, 1);
        assert_eq!(s.reported, 2);
        assert_eq!(
            s.a,
            Tally {
                planted: 1,
                reported: 1
            }
        );
        assert_eq!(
            s.fp2,
            Tally {
                planted: 1,
                reported: 1
            }
        );
        assert_eq!(
            s.filtered,
            Tally {
                planted: 1,
                reported: 0
            }
        );
        assert_eq!(
            s.ordered,
            Tally {
                planted: 1,
                reported: 0
            }
        );
        assert_eq!(
            s.predictive,
            Tally {
                planted: 1,
                reported: 0
            }
        );
        assert_eq!(s.unlabeled, 0);
        assert!((s.precision() - 0.5).abs() < f64::EPSILON);
        assert!((s.harmful_recall() - 1.0).abs() < f64::EPSILON);
        assert!((s.filtered.suppression() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn unlabeled_reports_are_counted_not_dropped() {
        let mut s = Score::new();
        s.tally_app(&sample_truth(), [var(99)]);
        assert_eq!(s.unlabeled, 1);
        assert_eq!(s.reported, 1);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Score::new();
        a.tally_app(&sample_truth(), [var(1)]);
        let mut b = Score::new();
        b.tally_app(&sample_truth(), [var(2), var(3)]);
        let mut total = Score::new();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.apps, 2);
        assert_eq!(total.reported, 3);
        assert_eq!(
            total.a,
            Tally {
                planted: 2,
                reported: 1
            }
        );
        assert_eq!(
            total.fp2,
            Tally {
                planted: 2,
                reported: 1
            }
        );
        assert_eq!(
            total.filtered,
            Tally {
                planted: 2,
                reported: 1
            }
        );
    }

    #[test]
    fn counts_line_is_stable() {
        let mut s = Score::new();
        s.tally_app(&sample_truth(), [var(1), var(2)]);
        assert_eq!(
            s.counts_line("demo"),
            "demo reported=2 a=1/1 b=0/0 c=0/0 fp1=0/0 fp2=1/1 fp3=0/0 \
             filtered=0/1 ordered=0/1 predictive=0/1 unlabeled=0"
        );
    }
}
