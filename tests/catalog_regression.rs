//! Regression suite over a pinned generated corpus: 200 labeled apps,
//! per-label precision/recall against ground truth.
//!
//! Table 1 pins the detector's behavior on 10 hand-modeled apps; this
//! suite pins it on a ~20× larger corpus drawn deterministically from
//! the same pattern space (`cafa gen --seed 42 --count 200`). The
//! contract per label bucket:
//!
//! * harmful (a)/(b)/(c) and benign I/II/III labels are *expected* in
//!   the report — recall must be exactly 1.0;
//! * `Filtered` labels must be pruned by the heuristics and `Ordered`
//!   labels by the happens-before rules — zero reports;
//! * nothing unlabeled may ever be reported.
//!
//! The exact totals are additionally pinned, so any drift in the
//! generator, the lowering, the simulator, or the detector shows up as
//! a diff here before it reaches the golden files.

use cafa_core::Analyzer;
use cafa_engine::{fleet, AnalysisSession};
use cafa_model::eval::Score;
use cafa_model::{generate, GenConfig};

const SEED: u64 = 42;
const COUNT: usize = 200;

fn corpus_score() -> Score {
    let models = generate(&GenConfig {
        seed: SEED,
        count: COUNT,
        ..GenConfig::default()
    });
    assert_eq!(models.len(), COUNT);
    let scores = fleet::map(&models, fleet::resolve_threads(0), |model| {
        let app = cafa_model::lower(model).expect("generated models are valid");
        let outcome = app.record(SEED).expect("generated workloads run clean");
        let trace = outcome.trace.expect("instrumentation is on");
        let report = Analyzer::new()
            .analyze_with(&AnalysisSession::new(&trace))
            .expect("analysis succeeds");
        let mut s = Score::new();
        s.tally_app(&app.truth, report.races.iter().map(|r| r.var));
        s
    });
    let mut total = Score::new();
    for s in &scores {
        total.merge(s);
    }
    total
}

#[test]
fn generated_corpus_precision_recall() {
    let total = corpus_score();
    assert_eq!(total.apps, COUNT);

    // Expected labels: perfect recall, bucket by bucket.
    for (name, t) in [
        ("a", total.a),
        ("b", total.b),
        ("c", total.c),
        ("fp1", total.fp1),
        ("fp2", total.fp2),
        ("fp3", total.fp3),
    ] {
        assert!(t.planted > 0, "{name}: corpus plants none — no coverage");
        assert_eq!(
            t.reported,
            t.planted,
            "{name}: recall {} < 1.0 ({})",
            t.recall(),
            total.counts_line("TOTAL")
        );
    }

    // Suppressed labels: zero leakage. Predictive-only labels are HB
    // silent by definition — the predictive backend's extra reports on
    // them are scored by the adjudication harness, not this suite.
    for (name, t) in [
        ("filtered", total.filtered),
        ("ordered", total.ordered),
        ("predictive", total.predictive),
    ] {
        assert!(t.planted > 0, "{name}: corpus plants none — no coverage");
        assert_eq!(
            t.reported,
            0,
            "{name}: {} leaked into the report ({})",
            t.reported,
            total.counts_line("TOTAL")
        );
    }
    assert_eq!(total.unlabeled, 0, "{}", total.counts_line("TOTAL"));

    // Precision equals planted-true over planted-report-surface by
    // construction once recall is 1.0 on both sides.
    let expected_precision =
        total.true_planted() as f64 / (total.true_planted() + total.benign_planted()) as f64;
    assert!((total.precision() - expected_precision).abs() < 1e-9);

    // Pin the exact totals: any generator/lowering/detector drift
    // must be a conscious re-pin.
    assert_eq!(
        total.counts_line("TOTAL"),
        "TOTAL reported=1417 a=258/258 b=248/248 c=291/291 fp1=205/205 fp2=199/199 \
         fp3=216/216 filtered=0/206 ordered=0/393 predictive=0/163 unlabeled=0"
    );
}
