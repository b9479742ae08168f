//! Differential suite: island-partitioned analysis ≡ monolithic.
//!
//! The partitioned pipeline (`PartitionMode::Auto`/`Force`) must
//! produce **byte-identical** JSON reports to the monolithic path
//! (`PartitionMode::Off`) on every corpus we have — the ten paper
//! apps, a sampled slice of the generated DSL corpus, the seeded
//! scale trio, and arbitrary proptest tapes — at worker counts 1, 2,
//! and 8. Byte equality (not just equal race sets) is the contract
//! the CI golden-report gates rely on. The paper apps and the tapes
//! also run with the conventional baseline as the main model, whose
//! vector clocks are then sized per component of each projected batch.
//! A scale trace and the tapes also run under `--detector both`; the
//! paper apps stay out of that sweep (slow in debug builds; `ci.sh`
//! compares them in release).

use proptest::prelude::*;

use cafa_core::{json::render_json, Analyzer, DetectorConfig, DetectorKind, PartitionMode};
use cafa_hb::CausalityConfig;
use cafa_model::scale::{generate_scale, ScaleConfig};
use cafa_model::{GenConfig, GeneratedCatalog, SizeClass};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::Trace;

const SWEEP_THREADS: [usize; 3] = [1, 2, 8];

/// The paper's conventional baseline as the main model.
fn conventional() -> DetectorConfig {
    DetectorConfig {
        causality: CausalityConfig::conventional(),
        ..DetectorConfig::cafa()
    }
}

/// The HB pipeline plus the predictive backend (`--detector both`).
fn both_mode() -> DetectorConfig {
    DetectorConfig {
        detector: DetectorKind::Both,
        ..DetectorConfig::cafa()
    }
}

/// The monolithic reference report for `trace`, as JSON bytes.
fn monolithic_json(trace: &Trace) -> String {
    monolithic_json_with(trace, DetectorConfig::cafa())
}

fn monolithic_json_with(trace: &Trace, base: DetectorConfig) -> String {
    let config = DetectorConfig {
        partition: PartitionMode::Off,
        ..base
    };
    let report = Analyzer::with_config(config)
        .analyze(trace)
        .expect("monolithic analysis succeeds on corpus traces");
    render_json(&report, trace)
}

/// Asserts Auto and Force match the monolithic bytes at every sweep
/// worker count.
fn assert_partition_matches(trace: &Trace, label: &str) {
    assert_partition_matches_with(trace, label, DetectorConfig::cafa());
}

fn assert_partition_matches_with(trace: &Trace, label: &str, base: DetectorConfig) {
    let reference = monolithic_json_with(trace, base);
    for mode in [PartitionMode::Auto, PartitionMode::Force] {
        for threads in SWEEP_THREADS {
            let config = DetectorConfig {
                threads,
                partition: mode,
                ..base
            };
            let report = Analyzer::with_config(config)
                .analyze(trace)
                .expect("partitioned analysis succeeds wherever monolithic does");
            assert_eq!(
                render_json(&report, trace),
                reference,
                "{label}: {mode:?} at {threads} thread(s) drifted from monolithic"
            );
        }
    }
}

/// Every paper app (the Table 1 catalog, golden-report seed 0):
/// partitioned ≡ monolithic. The apps chain external events into one
/// island, so this pins the single-island fallback too.
#[test]
fn paper_apps_partitioned_equals_monolithic() {
    for app in cafa_apps::all_apps() {
        let outcome = app.record(0).expect("catalog apps record clean");
        let trace = outcome.trace.expect("instrumented runs produce a trace");
        assert_partition_matches(&trace, &app.name);
    }
}

/// The paper apps with the conventional baseline as the main model:
/// partitioned ≡ monolithic, so the clocks answer alike whether one
/// model spans the trace or one is built per projected batch.
#[test]
fn paper_apps_partitioned_equals_monolithic_under_conventional() {
    for app in cafa_apps::all_apps() {
        let outcome = app.record(0).expect("catalog apps record clean");
        let trace = outcome.trace.expect("instrumented runs produce a trace");
        assert_partition_matches_with(&trace, &app.name, conventional());
    }
}

/// A sampled slice of the generated DSL corpus (every size class
/// appears under `Mixed`): partitioned ≡ monolithic.
#[test]
fn generated_corpus_partitioned_equals_monolithic() {
    let catalog = GeneratedCatalog::new(GenConfig {
        seed: 11,
        count: 12,
        size: SizeClass::Mixed,
    });
    for spec in catalog.specs().expect("generated models lower") {
        let outcome = spec.record(0).expect("generated apps record clean");
        let trace = outcome.trace.expect("instrumented runs produce a trace");
        assert_partition_matches(&trace, &spec.name);
    }
}

/// The seed-42/43/44 scale trio at 50k events: partitioned ≡
/// monolithic, and Auto genuinely engages (multi-island fleet traces
/// are past the record threshold).
#[test]
fn scale_trio_partitioned_equals_monolithic() {
    for seed in [42, 43, 44] {
        let app = generate_scale(ScaleConfig::new(seed, 50_000));
        let reference = monolithic_json(&app.trace);
        for threads in SWEEP_THREADS {
            let config = DetectorConfig {
                threads,
                partition: PartitionMode::Auto,
                ..DetectorConfig::cafa()
            };
            let report = Analyzer::with_config(config)
                .analyze(&app.trace)
                .expect("scale traces are acyclic by construction");
            assert!(
                report.stats.partition.is_some(),
                "seed {seed}: auto partitioning must engage on a fleet trace"
            );
            assert_eq!(
                render_json(&report, &app.trace),
                reference,
                "seed {seed}: partitioned drifted from monolithic at {threads} thread(s)"
            );
        }
    }
}

/// A multi-island scale trace under the conventional main model: each
/// projected batch packs many islands into one model, so the clocks of
/// every component are sized and swept side by side.
#[test]
fn scale_partitioned_equals_monolithic_under_conventional() {
    let app = generate_scale(ScaleConfig::new(42, 20_000));
    assert_partition_matches_with(&app.trace, "scale:42:20000", conventional());
    let forced = DetectorConfig {
        partition: PartitionMode::Force,
        ..conventional()
    };
    let report = Analyzer::with_config(forced)
        .analyze(&app.trace)
        .expect("scale traces are acyclic by construction");
    assert!(
        report
            .stats
            .partition
            .is_some_and(|p| p.islands > p.batches),
        "batches must pack several islands"
    );
}

/// A scale trace under `--detector both`: the predictive section,
/// its fixpoint counters included, is the same on islands as
/// monolithically, and `Auto` engages (the trace is past the record
/// threshold).
#[test]
fn scale_partitioned_equals_monolithic_in_both_mode() {
    let app = generate_scale(ScaleConfig::new(42, 10_000));
    assert_partition_matches_with(&app.trace, "scale:42:10000", both_mode());
    let auto = DetectorConfig {
        partition: PartitionMode::Auto,
        ..both_mode()
    };
    let report = Analyzer::with_config(auto)
        .analyze(&app.trace)
        .expect("scale traces are acyclic by construction");
    assert!(report.stats.partition.is_some(), "auto must engage");
    assert!(report.predictive.is_some_and(|p| p.stats.gated > 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary tapes, partitioning forced: byte-identical reports
    /// (or the identical error) at every sweep worker count, under
    /// either backend.
    #[test]
    fn arbitrary_traces_partitioned_equals_monolithic(
        tape in proptest::collection::vec(any::<u8>(), 0..400)
    ) {
        let trace = trace_from_tape(&tape);
        for base in [DetectorConfig::cafa(), both_mode()] {
            assert_tape_partition_matches(&trace, base, &[PartitionMode::Force])?;
        }
    }

    /// Arbitrary tapes under the conventional main model: `Auto` and
    /// `Force` both match `Off` byte for byte (or fail alike).
    #[test]
    fn arbitrary_traces_partitioned_equals_monolithic_under_conventional(
        tape in proptest::collection::vec(any::<u8>(), 0..400)
    ) {
        let trace = trace_from_tape(&tape);
        assert_tape_partition_matches(
            &trace,
            conventional(),
            &[PartitionMode::Auto, PartitionMode::Force],
        )?;
    }
}

/// `modes` against `Off` for one tape, at every sweep worker count.
fn assert_tape_partition_matches(
    trace: &Trace,
    base: DetectorConfig,
    modes: &[PartitionMode],
) -> Result<(), TestCaseError> {
    let off = DetectorConfig {
        partition: PartitionMode::Off,
        ..base
    };
    let reference = Analyzer::with_config(off).analyze(trace);
    for &mode in modes {
        for threads in SWEEP_THREADS {
            let config = DetectorConfig {
                threads,
                partition: mode,
                ..base
            };
            let partitioned = Analyzer::with_config(config).analyze(trace);
            match (&reference, &partitioned) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    render_json(a, trace),
                    render_json(b, trace),
                    "{:?} partition drifted at {} thread(s)",
                    mode,
                    threads
                ),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "{:?} and monolithic disagree on success at {} thread(s)",
                    mode,
                    threads
                ),
            }
        }
    }
    Ok(())
}
