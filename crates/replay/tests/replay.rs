//! End-to-end replay guarantees, pinned against the bundled catalog:
//! byte-identical deterministic replay, typed divergence at the exact
//! script step, and the full validation sweep (every oracle-true race
//! machine-confirms, no benign report ever fires).

use cafa_apps::all_apps;
use cafa_replay::{validate_apps, ReplayConfig};
use cafa_sim::{run, Choice, InstrumentConfig, SchedulePolicy, SimConfig, SimError};
use cafa_trace::to_binary_vec;

/// A recorded stress run of the first catalog app, instrumentation on
/// so the trace can be byte-compared.
fn recorded_stress(policy: SchedulePolicy, seed: u64) -> cafa_sim::RunOutcome {
    let app = &all_apps()[0];
    let config = SimConfig {
        seed,
        instrument: InstrumentConfig::paper_packages(),
        policy,
        record_schedule: true,
        ..SimConfig::default()
    };
    run(&app.stress_program, &config).expect("catalog programs run clean")
}

#[test]
fn replaying_a_recorded_schedule_reproduces_the_trace_byte_for_byte() {
    let original = recorded_stress(SchedulePolicy::Random, 7);
    let schedule = original.schedule.clone().expect("record_schedule was set");
    let original_bytes = to_binary_vec(original.trace.as_ref().expect("instrumented"));

    for _ in 0..2 {
        let replayed =
            recorded_stress(SchedulePolicy::Script(schedule.clone()), schedule.tail_seed);
        let replay_bytes = to_binary_vec(replayed.trace.as_ref().expect("instrumented"));
        assert_eq!(
            original_bytes, replay_bytes,
            "script replay must reproduce the recorded trace byte-for-byte"
        );
        // The re-recorded script is the one we fed in: replay of the
        // replay stays on the same schedule.
        assert_eq!(replayed.schedule.as_ref(), Some(&schedule));
    }
}

#[test]
fn a_corrupted_script_diverges_at_the_exact_choice() {
    let original = recorded_stress(SchedulePolicy::Random, 7);
    let mut schedule = original.schedule.expect("record_schedule was set");
    assert!(schedule.len() > 8, "stress run makes many decisions");

    let corrupt_at = schedule.len() / 2;
    schedule.choices[corrupt_at] = Choice::Step(u32::MAX);

    let app = &all_apps()[0];
    let config = SimConfig {
        seed: schedule.tail_seed,
        instrument: InstrumentConfig::off(),
        policy: SchedulePolicy::Script(schedule),
        ..SimConfig::default()
    };
    let err = run(&app.stress_program, &config).expect_err("corrupt script must diverge");
    match err {
        SimError::ReplayDivergence {
            choice, offered, ..
        } => {
            assert_eq!(choice, corrupt_at, "divergence names the corrupted choice");
            assert!(!offered.is_empty(), "divergence lists the offered entities");
        }
        other => panic!("expected ReplayDivergence, got {other:?}"),
    }
}

#[test]
fn catalog_sweep_confirms_every_oracle_true_race_and_no_benign_one() {
    // A deliberately tight budget: directed synthesis is expected to
    // confirm real races in a handful of runs, and benign reports burn
    // the whole budget, so a small one keeps the sweep fast without
    // weakening the assertion.
    let cfg = ReplayConfig {
        budget: 16,
        directed_attempts: 4,
        guided_attempts: 4,
        minimize: false,
    };
    let validations = validate_apps(&cfg, cafa_engine::fleet::resolve_threads(0))
        .expect("catalog validates clean");
    for validation in &validations {
        for race in &validation.races {
            let v = &race.validation;
            if race.harmful {
                assert!(
                    v.confirmed() && v.replay_verified,
                    "{}: oracle-true race on {} must confirm with a replayable witness \
                     (method {:?}, {} runs)",
                    validation.app,
                    v.var,
                    v.method,
                    v.total_runs,
                );
                assert!(
                    v.runs_to_witness <= cfg.budget,
                    "{}: witness for {} must fit the budget",
                    validation.app,
                    v.var,
                );
            } else {
                assert!(
                    !v.confirmed(),
                    "{}: benign report on {} must never fire a violation",
                    validation.app,
                    v.var,
                );
            }
        }
    }
}

#[test]
fn minimized_witnesses_still_replay_and_never_grow() {
    let apps = all_apps();
    let app = apps
        .iter()
        .find(|a| a.name == "MyTracks")
        .expect("MyTracks is in the catalog");
    let cfg = ReplayConfig {
        minimize: true,
        ..ReplayConfig::default()
    };
    let validation = cafa_replay::validate_app(app, &cfg).expect("MyTracks validates clean");
    let mut minimized_any = false;
    for race in &validation.races {
        let v = &race.validation;
        if !race.harmful || !v.confirmed() {
            continue;
        }
        let witness = v.witness.as_ref().expect("confirmed race has a witness");
        assert!(
            witness.len() <= v.full_len,
            "minimization never grows the script (got {} from {})",
            witness.len(),
            v.full_len,
        );
        assert!(v.replay_verified, "the minimized witness still fires");
        minimized_any |= witness.len() < v.full_len;
    }
    assert!(
        minimized_any,
        "at least one witness shrinks below the full recorded script"
    );
}
