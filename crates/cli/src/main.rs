//! `cafa` — record and analyze event-driven execution traces.
//!
//! ```text
//! cafa apps                          list the bundled app workloads
//! cafa gen [opts]                    generate a labeled app corpus
//! cafa record <app> [opts]           simulate an app and write its trace
//! cafa analyze <trace> [opts]        detect use-free races in a trace
//! cafa analyze --follow <trace>      tail a growing trace, analyze it once complete
//! cafa validate [app] [opts]         confirm reported races by replay
//! cafa serve [opts]                  stream a trace from stdin or serve a fleet
//! cafa push <trace> [opts]           send a trace to a running serve instance
//! cafa stats <trace>                 print trace statistics
//! ```
//!
//! Run `cafa help` for the full option list.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

use cafa_core::{Analyzer, DetectorConfig};
use cafa_engine::AnalysisSession;
use cafa_hb::CausalityConfig;
use cafa_sim::{run, InstrumentConfig, SimConfig};
use cafa_stream::{IncrementalSession, StreamOptions};
use cafa_trace::Trace;

const USAGE: &str = "\
cafa — use-free race detection for event-driven traces (after Yu et al., PLDI 2014)

USAGE:
    cafa apps
        List the bundled application workloads and their Table 1 rows.

    cafa gen [--seed N] [--count N] [--size small|medium|large|mixed]
             [--format summary|text|counts] [--detector hb|both]
             [--out FILE] [--threads N]
        Generate a deterministic corpus of labeled app models from the
        pattern space (race kinds a/b/c, FP types I/II/III, filtered,
        HB-ordered, and predictive-only patterns, Binder/pipeline
        plumbing). --format summary (default) prints one line per app
        plus totals; text emits the corpus in the model DSL (parseable
        back with identical lowering); counts records and analyzes
        every app and prints its report joined against the embedded
        ground truth — the format the CI golden file pins. --detector
        both (counts only) also runs the predictive backend on every
        app, adjudicates each predictive-only report by replay, and
        appends pred_extra/pred_confirmed/pred_fp columns.
        Same --seed/--count/--size produce byte-identical output on
        any machine at any --threads.

    cafa record <app> [--seed N] [--out FILE] [--format text|binary]
                      [--coverage paper|full]
        Simulate the named app workload with instrumentation on and
        write the recorded trace (default: <app>.trace, text format).
        <app> is a catalog name from `cafa apps`, a generated app
        `gen:<seed>:<index>`, or a synthetic fleet corpus
        `scale:<seed>:<events>` (which carries its own seed; --seed
        and --coverage do not apply). --coverage paper limits listener
        instrumentation to the four framework packages of the paper
        (the Table 1 configuration).

    cafa analyze <trace> [--detector hb|both]
                         [--model cafa|conventional|no-queue-rules]
                         [--no-if-guard] [--no-intra-alloc] [--no-lockset]
                         [--json | --format text|json] [--timings]
                         [--threads N] [--partition auto|off|force]
                         [--follow [--poll-ms N]]
        Run the race detector over a trace file (text or binary,
        auto-detected) and print the report. --detector hb (default)
        runs the paper's happens-before pipeline alone; both also
        builds the weaker predictive relation (cafa-predict) over the
        same session and classifies every predictive report as
        both/predictive-only against the HB report set. In text mode
        each predictive-only report is then adjudicated: replayed
        through the directed → guided → random ladder against the
        traced app's stress variant (catalog and gen:<seed>:<index>
        traces) and printed as a replay-confirmed witness or a
        counted false positive.
        The default backend's output is byte-identical to earlier
        releases. --json (or --format json) emits a stable
        machine-readable format; --timings adds a per-pass wall-time
        breakdown (extract, hb-build, candidates, filters,
        baseline-hb, classify, predict-build/predict-candidates and
        adjudicate under --detector both, and — when
        partitioned — partition/merge) and model-cache counters.
        --threads sets the worker count for every analysis pool: the
        candidate pass and the island-partition fan-out (precedence:
        --threads, then the CAFA_THREADS env var, then all cores);
        the report is byte-identical at any setting. --partition
        controls island partitioning: auto (default) splits multi-island
        traces above a size threshold into causally independent
        sub-traces analyzed concurrently, off analyzes the whole trace
        as one, force partitions any multi-island trace — all three
        produce byte-identical reports, for either --detector backend.
        --follow tails a growing trace file, decoding records as they
        arrive (polling every --poll-ms, default 50) until the trace's
        end marker, then analyzes it exactly like a batch analyze of
        the completed file (same report, same --timings breakdown).

    cafa validate [app] [--budget N] [--directed N] [--guided N]
                  [--minimize] [--threads N] [--format text|json|counts]
        Re-run the detector's reported races against the app's stress
        variant under the controlled scheduler and try to make each
        one fire: directed schedule synthesis first, then HB-bounded
        guided search, then random probing, within --budget simulator
        runs per race (default 32; --directed/--guided cap the first
        two rungs). Every hit is re-recorded as a schedule script and
        replay-verified; --minimize delta-debugs each witness to a
        minimal crashing prefix. [app] is a catalog name or a
        generated app `gen:<seed>:<index>`; with no app argument the
        whole catalog is validated (--threads workers). --format json emits
        one machine-readable object per app, witness scripts included;
        --format counts prints the one-line-per-app summary the CI
        golden file pins.

    cafa serve [--model M] [--chunk N]
               [--threads N] [--listen ADDR] [--admin ADDR]
               [--state-dir DIR] [--memory-budget SIZE]
        Without --listen: stream one trace from stdin, decoding it as
        it arrives, and print the JSON report at EOF — byte-identical
        to `cafa analyze --json` of the same trace, for any chunking.
        Bytes after the trace's end marker fail the run, as in batch.
        --chunk caps bytes ingested per read.

        With --listen host:port: run the multi-tenant fleet ingest
        server. Connections keep being accepted until the process is
        killed; each carries one session (or, in framed mode, many —
        see docs/SERVE.md) and receives its own report as soon as the
        trace is complete, while the connection stays open,
        byte-identical to batch analysis regardless of --threads
        (worker count) or how sessions interleave. --state-dir DIR
        journals every session's bytes so a killed server resumes
        mid-trace sessions after restart (`cafa push` re-sends from
        the offset the server reports); --memory-budget SIZE (N, NK,
        NM, NG) bounds resident analysis state by evicting cold
        sessions to their journals (requires --state-dir); --admin
        host:port serves per-session and aggregate metrics as JSON,
        shaped like `cafa stats --format json`.

    cafa push <trace> --connect ADDR --session ID [--chunk N]
        Send a recorded trace file to a running `cafa serve --listen`
        instance under the given session id and print the report the
        server returns. If the server already holds a prefix of the
        session (after a disconnect or server restart), only the
        remainder is sent. A push that ends before the trace's end
        marker leaves the session resumable and prints the durable
        offset to stderr.

    cafa stats <trace> [--format text|json]
        Print trace statistics (tasks, events, records, frees, ...).

    cafa help
        Show this message.
";

fn main() -> ExitCode {
    // Writing to a closed pipe (`cafa dump | head`) makes println!
    // panic with a BrokenPipe error; treat that as an ordinary
    // truncated-output exit instead of a crash (and keep the default
    // hook's backtrace off stderr for that case).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !payload_is_broken_pipe(info.payload()) {
            default_hook(info);
        }
    }));
    match std::panic::catch_unwind(run_cli) {
        Ok(code) => code,
        Err(payload) => {
            if payload_is_broken_pipe(payload.as_ref()) {
                ExitCode::SUCCESS
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// Panic payloads are `String` (formatted panics) or `&'static str`
/// (literal panics); check both for the stdio BrokenPipe message.
fn payload_is_broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .is_some_and(|s| s.contains("Broken pipe"))
}

fn run_cli() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("apps") => cmd_apps(),
        Some("gen") => cmd_gen(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("push") => cmd_push(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("order") => cmd_order(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `cafa help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_apps() -> Result<(), String> {
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>10}",
        "App", "events", "reported", "true", "false-pos"
    );
    for app in cafa_apps::all_apps() {
        let e = app.expected;
        println!(
            "{:<12} {:>7} {:>9} {:>9} {:>10}",
            app.name,
            e.events,
            e.reported,
            e.true_races(),
            e.false_positives()
        );
    }
    Ok(())
}

fn cmd_gen(rest: &[String]) -> Result<(), String> {
    use cafa_model::{eval::Score, GenConfig, GeneratedCatalog, SizeClass};

    let mut args = rest.to_vec();
    let seed = opt_value(&mut args, "--seed")?
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let count = opt_value(&mut args, "--count")?
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad count `{s}`")))
        .transpose()?
        .unwrap_or(200);
    let size = opt_value(&mut args, "--size")?
        .map(|s| SizeClass::parse(&s))
        .transpose()?
        .unwrap_or(SizeClass::Mixed);
    let format = opt_value(&mut args, "--format")?.unwrap_or_else(|| "summary".to_owned());
    let out = opt_value(&mut args, "--out")?;
    let detector = parse_detector(&mut args)?;
    let threads = parse_threads(&mut args)?;
    if !args.is_empty() {
        return Err(format!(
            "unexpected argument `{}`; see `cafa help`",
            args[0]
        ));
    }
    if detector.runs_predictive() && format != "counts" {
        return Err("--detector both requires --format counts".to_owned());
    }

    let catalog = GeneratedCatalog::new(GenConfig { seed, count, size });
    let mut output = String::new();
    match format.as_str() {
        "text" => {
            output = cafa_model::text::corpus_to_text(&catalog.models);
        }
        "summary" => {
            output.push_str(&format!(
                "{:<12} {:>7} {:>6} {:>5} {:>7} {:>8} {:>8}\n",
                "App", "events", "stmts", "true", "benign", "filtered", "ordered"
            ));
            let mut totals = Score::new();
            for model in &catalog.models {
                let mut s = Score::new();
                let spec = cafa_model::lower(model).map_err(|e| e.to_string())?;
                s.tally_app(&spec.truth, []);
                output.push_str(&format!(
                    "{:<12} {:>7} {:>6} {:>5} {:>7} {:>8} {:>8}\n",
                    model.name,
                    model.events,
                    model.stmts.len(),
                    s.true_planted(),
                    s.benign_planted(),
                    s.filtered.planted,
                    s.ordered.planted,
                ));
                totals.merge(&s);
            }
            output.push_str(&format!(
                "{} apps, {} labeled vars: {} true, {} benign, {} filtered, {} ordered\n",
                totals.apps,
                totals.true_planted()
                    + totals.benign_planted()
                    + totals.filtered.planted
                    + totals.ordered.planted,
                totals.true_planted(),
                totals.benign_planted(),
                totals.filtered.planted,
                totals.ordered.planted,
            ));
        }
        "counts" => {
            let specs = catalog.specs().map_err(|e| e.to_string())?;
            let threads = cafa_engine::fleet::resolve_threads(threads);
            let mut config = DetectorConfig::cafa();
            config.detector = detector;
            // Compute in parallel, print in corpus order: the output
            // is byte-identical at any worker count. With a predictive
            // detector every predictive-only report is adjudicated by
            // the replay ladder, and three extra columns land on each
            // line: pred_extra (reports beyond HB), pred_confirmed
            // (replay-verified witnesses), pred_fp (counted false
            // positives).
            let scores = cafa_engine::fleet::map(&specs, threads, |app| {
                let outcome = app.record(seed).expect("generated workloads run clean");
                let trace = outcome.trace.expect("instrumentation is on");
                let report = Analyzer::with_config(config)
                    .analyze_with(&AnalysisSession::new(&trace))
                    .expect("analysis succeeds");
                let mut s = Score::new();
                s.tally_app(&app.truth, report.races.iter().map(|r| r.var));
                let pred = report.predictive.as_ref().map(|p| {
                    let only: Vec<_> = p
                        .races
                        .iter()
                        .filter(|r| r.class == cafa_core::PredictClass::PredictiveOnly)
                        .map(|r| r.var)
                        .collect();
                    let adj = cafa_replay::adjudicate_races(
                        app,
                        &only,
                        &cafa_replay::ReplayConfig::default(),
                    )
                    .expect("generated workloads replay clean");
                    (only.len(), adj.confirmed(), adj.false_positives())
                });
                (s, pred)
            });
            let mut totals = Score::new();
            let mut pred_totals = (0usize, 0usize, 0usize);
            for (app, (score, pred)) in specs.iter().zip(&scores) {
                output.push_str(&score.counts_line(&app.name));
                if let Some((extra, confirmed, fp)) = pred {
                    output.push_str(&format!(
                        " pred_extra={extra} pred_confirmed={confirmed} pred_fp={fp}"
                    ));
                    pred_totals.0 += extra;
                    pred_totals.1 += confirmed;
                    pred_totals.2 += fp;
                }
                output.push('\n');
                totals.merge(score);
            }
            output.push_str(&totals.counts_line("TOTAL"));
            if detector.runs_predictive() {
                output.push_str(&format!(
                    " pred_extra={} pred_confirmed={} pred_fp={}",
                    pred_totals.0, pred_totals.1, pred_totals.2
                ));
            }
            output.push('\n');
            output.push_str(&format!(
                "precision={:.3} harmful-recall={:.3} benign-recall={:.3}\n",
                totals.precision(),
                totals.harmful_recall(),
                totals.benign_recall(),
            ));
        }
        other => return Err(format!("bad format `{other}` (summary|text|counts)")),
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &output).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path} ({format}, {} apps)", catalog.len());
        }
        None => print!("{output}"),
    }
    Ok(())
}

/// Pulls `--flag value` out of `args`; returns the value.
fn opt_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of `args`.
fn opt_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_record(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let seed = opt_value(&mut args, "--seed")?
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let format = opt_value(&mut args, "--format")?.unwrap_or_else(|| "text".to_owned());
    let coverage = opt_value(&mut args, "--coverage")?.unwrap_or_else(|| "paper".to_owned());
    let out = opt_value(&mut args, "--out")?;
    let [name] = args.as_slice() else {
        return Err("usage: cafa record <app> [--seed N] [--out FILE] ...".to_owned());
    };

    // `scale:<seed>:<events>` — the synthetic fleet-island corpus of
    // `cafa_model::scale` (the benchmark and CI scale-gate input). The
    // spec carries its own seed; --seed and --coverage do not apply.
    if let Some(spec) = name.strip_prefix("scale:") {
        use cafa_model::scale::{generate_scale, ScaleConfig};
        let (seed_s, events_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad scale spec `{name}` (scale:<seed>:<events>)"))?;
        let scale_seed: u64 = seed_s
            .parse()
            .map_err(|_| format!("bad scale seed `{seed_s}`"))?;
        let events: usize = events_s
            .parse()
            .map_err(|_| format!("bad scale events `{events_s}`"))?;
        let app = generate_scale(ScaleConfig::new(scale_seed, events));
        let path = out.unwrap_or_else(|| format!("scale-{scale_seed}-{events}.trace"));
        let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut w = BufWriter::new(file);
        match format.as_str() {
            "text" => cafa_trace::write_text(&app.trace, &mut w).map_err(|e| e.to_string())?,
            "binary" => cafa_trace::write_binary(&app.trace, &mut w).map_err(|e| e.to_string())?,
            other => return Err(format!("bad format `{other}` (text|binary)")),
        }
        w.flush().map_err(|e| e.to_string())?;
        let s = app.trace.stats();
        println!(
            "recorded scale corpus (seed {scale_seed}): {} events, {} records, {} island(s) -> {path} ({format})",
            s.events, s.records, app.islands
        );
        return Ok(());
    }

    let app = cafa_apps::resolve(name).map_err(|e| e.to_string())?;

    let mut config = SimConfig::with_seed(seed);
    config.instrument = match coverage.as_str() {
        "paper" => InstrumentConfig::paper_packages(),
        "full" => InstrumentConfig::full(),
        other => return Err(format!("bad coverage `{other}` (paper|full)")),
    };
    let mut outcome = run(&app.program, &config).map_err(|e| format!("simulation failed: {e}"))?;
    let trace = outcome.trace.take().expect("instrumentation is on");

    let path = out.unwrap_or_else(|| format!("{}.trace", app.name.to_lowercase()));
    let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    match format.as_str() {
        "text" => cafa_trace::write_text(&trace, &mut w).map_err(|e| e.to_string())?,
        "binary" => cafa_trace::write_binary(&trace, &mut w).map_err(|e| e.to_string())?,
        other => return Err(format!("bad format `{other}` (text|binary)")),
    }
    w.flush().map_err(|e| e.to_string())?;

    let s = trace.stats();
    println!(
        "recorded {}: {} events, {} records, {} virtual ms -> {path} ({format})",
        app.name,
        s.events,
        s.records,
        trace.meta().virtual_ms
    );
    if outcome.crashed() {
        println!("note: the run observed an uncaught NPE (races manifested)");
    }
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    // Sniff the magic: binary traces start with "CAFT".
    use std::io::{Read, Seek, SeekFrom};
    let mut magic = [0u8; 4];
    let is_binary = reader.read_exact(&mut magic).is_ok() && &magic == b"CAFT";
    reader.seek(SeekFrom::Start(0)).map_err(|e| e.to_string())?;
    if is_binary {
        cafa_trace::read_binary(reader).map_err(|e| format!("reading {path}: {e}"))
    } else {
        cafa_trace::read_text(reader).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Pulls `--threads N` out of `args`. 0 (the default) defers to the
/// `CAFA_THREADS` environment variable, then to the machine's core
/// count; reports are byte-identical at any setting.
fn parse_threads(args: &mut Vec<String>) -> Result<usize, String> {
    Ok(opt_value(args, "--threads")?
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad threads `{s}`")))
        .transpose()?
        .unwrap_or(0))
}

/// Pulls `--detector hb|both` out of `args` (default `hb`).
fn parse_detector(args: &mut Vec<String>) -> Result<cafa_core::DetectorKind, String> {
    Ok(opt_value(args, "--detector")?
        .map(|s| {
            cafa_core::DetectorKind::parse(&s).ok_or_else(|| {
                format!(
                    "bad detector `{s}` (valid backends: {})",
                    cafa_core::DetectorKind::VALID.join("|")
                )
            })
        })
        .transpose()?
        .unwrap_or_default())
}

/// Parses a `--model` value into a causality configuration.
fn parse_model(model: &str) -> Result<CausalityConfig, String> {
    match model {
        "cafa" => Ok(CausalityConfig::cafa()),
        "conventional" => Ok(CausalityConfig::conventional()),
        "no-queue-rules" => Ok(CausalityConfig::no_queue_rules()),
        other => Err(format!(
            "bad model `{other}` (cafa|conventional|no-queue-rules)"
        )),
    }
}

fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let model = opt_value(&mut args, "--model")?.unwrap_or_else(|| "cafa".to_owned());
    let no_if_guard = opt_flag(&mut args, "--no-if-guard");
    let no_intra_alloc = opt_flag(&mut args, "--no-intra-alloc");
    let no_lockset = opt_flag(&mut args, "--no-lockset");
    let mut json = opt_flag(&mut args, "--json");
    match opt_value(&mut args, "--format")?.as_deref() {
        None | Some("text") => {}
        Some("json") => json = true,
        Some(other) => return Err(format!("bad format `{other}` (text|json)")),
    }
    let timings = opt_flag(&mut args, "--timings");
    let threads = parse_threads(&mut args)?;
    let partition = opt_value(&mut args, "--partition")?
        .map(|s| {
            cafa_core::PartitionMode::parse(&s)
                .ok_or_else(|| format!("bad partition `{s}` (auto|off|force)"))
        })
        .transpose()?
        .unwrap_or_default();
    let detector = parse_detector(&mut args)?;
    let follow = opt_flag(&mut args, "--follow");
    let poll_ms = opt_value(&mut args, "--poll-ms")?
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad poll-ms `{s}`")))
        .transpose()?
        .unwrap_or(50);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unexpected argument `{flag}`; see `cafa help`"));
    }
    let [path] = args.as_slice() else {
        return Err("usage: cafa analyze <trace> [options]".to_owned());
    };

    let mut config = DetectorConfig::cafa();
    config.causality = parse_model(&model)?;
    config.if_guard = !no_if_guard;
    config.intra_event_alloc = !no_intra_alloc;
    config.lockset_filter = !no_lockset;
    config.threads = threads;
    config.partition = partition;
    config.detector = detector;

    let trace = if follow {
        follow_trace(path, poll_ms)?
    } else {
        load_trace(path)?
    };
    let session = AnalysisSession::new(&trace);
    let mut report = Analyzer::with_config(config)
        .analyze_with(&session)
        .map_err(|e| format!("analysis failed: {e}"))?;
    if json {
        print!("{}", cafa_core::json::render_json(&report, &trace));
        return Ok(());
    }
    print_text_report(&report, &trace);
    adjudicate_predictive(&mut report, &trace)?;
    if timings {
        print_timings(&report, &session, config.causality);
    }
    Ok(())
}

/// The `--timings` breakdown of one analysis: the pass table, the
/// partition line when islands were used, the demand counters of a
/// cached model, and the session's reuse counters. Shared by batch
/// `analyze` and `analyze --follow`, which run the same pipeline.
fn print_timings(
    report: &cafa_core::RaceReport,
    session: &AnalysisSession<'_>,
    causality: CausalityConfig,
) {
    println!("pass timings:");
    print!("{}", report.stats.passes.render());
    if let Some(p) = report.stats.partition {
        println!(
            "  partition: {} island(s) in {} batch(es), largest island {} record(s)",
            p.islands, p.batches, p.largest_island_records
        );
    }
    // Only read cached models: after a partitioned run the session
    // holds no monolithic model, and building one here just to
    // print its counters would redo the whole derivation.
    let demand = session
        .has_model(causality)
        .then(|| session.model(causality).ok())
        .flatten()
        .and_then(|m| m.demand_stats());
    if let Some(d) = demand {
        print_demand_stats(&d);
    }
    let s = session.stats();
    println!(
        "session: {} ops extraction(s), {} base build(s), {} model build(s), {} cache hit(s)",
        s.ops_extractions, s.base_builds, s.model_builds, s.model_cache_hits
    );
}

/// Demand query-engine counters printed under `--timings`: how many
/// `hb` queries it saw, how many rule premises those queries forced,
/// and how few edges it actually materialized along the way.
fn print_demand_stats(d: &cafa_hb::DemandStats) {
    println!("  demand queries answered  {:>10}", d.queries);
    println!("  rule premises evaluated  {:>10}", d.premises);
    println!("  edges materialized       {:>10}", d.edges_materialized);
}

/// The shared text rendering of `analyze` (batch and `--follow`).
fn print_text_report(report: &cafa_core::RaceReport, trace: &Trace) {
    print!("{}", report.render(trace));
    println!(
        "filtered candidates: {} ({} if-guard, {} intra-event-alloc, {} lockset)",
        report.filtered.len(),
        report
            .filtered
            .iter()
            .filter(|f| f.reason == cafa_core::FilterReason::IfGuard)
            .count(),
        report
            .filtered
            .iter()
            .filter(|f| matches!(
                f.reason,
                cafa_core::FilterReason::AllocBeforeUse | cafa_core::FilterReason::AllocAfterFree
            ))
            .count(),
        report
            .filtered
            .iter()
            .filter(|f| f.reason == cafa_core::FilterReason::CommonLock)
            .count(),
    );
    println!("analysis time: {:.3}s", report.elapsed.as_secs_f64());
}

/// Resolves the app name a trace was recorded under back to its spec.
///
/// Catalog traces carry the Table 1 name; generated traces stamp
/// `gen<seed>-<index>` into the metadata, which maps onto the
/// resolver's `gen:<seed>:<index>` coordinate scheme. Foreign traces
/// (converted, synthetic) resolve to `None`.
fn resolve_traced_app(name: &str) -> Option<cafa_apps::AppSpec> {
    if let Ok(app) = cafa_apps::resolve(name) {
        return Some(app);
    }
    let coords = name.strip_prefix("gen")?;
    let (seed, index) = coords.split_once('-')?;
    let spec = format!(
        "gen:{}:{}",
        seed.parse::<u64>().ok()?,
        index.parse::<usize>().ok()?
    );
    cafa_apps::resolve(&spec).ok()
}

/// Pushes every `predictive-only` report through the replay ladder
/// (directed → guided → random) against the traced app's stress
/// variant, printing one verdict line per report: a replay-confirmed
/// witness or a counted false positive. The predictive relation is
/// deliberately weaker than the observed-trace order, so this is the
/// step that restores soundness to its extra reports.
///
/// Appends an `adjudicate` row to the report's pass table so
/// `--timings` accounts for the replay time.
fn adjudicate_predictive(report: &mut cafa_core::RaceReport, trace: &Trace) -> Result<(), String> {
    let only: Vec<cafa_trace::VarId> = report
        .predictive
        .as_ref()
        .map(|p| {
            p.races
                .iter()
                .filter(|r| r.class == cafa_core::PredictClass::PredictiveOnly)
                .map(|r| r.var)
                .collect()
        })
        .unwrap_or_default();
    if only.is_empty() {
        return Ok(());
    }
    let Some(app) = resolve_traced_app(&trace.meta().app) else {
        println!(
            "adjudication skipped: `{}` is not a catalog or generated workload, \
             so the predictive-only report(s) above are unjudged claims",
            trace.meta().app
        );
        return Ok(());
    };
    let cfg = cafa_replay::ReplayConfig::default();
    let count = only.len();
    let adj = report
        .stats
        .passes
        .run("adjudicate", || {
            (cafa_replay::adjudicate_races(&app, &only, &cfg), count)
        })
        .map_err(|e| format!("adjudication failed: {e}"))?;
    println!(
        "adjudication: {count} predictive-only report(s) replayed against {}",
        adj.app
    );
    for r in &adj.reports {
        let v = &r.validation;
        if r.confirmed() {
            let method = v
                .method
                .as_ref()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "unknown".to_owned());
            println!(
                "  {:<6} CONFIRMED       witness via {method} in {} run(s), replay-verified",
                v.var.to_string(),
                v.runs_to_witness,
            );
        } else {
            let why = match &r.infeasible {
                Some(reason) => format!("directed synthesis: {reason}"),
                None => format!("budget exhausted after {} run(s)", v.total_runs),
            };
            println!("  {:<6} false positive  {why}", v.var.to_string(),);
        }
    }
    println!(
        "  {} confirmed, {} false positive(s), {} stress run(s)",
        adj.confirmed(),
        adj.false_positives(),
        adj.total_runs()
    );
    Ok(())
}

/// `cafa analyze --follow`: tails a growing trace file, decoding
/// records as they arrive, until the trace's end marker. The completed
/// trace then goes through the same analysis as a batch `analyze`.
fn follow_trace(path: &str, poll_ms: u64) -> Result<Trace, String> {
    use std::io::Read;
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut decoder = cafa_trace::StreamDecoder::new();
    let mut buf = vec![0u8; 64 << 10];
    while !decoder.is_complete() {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("reading {path}: {e}"))?;
        if n == 0 {
            // At the current end of the file but the trace's own end
            // marker has not arrived: the writer is still going.
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            continue;
        }
        decoder
            .push(&buf[..n])
            .map_err(|e| format!("reading {path}: {e}"))?;
    }
    // Bytes already in the file past the trace's end are an error, as
    // in batch mode, wherever the last read happened to stop.
    let n = file
        .read(&mut buf)
        .map_err(|e| format!("reading {path}: {e}"))?;
    decoder
        .push(&buf[..n])
        .map_err(|e| format!("reading {path}: {e}"))?;
    decoder.finish().map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_validate(rest: &[String]) -> Result<(), String> {
    use cafa_replay::{validate_app, validate_apps, AppValidation, ReplayConfig};

    let mut args = rest.to_vec();
    let parse_u64 =
        |s: String, what: &str| s.parse::<u64>().map_err(|_| format!("bad {what} `{s}`"));
    let budget = opt_value(&mut args, "--budget")?
        .map(|s| parse_u64(s, "budget"))
        .transpose()?
        .unwrap_or(32);
    let directed_attempts = opt_value(&mut args, "--directed")?
        .map(|s| parse_u64(s, "directed"))
        .transpose()?
        .unwrap_or(4);
    let guided_attempts = opt_value(&mut args, "--guided")?
        .map(|s| parse_u64(s, "guided"))
        .transpose()?
        .unwrap_or(8);
    let minimize = opt_flag(&mut args, "--minimize");
    let threads = parse_threads(&mut args)?;
    let format = opt_value(&mut args, "--format")?.unwrap_or_else(|| "text".to_owned());
    if !matches!(format.as_str(), "text" | "json" | "counts") {
        return Err(format!("bad format `{format}` (text|json|counts)"));
    }

    let cfg = ReplayConfig {
        budget,
        directed_attempts,
        guided_attempts,
        minimize,
    };
    let validations: Vec<AppValidation> = match args.as_slice() {
        [] => {
            let threads = cafa_engine::fleet::resolve_threads(threads);
            validate_apps(&cfg, threads).map_err(|e| format!("validation failed: {e}"))?
        }
        [name] => {
            let app = cafa_apps::resolve(name).map_err(|e| e.to_string())?;
            vec![validate_app(&app, &cfg).map_err(|e| format!("validation failed: {e}"))?]
        }
        _ => return Err("usage: cafa validate [app] [options]".to_owned()),
    };

    match format.as_str() {
        "counts" => {
            for v in &validations {
                println!("{}", v.counts_line());
            }
        }
        "json" => {
            let objects: Vec<String> = validations.iter().map(AppValidation::to_json).collect();
            println!("[{}]", objects.join(","));
        }
        _ => {
            for v in &validations {
                println!(
                    "{}: {} reported, {} oracle-true, {} confirmed-true, {} benign fired, {} runs",
                    v.app,
                    v.races.len(),
                    v.oracle_true(),
                    v.confirmed_true(),
                    v.benign_fired(),
                    v.total_runs(),
                );
                for race in &v.races {
                    let r = &race.validation;
                    let label = if race.harmful { "harmful" } else { "benign" };
                    match (&r.method, &r.witness) {
                        (Some(m), Some(w)) => println!(
                            "  {:<6} {:<8} confirmed   {:<8} runs={:<4} witness={} choice(s){}{}",
                            r.var.to_string(),
                            label,
                            m.to_string(),
                            r.runs_to_witness,
                            w.len(),
                            if minimize {
                                format!(" (from {})", r.full_len)
                            } else {
                                String::new()
                            },
                            if r.replay_verified {
                                ""
                            } else {
                                "  REPLAY FAILED"
                            },
                        ),
                        _ => println!(
                            "  {:<6} {:<8} unconfirmed          runs={}",
                            r.var.to_string(),
                            label,
                            r.total_runs,
                        ),
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parses a byte size with an optional K/M/G suffix (binary units).
fn parse_size(s: &str) -> Result<usize, String> {
    let (digits, scale) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("bad size `{s}` (use N, NK, NM, or NG)"))?;
    n.checked_mul(scale)
        .ok_or_else(|| format!("size `{s}` overflows"))
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    use std::io::Read;
    let mut args = rest.to_vec();
    let model = opt_value(&mut args, "--model")?.unwrap_or_else(|| "cafa".to_owned());
    let chunk = opt_value(&mut args, "--chunk")?
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad chunk `{s}`")))
        .transpose()?
        .unwrap_or(64 << 10)
        .max(1);
    let threads = parse_threads(&mut args)?;
    let listen = opt_value(&mut args, "--listen")?;
    let admin = opt_value(&mut args, "--admin")?;
    let state_dir = opt_value(&mut args, "--state-dir")?;
    let budget = opt_value(&mut args, "--memory-budget")?
        .map(|s| parse_size(&s))
        .transpose()?;
    if !args.is_empty() {
        return Err(format!(
            "unexpected argument `{}`; see `cafa help`",
            args[0]
        ));
    }

    let mut opts = StreamOptions::default();
    opts.detector.causality = parse_model(&model)?;
    opts.detector.threads = threads;

    if let Some(addr) = listen {
        // TCP mode: the multi-tenant ingest server. Each connection
        // carries its own session; reports are per-session and
        // byte-identical to `cafa analyze --format json`.
        let mut config = cafa_fleetserve::ServerConfig {
            opts,
            threads,
            state_dir: state_dir.map(std::path::PathBuf::from),
            memory_budget: budget,
            read_chunk: chunk,
        };
        // Sessions are parallel across workers; each analysis runs
        // single-threaded so reports stay worker-count-invariant.
        config.opts.detector.threads = 1;
        let server = cafa_fleetserve::Server::bind(&addr, admin.as_deref(), config)
            .map_err(|e| e.to_string())?;
        let local = server.local_addr().map_err(|e| e.to_string())?;
        eprintln!("listening on {local}");
        if let Ok(Some(a)) = server.admin_addr() {
            eprintln!("admin on {a}");
        }
        // Runs until the process is killed; crash safety comes from
        // the journals in --state-dir, not from a shutdown handler.
        let stop = std::sync::atomic::AtomicBool::new(false);
        server.run(&stop);
        return Ok(());
    }
    if admin.is_some() || state_dir.is_some() || budget.is_some() {
        return Err("--admin/--state-dir/--memory-budget require --listen".to_owned());
    }

    let mut reader = std::io::stdin().lock();
    let mut session = IncrementalSession::new(opts);
    let mut buf = vec![0u8; chunk];
    // Read to EOF, past the end marker, so a trailing byte fails the
    // run whichever read it arrives in; truncation surfaces in finish().
    loop {
        let n = reader.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        session
            .push(&buf[..n])
            .map_err(|e| format!("analyzing stream: {e}"))?;
    }
    let outcome = session
        .finish()
        .map_err(|e| format!("analyzing stream: {e}"))?;
    let mut out = std::io::stdout().lock();
    write!(
        out,
        "{}",
        cafa_core::json::render_json(&outcome.report, &outcome.trace)
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_push(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let addr = opt_value(&mut args, "--connect")?
        .ok_or_else(|| "cafa push requires --connect HOST:PORT".to_owned())?;
    let session = opt_value(&mut args, "--session")?
        .ok_or_else(|| "cafa push requires --session ID".to_owned())?;
    let chunk = opt_value(&mut args, "--chunk")?
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad chunk `{s}`")))
        .transpose()?
        .unwrap_or(64 << 10);
    let [path] = args.as_slice() else {
        return Err("usage: cafa push <trace> --connect ADDR --session ID [--chunk N]".to_owned());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let outcome =
        cafa_fleetserve::push_trace(&addr, &session, &bytes, chunk).map_err(|e| e.to_string())?;
    if outcome.resumed_at > 0 {
        eprintln!("session {session}: resumed at byte {}", outcome.resumed_at);
    }
    match outcome.report {
        Some(report) => {
            let mut out = std::io::stdout().lock();
            write!(out, "{report}").map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
        }
        None => eprintln!(
            "session {session}: detached at byte {} (trace incomplete; push again to resume)",
            outcome.durable
        ),
    }
    Ok(())
}

fn cmd_graph(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let out_path = opt_value(&mut args, "--out")?;
    let [path] = args.as_slice() else {
        return Err("usage: cafa graph <trace> [--out FILE]".to_owned());
    };
    let trace = load_trace(path)?;
    if trace.task_count() > 400 {
        return Err(format!(
            "trace has {} tasks; DOT export is only readable for small scenarios",
            trace.task_count()
        ));
    }
    // The model derives edges only on demand; draw the naive
    // derivation's, which materializes every one.
    let config = CausalityConfig::cafa();
    let mut graph = cafa_hb::base_graph(&trace, &config);
    cafa_hb::derive_naive(&mut graph, &trace, &config)
        .map_err(|e| format!("model build failed: {e}"))?;
    let dot = cafa_hb::dot::render(&graph, &trace);
    match out_path {
        Some(p) => {
            std::fs::write(&p, dot).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote {p}");
        }
        None => print!("{dot}"),
    }
    Ok(())
}

fn cmd_convert(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let format = opt_value(&mut args, "--format")?;
    let [input, output] = args.as_slice() else {
        return Err("usage: cafa convert <in> <out> [--format text|binary]".to_owned());
    };
    let trace = load_trace(input)?;
    // Default: flip to the opposite of the input format.
    let input_is_binary = std::fs::File::open(input)
        .ok()
        .and_then(|mut f| {
            use std::io::Read;
            let mut magic = [0u8; 4];
            f.read_exact(&mut magic).ok().map(|_| &magic == b"CAFT")
        })
        .unwrap_or(false);
    let format = format.unwrap_or_else(|| {
        if input_is_binary {
            "text".to_owned()
        } else {
            "binary".to_owned()
        }
    });
    let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let mut w = BufWriter::new(file);
    match format.as_str() {
        "text" => cafa_trace::write_text(&trace, &mut w).map_err(|e| e.to_string())?,
        "binary" => cafa_trace::write_binary(&trace, &mut w).map_err(|e| e.to_string())?,
        other => return Err(format!("bad format `{other}` (text|binary)")),
    }
    w.flush().map_err(|e| e.to_string())?;
    println!("wrote {output} ({format})");
    Ok(())
}

fn cmd_dump(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let all = opt_flag(&mut args, "--all");
    let limit = opt_value(&mut args, "--limit")?
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad limit `{s}`")))
        .transpose()?;
    let [path] = args.as_slice() else {
        return Err("usage: cafa dump <trace> [--limit N] [--all]".to_owned());
    };
    let trace = load_trace(path)?;
    let options = cafa_trace::pretty::PrettyOptions {
        max_records_per_task: if all { usize::MAX } else { limit.unwrap_or(16) },
        skip_empty_tasks: !all,
    };
    print!("{}", cafa_trace::pretty::render(&trace, &options));
    Ok(())
}

fn cmd_order(rest: &[String]) -> Result<(), String> {
    let [path, task_a, idx_a, task_b, idx_b] = rest else {
        return Err("usage: cafa order <trace> <taskA> <indexA> <taskB> <indexB>".to_owned());
    };
    let trace = load_trace(path)?;
    let parse_task = |s: &str| -> Result<cafa_trace::TaskId, String> {
        let n: u32 = s
            .trim_start_matches('t')
            .parse()
            .map_err(|_| format!("bad task id `{s}` (expected e.g. t12)"))?;
        if (n as usize) < trace.task_count() {
            Ok(cafa_trace::TaskId::new(n))
        } else {
            Err(format!(
                "task {s} out of range (trace has {} tasks)",
                trace.task_count()
            ))
        }
    };
    let parse_idx = |s: &str| -> Result<u32, String> {
        s.parse().map_err(|_| format!("bad record index `{s}`"))
    };
    let a = cafa_trace::OpRef::new(parse_task(task_a)?, parse_idx(idx_a)?);
    let b = cafa_trace::OpRef::new(parse_task(task_b)?, parse_idx(idx_b)?);
    for at in [a, b] {
        if trace.get_record(at).is_none() {
            return Err(format!("{at} is out of range"));
        }
    }

    let session = AnalysisSession::new(&trace);
    let model = session
        .model(CausalityConfig::cafa())
        .map_err(|e| format!("model build failed: {e}"))?;
    let order = model.order(a, b);
    let (x, y) = if order == cafa_hb::OpOrder::After {
        (b, a)
    } else {
        (a, b)
    };
    let chain = model.explain(x, y);
    model
        .check()
        .map_err(|e| format!("happens-before query failed: {e}"))?;
    println!(
        "{} ({} in {})  vs  {} ({} in {})",
        a,
        trace.record(a).kind_tag(),
        trace.task_name(a.task),
        b,
        trace.record(b).kind_tag(),
        trace.task_name(b.task),
    );
    match order {
        cafa_hb::OpOrder::Same => {
            println!("=> the same operation");
            return Ok(());
        }
        cafa_hb::OpOrder::Concurrent => {
            println!("=> logically CONCURRENT under the CAFA model");
            return Ok(());
        }
        cafa_hb::OpOrder::Before | cafa_hb::OpOrder::After => {}
    }
    println!("=> {x} happens-before {y}; causal chain:");
    if let Some(chain) = chain {
        for step in chain {
            println!(
                "     {:?} in {} --[{:?}]--> {:?} in {}",
                step.from.point,
                trace.task_name(step.from.task),
                step.kind,
                step.to.point,
                trace.task_name(step.to.task),
            );
        }
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let format = opt_value(&mut args, "--format")?.unwrap_or_else(|| "text".to_owned());
    let [path] = args.as_slice() else {
        return Err("usage: cafa stats <trace> [--format text|json]".to_owned());
    };
    let trace = load_trace(path)?;
    let s = trace.stats();
    match format.as_str() {
        "text" => {}
        "json" => {
            // Stable machine-readable schema, mirroring the text lines.
            println!("{{");
            let app = trace.meta().app.replace('\\', "\\\\").replace('"', "\\\"");
            println!("  \"app\": \"{app}\",");
            println!("  \"seed\": {},", trace.meta().seed);
            println!("  \"virtual_ms\": {},", trace.meta().virtual_ms);
            println!("  \"processes\": {},", trace.process_count());
            println!("  \"queues\": {},", trace.queue_count());
            println!("  \"tasks\": {},", s.tasks);
            println!("  \"threads\": {},", s.threads);
            println!("  \"events\": {},", s.events);
            println!("  \"external_events\": {},", s.external_events);
            println!("  \"records\": {},", s.records);
            println!("  \"sync_records\": {},", s.sync_records);
            println!("  \"accesses\": {},", s.accesses);
            println!("  \"frees\": {},", s.frees);
            println!("  \"allocations\": {},", s.allocations);
            println!("  \"dereferences\": {},", s.derefs);
            println!("  \"guard_branches\": {},", s.guards);
            println!("  \"sends\": {}", s.sends);
            println!("}}");
            return Ok(());
        }
        other => return Err(format!("bad format `{other}` (text|json)")),
    }
    println!("app:             {}", trace.meta().app);
    println!("seed:            {}", trace.meta().seed);
    println!("virtual ms:      {}", trace.meta().virtual_ms);
    println!("processes:       {}", trace.process_count());
    println!("queues:          {}", trace.queue_count());
    println!(
        "tasks:           {} ({} threads, {} events)",
        s.tasks, s.threads, s.events
    );
    println!("external events: {}", s.external_events);
    println!("records:         {} ({} sync)", s.records, s.sync_records);
    println!("accesses:        {}", s.accesses);
    println!("frees:           {}", s.frees);
    println!("allocations:     {}", s.allocations);
    println!("dereferences:    {}", s.derefs);
    println!("guard branches:  {}", s.guards);
    println!("sends:           {}", s.sends);
    Ok(())
}
