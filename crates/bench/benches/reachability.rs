//! Criterion: happens-before query throughput — operation-level point
//! queries and event-level queries through the demand engine.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cafa_apps::all_apps;
use cafa_engine::AnalysisSession;
use cafa_hb::CausalityConfig;
use cafa_trace::OpRef;

fn bench_queries(c: &mut Criterion) {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.name == "ConnectBot").unwrap();
    let trace = app.record(0).unwrap().trace.unwrap();
    let model = AnalysisSession::new(&trace)
        .model(CausalityConfig::cafa())
        .unwrap();

    // A spread of query positions: first record of every 8th task.
    let points: Vec<OpRef> = trace
        .tasks()
        .filter(|t| trace.body_len(t.id) > 0)
        .step_by(8)
        .map(|t| OpRef::new(t.id, 0))
        .collect();

    let mut group = c.benchmark_group("reachability");
    group.sample_size(20);
    group.bench_function("point_queries_1k", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for (i, &a) in points.iter().enumerate().take(40) {
                for &bb in points.iter().skip(i + 1).take(25) {
                    if model.happens_before(black_box(a), black_box(bb)) {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.bench_function("event_order_matrix_10k", |b| {
        let events: Vec<_> = model.events().to_vec();
        b.iter(|| {
            let mut hits = 0u32;
            for (i, &e1) in events.iter().enumerate().take(100) {
                for &e2 in events.iter().skip(i + 1).take(100) {
                    if model.event_before(black_box(e1), e2) {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
