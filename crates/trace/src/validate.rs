//! Structural validation of traces.
//!
//! Builders uphold most invariants as they go; this module re-checks
//! everything from scratch so that deserialized (possibly hand-written or
//! corrupted) traces are safe to analyze. Every table it keeps is dense:
//! posting sites are indexed by task id, which the record checks have
//! already bounded, so a million-event trace costs a few linear passes
//! and no hashing.

use std::collections::BTreeMap;

use crate::error::TraceError;
use crate::ids::{MonitorId, OpRef, TaskId};
use crate::record::Record;
use crate::task::{EventOrigin, TaskKind};
use crate::trace::Trace;

/// Checks a trace for structural well-formedness.
///
/// Verified properties:
/// * every record's task/queue/listener/name references are in range;
/// * every event was processed exactly once, and each queue's processing
///   order is contiguous and consistent with per-event `seq`;
/// * every internally-posted event is named by exactly one
///   `Send`/`SendAtFront` record, at the position its origin claims, with
///   a matching queue and delay;
/// * `Fork`/`Join` children are threads, and a thread's `forked_at` site
///   holds the matching `Fork` record;
/// * lock/unlock are balanced within each task (events must release
///   everything they acquire — Android forbids an event handler returning
///   while holding a monitor). A task that ends holding several monitors
///   is reported with the lowest-id one.
///
/// # Errors
///
/// Returns the first [`TraceError`] found.
pub fn validate(trace: &Trace) -> Result<(), TraceError> {
    check_queues(trace)?;
    check_records(trace)?;
    check_origins(trace)?;
    check_locks(trace)?;
    Ok(())
}

fn check_queues(trace: &Trace) -> Result<(), TraceError> {
    for (qid, q) in trace.queues() {
        for (i, &event) in q.events.iter().enumerate() {
            if event.index() >= trace.task_count() {
                return Err(TraceError::BrokenQueueOrder { queue: qid });
            }
            let t = trace.task(event);
            match t.kind {
                TaskKind::Event { queue, seq, .. } if queue == qid && seq as usize == i => {}
                _ => return Err(TraceError::BrokenQueueOrder { queue: qid }),
            }
        }
    }
    for t in trace.events() {
        if let TaskKind::Event { queue, seq, .. } = t.kind {
            // A queue that does not exist processed nothing.
            let entry = trace
                .queues
                .get(queue.index())
                .and_then(|q| q.events.get(seq as usize));
            if entry != Some(&t.id) {
                return Err(TraceError::UnprocessedEvent { event: t.id });
            }
        }
    }
    Ok(())
}

fn check_records(trace: &Trace) -> Result<(), TraceError> {
    let dangling = |site: OpRef, what: &str| TraceError::DanglingId {
        site,
        what: what.to_owned(),
    };
    for (site, record) in trace.iter_ops() {
        match *record {
            Record::Fork { child } | Record::Join { child } => {
                if child.index() >= trace.task_count() {
                    return Err(dangling(site, "an unknown task"));
                }
                if !trace.task(child).is_thread() {
                    return Err(match record {
                        Record::Fork { .. } => TraceError::BadFork { child },
                        _ => TraceError::BadJoin { site },
                    });
                }
            }
            Record::Send { event, queue, .. } | Record::SendAtFront { event, queue } => {
                if event.index() >= trace.task_count() {
                    return Err(dangling(site, "an unknown event"));
                }
                let t = trace.task(event);
                match t.kind {
                    TaskKind::Event {
                        queue: declared, ..
                    } => {
                        if declared != queue {
                            return Err(TraceError::QueueMismatch {
                                event,
                                declared,
                                sent_to: queue,
                            });
                        }
                    }
                    TaskKind::Thread { .. } => {
                        return Err(dangling(site, "a thread as a send target"))
                    }
                }
            }
            Record::Register { listener } | Record::Perform { listener }
                if listener.index() >= trace.listener_count() =>
            {
                return Err(dangling(site, "an unknown listener"));
            }
            Record::MethodEnter { name, .. } if trace.names().get(name).is_none() => {
                return Err(dangling(site, "an unknown name"));
            }
            _ => {}
        }
    }
    // Thread fork-site back-pointers.
    for t in trace.threads() {
        if let TaskKind::Thread {
            forked_at: Some(at),
            ..
        } = t.kind
        {
            match trace.get_record(at) {
                Some(Record::Fork { child }) if *child == t.id => {}
                _ => return Err(TraceError::BadFork { child: t.id }),
            }
        }
    }
    Ok(())
}

/// Runs after [`check_records`], so every send target indexes `posted`.
fn check_origins(trace: &Trace) -> Result<(), TraceError> {
    // Event -> the posting site found in record bodies.
    let mut posted: Vec<Option<OpRef>> = vec![None; trace.task_count()];
    for (site, record) in trace.iter_ops() {
        let event = match *record {
            Record::Send { event, .. } | Record::SendAtFront { event, .. } => event,
            _ => continue,
        };
        let slot = &mut posted[event.index()];
        if let Some(first) = *slot {
            return Err(TraceError::DuplicateSend {
                event,
                first,
                second: site,
            });
        }
        *slot = Some(site);
    }
    for t in trace.events() {
        let origin = t.origin().expect("events have origins");
        let found = posted[t.id.index()];
        match origin {
            EventOrigin::Sent { send } | EventOrigin::SentAtFront { send } => {
                let matches_kind = found == Some(send)
                    && match trace.get_record(send) {
                        Some(Record::Send { .. }) => !origin.is_front(),
                        Some(Record::SendAtFront { .. }) => origin.is_front(),
                        _ => false,
                    };
                if !matches_kind {
                    return Err(TraceError::MissingSendRecord {
                        event: t.id,
                        site: send,
                    });
                }
            }
            EventOrigin::External { .. } => {
                if let Some(site) = found {
                    return Err(TraceError::DuplicateSend {
                        event: t.id,
                        first: site,
                        second: site,
                    });
                }
            }
        }
    }
    Ok(())
}

fn check_locks(trace: &Trace) -> Result<(), TraceError> {
    // Monitors the current task holds, with their hold counts (never 0).
    // Ordered, so a task ending with several held reports the lowest id.
    let mut held: BTreeMap<MonitorId, u32> = BTreeMap::new();
    for (t, body) in trace.bodies.iter().enumerate() {
        let task = TaskId::from_usize(t);
        for (i, r) in body.iter().enumerate() {
            match *r {
                Record::Lock { monitor, .. } => *held.entry(monitor).or_insert(0) += 1,
                Record::Unlock { monitor, .. } => match held.get_mut(&monitor) {
                    Some(1) => {
                        held.remove(&monitor);
                    }
                    Some(n) => *n -= 1,
                    None => {
                        return Err(TraceError::UnbalancedLock {
                            task,
                            monitor,
                            at: i as u32,
                        })
                    }
                },
                _ => {}
            }
        }
        if let Some((&monitor, _)) = held.first_key_value() {
            return Err(TraceError::UnbalancedLock {
                task,
                monitor,
                at: body.len() as u32,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::{ListenerId, MonitorId, NameId, Pc, QueueId};

    const MAIN: TaskId = TaskId::new(0);
    const SENT: TaskId = TaskId::new(1);
    const FRONT: TaskId = TaskId::new(2);
    const EXT: TaskId = TaskId::new(3);
    const WORKER: TaskId = TaskId::new(4);
    const Q0: QueueId = QueueId::new(0);

    /// A valid trace touching every check. `main`'s body is
    /// `[Send SENT, SendAtFront FRONT, Fork WORKER, Join WORKER]`; the
    /// three events run in id order on `q0`; `SENT` registers listener
    /// 0, `FRONT` performs it, `EXT` enters a named method.
    fn sample() -> Trace {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let l = b.add_listener("pkg");
        let e = b.post(t, q, "sent", 5);
        let f = b.post_front(t, q, "front");
        let x = b.external(q, "ext");
        let w = b.fork(t, p, "worker");
        b.join(t, w);
        assert_eq!((t, e, f, x, w), (MAIN, SENT, FRONT, EXT, WORKER));
        for ev in [e, f, x] {
            b.process_event(ev);
        }
        b.register(e, l);
        b.perform(f, l);
        b.method_enter(x, Pc::new(0x10), "m");
        b.finish().expect("sample is valid")
    }

    /// Validates `sample()` after `fault` has corrupted it.
    fn validate_with(fault: impl FnOnce(&mut Trace)) -> Result<(), TraceError> {
        let mut trace = sample();
        fault(&mut trace);
        validate(&trace)
    }

    fn at(task: TaskId, index: u32) -> OpRef {
        OpRef::new(task, index)
    }

    fn dangling(site: OpRef, what: &str) -> Result<(), TraceError> {
        Err(TraceError::DanglingId {
            site,
            what: what.to_owned(),
        })
    }

    #[test]
    fn valid_trace_passes() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let e = b.post(t, q, "ev", 3);
        b.process_event(e);
        let m = MonitorId::new(0);
        b.lock(t, m, 0);
        b.unlock(t, m, 0);
        let trace = b.finish_unchecked();
        assert_eq!(validate(&trace), Ok(()));
        assert_eq!(validate(&sample()), Ok(()));
    }

    #[test]
    fn queue_entry_out_of_range_breaks_queue_order() {
        let got = validate_with(|t| t.queues[0].events[1] = TaskId::new(99));
        assert_eq!(got, Err(TraceError::BrokenQueueOrder { queue: Q0 }));
    }

    #[test]
    fn queue_entry_at_the_wrong_seq_breaks_queue_order() {
        let got = validate_with(|t| t.queues[0].events.swap(0, 1));
        assert_eq!(got, Err(TraceError::BrokenQueueOrder { queue: Q0 }));
    }

    #[test]
    fn event_missing_from_its_queue_is_unprocessed() {
        let got = validate_with(|t| t.queues[0].events.truncate(2));
        assert_eq!(got, Err(TraceError::UnprocessedEvent { event: EXT }));
    }

    #[test]
    fn event_posted_to_an_unknown_queue_is_unprocessed() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        b.add_queue(p);
        let t = b.add_thread(p, "main");
        let ev = b.post(t, QueueId::new(9), "ev", 0);
        assert_eq!(b.finish(), Err(TraceError::UnprocessedEvent { event: ev }));
    }

    #[test]
    fn join_of_unknown_task_is_dangling() {
        let got = validate_with(|t| {
            t.bodies[0][3] = Record::Join {
                child: TaskId::new(99),
            }
        });
        assert_eq!(got, dangling(at(MAIN, 3), "an unknown task"));
    }

    #[test]
    fn fork_of_an_event_is_a_bad_fork() {
        let got = validate_with(|t| t.bodies[0][2] = Record::Fork { child: SENT });
        assert_eq!(got, Err(TraceError::BadFork { child: SENT }));
    }

    #[test]
    fn fork_site_without_its_fork_is_a_bad_fork() {
        let got = validate_with(|t| {
            t.tasks[WORKER.index()].kind = TaskKind::Thread {
                process: crate::ids::ProcessId::new(0),
                forked_at: Some(at(MAIN, 0)),
            }
        });
        assert_eq!(got, Err(TraceError::BadFork { child: WORKER }));
    }

    #[test]
    fn join_of_event_fails() {
        let got = validate_with(|t| t.bodies[0][3] = Record::Join { child: EXT });
        assert_eq!(got, Err(TraceError::BadJoin { site: at(MAIN, 3) }));
    }

    #[test]
    fn send_of_unknown_event_is_dangling() {
        let got = validate_with(|t| {
            t.bodies[0][0] = Record::Send {
                event: TaskId::new(99),
                queue: Q0,
                delay_ms: 5,
            }
        });
        assert_eq!(got, dangling(at(MAIN, 0), "an unknown event"));
    }

    #[test]
    fn send_of_a_thread_is_dangling() {
        let got = validate_with(|t| {
            t.bodies[0][0] = Record::Send {
                event: WORKER,
                queue: Q0,
                delay_ms: 5,
            }
        });
        assert_eq!(got, dangling(at(MAIN, 0), "a thread as a send target"));
    }

    #[test]
    fn send_to_wrong_queue_fails() {
        let got = validate_with(|t| {
            t.bodies[0][0] = Record::Send {
                event: SENT,
                queue: QueueId::new(7),
                delay_ms: 5,
            }
        });
        assert_eq!(
            got,
            Err(TraceError::QueueMismatch {
                event: SENT,
                declared: Q0,
                sent_to: QueueId::new(7),
            })
        );
    }

    #[test]
    fn unknown_listener_is_dangling() {
        let got = validate_with(|t| {
            t.bodies[FRONT.index()][0] = Record::Perform {
                listener: ListenerId::new(1),
            }
        });
        assert_eq!(got, dangling(at(FRONT, 0), "an unknown listener"));
    }

    #[test]
    fn unknown_method_name_is_dangling() {
        let got = validate_with(|t| {
            t.bodies[EXT.index()][0] = Record::MethodEnter {
                pc: Pc::new(0x10),
                name: NameId::new(999),
            }
        });
        assert_eq!(got, dangling(at(EXT, 0), "an unknown name"));
    }

    #[test]
    fn duplicate_send_fails() {
        let got = validate_with(|t| {
            t.bodies[0].push(Record::Send {
                event: SENT,
                queue: Q0,
                delay_ms: 0,
            })
        });
        assert_eq!(
            got,
            Err(TraceError::DuplicateSend {
                event: SENT,
                first: at(MAIN, 0),
                second: at(MAIN, 4),
            })
        );
    }

    #[test]
    fn send_of_an_external_event_is_a_duplicate_send() {
        let got = validate_with(|t| {
            t.bodies[0].push(Record::Send {
                event: EXT,
                queue: Q0,
                delay_ms: 0,
            })
        });
        assert_eq!(
            got,
            Err(TraceError::DuplicateSend {
                event: EXT,
                first: at(MAIN, 4),
                second: at(MAIN, 4),
            })
        );
    }

    #[test]
    fn origin_away_from_the_send_is_a_missing_send_record() {
        let got = validate_with(|t| {
            if let TaskKind::Event { origin, .. } = &mut t.tasks[SENT.index()].kind {
                *origin = EventOrigin::Sent { send: at(MAIN, 3) };
            }
        });
        assert_eq!(
            got,
            Err(TraceError::MissingSendRecord {
                event: SENT,
                site: at(MAIN, 3),
            })
        );
    }

    #[test]
    fn send_of_the_wrong_kind_is_a_missing_send_record() {
        let got = validate_with(|t| {
            t.bodies[0][1] = Record::Send {
                event: FRONT,
                queue: Q0,
                delay_ms: 0,
            }
        });
        assert_eq!(
            got,
            Err(TraceError::MissingSendRecord {
                event: FRONT,
                site: at(MAIN, 1),
            })
        );
    }

    #[test]
    fn unlock_without_lock_fails() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        b.unlock(t, MonitorId::new(0), 0);
        let trace = b.finish_unchecked();
        assert_eq!(
            validate(&trace),
            Err(TraceError::UnbalancedLock {
                task: t,
                monitor: MonitorId::new(0),
                at: 0,
            })
        );
    }

    #[test]
    fn ending_while_holding_lock_fails() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        b.lock(t, MonitorId::new(1), 0);
        let trace = b.finish_unchecked();
        assert_eq!(
            validate(&trace),
            Err(TraceError::UnbalancedLock {
                task: t,
                monitor: MonitorId::new(1),
                at: 1,
            })
        );
    }

    /// A task that ends holding several monitors always reports the
    /// lowest-id one, whatever order they were taken in.
    #[test]
    fn ending_while_holding_many_locks_reports_the_lowest_monitor() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        for m in [2, 0, 3, 1] {
            b.lock(t, MonitorId::new(m), 0);
        }
        let trace = b.finish_unchecked();
        for _ in 0..200 {
            assert_eq!(
                validate(&trace),
                Err(TraceError::UnbalancedLock {
                    task: t,
                    monitor: MonitorId::new(0),
                    at: 4,
                })
            );
        }
    }

    #[test]
    fn nested_and_reentrant_locks_pass() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        let m = MonitorId::new(0);
        b.lock(t, m, 0);
        b.lock(t, m, 1);
        b.unlock(t, m, 1);
        b.unlock(t, m, 0);
        let trace = b.finish_unchecked();
        assert_eq!(validate(&trace), Ok(()));
    }
}
