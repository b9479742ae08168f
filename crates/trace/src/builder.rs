//! Incremental construction of a [`Trace`].
//!
//! [`TraceBuilder`] plays the role of the paper's instrumentation stack
//! (§5): callers append records in per-task program order and the builder
//! wires up the cross-task structure — event origins, queue processing
//! orders, fork sites — then checks global well-formedness in
//! [`finish`](TraceBuilder::finish).

use crate::error::TraceError;
use crate::ids::{
    ListenerId, MonitorId, ObjId, OpRef, Pc, ProcessId, QueueId, TaskId, TxnId, VarId,
};
use crate::interner::Interner;
use crate::record::{BranchKind, DerefKind, Record};
use crate::task::{EventOrigin, ListenerInfo, QueueInfo, TaskInfo, TaskKind};
use crate::trace::{Trace, TraceMeta};
use crate::validate::validate;

/// Sentinel for an event that has been posted but not yet processed.
const UNPROCESSED: u32 = u32::MAX;

/// Builds a [`Trace`] record by record.
///
/// # Examples
///
/// ```
/// use cafa_trace::{TraceBuilder, VarId, Pc, ObjId};
///
/// let mut b = TraceBuilder::new("quickstart");
/// let proc = b.add_process();
/// let queue = b.add_queue(proc);
/// let main = b.add_thread(proc, "main");
///
/// // main posts two events to the looper.
/// let resume = b.post(main, queue, "onResume", 0);
/// let destroy = b.post(main, queue, "onDestroy", 0);
///
/// b.process_event(resume);
/// b.obj_write(resume, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
/// b.process_event(destroy);
/// b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));
///
/// let trace = b.finish().expect("well-formed trace");
/// assert_eq!(trace.stats().events, 2);
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    meta: TraceMeta,
    names: Interner,
    tasks: Vec<TaskInfo>,
    bodies: Vec<Vec<Record>>,
    queues: Vec<QueueInfo>,
    listeners: Vec<ListenerInfo>,
    external_order: Vec<TaskId>,
    process_count: u32,
    next_txn: u32,
}

impl TraceBuilder {
    /// Starts a trace for application `app`.
    pub fn new(app: impl Into<String>) -> Self {
        Self {
            meta: TraceMeta {
                app: app.into(),
                seed: 0,
                virtual_ms: 0,
            },
            names: Interner::new(),
            tasks: Vec::new(),
            bodies: Vec::new(),
            queues: Vec::new(),
            listeners: Vec::new(),
            external_order: Vec::new(),
            process_count: 0,
            next_txn: 0,
        }
    }

    /// Records the seed the execution ran with.
    pub fn set_seed(&mut self, seed: u64) {
        self.meta.seed = seed;
    }

    /// Records the virtual duration of the execution.
    pub fn set_virtual_ms(&mut self, ms: u64) {
        self.meta.virtual_ms = ms;
    }

    /// Interner access, for callers that pre-intern names.
    pub fn names_mut(&mut self) -> &mut Interner {
        &mut self.names
    }

    // ---- structure -----------------------------------------------------

    /// Registers a new simulated process.
    pub fn add_process(&mut self) -> ProcessId {
        let id = ProcessId::new(self.process_count);
        self.process_count += 1;
        id
    }

    /// Registers a new event queue drained by a looper in `process`.
    pub fn add_queue(&mut self, process: ProcessId) -> QueueId {
        let id = QueueId::from_usize(self.queues.len());
        self.queues.push(QueueInfo {
            process: Some(process),
            events: Vec::new(),
        });
        id
    }

    /// Registers an initial (non-forked) thread of `process`.
    pub fn add_thread(&mut self, process: ProcessId, name: &str) -> TaskId {
        let name = self.names.intern(name);
        self.push_task(
            TaskKind::Thread {
                process,
                forked_at: None,
            },
            name,
        )
    }

    /// Registers a listener identity belonging to `package`.
    pub fn add_listener(&mut self, package: &str) -> ListenerId {
        let package = self.names.intern(package);
        let id = ListenerId::from_usize(self.listeners.len());
        self.listeners.push(ListenerInfo { package });
        id
    }

    /// Allocates a fresh Binder transaction id.
    pub fn new_txn(&mut self) -> TxnId {
        let id = TxnId::new(self.next_txn);
        self.next_txn += 1;
        id
    }

    fn push_task(&mut self, kind: TaskKind, name: crate::ids::NameId) -> TaskId {
        let id = TaskId::from_usize(self.tasks.len());
        self.tasks.push(TaskInfo { id, kind, name });
        self.bodies.push(Vec::new());
        id
    }

    // ---- raw record append ----------------------------------------------

    /// Appends a raw record to `task`'s body and returns its position.
    ///
    /// Prefer the typed helpers below; they keep the cross-task structure
    /// consistent. This low-level entry point does **not** wire event
    /// origins for `Send` records.
    pub fn push(&mut self, task: TaskId, record: Record) -> OpRef {
        let body = &mut self.bodies[task.index()];
        let at = OpRef::new(task, body.len() as u32);
        body.push(record);
        at
    }

    // ---- typed sync helpers ----------------------------------------------

    /// Forks a new thread from `parent` and returns the child's id. The
    /// child runs in `process` (an event forks threads into its looper's
    /// process; pass [`TraceBuilder::process_of`] when unsure).
    pub fn fork(&mut self, parent: TaskId, process: ProcessId, name: &str) -> TaskId {
        let name = self.names.intern(name);
        let child = self.push_task(
            TaskKind::Thread {
                process,
                forked_at: None,
            },
            name,
        );
        let site = self.push(parent, Record::Fork { child });
        match &mut self.tasks[child.index()].kind {
            TaskKind::Thread { forked_at, .. } => *forked_at = Some(site),
            TaskKind::Event { .. } => unreachable!("just created as thread"),
        }
        child
    }

    /// Appends a `join` of `child` to `task`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is not a thread.
    pub fn join(&mut self, task: TaskId, child: TaskId) -> OpRef {
        assert!(
            self.tasks[child.index()].is_thread(),
            "join target {child} must be a thread"
        );
        self.push(task, Record::Join { child })
    }

    /// Appends a `wait` on `monitor`, woken by notification generation
    /// `gen`.
    pub fn wait(&mut self, task: TaskId, monitor: MonitorId, gen: u32) -> OpRef {
        self.push(task, Record::Wait { monitor, gen })
    }

    /// Appends a `notify` of `monitor` with generation `gen`.
    pub fn notify(&mut self, task: TaskId, monitor: MonitorId, gen: u32) -> OpRef {
        self.push(task, Record::Notify { monitor, gen })
    }

    /// Appends a `lock` of `monitor` as its `gen`-th acquisition.
    pub fn lock(&mut self, task: TaskId, monitor: MonitorId, gen: u32) -> OpRef {
        self.push(task, Record::Lock { monitor, gen })
    }

    /// Appends an `unlock` of `monitor`, releasing acquisition `gen`.
    pub fn unlock(&mut self, task: TaskId, monitor: MonitorId, gen: u32) -> OpRef {
        self.push(task, Record::Unlock { monitor, gen })
    }

    /// Posts a new event to `queue` from `from` with the given delay and
    /// returns the event's task id. Emits the `Send` record and wires the
    /// event's origin to it.
    pub fn post(&mut self, from: TaskId, queue: QueueId, name: &str, delay_ms: u64) -> TaskId {
        let name = self.names.intern(name);
        let event = self.push_task(
            TaskKind::Event {
                queue,
                seq: UNPROCESSED,
                origin: EventOrigin::External { sequence: 0 }, // patched below
                delay_ms,
            },
            name,
        );
        let site = self.push(
            from,
            Record::Send {
                event,
                queue,
                delay_ms,
            },
        );
        self.set_origin(event, EventOrigin::Sent { send: site });
        event
    }

    /// Posts a new event at the *front* of `queue` (Android's
    /// `sendMessageAtFrontOfQueue`). No delay is allowed (§3.3).
    pub fn post_front(&mut self, from: TaskId, queue: QueueId, name: &str) -> TaskId {
        let name = self.names.intern(name);
        let event = self.push_task(
            TaskKind::Event {
                queue,
                seq: UNPROCESSED,
                origin: EventOrigin::External { sequence: 0 }, // patched below
                delay_ms: 0,
            },
            name,
        );
        let site = self.push(from, Record::SendAtFront { event, queue });
        self.set_origin(event, EventOrigin::SentAtFront { send: site });
        event
    }

    /// Creates an event generated by the external world (user input,
    /// sensor, network). External events are totally ordered among
    /// themselves by generation order (§3.3, external-input rule).
    pub fn external(&mut self, queue: QueueId, name: &str) -> TaskId {
        let name = self.names.intern(name);
        let sequence = self.external_order.len() as u32;
        let event = self.push_task(
            TaskKind::Event {
                queue,
                seq: UNPROCESSED,
                origin: EventOrigin::External { sequence },
                delay_ms: 0,
            },
            name,
        );
        self.external_order.push(event);
        event
    }

    fn set_origin(&mut self, event: TaskId, origin: EventOrigin) {
        match &mut self.tasks[event.index()].kind {
            TaskKind::Event { origin: o, .. } => *o = origin,
            TaskKind::Thread { .. } => unreachable!("just created as event"),
        }
    }

    /// Marks `event` as the next event processed by its queue's looper,
    /// assigning its processing sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not an event or was already processed.
    pub fn process_event(&mut self, event: TaskId) -> u32 {
        let queue = match self.tasks[event.index()].kind {
            TaskKind::Event { queue, seq, .. } => {
                assert_eq!(seq, UNPROCESSED, "event {event} processed twice");
                queue
            }
            TaskKind::Thread { .. } => panic!("task {event} is not an event"),
        };
        let q = &mut self.queues[queue.index()];
        let seq = q.events.len() as u32;
        q.events.push(event);
        match &mut self.tasks[event.index()].kind {
            TaskKind::Event { seq: s, .. } => *s = seq,
            TaskKind::Thread { .. } => unreachable!(),
        }
        seq
    }

    /// Appends a `register` of `listener`.
    pub fn register(&mut self, task: TaskId, listener: ListenerId) -> OpRef {
        self.push(task, Record::Register { listener })
    }

    /// Appends a `perform` of `listener`.
    pub fn perform(&mut self, task: TaskId, listener: ListenerId) -> OpRef {
        self.push(task, Record::Perform { listener })
    }

    /// Appends the caller side of an RPC; returns the transaction id and
    /// the record position.
    pub fn rpc_call(&mut self, task: TaskId) -> (TxnId, OpRef) {
        let txn = self.new_txn();
        let at = self.push(task, Record::RpcCall { txn });
        (txn, at)
    }

    /// Appends the service-side receipt of transaction `txn`.
    pub fn rpc_handle(&mut self, task: TaskId, txn: TxnId) -> OpRef {
        self.push(task, Record::RpcHandle { txn })
    }

    /// Appends the service-side completion of transaction `txn`.
    pub fn rpc_reply(&mut self, task: TaskId, txn: TxnId) -> OpRef {
        self.push(task, Record::RpcReply { txn })
    }

    /// Appends the caller-side receipt of the reply to `txn`.
    pub fn rpc_receive(&mut self, task: TaskId, txn: TxnId) -> OpRef {
        self.push(task, Record::RpcReceive { txn })
    }

    // ---- typed data helpers ----------------------------------------------

    /// Appends a scalar read of `var`.
    pub fn read(&mut self, task: TaskId, var: VarId) -> OpRef {
        self.push(task, Record::Read { var })
    }

    /// Appends a scalar write of `var`.
    pub fn write(&mut self, task: TaskId, var: VarId) -> OpRef {
        self.push(task, Record::Write { var })
    }

    /// Appends a pointer read of `var` observing `obj`.
    pub fn obj_read(&mut self, task: TaskId, var: VarId, obj: Option<ObjId>, pc: Pc) -> OpRef {
        self.push(task, Record::ObjRead { var, obj, pc })
    }

    /// Appends a pointer write of `value` into `var` (a free when
    /// `value` is `None`).
    pub fn obj_write(&mut self, task: TaskId, var: VarId, value: Option<ObjId>, pc: Pc) -> OpRef {
        self.push(task, Record::ObjWrite { var, value, pc })
    }

    /// Appends a dereference of `obj`.
    pub fn deref(&mut self, task: TaskId, obj: ObjId, pc: Pc, kind: DerefKind) -> OpRef {
        self.push(task, Record::Deref { obj, pc, kind })
    }

    /// Appends a guard-branch record proving `obj` non-null.
    pub fn guard(
        &mut self,
        task: TaskId,
        kind: BranchKind,
        pc: Pc,
        target: Pc,
        obj: ObjId,
    ) -> OpRef {
        self.push(
            task,
            Record::Guard {
                kind,
                pc,
                target,
                obj,
            },
        )
    }

    /// Appends a method-entry record.
    pub fn method_enter(&mut self, task: TaskId, pc: Pc, name: &str) -> OpRef {
        let name = self.names.intern(name);
        self.push(task, Record::MethodEnter { pc, name })
    }

    /// Appends a method-exit record.
    pub fn method_exit(&mut self, task: TaskId, pc: Pc, exceptional: bool) -> OpRef {
        self.push(task, Record::MethodExit { pc, exceptional })
    }

    // ---- queries ----------------------------------------------------------

    /// The process a task runs in (an event runs in its queue's looper
    /// process).
    pub fn process_of(&self, task: TaskId) -> ProcessId {
        match self.tasks[task.index()].kind {
            TaskKind::Thread { process, .. } => process,
            TaskKind::Event { queue, .. } => self.queues[queue.index()]
                .process
                .expect("queue has a looper process"),
        }
    }

    /// Current length of a task's body (the index the next record will
    /// get).
    pub fn body_len(&self, task: TaskId) -> u32 {
        self.bodies[task.index()].len() as u32
    }

    /// Number of tasks created so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    // ---- completion ---------------------------------------------------------

    /// Finishes the trace, validating global well-formedness.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if any event was never processed, a send
    /// origin is inconsistent, locks are unbalanced, or any record
    /// references a dangling id. See [`validate`] for the full list.
    pub fn finish(self) -> Result<Trace, TraceError> {
        let trace = Trace {
            meta: self.meta,
            names: self.names,
            tasks: self.tasks,
            bodies: self.bodies,
            queues: self.queues,
            listeners: self.listeners,
            external_order: self.external_order,
            process_count: self.process_count,
        };
        validate(&trace)?;
        Ok(trace)
    }

    /// Finishes the trace **without** validation. Intended for tests that
    /// deliberately construct ill-formed traces.
    pub fn finish_unchecked(self) -> Trace {
        Trace {
            meta: self.meta,
            names: self.names,
            tasks: self.tasks,
            bodies: self.bodies,
            queues: self.queues,
            listeners: self.listeners,
            external_order: self.external_order,
            process_count: self.process_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_figure1_shape() {
        // The MyTracks scenario of Figure 1: looper events onResume,
        // onServiceConnected, onDestroy plus an RPC thread.
        let mut b = TraceBuilder::new("MyTracks");
        let app = b.add_process();
        let svc = b.add_process();
        let q = b.add_queue(app);
        let ipc = b.add_thread(svc, "binder-ipc");

        let resume = b.external(q, "onResume");
        b.process_event(resume);
        let (txn, _) = b.rpc_call(resume);
        b.rpc_handle(ipc, txn);
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        b.obj_read(connected, VarId::new(0), Some(ObjId::new(7)), Pc::new(0x10));
        b.deref(connected, ObjId::new(7), Pc::new(0x14), DerefKind::Invoke);
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));

        let trace = b.finish().expect("well-formed");
        assert_eq!(trace.stats().events, 3);
        assert_eq!(trace.stats().threads, 1);
        assert_eq!(trace.external_events().len(), 2);
        assert_eq!(trace.queue(q).events.len(), 3);

        // The sent event's origin points at the Send record.
        let origin = trace.task(connected).origin().unwrap();
        let site = origin.send_site().unwrap();
        assert!(matches!(trace.record(site), Record::Send { event, .. } if *event == connected));
    }

    #[test]
    fn unprocessed_event_is_rejected() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let orphan = b.post(t, q, "ev", 0);
        let err = b.finish().unwrap_err();
        assert_eq!(err, TraceError::UnprocessedEvent { event: orphan });
    }

    #[test]
    #[should_panic(expected = "processed twice")]
    fn double_processing_panics() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let e = b.post(t, q, "ev", 0);
        b.process_event(e);
        b.process_event(e);
    }

    #[test]
    fn fork_wires_forked_at() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        let child = b.fork(main, p, "worker");
        b.join(main, child);
        let trace = b.finish().unwrap();
        match trace.task(child).kind {
            TaskKind::Thread {
                forked_at: Some(site),
                ..
            } => {
                assert!(matches!(trace.record(site), Record::Fork { child: c } if *c == child));
            }
            _ => panic!("child should record its fork site"),
        }
    }

    #[test]
    fn external_events_keep_generation_order() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let q = b.add_queue(p);
        let e1 = b.external(q, "touch1");
        let e2 = b.external(q, "touch2");
        b.process_event(e2); // processed out of generation order
        b.process_event(e1);
        let trace = b.finish().unwrap();
        assert_eq!(trace.external_events(), &[e1, e2]);
        assert_eq!(trace.task(e2).seq(), Some(0));
        assert_eq!(trace.task(e1).seq(), Some(1));
    }

    #[test]
    fn txn_ids_are_unique() {
        let mut b = TraceBuilder::new("app");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        let (x1, _) = b.rpc_call(t);
        let (x2, _) = b.rpc_call(t);
        assert_ne!(x1, x2);
    }
}
