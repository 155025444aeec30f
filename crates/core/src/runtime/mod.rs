//! The software environments: shared runtime machinery.
//!
//! The paper ships two software environments — C++20 coroutines and
//! FreeRTOS — that differ in programming model and context-switch cost but
//! share the same structure: operations build transactions, a task scheduler
//! decides which operation runs, a transaction scheduler feeds the hardware
//! instruction queue, and completions wake the blocked operation (§V).
//!
//! This module implements that shared structure once, as [`SoftRuntime`].
//! The two flavours plug in as [`SoftTask`] implementations:
//!
//! * [`coro`] — operations are `async fn`s polled by a tiny deterministic
//!   executor (the C++20-coroutines analogue);
//! * [`rtos`] — operations are explicit state machines (the FreeRTOS
//!   analogue: more expertise demanded, lighter runtime).
//!
//! Every software action charges the CPU model, so the same controller
//! logic slows down on a 150 MHz soft-core exactly the way Figure 10 shows.
//!
//! Host cost: the runtime's tables are dense `Vec`s indexed by task id or
//! LUN, and a transaction carries its own routing (owning task, local
//! ticket, trace attribution) from the ready list through the hardware
//! queue to the single in-flight slot. Scheduling a transaction therefore
//! hashes nothing, and the scheduler and the μFSM emitter reuse buffers the
//! runtime owns instead of allocating per pick or per transaction.

pub mod coro;
pub mod rtos;

use std::collections::VecDeque;
use std::fmt;

use babol_sim::{BufPool, PageBuf, SimDuration, SimTime};
use babol_trace::{Component, Counter, Metric, TraceKind, TraceSink};
use babol_ufsm::{execute_with, EmitScratch, Transaction};

use crate::sched::{TaskMeta, TaskPolicy, TxnMeta, TxnPolicy};
use crate::system::{Controller, Event, IoRequest, System};

/// Task identifier inside a runtime.
pub type TaskId = usize;

/// A finished task: id, completion time, and outcome (`None` when the task
/// ended without reporting one).
pub type FinishedTask = (TaskId, SimTime, Option<Result<(), OpError>>);

/// Builds the software task serving one I/O request.
pub type TaskFactory = Box<dyn FnMut(&IoRequest) -> Box<dyn SoftTask>>;

/// Result of one completed transaction, delivered to the owning task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnResult {
    /// Bytes returned inline (status bytes, feature values, IDs).
    pub inline: Vec<u8>,
    /// When the transaction finished on the bus.
    pub end: SimTime,
}

/// Why an operation finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The LUN reported FAIL status.
    Failed {
        /// The raw status byte.
        status: u8,
    },
    /// Data failed ECC even after retries.
    Uncorrectable,
    /// The operation gave up waiting.
    Timeout,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Failed { status } => write!(f, "operation failed, status {status:#04x}"),
            OpError::Uncorrectable => write!(f, "uncorrectable data"),
            OpError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for OpError {}

/// Per-task communication area between the runtime and the operation body.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Simulated time at the start of the current advance.
    pub now: SimTime,
    next_local: u64,
    /// Transactions built during the current advance (local ticket, txn).
    pub outbox: Vec<(u64, Transaction)>,
    /// Results delivered by the runtime, keyed by local ticket. A task
    /// awaits at most a handful of transactions, so this is a short list.
    pub results: Vec<(u64, TxnResult)>,
    /// Sleep request set during the current advance.
    pub sleep: Option<SimDuration>,
    /// DRAM staging writes requested during the current advance (the CPU
    /// preparing buffers the Packetizer will read). Payloads come from the
    /// system's buffer pool; see [`Mailbox::stage`].
    pub staged: Vec<(u64, PageBuf)>,
    /// Page-buffer pool shared with the rest of the system, attached by the
    /// runtime at spawn time.
    pub pool: BufPool,
    /// Straight-line work steps performed during the current advance.
    pub steps: u32,
    /// Final outcome, set by the operation before finishing.
    pub outcome: Option<Result<(), OpError>>,
    /// Poll-pacing interval inherited from the runtime configuration.
    pub poll_backoff: SimDuration,
    /// The LUN the operation targets (scheduling metadata).
    pub lun: u32,
    /// Task priority (scheduling metadata).
    pub priority: u8,
    /// Host request id the operation serves (trace attribution; 0 for
    /// anonymous tasks).
    pub op_id: u64,
}

impl Mailbox {
    /// Allocates a local ticket and queues `txn` for submission.
    pub fn submit(&mut self, txn: Transaction) -> u64 {
        let t = self.next_local;
        self.next_local += 1;
        self.outbox.push((t, txn));
        t
    }

    /// Takes the result for `ticket` if it has been delivered.
    pub fn take_result(&mut self, ticket: u64) -> Option<TxnResult> {
        let i = self.results.iter().position(|(t, _)| *t == ticket)?;
        Some(self.results.swap_remove(i).1)
    }

    /// Queues a DRAM staging write of `bytes` at `addr`, copying once into
    /// a pooled buffer.
    pub fn stage(&mut self, addr: u64, bytes: &[u8]) {
        let mut buf = self.pool.acquire();
        buf.extend_from_slice(bytes);
        self.staged.push((addr, buf.freeze()));
    }
}

/// Progress of a task after one advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Blocked on a transaction result or a timer.
    Blocked,
    /// Ran to completion.
    Finished,
}

/// A schedulable operation. Implemented by coroutine tasks ([`coro`]) and
/// RTOS state-machine tasks ([`rtos`]).
pub trait SoftTask {
    /// Runs the task until it blocks or finishes. `now` is the simulated
    /// time of this scheduling slot.
    fn advance(&mut self, now: SimTime) -> TaskStatus;
    /// Drains transactions built during the last advance.
    fn drain_outbox(&mut self) -> Vec<(u64, Transaction)>;
    /// Delivers a transaction result.
    fn deliver(&mut self, local_ticket: u64, result: TxnResult);
    /// Takes a pending sleep request.
    fn take_sleep(&mut self) -> Option<SimDuration>;
    /// Drains DRAM staging writes requested during the last advance into
    /// `out` (an out-parameter so the runtime reuses one scratch vector).
    fn drain_staged(&mut self, out: &mut Vec<(u64, PageBuf)>);
    /// Connects the task's mailbox to the system's buffer pool. Called by
    /// the runtime at spawn time; tasks without staging may ignore it.
    fn attach_pool(&mut self, _pool: &BufPool) {}
    /// Takes the count of body steps executed during the last advance.
    fn take_steps(&mut self) -> u32;
    /// Takes the final outcome (valid once finished).
    fn take_outcome(&mut self) -> Option<Result<(), OpError>>;
    /// Scheduling metadata.
    fn meta(&self) -> TaskMeta;
    /// The host request id this task serves, for trace attribution
    /// (0 when the task is anonymous — boot, calibration, tests).
    fn op_id(&self) -> u64 {
        0
    }
}

/// Configuration of a software runtime instance.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Cycle costs of software actions (coroutine vs RTOS).
    pub cost: babol_sim::CostModel,
    /// Task scheduling policy.
    pub task_policy: TaskPolicy,
    /// Transaction scheduling policy.
    pub txn_policy: TxnPolicy,
    /// Hardware instruction queue depth (transaction look-ahead).
    pub lookahead: usize,
    /// Hardware issue latency between queued transactions.
    pub issue_gap: SimDuration,
    /// Maximum concurrently admitted operations.
    pub admission: usize,
    /// Pacing interval of status-poll loops: after a busy status, the
    /// operation is rescheduled after this long rather than hot-spinning.
    /// This quantum plus the per-action cycle costs produce the polling
    /// periods of the paper's Fig. 11 (~30 µs coroutine, ~2.5 µs RTOS at
    /// 1 GHz).
    pub poll_backoff: SimDuration,
}

impl RuntimeConfig {
    /// The coroutine software environment, as configured in the paper's
    /// experiments.
    pub fn coroutine() -> Self {
        RuntimeConfig {
            cost: babol_sim::CostModel::coroutine(),
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            issue_gap: SimDuration::from_nanos(150),
            admission: 64,
            poll_backoff: SimDuration::from_nanos(24_000),
        }
    }

    /// The RTOS software environment.
    pub fn rtos() -> Self {
        RuntimeConfig {
            cost: babol_sim::CostModel::rtos(),
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            issue_gap: SimDuration::from_nanos(150),
            admission: 64,
            poll_backoff: SimDuration::from_nanos(1_400),
        }
    }
}

/// Where a transaction's completion goes, and how traced runs attribute
/// it. Travels with the transaction from the ready list to the in-flight
/// slot.
#[derive(Debug, Clone, Copy)]
struct TxnRoute {
    ticket: u64,
    /// Owning task and its local ticket.
    task: TaskId,
    local: u64,
    /// Enqueue time, LUN and op id (traced runs only).
    info: Option<(SimTime, u32, u64)>,
}

#[derive(Debug)]
struct ReadyTxn {
    route: TxnRoute,
    txn: Transaction,
    meta: TxnMeta,
    avail: SimTime,
}

#[derive(Debug)]
struct HwEntry {
    route: TxnRoute,
    txn: Transaction,
    avail: SimTime,
}

/// The one transaction on the bus and its result, held until its
/// `TxnDone` event fires.
#[derive(Debug)]
struct InFlight {
    route: TxnRoute,
    end: SimTime,
    inline: Vec<u8>,
}

/// The shared software runtime: task scheduling, transaction scheduling,
/// hardware instruction queue, completion routing.
pub struct SoftRuntime {
    cfg: RuntimeConfig,
    tasks: Vec<Option<Box<dyn SoftTask>>>,
    free_ids: Vec<TaskId>,
    active: usize,
    runnable: VecDeque<TaskId>,
    /// Sleeping tasks by timer tag (few at a time; unordered).
    sleeping: Vec<(u64, TaskId)>,
    ready: Vec<ReadyTxn>,
    hw_queue: VecDeque<HwEntry>,
    in_flight: Option<InFlight>,
    next_ticket: u64,
    next_timer: u64,
    last_task_lun: u32,
    last_txn_lun: u32,
    /// Per LUN: whether an operation is currently admitted (the task
    /// scheduler admits "an operation when a given package is available",
    /// paper §V). Indexed by LUN id, grown on first use.
    lun_active: Vec<bool>,
    /// Per LUN: tasks parked until the LUN frees up.
    lun_parked: Vec<VecDeque<TaskId>>,
    finished: Vec<FinishedTask>,
    /// Cumulative count of issued transactions (stats).
    pub txns_issued: u64,
    /// Per task id: when the task entered the runnable queue (traced runs
    /// only; feeds the scheduler pick-wait histogram).
    runnable_since: Vec<Option<SimTime>>,
    /// Reused receptacle for staged DRAM writes drained each pump pass.
    staged_scratch: Vec<(u64, PageBuf)>,
    /// Reused candidate lists for the task and transaction schedulers.
    task_metas: Vec<TaskMeta>,
    txn_metas: Vec<TxnMeta>,
    /// Reused phase buffers for the μFSM emitter.
    emit_scratch: EmitScratch,
}

impl fmt::Debug for SoftRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftRuntime")
            .field("active", &self.active)
            .field("runnable", &self.runnable.len())
            .field("hw_queue", &self.hw_queue.len())
            .finish()
    }
}

impl SoftRuntime {
    /// Creates an empty runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        SoftRuntime {
            cfg,
            tasks: Vec::new(),
            free_ids: Vec::new(),
            active: 0,
            runnable: VecDeque::new(),
            sleeping: Vec::new(),
            ready: Vec::new(),
            hw_queue: VecDeque::new(),
            in_flight: None,
            next_ticket: 0,
            next_timer: 0,
            last_task_lun: 0,
            last_txn_lun: 0,
            lun_active: Vec::new(),
            lun_parked: Vec::new(),
            finished: Vec::new(),
            txns_issued: 0,
            runnable_since: Vec::new(),
            staged_scratch: Vec::new(),
            task_metas: Vec::new(),
            txn_metas: Vec::new(),
            emit_scratch: EmitScratch::default(),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Number of admitted, unfinished tasks.
    pub fn active_tasks(&self) -> usize {
        self.active
    }

    /// Admits a task; returns its id. The caller should schedule a
    /// zero-delay [`Event::CpuDone`] so the pump runs.
    pub fn spawn(&mut self, sys: &mut System, mut task: Box<dyn SoftTask>) -> TaskId {
        task.attach_pool(sys.pool());
        let lun = task.meta().lun;
        let op_id = task.op_id();
        let tid = if let Some(tid) = self.free_ids.pop() {
            self.tasks[tid] = Some(task);
            tid
        } else {
            self.tasks.push(Some(task));
            self.runnable_since.push(None);
            self.tasks.len() - 1
        };
        self.active += 1;
        sys.trace.count(Component::Sched, Counter::TasksSpawned, 1);
        sys.trace
            .event(sys.now, Component::Sched, TraceKind::TaskSpawn, lun, op_id);
        // One operation per LUN at a time: a LUN has one page register, so
        // overlapping operations would corrupt each other. Later arrivals
        // park until the LUN frees up.
        let l = lun as usize;
        if l >= self.lun_active.len() {
            self.lun_active.resize(l + 1, false);
            self.lun_parked.resize_with(l + 1, VecDeque::new);
        }
        if self.lun_active[l] {
            self.lun_parked[l].push_back(tid);
        } else {
            self.lun_active[l] = true;
            self.mark_runnable(sys, tid);
        }
        tid
    }

    /// Pushes a task onto the runnable queue. Traced runs also stamp when
    /// the wait began (for the scheduler-latency metric) and emit a
    /// `TaskReady` event — the anchor phase attribution pairs with the
    /// matching `SchedPick` to measure scheduler wait.
    fn mark_runnable(&mut self, sys: &mut System, tid: TaskId) {
        self.runnable.push_back(tid);
        if sys.trace.is_enabled() {
            self.runnable_since[tid] = Some(sys.now);
            if let Some(task) = self.tasks[tid].as_ref() {
                sys.trace.event(
                    sys.now,
                    Component::Sched,
                    TraceKind::TaskReady,
                    task.meta().lun,
                    task.op_id(),
                );
            }
        }
    }

    /// Drains tasks that finished since the last call.
    pub fn drain_finished(&mut self, out: &mut Vec<FinishedTask>) {
        out.append(&mut self.finished);
    }

    /// Routes one system event into the runtime.
    pub fn on_event(&mut self, sys: &mut System, ev: Event) {
        match ev {
            Event::TxnDone { ticket } => self.on_txn_done(sys, ticket),
            Event::CpuDone => self.pump(sys),
            Event::IssueCheck => {
                self.try_issue(sys);
            }
            Event::Timer { tag } => self.on_timer(sys, tag),
            Event::RbEdge { .. } => {
                // Software environments poll via READ STATUS; R/B# edges are
                // for the hardware baselines.
            }
        }
    }

    fn on_timer(&mut self, sys: &mut System, tag: u64) {
        if let Some(i) = self.sleeping.iter().position(|&(t, _)| t == tag) {
            let (_, tid) = self.sleeping.swap_remove(i);
            self.mark_runnable(sys, tid);
            self.pump(sys);
        }
    }

    fn on_txn_done(&mut self, sys: &mut System, ticket: u64) {
        let done = match self.in_flight.take() {
            Some(f) if f.route.ticket == ticket => f,
            _ => panic!("completion for unknown transaction {ticket}"),
        };
        let route = done.route;
        sys.cpu.charge(sys.now, self.cfg.cost.completion_irq);
        sys.trace.count(Component::Sched, Counter::TxnsCompleted, 1);
        if sys.trace.is_enabled() {
            if let Some((enq, lun, op_id)) = route.info {
                sys.trace.event(
                    sys.now,
                    Component::Sched,
                    TraceKind::TxnComplete,
                    lun,
                    op_id,
                );
                sys.trace
                    .observe(Metric::TxnLatency, sys.now.saturating_since(enq));
            }
        }
        if let Some(task) = self.tasks[route.task].as_mut() {
            task.deliver(
                route.local,
                TxnResult {
                    inline: done.inline,
                    end: done.end,
                },
            );
            self.mark_runnable(sys, route.task);
        }
        // The hardware proceeds to the next queued transaction regardless of
        // what the software does with the completion.
        self.try_issue(sys);
        self.pump(sys);
    }

    /// Runs every runnable task, moving built transactions toward the
    /// hardware queue, charging the CPU for each step.
    fn pump(&mut self, sys: &mut System) {
        let cost = self.cfg.cost;
        if sys.trace.is_enabled() {
            // Queue-depth-over-time sample: one event per pump entry, all
            // four depths packed into the op_id word (layout unchanged).
            let depths = babol_trace::QueueDepths::from_lens(
                self.runnable.len(),
                self.ready.len(),
                self.hw_queue.len(),
                usize::from(self.in_flight.is_some()),
            );
            sys.trace.event(
                sys.now,
                Component::Sched,
                TraceKind::QueueDepth,
                0,
                depths.pack(),
            );
        }
        while let Some(tid) = self.pick_runnable(sys) {
            sys.cpu.charge(sys.now, cost.resume);
            let task = self.tasks[tid].as_mut().expect("runnable task exists");
            let status = task.advance(sys.now);
            let steps = task.take_steps();
            if steps > 0 {
                sys.cpu.charge(sys.now, steps as u64 * cost.op_body_step);
            }
            task.drain_staged(&mut self.staged_scratch);
            for (addr, bytes) in self.staged_scratch.drain(..) {
                sys.cpu.charge(sys.now, cost.op_body_step);
                sys.dram.write(addr, &bytes);
            }
            for (local, txn) in task.drain_outbox() {
                sys.cpu.charge(sys.now, cost.enqueue_txn);
                let mut route = TxnRoute {
                    ticket: self.next_ticket,
                    task: tid,
                    local,
                    info: None,
                };
                self.next_ticket += 1;
                let meta = TxnMeta {
                    lun: task.meta().lun,
                    data_bytes: txn.data_bytes(),
                    priority: task.meta().priority,
                };
                sys.trace.count(Component::Sched, Counter::TxnsEnqueued, 1);
                if sys.trace.is_enabled() {
                    let op_id = task.op_id();
                    sys.trace.event(
                        sys.now,
                        Component::Sched,
                        TraceKind::TxnEnqueue,
                        meta.lun,
                        op_id,
                    );
                    route.info = Some((sys.now, meta.lun, op_id));
                }
                self.ready.push(ReadyTxn {
                    route,
                    txn,
                    meta,
                    avail: sys.cpu.busy_until(),
                });
            }
            if let Some(dur) = task.take_sleep() {
                let tag = self.next_timer;
                self.next_timer += 1;
                self.sleeping.push((tag, tid));
                sys.schedule(sys.cpu.busy_until() + dur, Event::Timer { tag });
            }
            sys.cpu.charge(sys.now, cost.suspend);
            if status == TaskStatus::Finished {
                let outcome = task.take_outcome();
                let lun = task.meta().lun;
                let op_id = task.op_id();
                sys.trace.count(Component::Sched, Counter::TasksFinished, 1);
                sys.trace.event(
                    sys.cpu.busy_until(),
                    Component::Sched,
                    TraceKind::TaskFinish,
                    lun,
                    op_id,
                );
                self.finished.push((tid, sys.cpu.busy_until(), outcome));
                self.tasks[tid] = None;
                self.free_ids.push(tid);
                self.active -= 1;
                // Release the LUN and admit the next parked operation —
                // highest priority first, FIFO among equals (the task
                // scheduler's admission decision, paper §V).
                let l = lun as usize;
                let q = &mut self.lun_parked[l];
                let next = if self.cfg.task_policy == TaskPolicy::Priority {
                    let best = q
                        .iter()
                        .enumerate()
                        .max_by_key(|(i, &tid)| {
                            let prio = self.tasks[tid]
                                .as_ref()
                                .map(|t| t.meta().priority)
                                .unwrap_or(0);
                            (prio, usize::MAX - i) // FIFO tie-break
                        })
                        .map(|(i, _)| i);
                    best.and_then(|i| q.remove(i))
                } else {
                    q.pop_front()
                };
                self.lun_active[l] = next.is_some();
                if let Some(next) = next {
                    self.mark_runnable(sys, next);
                }
            }
        }
        // Transaction scheduler: refill the hardware instruction queue.
        let mut pushed = false;
        while self.hw_queue.len() < self.cfg.lookahead && !self.ready.is_empty() {
            sys.cpu.charge(sys.now, cost.txn_sched_pass);
            self.txn_metas.clear();
            self.txn_metas.extend(self.ready.iter().map(|r| r.meta));
            let Some(idx) = self.cfg.txn_policy.pick(&self.txn_metas, self.last_txn_lun) else {
                break;
            };
            let r = self.ready.remove(idx);
            self.last_txn_lun = r.meta.lun;
            self.hw_queue.push_back(HwEntry {
                route: r.route,
                txn: r.txn,
                avail: r.avail.max(sys.cpu.busy_until()),
            });
            pushed = true;
        }
        if pushed && self.in_flight.is_none() {
            sys.schedule(sys.cpu.busy_until().max(sys.now), Event::IssueCheck);
        }
    }

    fn pick_runnable(&mut self, sys: &mut System) -> Option<TaskId> {
        self.task_metas.clear();
        self.task_metas.extend(
            self.runnable
                .iter()
                .map(|&tid| self.tasks[tid].as_ref().expect("runnable").meta()),
        );
        let idx = self
            .cfg
            .task_policy
            .pick(&self.task_metas, self.last_task_lun)?;
        let lun = self.task_metas[idx].lun;
        self.last_task_lun = lun;
        let tid = self.runnable.remove(idx);
        sys.trace.count(Component::Sched, Counter::SchedPicks, 1);
        if sys.trace.is_enabled() {
            if let Some(&tid) = tid.as_ref() {
                let since = self.runnable_since[tid].take().unwrap_or(sys.now);
                sys.trace
                    .observe(Metric::SchedWait, sys.now.saturating_since(since));
                let op_id = self.tasks[tid].as_ref().map(|t| t.op_id()).unwrap_or(0);
                sys.trace
                    .event(sys.now, Component::Sched, TraceKind::SchedPick, lun, op_id);
            }
        }
        tid
    }

    /// Hardware side: starts the next queued transaction if the bus is free.
    /// Costs no CPU.
    fn try_issue(&mut self, sys: &mut System) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(front) = self.hw_queue.front() else {
            return;
        };
        if front.avail > sys.now {
            let at = front.avail;
            sys.schedule(at, Event::IssueCheck);
            return;
        }
        let entry = self.hw_queue.pop_front().expect("front exists");
        let start = sys.now.max(sys.channel.busy_until()) + self.cfg.issue_gap;
        let (_, lun, op_id) = entry.route.info.unwrap_or((SimTime::ZERO, 0, 0));
        sys.trace.count(Component::Sched, Counter::TxnsIssued, 1);
        if sys.trace.is_enabled() {
            sys.trace
                .event(start, Component::Sched, TraceKind::TxnIssue, lun, op_id);
        }
        let outcome = execute_with(
            &mut self.emit_scratch,
            &mut sys.channel,
            &mut sys.dram,
            &sys.emit,
            start,
            &entry.txn,
            op_id,
            &mut sys.trace,
        )
        .unwrap_or_else(|e| panic!("operation logic drove an illegal waveform: {e}"));
        self.txns_issued += 1;
        let ticket = entry.route.ticket;
        self.in_flight = Some(InFlight {
            route: entry.route,
            end: outcome.end,
            inline: outcome.inline,
        });
        sys.schedule(outcome.end, Event::TxnDone { ticket });
    }
}

/// A [`Controller`] wrapping a [`SoftRuntime`] plus a task factory: this is
/// a complete BABOL software-defined controller.
pub struct SoftController {
    name: &'static str,
    rt: SoftRuntime,
    factory: TaskFactory,
    /// Per task id: the request it serves and, in traced runs, when it was
    /// submitted (for op-latency observations).
    req_of: Vec<Option<(IoRequest, Option<SimTime>)>>,
    /// Occupied entries of `req_of`.
    in_flight: usize,
    done: Vec<(IoRequest, SimTime)>,
    scratch: Vec<FinishedTask>,
    /// Operations that finished with an error (visible to experiments).
    pub errors: Vec<(IoRequest, OpError)>,
}

impl SoftController {
    /// Builds a controller: `factory` turns each admitted request into a
    /// task for the runtime.
    pub fn new(
        name: &'static str,
        cfg: RuntimeConfig,
        factory: impl FnMut(&IoRequest) -> Box<dyn SoftTask> + 'static,
    ) -> Self {
        SoftController {
            name,
            rt: SoftRuntime::new(cfg),
            factory: Box::new(factory),
            req_of: Vec::new(),
            in_flight: 0,
            done: Vec::new(),
            scratch: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// The wrapped runtime (stats, configuration).
    pub fn runtime(&self) -> &SoftRuntime {
        &self.rt
    }

    fn harvest(&mut self, sys: &mut System) {
        let mut fin = std::mem::take(&mut self.scratch);
        self.rt.drain_finished(&mut fin);
        for (tid, at, outcome) in fin.drain(..) {
            if let Some((req, t0)) = self.req_of.get_mut(tid).and_then(Option::take) {
                self.in_flight -= 1;
                if let Some(Err(e)) = outcome {
                    self.errors.push((req, e));
                }
                sys.trace.count(Component::Ctrl, Counter::OpsCompleted, 1);
                if sys.trace.is_enabled() {
                    sys.trace
                        .event(at, Component::Ctrl, TraceKind::OpComplete, req.lun, req.id);
                    sys.trace
                        .observe(Metric::OpLatency, at.saturating_since(t0.unwrap_or(at)));
                }
                self.done.push((req, at));
            }
        }
        self.scratch = fin;
    }
}

impl Controller for SoftController {
    fn name(&self) -> &'static str {
        self.name
    }

    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        if self.rt.active_tasks() >= self.rt.config().admission {
            return false;
        }
        let task = (self.factory)(&req);
        let tid = self.rt.spawn(sys, task);
        if tid >= self.req_of.len() {
            self.req_of.resize(tid + 1, None);
        }
        let submitted = sys.trace.is_enabled().then_some(sys.now);
        self.req_of[tid] = Some((req, submitted));
        self.in_flight += 1;
        sys.trace.count(Component::Ctrl, Counter::OpsSubmitted, 1);
        if sys.trace.is_enabled() {
            sys.trace.event(
                sys.now,
                Component::Ctrl,
                TraceKind::OpIssue,
                req.lun,
                req.id,
            );
        }
        sys.schedule(sys.now, Event::CpuDone);
        true
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        self.rt.on_event(sys, ev);
        self.harvest(sys);
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        out.append(&mut self.done);
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Target;
    use crate::runtime::coro::{CoroTask, OpCtx};
    use babol_channel::Channel;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_onfi::bus::ChipMask;
    use babol_onfi::opcode::op;
    use babol_sim::{Cpu, Freq};
    use babol_ufsm::{DmaDest, EmitConfig, Latch, PostWait};

    fn sys(luns: u32) -> System {
        let l = (0..luns)
            .map(|i| {
                let mut cfg = LunConfig::test_default();
                cfg.seed = i as u64 + 1;
                Lun::new(cfg)
            })
            .collect();
        System::new(
            Channel::new(l),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), babol_sim::CostModel::rtos()),
        )
    }

    fn status_task(lun: u32) -> Box<dyn SoftTask> {
        let ctx = OpCtx::new(lun, 0);
        let c = ctx.clone();
        let t = Target {
            chip: lun,
            layout: PackageProfile::test_tiny().layout(),
        };
        let fut = async move {
            let st = crate::ops::read_status(&c, &t).await;
            c.set_outcome(if st & 0x40 != 0 {
                Ok(())
            } else {
                Err(OpError::Timeout)
            });
        };
        Box::new(CoroTask::new(&ctx, fut))
    }

    /// Drains the event queue, routing everything into the runtime.
    fn drain(rt: &mut SoftRuntime, sys: &mut System) {
        while let Some((at, ev)) = sys.pop_event() {
            sys.now = at;
            rt.on_event(sys, ev);
        }
    }

    #[test]
    fn spawn_run_finish_cycle() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, status_task(0));
        assert_eq!(rt.active_tasks(), 1);
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].2, Some(Ok(())));
        assert_eq!(rt.active_tasks(), 0);
        assert_eq!(rt.txns_issued, 1);
    }

    #[test]
    fn same_lun_tasks_serialize_different_luns_overlap() {
        let mut s = sys(2);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        // Two tasks on LUN 0 (must serialize) and one on LUN 1.
        rt.spawn(&mut s, status_task(0));
        rt.spawn(&mut s, status_task(0));
        rt.spawn(&mut s, status_task(1));
        assert_eq!(rt.active_tasks(), 3);
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 3);
        assert!(fin.iter().all(|(_, _, o)| *o == Some(Ok(()))));
    }

    #[test]
    fn lookahead_queue_respects_configured_depth() {
        let mut cfg = RuntimeConfig::rtos();
        cfg.lookahead = 1;
        let mut s = sys(4);
        let mut rt = SoftRuntime::new(cfg);
        for lun in 0..4 {
            rt.spawn(&mut s, status_task(lun));
        }
        // Run one pump only: all four tasks submit, but the hardware queue
        // holds at most one transaction; the rest wait in `ready`.
        rt.pump(&mut s);
        assert!(rt.hw_queue.len() <= 1);
        assert_eq!(rt.hw_queue.len() + rt.ready.len(), 4);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 4);
    }

    #[test]
    fn cpu_is_charged_for_software_actions() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, status_task(0));
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        // At minimum: task sched + resume + enqueue + suspend + txn sched +
        // completion + final resume/suspend.
        assert!(s.cpu.busy_cycles() > 1_000, "{}", s.cpu.busy_cycles());
    }

    /// A task that builds no transaction and finishes on its first run:
    /// isolates the task scheduler's admission bookkeeping.
    struct InstantTask(TaskMeta);

    impl SoftTask for InstantTask {
        fn advance(&mut self, _now: SimTime) -> TaskStatus {
            TaskStatus::Finished
        }
        fn drain_outbox(&mut self) -> Vec<(u64, Transaction)> {
            Vec::new()
        }
        fn deliver(&mut self, _local_ticket: u64, _result: TxnResult) {}
        fn take_sleep(&mut self) -> Option<SimDuration> {
            None
        }
        fn drain_staged(&mut self, _out: &mut Vec<(u64, PageBuf)>) {}
        fn take_steps(&mut self) -> u32 {
            0
        }
        fn take_outcome(&mut self) -> Option<Result<(), OpError>> {
            Some(Ok(()))
        }
        fn meta(&self) -> TaskMeta {
            self.0
        }
    }

    fn instant(lun: u32, priority: u8) -> Box<dyn SoftTask> {
        Box::new(InstantTask(TaskMeta { lun, priority }))
    }

    fn finished_ids(rt: &mut SoftRuntime) -> Vec<TaskId> {
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        fin.iter().map(|&(tid, _, _)| tid).collect()
    }

    #[test]
    fn sparse_lun_ids_admit_and_park_per_lun() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        let a = rt.spawn(&mut s, instant(0, 0));
        let b = rt.spawn(&mut s, instant(37, 0));
        let c = rt.spawn(&mut s, instant(0, 0));
        let d = rt.spawn(&mut s, instant(37, 0));
        // One admitted operation per LUN; the second on each LUN parks.
        assert_eq!(rt.runnable, [a, b]);
        assert_eq!(rt.lun_parked[0], [c]);
        assert_eq!(rt.lun_parked[37], [d]);
        let busy: Vec<usize> = (0..rt.lun_active.len())
            .filter(|&l| rt.lun_active[l])
            .collect();
        assert_eq!(busy, [0, 37], "LUNs in between stay free");
        rt.pump(&mut s);
        let mut done = finished_ids(&mut rt);
        done.sort_unstable();
        assert_eq!(done, [a, b, c, d]);
        assert!(rt.lun_active.iter().all(|&busy| !busy));
        assert!(rt.lun_parked.iter().all(VecDeque::is_empty));
        assert_eq!(rt.active_tasks(), 0);
    }

    #[test]
    fn priority_policy_admits_parked_highest_first_fifo_among_equals() {
        let mut cfg = RuntimeConfig::rtos();
        cfg.task_policy = TaskPolicy::Priority;
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(cfg);
        // The first task takes LUN 5; the rest park behind it.
        let first = rt.spawn(&mut s, instant(5, 0));
        let p1 = rt.spawn(&mut s, instant(5, 1));
        let p3a = rt.spawn(&mut s, instant(5, 3));
        let p3b = rt.spawn(&mut s, instant(5, 3));
        let p2 = rt.spawn(&mut s, instant(5, 2));
        rt.pump(&mut s);
        assert_eq!(finished_ids(&mut rt), [first, p3a, p3b, p2, p1]);
    }

    #[test]
    #[should_panic(expected = "completion for unknown transaction")]
    fn completion_for_a_ticket_not_in_flight_panics() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, status_task(0));
        s.schedule(s.now, Event::CpuDone);
        while let Some((at, ev)) = s.pop_event() {
            s.now = at;
            // Misroute the first completion to a ticket never issued.
            let ev = match ev {
                Event::TxnDone { ticket } => Event::TxnDone { ticket: ticket + 1 },
                other => other,
            };
            rt.on_event(&mut s, ev);
        }
    }

    #[test]
    fn runtime_level_transaction_roundtrip() {
        // A raw task that submits a hand-built transaction and checks the
        // inline result, exercising deliver() plumbing end to end.
        let ctx = OpCtx::new(0, 0);
        let c = ctx.clone();
        let fut = async move {
            let txn = babol_ufsm::Transaction::new(ChipMask::single(0))
                .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
                .read(1, DmaDest::Inline);
            let r = c.submit(txn).await;
            c.set_outcome(if r.inline == vec![0xE0] {
                Ok(())
            } else {
                Err(OpError::Timeout)
            });
        };
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, Box::new(CoroTask::new(&ctx, fut)));
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin[0].2, Some(Ok(())));
    }
}
