//! The benchmark's view into a single-channel device: a [`Controller`]
//! adapter that sits between the FTL and the storage controller.
//!
//! Every call the FTL makes into the controller passes through here, so
//! the adapter sees what no public report gives correctly:
//!
//! * **Simulated latency from the host's side.** `Ssd::run` starts an
//!   I/O's latency clock after `prepare_write`'s inline GC (see NOTES.md,
//!   defect 1), hiding GC stalls. In a closed loop at queue depth QD, host
//!   request *j* is due when its queue slot frees, i.e. when host
//!   completion *j − QD* in harvest order lands (the job start for the
//!   first QD requests). The adapter logs completions in harvest order and
//!   [`Probe::end_job`] measures from that due time.
//! * **The event stream.** One `on_event` call per popped event: the pop
//!   time and the pending depth after the pop, replayed later through
//!   `EventQueue` alone.
//! * **Host-time spans** (traced runs only). Each `submit` / `on_event` /
//!   `take_completions` call is a child span of the running job span, which
//!   the caller opens and closes. Only the controller reaches the runtime,
//!   μFSM, channel and LUN, so the children's total is their host time and
//!   the job's self time (job minus children) is the FTL's.

use std::time::Instant;

use babol::runtime::SoftController;
use babol::system::{Controller, Event, IoRequest, System};
use babol_sim::{SimDuration, SimTime};

/// Pops recorded for the queue replay at most: plenty for a per-event
/// cost, and it bounds the recording's memory on long traced runs.
const POPS_KEPT: usize = 1 << 20;

/// Aggregated child spans of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub n: u64,
    pub ns: u64,
}

/// Host time inside the controller during one job span, by call kind:
/// `[submit, on_event, take_completions]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSpans {
    /// Job span id (the job's index in the run).
    pub id: u64,
    /// Job span duration, ns.
    pub job_ns: u64,
    pub calls: [Calls; 3],
}

impl JobSpans {
    /// Host ns inside the controller (sum of the child spans).
    pub fn ctrl_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }

    /// Host ns in the job span outside any controller call: the FTL and
    /// `Ssd::run`'s host loop around it.
    pub fn self_ns(&self) -> u64 {
        self.job_ns.saturating_sub(self.ctrl_ns())
    }
}

/// The adapter. See the module docs.
pub struct Probe {
    pub inner: SoftController,
    /// Record child spans (traced runs).
    spans: bool,
    /// Host ids of the running job are `0..job_ios`; larger ids are the
    /// FTL's internal (GC) requests.
    job_ios: u64,
    /// Host completions of the running job in harvest order.
    harvest: Vec<(SimTime, u64)>,
    current: JobSpans,
    job_started: Option<Instant>,
    /// Events handed to the controller since construction.
    pub events: u64,
    /// Most events pending at any pop, counting the popped one.
    pub pending_max: u64,
    /// Recorded `(pop time ps, depth after pop)` stream, when enabled; the
    /// first [`POPS_KEPT`] pops.
    pub pops: Option<Vec<(u64, u32)>>,
}

impl Probe {
    pub fn new(inner: SoftController, spans: bool) -> Self {
        Probe {
            inner,
            spans,
            job_ios: 0,
            harvest: Vec::new(),
            current: JobSpans::default(),
            job_started: None,
            events: 0,
            pending_max: 0,
            pops: None,
        }
    }

    /// Opens job span `id` for a job of `ios` host I/Os.
    pub fn begin_job(&mut self, id: u64, ios: u64) {
        self.job_ios = ios;
        self.harvest.clear();
        self.current = JobSpans {
            id,
            ..JobSpans::default()
        };
        self.job_started = self.spans.then(Instant::now);
    }

    /// Closes the job span. Returns its spans and the per-I/O simulated
    /// latencies measured from each request's due time (`start` is the
    /// simulated job start, `qd` the closed loop's queue depth).
    pub fn end_job(&mut self, start: SimTime, qd: usize) -> (JobSpans, Vec<SimDuration>) {
        if let Some(t) = self.job_started.take() {
            self.current.job_ns = t.elapsed().as_nanos() as u64;
        }
        (self.current, latencies_from_log(&self.harvest, start, qd))
    }

    fn child<R>(&mut self, kind: usize, f: impl FnOnce(&mut SoftController) -> R) -> R {
        if !self.spans {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        let c = &mut self.current.calls[kind];
        c.ns += t.elapsed().as_nanos() as u64;
        c.n += 1;
        r
    }
}

impl Controller for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        self.child(0, |c| c.submit(sys, req))
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        let depth = sys.pending_events() as u64;
        self.events += 1;
        self.pending_max = self.pending_max.max(depth + 1);
        if let Some(pops) = self.pops.as_mut().filter(|p| p.len() < POPS_KEPT) {
            pops.push((sys.now.as_picos(), depth as u32));
        }
        self.child(1, |c| c.on_event(sys, ev))
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        let before = out.len();
        self.child(2, |c| c.take_completions(out));
        for &(req, at) in &out[before..] {
            if req.id < self.job_ios {
                self.harvest.push((at, req.id));
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// Per-I/O simulated latency from each request's due time, given a
/// complete job's host completions in harvest order: `log[k] =
/// (completion time, host id)` with ids `0..log.len()`. Request *j* is due
/// at `log[j - qd]`'s completion time, or at `start` for the first `qd`.
pub fn latencies_from_log(log: &[(SimTime, u64)], start: SimTime, qd: usize) -> Vec<SimDuration> {
    let mut done_at = vec![SimTime::ZERO; log.len()];
    for &(at, id) in log {
        done_at[id as usize] = at;
    }
    done_at
        .iter()
        .enumerate()
        .map(|(j, at)| {
            let due = if j >= qd { log[j - qd].0 } else { start };
            at.saturating_since(due)
        })
        .collect()
}
