//! Pass-through decorators that time calls into the workspace's layers.
//!
//! Every decorator forwards each call unchanged to the value it wraps and
//! only adds counts and elapsed times to a shared [`Probe`]. Nothing here
//! changes what a run does: the traced runs check that they reproduce the
//! untraced results exactly (same `RunMetrics`, verdicts, table bytes and
//! op counts).
//!
//! * [`TracedScheduler`] and [`TracedStrategy`] wrap the `fpsm` scheduler
//!   and the `adversary` block strategy handed to `regemu_workloads::drive`;
//! * [`TracedEmulation`] wraps a `core` emulation so every client protocol
//!   it builds is a [`TracedProtocol`];
//! * [`TracedTransport`] wraps a `serve` transport handed to
//!   `LiveClient::new`.
//!
//! Calls that are too short to time one by one (a block decision, a wire
//! frame, a server apply) are counted here and timed afterwards by replaying
//! the observed inputs in a tight loop (see the workload modules).

use regemu_bounds::Params;
use regemu_core::wire::WireMsg;
use regemu_core::Emulation;
use regemu_fpsm::{
    BlockStrategy, ClientProtocol, Context, Delivery, Event, HighOp, ObjectKind, PendingOp,
    Scheduler, SimError, Simulation, Topology,
};
use regemu_serve::{ServeError, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// At most this many wire messages are kept for the replay timings.
const MAX_SAMPLED_MSGS: usize = 8192;

/// Pending-set shape is sampled on every this-many-th scheduler step (the
/// scan costs about as much as a step, so sampling every step would double
/// the traced run's length).
const SHAPE_EVERY: u64 = 8;

/// Counters and busy times shared by the decorators of one traced unit.
///
/// Fields are relaxed atomics: each probe is written by one thread at a
/// time and read after that thread has been joined.
#[derive(Debug, Default)]
pub struct Probe {
    /// Set while a scheduler step is running, so protocol time nested in a
    /// step can be subtracted from the step's own time.
    in_step: AtomicBool,
    pub steps: AtomicU64,
    pub step_ns: AtomicU64,
    pub proto_calls: AtomicU64,
    pub proto_ns_in_step: AtomicU64,
    pub proto_ns_other: AtomicU64,
    pub blocks_calls: AtomicU64,
    pub blocked: AtomicU64,
    pub block_replay_calls: AtomicU64,
    pub block_replay_ns: AtomicU64,
    pub shape_samples: AtomicU64,
    pub pending_sum: AtomicU64,
    pub span_sum: AtomicU64,
    pub sends: AtomicU64,
    pub send_ns: AtomicU64,
    pub send_bytes: AtomicU64,
    pub recvs: AtomicU64,
    pub recv_hits: AtomicU64,
    pub recv_ns: AtomicU64,
    /// The scheduler decorator's own time outside the wrapped step (event
    /// capture, pending-set samples, block-decision replays).
    pub trace_ns: AtomicU64,
    /// Requests this client sent, with the server they went to (for the
    /// server-apply and wire replays).
    pub requests: Mutex<Vec<(usize, WireMsg)>>,
    /// Messages this client received (for the wire decode replay).
    pub received: Mutex<Vec<WireMsg>>,
    /// Low-level events of the run, captured around every scheduler step
    /// when event capture is on (for the streaming-checker replay).
    pub events: Mutex<Vec<Event>>,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Adds every counter of `other` into `self` (the sampled inputs too).
    pub fn absorb(&self, other: &Probe) {
        let pairs = [
            (&self.steps, &other.steps),
            (&self.step_ns, &other.step_ns),
            (&self.proto_calls, &other.proto_calls),
            (&self.proto_ns_in_step, &other.proto_ns_in_step),
            (&self.proto_ns_other, &other.proto_ns_other),
            (&self.blocks_calls, &other.blocks_calls),
            (&self.blocked, &other.blocked),
            (&self.block_replay_calls, &other.block_replay_calls),
            (&self.block_replay_ns, &other.block_replay_ns),
            (&self.shape_samples, &other.shape_samples),
            (&self.pending_sum, &other.pending_sum),
            (&self.span_sum, &other.span_sum),
            (&self.sends, &other.sends),
            (&self.send_ns, &other.send_ns),
            (&self.send_bytes, &other.send_bytes),
            (&self.recvs, &other.recvs),
            (&self.recv_hits, &other.recv_hits),
            (&self.recv_ns, &other.recv_ns),
            (&self.trace_ns, &other.trace_ns),
        ];
        for (mine, theirs) in pairs {
            bump(mine, Probe::get(theirs));
        }
        let mut requests = self.requests.lock().expect("probe lock");
        let room = MAX_SAMPLED_MSGS.saturating_sub(requests.len());
        requests.extend(other.requests.lock().expect("probe lock").iter().take(room));
        let mut received = self.received.lock().expect("probe lock");
        let room = MAX_SAMPLED_MSGS.saturating_sub(received.len());
        received.extend(other.received.lock().expect("probe lock").iter().take(room));
    }

    /// Total protocol time, nested in scheduler steps or not.
    pub fn proto_ns(&self) -> u64 {
        Probe::get(&self.proto_ns_in_step) + Probe::get(&self.proto_ns_other)
    }
}

/// A [`Scheduler`] that times each step and samples the pending set.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    probe: Arc<Probe>,
    capture_events: bool,
    event_cursor: u64,
    /// A copy of the block strategy the wrapped scheduler consults, timed
    /// on the sampled steps over that step's deliverable operations.
    replay: Option<Box<dyn BlockStrategy>>,
    deliverable: Vec<PendingOp>,
}

impl TracedScheduler {
    pub fn new(
        inner: Box<dyn Scheduler>,
        probe: Arc<Probe>,
        replay: Option<Box<dyn BlockStrategy>>,
        capture_events: bool,
    ) -> Self {
        TracedScheduler {
            inner,
            probe,
            capture_events,
            event_cursor: 0,
            replay,
            deliverable: Vec::new(),
        }
    }

    fn capture(&mut self, sim: &Simulation) {
        if !self.capture_events {
            return;
        }
        let history = sim.history();
        let events = history
            .events_since(self.event_cursor)
            .expect("event capture runs under full recording");
        self.probe.events.lock().expect("probe lock").extend(events);
        self.event_cursor = history.total_events();
    }

    fn sample_shape(&mut self, sim: &Simulation) {
        let mut ids = sim.pending_ops().map(|p| p.op_id.index());
        let Some(first) = ids.next() else {
            return;
        };
        let last = ids.last().unwrap_or(first);
        bump(&self.probe.shape_samples, 1);
        bump(&self.probe.pending_sum, sim.pending_count() as u64);
        bump(&self.probe.span_sum, last - first + 1);
        if let Some(replay) = self.replay.as_mut() {
            self.deliverable.clear();
            self.deliverable.extend(sim.deliverable_ops().copied());
            let started = Instant::now();
            for op in &self.deliverable {
                std::hint::black_box(replay.blocks(sim, std::hint::black_box(op)));
            }
            bump(&self.probe.block_replay_ns, nanos(started.elapsed()));
            bump(
                &self.probe.block_replay_calls,
                self.deliverable.len() as u64,
            );
        }
    }
}

impl Scheduler for TracedScheduler {
    fn step(&mut self, sim: &mut Simulation) -> Result<bool, SimError> {
        let bookkeeping = Instant::now();
        self.capture(sim);
        if Probe::get(&self.probe.steps).is_multiple_of(SHAPE_EVERY) {
            self.sample_shape(sim);
        }
        self.probe.in_step.store(true, Ordering::Relaxed);
        let started = Instant::now();
        let stepped = self.inner.step(sim);
        let ended = Instant::now();
        bump(&self.probe.step_ns, nanos(ended - started));
        self.probe.in_step.store(false, Ordering::Relaxed);
        bump(&self.probe.steps, 1);
        self.capture(sim);
        let own = (started - bookkeeping) + ended.elapsed();
        bump(&self.probe.trace_ns, nanos(own));
        stepped
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`BlockStrategy`] that counts its calls and how many of them block.
#[derive(Debug)]
pub struct TracedStrategy {
    inner: Box<dyn BlockStrategy>,
    probe: Arc<Probe>,
}

impl TracedStrategy {
    pub fn new(inner: Box<dyn BlockStrategy>, probe: Arc<Probe>) -> Self {
        TracedStrategy { inner, probe }
    }
}

impl BlockStrategy for TracedStrategy {
    fn blocks(&mut self, sim: &Simulation, op: &PendingOp) -> bool {
        let blocked = self.inner.blocks(sim, op);
        bump(&self.probe.blocks_calls, 1);
        if blocked {
            bump(&self.probe.blocked, 1);
        }
        blocked
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`Emulation`] whose client protocols are [`TracedProtocol`]s.
pub struct TracedEmulation {
    inner: Box<dyn Emulation>,
    probe: Arc<Probe>,
}

impl TracedEmulation {
    pub fn new(inner: Box<dyn Emulation>, probe: Arc<Probe>) -> Self {
        TracedEmulation { inner, probe }
    }
}

impl Emulation for TracedEmulation {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_object_kind(&self) -> ObjectKind {
        self.inner.base_object_kind()
    }

    fn params(&self) -> Params {
        self.inner.params()
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn base_object_count(&self) -> usize {
        self.inner.base_object_count()
    }

    fn writer_protocol(&self, writer_index: usize) -> Box<dyn ClientProtocol> {
        TracedProtocol::wrap(
            self.inner.writer_protocol(writer_index),
            Arc::clone(&self.probe),
        )
    }

    fn reader_protocol(&self) -> Box<dyn ClientProtocol> {
        TracedProtocol::wrap(self.inner.reader_protocol(), Arc::clone(&self.probe))
    }

    fn build_simulation(&self) -> Simulation {
        self.inner.build_simulation()
    }
}

/// A [`ClientProtocol`] that times every invoke and response handler.
pub struct TracedProtocol {
    inner: Box<dyn ClientProtocol>,
    probe: Arc<Probe>,
}

impl TracedProtocol {
    pub fn wrap(inner: Box<dyn ClientProtocol>, probe: Arc<Probe>) -> Box<dyn ClientProtocol> {
        Box::new(TracedProtocol { inner, probe })
    }

    fn record(&self, started: Instant) {
        let ns = nanos(started.elapsed());
        bump(&self.probe.proto_calls, 1);
        if self.probe.in_step.load(Ordering::Relaxed) {
            bump(&self.probe.proto_ns_in_step, ns);
        } else {
            bump(&self.probe.proto_ns_other, ns);
        }
    }
}

impl ClientProtocol for TracedProtocol {
    fn on_invoke(&mut self, op: HighOp, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.on_invoke(op, ctx);
        self.record(started);
    }

    fn on_response(&mut self, delivery: Delivery, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.on_response(delivery, ctx);
        self.record(started);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Transport`] that times sends and receive waits and keeps a sample
/// of the messages for the replay timings.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    server: usize,
    probe: Arc<Probe>,
}

impl TracedTransport {
    pub fn wrap(inner: Box<dyn Transport>, server: usize, probe: Arc<Probe>) -> Box<dyn Transport> {
        Box::new(TracedTransport {
            inner,
            server,
            probe,
        })
    }
}

impl Transport for TracedTransport {
    fn send(&mut self, msg: &WireMsg) -> Result<(), ServeError> {
        let started = Instant::now();
        let sent = self.inner.send(msg);
        bump(&self.probe.send_ns, nanos(started.elapsed()));
        bump(&self.probe.sends, 1);
        bump(&self.probe.send_bytes, msg.encode_frame().len() as u64);
        let mut requests = self.probe.requests.lock().expect("probe lock");
        if requests.len() < MAX_SAMPLED_MSGS {
            requests.push((self.server, *msg));
        }
        sent
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<WireMsg>, ServeError> {
        let started = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        bump(&self.probe.recv_ns, nanos(started.elapsed()));
        bump(&self.probe.recvs, 1);
        if let Ok(Some(msg)) = &got {
            bump(&self.probe.recv_hits, 1);
            let mut received = self.probe.received.lock().expect("probe lock");
            if received.len() < MAX_SAMPLED_MSGS {
                received.push(*msg);
            }
        }
        got
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
