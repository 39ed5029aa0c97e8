//! In-memory tracing for the traced run: spans at the layer boundaries the
//! benchmark crosses, plus timing decorators for the three public trait
//! boundaries of the simulator (`Router`, `ContactSource`, `SimObserver`).
//!
//! Calls across the trait boundaries are far too many to keep one span
//! each (a paper-sized EER cell makes millions of router calls), so the
//! decorators sum time and counts per cell instead; the cell's engine span
//! is their parent, and the engine's self time is that span minus them.

use dtn_sim::{
    Buffer, BufferEntry, ContactCtx, ContactEvent, ContactSource, DropReason, Message, MessageId,
    NodeCtx, NodeId, Router, SimEvent, SimObserver, SimTime, StatsSnapshot, TransferAction,
    TransferPlan,
};
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span: a named interval on the host clock, its parent span
/// and the cell (job index) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within one tracer.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary name, e.g. `bench.store.serve`.
    pub name: &'static str,
    /// Job index of the cell this span belongs to, if any.
    pub cell: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// The span's length in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span that has started but not ended; close it with [`Tracer::close`].
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    cell: Option<usize>,
    start_s: f64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Collects spans in memory; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u32>, cell: Option<usize>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            start_s: self.now_s(),
        }
    }

    /// Ends a span, records it and returns its length in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cell: open.cell,
            start_s: open.start_s,
            end_s: self.now_s(),
        };
        let dur = span.dur_s();
        self.spans.lock().expect("span list poisoned").push(span);
        dur
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        cell: Option<usize>,
        f: impl FnOnce(u32) -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, cell);
        let out = f(open.id());
        (out, self.close(open))
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Renders the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.id,
                opt(s.parent.map(u64::from)),
                s.name,
                opt(s.cell.map(|c| c as u64)),
                s.start_s,
                s.end_s
            );
        }
        out
    }
}

/// Time and counts summed over the trait-boundary calls of one or more
/// cells.
#[derive(Clone, Debug, Default)]
pub struct BoundaryTotals {
    /// Seconds inside `ContactSource::next_window`.
    pub window_s: f64,
    /// `next_window` calls.
    pub windows: u64,
    /// Contact events the source appended.
    pub contact_events: u64,
    /// Seconds inside `Router::on_contact_up`.
    pub contact_up_s: f64,
    /// `on_contact_up` calls.
    pub contact_up_calls: u64,
    /// Seconds inside `Router::pick_transfer`.
    pub pick_s: f64,
    /// `pick_transfer` calls.
    pub pick_calls: u64,
    /// `pick_transfer` calls that returned a plan.
    pub pick_plans: u64,
    /// Seconds inside `Router::on_tick`.
    pub tick_s: f64,
    /// Seconds inside every other `Router` method.
    pub other_s: f64,
    /// Heap bytes left live by router construction, largest single cell.
    pub state_bytes_max: i64,
    /// Seconds inside observer callbacks.
    pub dispatch_s: f64,
    /// `SimObserver::on_events` calls.
    pub batches: u64,
    /// Events delivered to observers.
    pub events: u64,
}

impl BoundaryTotals {
    /// Time spent below the engine, in the layers it calls.
    pub fn below_engine_s(&self) -> f64 {
        self.window_s
            + self.contact_up_s
            + self.pick_s
            + self.tick_s
            + self.other_s
            + self.dispatch_s
    }

    /// Folds another cell's totals into this one.
    pub fn add(&mut self, o: &BoundaryTotals) {
        self.window_s += o.window_s;
        self.windows += o.windows;
        self.contact_events += o.contact_events;
        self.contact_up_s += o.contact_up_s;
        self.contact_up_calls += o.contact_up_calls;
        self.pick_s += o.pick_s;
        self.pick_calls += o.pick_calls;
        self.pick_plans += o.pick_plans;
        self.tick_s += o.tick_s;
        self.other_s += o.other_s;
        self.state_bytes_max = self.state_bytes_max.max(o.state_bytes_max);
        self.dispatch_s += o.dispatch_s;
        self.batches += o.batches;
        self.events += o.events;
    }
}

/// Router-side totals of one simulation, shared by its node routers (all
/// of which run on the simulation's thread).
pub type RouterTotals = Rc<RefCell<BoundaryTotals>>;

/// Times every call into the wrapped router.
///
/// `as_any_mut` hands out the *inner* router, so a router that downcasts
/// its peer (EER, CR, MaxProp, PRoPHET, EBR, Spray-and-Focus) finds its own type
/// behind the wrapper; calls it then makes on the peer are part of its own
/// callback's time.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    totals: RouterTotals,
}

impl TimedRouter {
    /// Wraps `inner`, summing into `totals`.
    pub fn new(inner: Box<dyn Router>, totals: RouterTotals) -> Self {
        TimedRouter { inner, totals }
    }

    fn other<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
        out
    }
}

impl Router for TimedRouter {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn initial_copies(&self, msg: &Message) -> u32 {
        self.other(|| self.inner.initial_copies(msg))
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn on_message_created(&mut self, ctx: &mut NodeCtx<'_>, msg: MessageId) {
        let t = Instant::now();
        self.inner.on_message_created(ctx, msg);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let t = Instant::now();
        self.inner.on_contact_up(ctx, peer);
        let mut tot = self.totals.borrow_mut();
        tot.contact_up_s += t.elapsed().as_secs_f64();
        tot.contact_up_calls += 1;
    }

    fn on_contact_down(&mut self, ctx: &mut NodeCtx<'_>, peer: NodeId) {
        let t = Instant::now();
        self.inner.on_contact_down(ctx, peer);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        let t = Instant::now();
        let plan = self.inner.pick_transfer(ctx);
        let mut tot = self.totals.borrow_mut();
        tot.pick_s += t.elapsed().as_secs_f64();
        tot.pick_calls += 1;
        tot.pick_plans += u64::from(plan.is_some());
        plan
    }

    fn on_sent(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        msg: &Message,
        action: TransferAction,
        to: NodeId,
        delivered: bool,
    ) {
        let t = Instant::now();
        self.inner.on_sent(ctx, msg, action, to, delivered);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn on_received(&mut self, ctx: &mut NodeCtx<'_>, entry: &BufferEntry, from: NodeId) {
        let t = Instant::now();
        self.inner.on_received(ctx, entry, from);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn on_delivery_received(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        msg: &Message,
        from: NodeId,
        first: bool,
    ) {
        let t = Instant::now();
        self.inner.on_delivery_received(ctx, msg, from, first);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn on_dropped(&mut self, ctx: &mut NodeCtx<'_>, msg: &Message, reason: DropReason) {
        let t = Instant::now();
        self.inner.on_dropped(ctx, msg, reason);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
    }

    fn select_drops(&mut self, buf: &Buffer, incoming: &Message, now: SimTime) -> Vec<MessageId> {
        let t = Instant::now();
        let out = self.inner.select_drops(buf, incoming, now);
        self.totals.borrow_mut().other_s += t.elapsed().as_secs_f64();
        out
    }

    fn tick_interval(&self) -> Option<f64> {
        self.other(|| self.inner.tick_interval())
    }

    fn on_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_tick(ctx);
        self.totals.borrow_mut().tick_s += t.elapsed().as_secs_f64();
    }
}

/// Source-side totals, shared with the thread that reads them after the
/// run (the engine owns, and finally drops, the source).
pub type SourceTotals = Arc<Mutex<BoundaryTotals>>;

/// Times every window pulled from the wrapped contact source.
pub struct TimedSource {
    inner: Box<dyn ContactSource>,
    totals: SourceTotals,
}

impl TimedSource {
    /// Wraps `inner`, summing into `totals`.
    pub fn new(inner: Box<dyn ContactSource>, totals: SourceTotals) -> Self {
        TimedSource { inner, totals }
    }
}

impl ContactSource for TimedSource {
    fn n_nodes(&self) -> u32 {
        self.inner.n_nodes()
    }

    fn duration(&self) -> f64 {
        self.inner.duration()
    }

    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.next_window(until, out);
        let dt = t.elapsed().as_secs_f64();
        let mut tot = self.totals.lock().expect("source totals poisoned");
        tot.window_s += dt;
        tot.windows += 1;
        tot.contact_events += (out.len() - before) as u64;
    }

    fn window_hint(&self) -> f64 {
        self.inner.window_hint()
    }
}

/// Times every batch delivered to the wrapped observer. The engine hands
/// observers back after the run; [`TimedObserver::inner`] recovers the
/// probe for result extraction.
pub struct TimedObserver {
    inner: Box<dyn SimObserver>,
    /// Seconds inside the probe's callbacks.
    pub dispatch_s: f64,
    /// `on_events` calls.
    pub batches: u64,
    /// Events delivered.
    pub events: u64,
}

impl TimedObserver {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SimObserver>) -> Self {
        TimedObserver {
            inner,
            dispatch_s: 0.0,
            batches: 0,
            events: 0,
        }
    }

    /// The wrapped probe.
    pub fn inner(&self) -> &dyn SimObserver {
        self.inner.as_ref()
    }
}

impl SimObserver for TimedObserver {
    fn on_events(&mut self, batch: &[SimEvent]) {
        let t = Instant::now();
        self.inner.on_events(batch);
        self.dispatch_s += t.elapsed().as_secs_f64();
        self.batches += 1;
        self.events += batch.len() as u64;
    }

    fn on_end(&mut self, now: SimTime, final_stats: &StatsSnapshot) {
        let t = Instant::now();
        self.inner.on_end(now, final_stats);
        self.dispatch_s += t.elapsed().as_secs_f64();
    }

    fn sample_interval(&self) -> Option<f64> {
        self.inner.sample_interval()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
