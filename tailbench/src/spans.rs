//! Timing wrappers for the traced run.
//!
//! Each wrapper sits around one layer's public entry points and adds the
//! wall time of every call, plus a call count, to a shared [`Span`]. The
//! wrapped object sees exactly the calls it would see unwrapped, in the
//! same order and with the same arguments, so the simulation is
//! unchanged; `tests::wrappers_are_transparent` pins that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idem_common::StateMachine;
use idem_simnet::{Context, Node, NodeId, SimTime, TimerId};

/// Accumulated wall time and call count of one layer.
///
/// The simulation runs on one thread, so every span has a single writer:
/// updates are a relaxed load and store (plain moves), not read-modify-
/// write atomics. Atomics are only there because the state-machine
/// wrapper must be `Send` to be handed to a replica.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.ns
            .store(self.ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        self.calls
            .store(self.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Times one call of `f`.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(start);
        out
    }

    /// Total wall time spent inside timed calls.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.load(Ordering::Relaxed))
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A simulation node whose callbacks are timed into a [`Span`].
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    span: Arc<Span>,
}

impl<N> Timed<N> {
    /// Wraps `inner`, accumulating into `span`.
    pub fn new(inner: N, span: Arc<Span>) -> Timed<N> {
        Timed { inner, span }
    }
}

impl<M, N: Node<M> + 'static> Node<M> for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.span.time(|| self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        self.span.time(|| self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, id: TimerId, msg: M) {
        self.span.time(|| self.inner.on_timer(ctx, id, msg));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, M>) {
        self.span.time(|| self.inner.on_recover(ctx));
    }
}

/// A state machine whose `execute_into` calls are timed into a [`Span`].
pub struct TimedApp<S> {
    inner: S,
    span: Arc<Span>,
}

impl<S> TimedApp<S> {
    /// Wraps `inner`, accumulating into `span`.
    pub fn new(inner: S, span: Arc<Span>) -> TimedApp<S> {
        TimedApp { inner, span }
    }
}

impl<S: StateMachine> StateMachine for TimedApp<S> {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        self.span.time(|| self.inner.execute(command))
    }

    fn execute_into(&mut self, command: &[u8], out: &mut Vec<u8>) {
        self.span.time(|| self.inner.execute_into(command, out));
    }

    fn execution_cost(&self, command: &[u8]) -> Duration {
        self.inner.execution_cost(command)
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn snapshot_len(&self) -> usize {
        self.inner.snapshot_len()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.inner.restore(snapshot);
    }
}
