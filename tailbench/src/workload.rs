//! The named workloads and the runner that simulates one episode of them.
//!
//! Every workload is an open loop on the calibrated network of the
//! experiments (100 µs one-way latency, up to 50 µs jitter, lossless),
//! three replicas tolerating one crash, and the repository's aggregate
//! load engine standing in for 100 000 logical clients. An episode is one
//! fresh cluster run through warmup and the measured window; its
//! simulated numbers depend on nothing but the workload and the seed.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idem_common::{Directory, LoadPhase, ReplicaId, Request, RequestId, StateMachine};
use idem_core::{IdemMessage, IdemReplica};
use idem_harness::cluster::{experiment_network, Protocol, KV_EXEC_COST};
use idem_harness::experiments::load::CAPACITY_REQ_S;
use idem_harness::load::{LoadEvent, LoadPort};
use idem_harness::{LoadScenario, LoadSource, Recorder, RecorderHandle};
use idem_kv::{KvStore, WorkloadSpec};
use idem_paxos::{PaxosMessage, PaxosReplica};
use idem_simnet::{Context, Node, NodeId, SimTime, Simulation, TimerId, Wire};

use crate::measure;
use crate::spans::{Span, Timed, TimedApp};

/// Logical client population of every workload.
pub const POPULATION: u32 = 100_000;

/// Replica group size (f = 1).
const REPLICAS: u32 = 3;

/// Prefix of every episode excluded from the simulated metrics.
const WARMUP: Duration = Duration::from_millis(300);

/// Virtual time run after the measured window with arrivals stopped, so
/// in-flight operations finish (retransmits included: the load engine
/// retransmits once a second) and the replicas reach a common state
/// before the correctness checks compare them.
const DRAIN: Duration = Duration::from_millis(1_500);

/// Service counts as resumed after a crash when the last this much of the
/// measured window holds a success.
const RESUME_WITHIN: Duration = Duration::from_millis(100);

/// Bin width of the recorder's time series, which the benchmark does not
/// read: the harness default, to keep them small.
const SERIES_BIN: Duration = Duration::from_millis(250);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IDEM through a 2.2× capacity spike: the overload case.
    FlashCrowd,
    /// Paxos at 0.7× capacity on a read-heavy mix: no overload, no
    /// rejection, no fault.
    SteadyReads,
    /// IDEM at 0.8× capacity losing its initial leader for good.
    LeaderCrash,
}

impl Workload {
    /// Every workload, in the order the usage line lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FlashCrowd,
        Workload::SteadyReads,
        Workload::LeaderCrash,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlashCrowd => "flash_crowd",
            Workload::SteadyReads => "steady_reads",
            Workload::LeaderCrash => "leader_crash",
        }
    }

    /// What an episode of this workload simulates under `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        let phase = |label, ms, mult| LoadPhase::new(label, Duration::from_millis(ms), mult);
        let (phases, spec) = match self {
            Workload::FlashCrowd => (
                vec![
                    phase("calm", 500, 0.7),
                    phase("spike", 1_000, 2.2),
                    phase("recover", 500, 0.7),
                ],
                WorkloadSpec::update_heavy(),
            ),
            Workload::SteadyReads => (
                vec![phase("steady", 2_000, 0.7)],
                WorkloadSpec::read_heavy(),
            ),
            Workload::LeaderCrash => (
                vec![phase("steady", 5_000, 0.8)],
                WorkloadSpec::update_heavy(),
            ),
        };
        Plan {
            idem: self != Workload::SteadyReads,
            scenario: LoadScenario::new(self.name(), POPULATION, CAPACITY_REQ_S, phases)
                .with_warmup(WARMUP)
                .with_workload(spec)
                .with_seed(seed),
            crash_at: (self == Workload::LeaderCrash)
                .then_some(WARMUP + Duration::from_millis(500)),
        }
    }
}

/// What one episode simulates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// IDEM replicas if set, else Paxos.
    pub idem: bool,
    /// The open-loop scenario the load source runs.
    pub scenario: LoadScenario,
    /// When replica 0 (the initial leader) crashes for good, as virtual
    /// time from the start, if it does.
    pub crash_at: Option<Duration>,
}

/// The spans of one traced episode: the replicas' handlers, the key-value
/// store inside them, and the load source's handlers. `Simulation::run_for`
/// is timed by the runner itself, traced or not.
#[derive(Debug, Default)]
pub struct Spans {
    /// `on_message`/`on_timer` of every replica.
    pub replicas: Arc<Span>,
    /// `StateMachine::execute_into` of every replica's store.
    pub kv: Arc<Span>,
    /// `on_message`/`on_timer` of the load source.
    pub load: Arc<Span>,
}

/// Protocol-side counters summed (or maxed) over the replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaTally {
    /// Client requests received (duplicates included).
    pub requests: u64,
    /// Requests rejected by the acceptance test.
    pub rejected: u64,
    /// Requests accepted (from clients or forwarded).
    pub accepted: u64,
    /// Completed view changes.
    pub view_changes: u64,
    /// Requests forwarded to peers.
    pub forwards: u64,
    /// Request bodies fetched from peers.
    pub fetches: u64,
    /// Operations executed by the replica that executed the most.
    pub commits: u64,
    /// Longest request queue any replica saw (Paxos only).
    pub max_queue_len: u64,
}

/// Everything simulated in one episode. Exact for a given workload and
/// seed: two episodes of the same seed compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Arrivals offered in the measured window.
    pub offered: u64,
    /// Completions within the SLA in the measured window.
    pub within_sla: u64,
    /// Measured window length in seconds.
    pub measured_s: f64,
    /// Virtual seconds simulated in the timed run (warmup included).
    pub virtual_s: f64,
    /// Success latencies (ns, from when the arrival was due) of the
    /// completions in the measured window, sorted.
    pub latencies: Vec<u64>,
    /// Longest stretch of the measured window without a successful reply.
    pub unavailable_ms: f64,
    /// Whether the last 100 ms of the window saw a successful reply.
    pub serving_at_end: bool,
    /// Simulator events dispatched in the timed run.
    pub events: u64,
    /// Timers fired in the timed run.
    pub timers: u64,
    /// Largest number of pending events.
    pub queue_high_water: u64,
    /// Messages sent in the timed run.
    pub messages: u64,
    /// Bytes sent in the timed run.
    pub bytes: u64,
    /// Replica counters at the end of the timed run.
    pub tally: ReplicaTally,
    /// Load-engine retransmissions over the whole timed run.
    pub retransmits: u64,
    /// Arrivals shed at the source over the whole timed run.
    pub shed: u64,
    /// Operations never answered, even after the drain.
    pub unanswered: u64,
}

/// Latency quantiles reported, in percent.
pub const QUANTILES: [f64; 3] = [50.0, 99.0, 99.9];

/// Episodes per run, each with its own seed derived from the run's seed:
/// the simulated metrics pool them, so one unlucky episode cannot swing
/// a run's figures.
pub const EPISODES: usize = 8;

/// The seed of episode `i` of a run seeded with `seed`.
pub fn episode_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(EPISODES as u64).wrapping_add(i as u64)
}

/// The simulated end-to-end metrics of a run, pooled over its episodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pooled {
    /// Completions within the SLA per second of measured window.
    pub goodput_per_s: f64,
    /// Success latency quantiles in ms, as listed in [`QUANTILES`].
    pub latency_ms: Vec<f64>,
    /// Share of offered arrivals served within the SLA.
    pub served_fraction: f64,
    /// Mean over episodes of the longest stretch without a success.
    pub unavailable_ms: f64,
}

/// Pools the outcomes of a run's episodes.
pub fn pool(outcomes: &[Outcome]) -> Pooled {
    let sum = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let offered = outcomes.iter().map(|o| o.offered).sum();
    let within = outcomes.iter().map(|o| o.within_sla).sum();
    Pooled {
        goodput_per_s: within as f64 / sum(|o| o.measured_s),
        latency_ms: QUANTILES
            .iter()
            .map(|&q| measure::quantile(&latencies, q) as f64 / 1e6)
            .collect(),
        served_fraction: 1.0 - measure::miss_fraction(offered, within),
        unavailable_ms: sum(|o| o.unavailable_ms) / outcomes.len() as f64,
    }
}

/// One simulated episode with its wall-clock measurements.
#[derive(Debug)]
pub struct Episode {
    /// Wall time to build the simulation, replicas and load source.
    pub setup: Duration,
    /// Wall time of the timed `Simulation::run_for`.
    pub run: Duration,
    /// The simulated numbers.
    pub outcome: Outcome,
    /// Failed correctness checks (empty when the episode is correct).
    pub failures: Vec<String>,
    /// Layer spans, for a traced episode.
    pub spans: Option<Spans>,
}

/// The protocol glue the runner needs: how to build a replica, how the
/// load source talks to it, and what to read back from it.
trait Proto: 'static {
    type Msg: Wire + Clone + 'static;
    type Replica: Node<Self::Msg> + 'static;
    type Port: LoadPort<Msg = Self::Msg>;

    fn replica(
        id: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> Self::Replica;

    fn port(replicas: &[NodeId], issued: Issued) -> Self::Port;

    /// The request a message replies to, if it is a successful reply.
    fn reply_id(msg: &Self::Msg) -> Option<RequestId>;

    /// Executed-log position and the application state.
    fn state(replica: &Self::Replica) -> (u64, &dyn StateMachine);

    fn tally(replica: &Self::Replica, into: &mut ReplicaTally);
}

/// When each logical client's current operation was first submitted, as
/// `(op number, virtual ns)` indexed by client id. The port writes it and
/// [`Observed`] reads it when the operation succeeds. The load engine
/// submits an operation the moment it arrives, so this is the arrival.
type Issued = Rc<RefCell<Vec<(u64, u64)>>>;

fn note_issue(issued: &Issued, req: &Request, now: SimTime) {
    let slot = &mut issued.borrow_mut()[req.id.client.0 as usize];
    // Retransmissions keep the first submission.
    if slot.0 != req.id.op.0 {
        *slot = (req.id.op.0, now.as_nanos());
    }
}

/// The load source, watched for successes so that their latencies are
/// kept exactly: the recorder keeps only a log-bucketed histogram, whose
/// quantiles can read the same for every seed.
struct Observed<P: Proto> {
    source: LoadSource<P::Port>,
    issued: Issued,
    window_start: SimTime,
    /// Times (ns) of the successes at or after `window_start`, in order.
    success_at: Vec<u64>,
    /// Their latencies (ns), in the same order.
    latencies: Vec<u64>,
}

impl<P: Proto> Node<P::Msg> for Observed<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.source.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        let reply = P::reply_id(&msg);
        let completed = self.source.counters().completed;
        self.source.on_message(ctx, from, msg);
        let now = ctx.now();
        if let Some(id) = reply {
            if self.source.counters().completed > completed && now >= self.window_start {
                let (op, at) = self.issued.borrow()[id.client.0 as usize];
                debug_assert_eq!(op, id.op.0, "a success answers the current operation");
                self.success_at.push(now.as_nanos());
                self.latencies.push(now.as_nanos() - at);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, id: TimerId, msg: P::Msg) {
        self.source.on_timer(ctx, id, msg);
    }
}

struct Idem;

/// IDEM port: requests are multicast to every replica; a request counts as
/// rejected once `n - f` replicas rejected it.
struct IdemPort {
    replicas: Vec<NodeId>,
    ambivalence: u32,
    issued: Issued,
}

impl LoadPort for IdemPort {
    type Msg = IdemMessage;

    fn submit(&mut self, ctx: &mut Context<'_, IdemMessage>, _: &Directory<NodeId>, req: Request) {
        note_issue(&self.issued, &req, ctx.now());
        ctx.multicast(self.replicas.iter().copied(), IdemMessage::Request(req));
    }

    fn classify(&self, msg: IdemMessage) -> LoadEvent {
        match msg {
            IdemMessage::Reply(reply) => LoadEvent::Reply(reply),
            IdemMessage::Reject(id) => LoadEvent::Reject(id),
            _ => LoadEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        Some(self.ambivalence)
    }

    fn reject_is_final(&self) -> bool {
        false
    }

    fn tick(arg: u64) -> IdemMessage {
        IdemMessage::RetransmitTimer(idem_common::OpNumber(arg))
    }

    fn tick_arg(msg: &IdemMessage) -> Option<u64> {
        match msg {
            IdemMessage::RetransmitTimer(op) => Some(op.0),
            _ => None,
        }
    }
}

fn idem_config() -> idem_core::IdemConfig {
    match Protocol::idem() {
        Protocol::Idem { config, .. } => config,
        _ => unreachable!("Protocol::idem builds an IDEM config"),
    }
}

impl Proto for Idem {
    type Msg = IdemMessage;
    type Replica = IdemReplica;
    type Port = IdemPort;

    fn replica(
        id: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> IdemReplica {
        let mut replica = IdemReplica::new(idem_config(), id, dir, app);
        replica.set_persistence(idem_common::PersistMode::Disabled);
        replica
    }

    fn port(replicas: &[NodeId], issued: Issued) -> IdemPort {
        IdemPort {
            replicas: replicas.to_vec(),
            ambivalence: idem_config().quorum.ambivalence(),
            issued,
        }
    }

    fn reply_id(msg: &IdemMessage) -> Option<RequestId> {
        match msg {
            IdemMessage::Reply(reply) => Some(reply.id),
            _ => None,
        }
    }

    fn state(replica: &IdemReplica) -> (u64, &dyn StateMachine) {
        (replica.next_exec().0, replica.app())
    }

    fn tally(replica: &IdemReplica, into: &mut ReplicaTally) {
        let s = replica.stats();
        into.requests += s.requests_received;
        into.rejected += s.rejected;
        into.accepted += s.accepted_client + s.accepted_forward;
        into.view_changes += s.view_changes_completed;
        into.forwards += s.forwards_sent;
        into.fetches += s.fetches_sent;
        into.commits = into.commits.max(s.executed);
    }
}

struct Paxos;

/// Paxos port: requests go to the leader, tracked from reply senders.
/// The steady-reads workload has no fault, so no failover probing.
struct PaxosPort {
    leader: ReplicaId,
    issued: Issued,
}

impl LoadPort for PaxosPort {
    type Msg = PaxosMessage;

    fn submit(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        dir: &Directory<NodeId>,
        req: Request,
    ) {
        note_issue(&self.issued, &req, ctx.now());
        ctx.send(dir.replica(self.leader), PaxosMessage::Request(req));
    }

    fn classify(&self, msg: PaxosMessage) -> LoadEvent {
        match msg {
            PaxosMessage::Reply(reply) => LoadEvent::Reply(reply),
            PaxosMessage::Reject(id) => LoadEvent::Reject(id),
            _ => LoadEvent::Other,
        }
    }

    fn note_reply_from(&mut self, dir: &Directory<NodeId>, from: NodeId) {
        if let Some(r) = dir.replica_of(from) {
            self.leader = r;
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> PaxosMessage {
        PaxosMessage::ClientTimeout(idem_common::OpNumber(arg))
    }

    fn tick_arg(msg: &PaxosMessage) -> Option<u64> {
        match msg {
            PaxosMessage::ClientTimeout(op) => Some(op.0),
            _ => None,
        }
    }
}

impl Proto for Paxos {
    type Msg = PaxosMessage;
    type Replica = PaxosReplica;
    type Port = PaxosPort;

    fn replica(
        id: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> PaxosReplica {
        let config = match Protocol::paxos() {
            Protocol::Paxos { config, .. } => config,
            _ => unreachable!("Protocol::paxos builds a Paxos config"),
        };
        let mut replica = PaxosReplica::new(config, id, dir, app);
        replica.set_persistence(idem_common::PersistMode::Disabled);
        replica
    }

    fn port(_: &[NodeId], issued: Issued) -> PaxosPort {
        PaxosPort {
            leader: ReplicaId(0),
            issued,
        }
    }

    fn reply_id(msg: &PaxosMessage) -> Option<RequestId> {
        match msg {
            PaxosMessage::Reply(reply) => Some(reply.id),
            _ => None,
        }
    }

    fn state(replica: &PaxosReplica) -> (u64, &dyn StateMachine) {
        (replica.next_exec().0, replica.app())
    }

    fn tally(replica: &PaxosReplica, into: &mut ReplicaTally) {
        let s = replica.stats();
        into.requests += s.requests_received;
        into.rejected += s.rejected;
        into.view_changes += s.view_changes_completed;
        into.commits = into.commits.max(s.executed);
        into.max_queue_len = into.max_queue_len.max(s.max_queue_len);
    }
}

/// A built, not yet started cluster.
struct Cell<P: Proto> {
    sim: Simulation<P::Msg>,
    replicas: Vec<NodeId>,
    source: NodeId,
    recorder: RecorderHandle,
    sc: LoadScenario,
}

fn install<M: Wire + 'static, N: Node<M> + 'static>(
    sim: &mut Simulation<M>,
    id: NodeId,
    node: N,
    span: Option<&Arc<Span>>,
) {
    match span {
        Some(span) => sim.install_node(id, Box::new(Timed::new(node, span.clone()))),
        None => sim.install_node(id, Box::new(node)),
    }
}

/// Mutably borrows node `id` as `T`, looking through a [`Timed`] wrapper.
fn node_mut<M: Wire + 'static, T: 'static>(sim: &mut Simulation<M>, id: NodeId) -> &mut T {
    if sim.node_as::<T>(id).is_some() {
        sim.node_as_mut::<T>(id).expect("checked above")
    } else {
        &mut sim
            .node_as_mut::<Timed<T>>(id)
            .expect("node has the installed type")
            .inner
    }
}

/// Borrows node `id` as `T`, looking through a [`Timed`] wrapper.
fn node<M: Wire + 'static, T: 'static>(sim: &Simulation<M>, id: NodeId) -> &T {
    sim.node_as::<T>(id)
        .or_else(|| sim.node_as::<Timed<T>>(id).map(|t| &t.inner))
        .expect("node has the installed type")
}

fn build<P: Proto>(plan: &Plan, spans: Option<&Spans>) -> Cell<P> {
    let sc = plan.scenario.clone();
    let mut sim: Simulation<P::Msg> = Simulation::with_network(sc.seed, experiment_network());
    let replicas: Vec<NodeId> = (0..REPLICAS).map(|_| sim.reserve_node()).collect();
    let source = sim.reserve_node();
    let dir = Directory::with_client_fallback(replicas.clone(), Vec::new(), source);
    for (i, &id) in replicas.iter().enumerate() {
        let kv = KvStore::with_costs(KV_EXEC_COST, Duration::ZERO);
        let app: Box<dyn StateMachine + Send> = match spans {
            Some(s) => Box::new(TimedApp::new(kv, s.kv.clone())),
            None => Box::new(kv),
        };
        let replica = P::replica(ReplicaId(i as u32), dir.clone(), app);
        install(&mut sim, id, replica, spans.map(|s| &s.replicas));
    }
    let recorder = RecorderHandle::new(Recorder::new(sc.warmup, SERIES_BIN));
    let issued: Issued = Rc::new(RefCell::new(vec![(0, 0); sc.population as usize]));
    let port = P::port(&replicas, issued.clone());
    let observed = Observed::<P> {
        source: LoadSource::new(port, dir, sc.clone(), recorder.clone()),
        issued,
        window_start: SimTime::ZERO + sc.warmup,
        success_at: Vec::new(),
        latencies: Vec::new(),
    };
    install(&mut sim, source, observed, spans.map(|s| &s.load));
    if let Some(at) = plan.crash_at {
        sim.schedule_crash(replicas[0], SimTime::ZERO + at);
    }
    Cell {
        sim,
        replicas,
        source,
        recorder,
        sc,
    }
}

fn episode<P: Proto>(plan: &Plan, traced: bool) -> Episode {
    let spans = traced.then(Spans::default);
    let started = Instant::now();
    let mut cell = build::<P>(plan, spans.as_ref());
    let setup = started.elapsed();

    let total = cell.sc.total_duration();
    let started = Instant::now();
    cell.sim.run_for(total);
    let run = started.elapsed();

    let mut failures = Vec::new();
    let observed = node_mut::<P::Msg, Observed<P>>(&mut cell.sim, cell.source);
    let success_at = std::mem::take(&mut observed.success_at);
    let mut latencies = std::mem::take(&mut observed.latencies);
    let result = observed.source.result(cell.sc.name);
    let (start, end) = (cell.sc.warmup.as_nanos() as u64, total.as_nanos() as u64);
    let recorded = cell.recorder.with(|r| {
        let h = r.reply_latency();
        (h.count(), h.mean())
    });
    let sum: u64 = latencies.iter().sum();
    let observed = (
        latencies.len() as u64,
        measure::ratio(sum as f64, latencies.len() as f64),
    );
    if observed.0 != recorded.0 || (observed.1 - recorded.1).abs() > 1e-6 * recorded.1 {
        failures.push(format!(
            "observed (successes, mean latency) {observed:?} != recorded {recorded:?}"
        ));
    }
    latencies.sort_unstable();
    let mut tally = ReplicaTally::default();
    for &id in &cell.replicas {
        P::tally(node::<P::Msg, P::Replica>(&cell.sim, id), &mut tally);
    }
    let stats = cell.sim.event_stats();
    let mut outcome = Outcome {
        offered: result.totals.offered,
        within_sla: result.totals.within_sla,
        measured_s: (total - cell.sc.warmup).as_secs_f64(),
        virtual_s: total.as_secs_f64(),
        latencies,
        unavailable_ms: measure::unavailable_ms(&success_at, start, end),
        serving_at_end: measure::serves_at_end(&success_at, end, RESUME_WITHIN.as_nanos() as u64),
        events: cell.sim.events_processed(),
        timers: stats.timers,
        queue_high_water: stats.queue_high_water,
        messages: cell.sim.traffic().total_messages(),
        bytes: cell.sim.traffic().total_bytes(),
        tally,
        retransmits: result.warmup.retransmits + result.totals.retransmits,
        shed: result.counters.shed,
        unanswered: 0,
    };

    cell.sim.run_for(DRAIN);
    check::<P>(plan, &cell, &mut outcome, &mut failures);
    Episode {
        setup,
        run,
        outcome,
        failures,
        spans,
    }
}

/// The correctness gate of one episode, run after the drain.
fn check<P: Proto>(plan: &Plan, cell: &Cell<P>, outcome: &mut Outcome, failures: &mut Vec<String>) {
    let src = &node::<P::Msg, Observed<P>>(&cell.sim, cell.source).source;
    if let Some(err) = src.conservation_error() {
        failures.push(format!("load-engine conservation: {err}"));
    }
    let counters = src.counters();
    outcome.unanswered = counters.in_flight + counters.pending_issue;
    let violations = cell.recorder.with(Recorder::order_violations);
    if violations != 0 {
        failures.push(format!("{violations} session-order violations"));
    }
    let live: Vec<(u64, u64)> = cell
        .replicas
        .iter()
        .filter(|&&id| !cell.sim.is_crashed(id))
        .map(|&id| {
            let (next_exec, app) = P::state(node::<P::Msg, P::Replica>(&cell.sim, id));
            (next_exec, measure::digest(&app.snapshot()))
        })
        .collect();
    if live.windows(2).any(|pair| pair[0] != pair[1]) {
        failures.push(format!(
            "live replicas disagree after the drain: (next_exec, app digest) = {live:?}"
        ));
    }
    if plan.crash_at.is_some() && !outcome.serving_at_end {
        failures.push("service did not resume after the leader crash".into());
    }
}

/// Simulates one episode of `plan`; `traced` wraps every layer's entry
/// points in timing spans.
pub fn run_episode(plan: &Plan, traced: bool) -> Episode {
    if plan.idem {
        episode::<Idem>(plan, traced)
    } else {
        episode::<Paxos>(plan, traced)
    }
}

/// A fingerprint of the first `window` of `plan`'s arrivals: offered
/// arrivals, events dispatched, and bytes sent.
pub fn arrival_fingerprint(plan: &Plan, window: Duration) -> (u64, u64, u64) {
    fn probe<P: Proto>(plan: &Plan, window: Duration) -> (u64, u64, u64) {
        let mut cell = build::<P>(plan, None);
        cell.sim.run_for(window);
        let src = &node::<P::Msg, Observed<P>>(&cell.sim, cell.source).source;
        (
            src.counters().offered,
            cell.sim.events_processed(),
            cell.sim.traffic().total_bytes(),
        )
    }
    if plan.idem {
        probe::<Idem>(plan, window)
    } else {
        probe::<Paxos>(plan, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down episode of `w`: 2 000 clients and 300 ms measured at
    /// 1.5× capacity; the crash workload instead runs 2.5 s at 0.1×
    /// capacity, long enough to outlast the view change, and crashes
    /// 200 ms in.
    fn tiny(w: Workload, seed: u64) -> Plan {
        let mut plan = w.plan(seed);
        plan.scenario.population = 2_000;
        plan.scenario.warmup = Duration::from_millis(50);
        let (ms, mult) = if plan.crash_at.is_some() {
            (2_500, 0.1)
        } else {
            (300, 1.5)
        };
        plan.scenario.phases = vec![LoadPhase::new("tiny", Duration::from_millis(ms), mult)];
        plan.crash_at = plan.crash_at.map(|_| Duration::from_millis(250));
        plan
    }

    #[test]
    fn wrappers_are_transparent() {
        for w in Workload::ALL {
            let plan = tiny(w, 3);
            let plain = run_episode(&plan, false);
            let traced = run_episode(&plan, true);
            assert_eq!(plain.failures, Vec::<String>::new(), "{w:?}");
            assert_eq!(traced.failures, Vec::<String>::new(), "{w:?}");
            assert!(
                plain.outcome == traced.outcome,
                "{w:?}: tracing changed the simulation"
            );
            assert!(plain.spans.is_none());
            let spans = traced.spans.expect("traced episode has spans");
            assert!(
                spans.replicas.calls() > 0 && spans.load.calls() > 0,
                "{w:?}"
            );
            assert!(spans.kv.calls() > 0, "{w:?}");
            assert!(
                spans.kv.total() <= spans.replicas.total(),
                "{w:?}: kv runs inside replicas"
            );
            assert!(
                spans.replicas.total() + spans.load.total() <= traced.run,
                "{w:?}"
            );
        }
    }

    #[test]
    fn the_crash_workload_loses_and_regains_service() {
        let outcome = run_episode(&tiny(Workload::LeaderCrash, 3), false).outcome;
        assert!(outcome.tally.view_changes > 0, "{outcome:?}");
        assert!(outcome.unavailable_ms > 50.0, "{outcome:?}");
        assert!(outcome.serving_at_end);
    }

    #[test]
    fn seeds_drive_the_arrivals() {
        let probe = |seed| {
            arrival_fingerprint(&tiny(Workload::FlashCrowd, seed), Duration::from_millis(20))
        };
        assert_eq!(probe(5), probe(5));
        assert_ne!(probe(5), probe(6));
    }

    #[test]
    fn episode_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (1..4)
            .flat_map(|seed| (0..EPISODES).map(move |i| episode_seed(seed, i)))
            .collect();
        assert_eq!(seeds.len(), 3 * EPISODES);
    }

    #[test]
    fn pooling_weights_by_counts() {
        let mut a = run_episode(&tiny(Workload::SteadyReads, 1), false).outcome;
        let mut b = a.clone();
        (a.offered, a.within_sla, a.unavailable_ms) = (100, 90, 1.0);
        (b.offered, b.within_sla, b.unavailable_ms) = (300, 300, 3.0);
        let pooled = pool(&[a.clone(), b]);
        assert_eq!(pooled.served_fraction, 390.0 / 400.0);
        assert_eq!(pooled.unavailable_ms, 2.0);
        assert_eq!(pooled.goodput_per_s, 390.0 / (2.0 * a.measured_s));
        let alone: Vec<f64> = QUANTILES
            .iter()
            .map(|&q| measure::quantile(&a.latencies, q) as f64 / 1e6)
            .collect();
        assert_eq!(pool(&[a]).latency_ms, alone);
    }
}
