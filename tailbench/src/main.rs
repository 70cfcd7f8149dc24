//! End-to-end benchmark of the IDEM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path tailbench/Cargo.toml -- \
//!     --workload flash_crowd --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload (see `workload.rs` and README.md) in one thread,
//! simulating fresh episodes of it until `--seconds` of wall time have
//! passed, checks every episode for correctness, and prints one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced episodes
//! and reports the per-layer metrics. Exits nonzero if a check fails.

mod measure;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workload::{episode_seed, run_episode, Episode, Outcome, Workload, EPISODES};

/// Virtual length of the arrival prefix compared across seeds by the
/// seed self-check.
const PROBE_WINDOW: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: tailbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in report order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run found, before printing.
#[derive(Default)]
struct Report {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    /// Folds one episode's checks and counts in; `reference` is the first
    /// episode of the same seed, which the episode must reproduce exactly.
    fn absorb(&mut self, ep: &Episode, reference: &Outcome, label: &str) {
        for f in &ep.failures {
            self.failures.push(format!("{label}: {f}"));
        }
        if ep.outcome != *reference {
            self.failures.push(format!(
                "{label}: simulated metrics differ from the first episode of the same seed"
            ));
        }
        self.attempted += ep.outcome.offered;
        self.failed += ep.outcome.unanswered;
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Same seed, same arrivals; another seed, other arrivals.
fn seed_self_check(w: Workload, seed: u64) -> Vec<String> {
    let probe = |seed| workload::arrival_fingerprint(&w.plan(seed), PROBE_WINDOW);
    let (a, b, c) = (probe(seed), probe(seed), probe(seed.wrapping_add(1)));
    let mut failures = Vec::new();
    if a != b {
        failures.push(format!("seed {seed} gave two different arrival prefixes"));
    }
    if a == c {
        failures.push(format!(
            "seeds {seed} and {} gave the same arrivals",
            seed.wrapping_add(1)
        ));
    }
    failures
}

fn simulated_metrics(outcomes: &[Outcome]) -> Metrics {
    let p = workload::pool(outcomes);
    vec![
        ("goodput_per_s", p.goodput_per_s, "1/s"),
        ("p50_ms", p.latency_ms[0], "ms"),
        ("p99_ms", p.latency_ms[1], "ms"),
        ("p999_ms", p.latency_ms[2], "ms"),
        ("served_fraction", p.served_fraction, "fraction"),
        ("unavailable_ms", p.unavailable_ms, "ms"),
    ]
}

/// Runs episodes round-robin over the run's episode seeds until every
/// seed ran once and `--seconds` have passed. `step` runs the episode(s)
/// of one turn for a seed and returns them; the first turn of each seed
/// sets the reference every later episode of that seed must reproduce.
/// Returns the reference outcomes, one per episode seed.
fn round_robin(
    args: &Args,
    report: &mut Report,
    mut step: impl FnMut(u64) -> Vec<(&'static str, Episode)>,
) -> Vec<Outcome> {
    let started = Instant::now();
    let mut references: Vec<Outcome> = Vec::new();
    let mut turn = 0;
    while turn < EPISODES || started.elapsed().as_secs() < args.seconds {
        let i = turn % EPISODES;
        for (label, ep) in step(episode_seed(args.seed, i)) {
            if references.len() == i {
                references.push(ep.outcome.clone());
            }
            report.absorb(&ep, &references[i], &format!("{label} episode {turn}"));
        }
        turn += 1;
    }
    references
}

/// `--trace 0`: untraced episodes, end-to-end metrics.
fn end_to_end(args: &Args, report: &mut Report) {
    let (mut speeds, mut setups, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut peak_rss_mb, mut machine) = (0.0, None);
    let references = round_robin(args, report, |seed| {
        let ep = run_episode(&args.workload.plan(seed), false);
        speeds.push(ep.outcome.virtual_s / ep.run.as_secs_f64());
        setups.push(ep.setup.as_secs_f64());
        // The high-water mark of a fresh process after one episode: later
        // episodes land in memory the allocator already holds, so their
        // peaks depend on fragmentation, not on the episode.
        if speeds.len() == 1 {
            peak_rss_mb = measure::peak_rss_mb().unwrap_or(0.0);
        }
        let machine = machine.get_or_insert_with(measure::Reference::new);
        passes.push(machine.pass().as_secs_f64());
        vec![("untraced", ep)]
    });
    // How many times slower than the reference machine this one ran: the
    // simulation speed is scaled by it, so that a neighbour slowing the
    // shared machine does not read as a change of the program. Set-up
    // allocates fresh memory, which the reference pass does not, and did
    // not track the pass in tuning runs, so it stays unscaled.
    let slowdown = measure::median(&passes) / measure::REFERENCE_PASS.as_secs_f64();
    let speed = measure::median(&speeds);
    eprintln!(
        "tailbench: unscaled sim_speed {speed:.4} s/s; \
         machine slowdown {slowdown:.4} over {} reference passes",
        passes.len()
    );
    report.metrics = vec![
        ("sim_speed", speed * slowdown, "s/s"),
        ("setup_s", measure::median(&setups), "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    report.metrics.extend(simulated_metrics(&references));
}

/// Wall time and call count of one layer, summed over traced episodes.
#[derive(Default)]
struct LayerSum {
    self_s: f64,
    calls: f64,
}

/// `--trace 1`: untraced/traced episode pairs, per-layer metrics.
fn per_layer(args: &Args, report: &mut Report) {
    let mut ratios = Vec::new();
    let (mut run_s, mut simnet, mut replica, mut kv, mut load) = (
        0.0,
        LayerSum::default(),
        LayerSum::default(),
        LayerSum::default(),
        LayerSum::default(),
    );
    let references = round_robin(args, report, |seed| {
        let plain = run_episode(&args.workload.plan(seed), false);
        let traced = run_episode(&args.workload.plan(seed), true);
        ratios.push(traced.run.as_secs_f64() / plain.run.as_secs_f64());
        let spans = traced.spans.as_ref().expect("traced episode has spans");
        let (rep, kvt, ld) = (spans.replicas.total(), spans.kv.total(), spans.load.total());
        run_s += traced.run.as_secs_f64();
        simnet.self_s += traced.run.saturating_sub(rep + ld).as_secs_f64();
        simnet.calls += traced.outcome.events as f64;
        replica.self_s += rep.saturating_sub(kvt).as_secs_f64();
        replica.calls += spans.replicas.calls() as f64;
        kv.self_s += kvt.as_secs_f64();
        kv.calls += spans.kv.calls() as f64;
        load.self_s += ld.as_secs_f64();
        load.calls += spans.load.calls() as f64;
        vec![("untraced", plain), ("traced", traced)]
    });
    // Layer times are per traced episode; counts are per episode seed.
    let per_ep = |x: f64| x / ratios.len() as f64;
    let ns_per = |l: &LayerSum| measure::ratio(l.self_s * 1e9, l.calls);
    let mean = |f: fn(&Outcome) -> u64| {
        references.iter().map(|o| f(o) as f64).sum::<f64>() / references.len() as f64
    };
    let (commits, messages, bytes) = (
        mean(|o| o.tally.commits),
        mean(|o| o.messages),
        mean(|o| o.bytes),
    );
    let idem = args.workload.plan(args.seed).idem;
    // The protocol layer that did not run reports zeros.
    let only = |on: bool, x: f64| if on { x } else { 0.0 };
    let idle = LayerSum::default();
    let (core, paxos) = if idem {
        (&replica, &idle)
    } else {
        (&idle, &replica)
    };
    let requests = mean(|o| o.tally.requests);
    let msgs_per_commit = measure::ratio(messages, commits);
    report.metrics = vec![
        ("simnet.self_s", per_ep(simnet.self_s), "s"),
        ("simnet.events", mean(|o| o.events), "count"),
        ("simnet.ns_per_event", ns_per(&simnet), "ns"),
        ("simnet.timers", mean(|o| o.timers), "count"),
        (
            "simnet.queue_high_water",
            mean(|o| o.queue_high_water),
            "count",
        ),
        ("simnet.messages", messages, "count"),
        ("simnet.bytes", bytes, "bytes"),
        ("core.self_s", per_ep(core.self_s), "s"),
        ("core.calls", per_ep(core.calls), "count"),
        ("core.ns_per_call", ns_per(core), "ns"),
        (
            "core.reject_ratio",
            only(idem, measure::ratio(mean(|o| o.tally.rejected), requests)),
            "ratio",
        ),
        (
            "core.accept_ratio",
            only(idem, measure::ratio(mean(|o| o.tally.accepted), requests)),
            "ratio",
        ),
        ("core.msgs_per_commit", only(idem, msgs_per_commit), "count"),
        (
            "core.bytes_per_commit",
            only(idem, measure::ratio(bytes, commits)),
            "bytes",
        ),
        (
            "core.view_changes",
            only(idem, mean(|o| o.tally.view_changes)),
            "count",
        ),
        (
            "core.forwards",
            only(idem, mean(|o| o.tally.forwards)),
            "count",
        ),
        (
            "core.fetches",
            only(idem, mean(|o| o.tally.fetches)),
            "count",
        ),
        ("paxos.self_s", per_ep(paxos.self_s), "s"),
        ("paxos.calls", per_ep(paxos.calls), "count"),
        ("paxos.ns_per_call", ns_per(paxos), "ns"),
        (
            "paxos.max_queue_len",
            only(!idem, mean(|o| o.tally.max_queue_len)),
            "count",
        ),
        (
            "paxos.msgs_per_commit",
            only(!idem, msgs_per_commit),
            "count",
        ),
        ("kv.self_s", per_ep(kv.self_s), "s"),
        ("kv.calls", per_ep(kv.calls), "count"),
        ("kv.ns_per_exec", ns_per(&kv), "ns"),
        ("load.self_s", per_ep(load.self_s), "s"),
        ("load.calls", per_ep(load.calls), "count"),
        ("load.ns_per_call", ns_per(&load), "ns"),
        ("load.retransmits", mean(|o| o.retransmits), "count"),
        ("load.shed", mean(|o| o.shed), "count"),
        ("trace.run_s", per_ep(run_s), "s"),
        ("trace.overhead", measure::median(&ratios) - 1.0, "ratio"),
    ];
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("tailbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = Report {
        failures: seed_self_check(args.workload, args.seed),
        ..Report::default()
    };
    if args.trace {
        per_layer(&args, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    for failure in &report.failures {
        eprintln!("tailbench: check failed: {failure}");
    }
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
