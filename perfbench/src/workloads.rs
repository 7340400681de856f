//! The three workloads, each driven through one public front door:
//! `QueryEngine` (batch), `StreamingEngine` (lossy streaming) and
//! `FleetService` (fleet reads and writes).

use crate::check::Mirror;
use crate::stats::{Rng, Tagged};
use saq_core::engine::{QueryEngine, QueryId, QueryOutcome, QuerySpec};
use saq_core::error::QueryError;
use saq_core::plan::QuantilePlan;
use saq_core::predicate::{Domain, Predicate};
use saq_core::service::FleetService;
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_core::streaming::StreamingEngine;
use saq_core::wave_proto::CoreRequest;
use saq_netsim::link::LinkConfig;
use saq_netsim::sim::SimConfig;
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_protocols::wave::Reliability;
use std::collections::HashMap;
use std::time::Instant;

/// Flat workers of every timed deployment. One, fixed: on the shared
/// two-vCPU host the workloads were sized on, run medians of the batch
/// round spread 16% (quartile distance over median) with two workers
/// and 5% with one, because a wave waits at its barrier for whichever
/// worker the host slowed down. Worker scaling is measured separately,
/// by `flat.speedup_2w_over_1w` in the traced run.
pub const WORKERS: usize = 1;

/// ARQ retransmission timeout of the lossy deployment. It must clear
/// the flat runner's worst-case round trip once GK quantile summaries
/// ride the envelope, or the closed-form ARQ emulation rejects the
/// wave; 200 ms does not, 5 s does.
const ARQ_TIMEOUT_MS: u64 = 5_000;

/// Largest item value of every deployment.
pub const XBAR: u64 = 1000;

/// One deployment shape.
pub struct Deploy {
    pub n: usize,
    pub degree: usize,
    /// Per-frame loss probability; `0.0` is a lossless deployment
    /// without ARQ.
    pub loss: f64,
    /// Subtree-partial cache entries per node; `0` disables the cache.
    pub cache: usize,
}

impl Deploy {
    /// Seeded items, uniform in `0..=XBAR`.
    pub fn items(&self, rng: &mut Rng) -> Vec<u64> {
        (0..self.n).map(|_| rng.below(XBAR + 1)).collect()
    }

    /// Builds the topology and the network; returns both build times in
    /// seconds. `cache = false` builds the same deployment without its
    /// subtree cache (the flat probes time full waves).
    pub fn build(
        &self,
        items: &[u64],
        seed: u64,
        workers: usize,
        cache: bool,
    ) -> (SimNetwork, f64, f64) {
        let t = Instant::now();
        let topo = Topology::balanced_tree(self.n, self.degree).expect("topology");
        let topology_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut b = SimNetworkBuilder::new()
            .max_children(self.degree)
            .flat(true)
            .shards(workers);
        if self.loss > 0.0 {
            b = b
                .reliability(Reliability::Ack {
                    timeout: SimDuration::from_millis(ARQ_TIMEOUT_MS),
                })
                .sim_config(
                    SimConfig::default()
                        .with_link(LinkConfig::default().with_loss(self.loss))
                        .with_seed(seed),
                );
        }
        if cache && self.cache > 0 {
            b = b.partial_cache(self.cache);
        }
        let net = b
            .build_one_per_node(&topo, items, XBAR)
            .expect("deployment");
        (net, topology_s, t.elapsed().as_secs_f64())
    }
}

/// What the timed rounds of one phase recorded.
#[derive(Default)]
pub struct Phase {
    pub rounds: u64,
    /// Wall time inside front-door calls: rounds and writes.
    pub busy_s: f64,
    /// Wall time inside the round calls alone (`run`/`step`).
    pub step_s: f64,
    /// Per-round time, tagged with the round's scheduled kind.
    pub round_ms: Tagged,
    /// Submission-to-answer time of multi-wave queries, on the service
    /// clock (the sum of round times in between).
    pub multiwave_ms: Tagged,
    /// Rounds from submission (or refresh due) to answer, per answer.
    pub query_rounds: Vec<u64>,
    /// Waves each answered query took part in.
    pub query_waves: Vec<u64>,
    /// Answers delivered (fleet: one per subscriber copy).
    pub answers: u64,
    /// Per-write time of the phase's item writes.
    pub update_us: Vec<f64>,
}

/// Per-instance state the rounds share: the item mirror, the write
/// schedule, answer-check counts and the service clock.
pub struct Ctx {
    pub mirror: Mirror,
    /// Drives the write schedule.
    pub rng: Rng,
    /// Checked operations and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Service clock: total time spent in round calls so far.
    pub clock_s: f64,
}

impl Ctx {
    pub fn new(mirror: Mirror, rng: Rng) -> Self {
        Ctx {
            mirror,
            rng,
            attempted: 0,
            failed: 0,
            clock_s: 0.0,
        }
    }

    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Checks one answer against the mirror (without counting it),
    /// reporting the first few mismatches on standard error.
    pub fn verify(&mut self, spec: &QuerySpec, outcome: &Result<QueryOutcome, QueryError>) -> bool {
        let ok = self.mirror.verify(spec, outcome);
        if !ok && self.failed < 5 {
            eprintln!("perfbench: wrong answer to {spec:?}: {outcome:?}");
        }
        ok
    }
}

/// One deployed workload behind its front door.
pub trait Session {
    fn net(&self) -> &SimNetwork;
    fn net_mut(&mut self) -> &mut SimNetwork;
    /// One single-item write through the front door.
    fn write(&mut self, node: usize, value: u64) -> Result<(), QueryError>;
    /// One round through the front door. Only the front-door call is
    /// timed; answers are checked against `ctx.mirror` afterwards.
    fn round(&mut self, ctx: &mut Ctx, phase: &mut Phase);
}

/// Times one front-door call and advances the service clock.
fn timed<T>(ctx: &mut Ctx, phase: &mut Phase, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    phase.busy_s += s;
    phase.step_s += s;
    ctx.clock_s += s;
    (out, s)
}

/// A workload: deployment, schedule and sizing.
pub struct Workload {
    pub name: &'static str,
    pub deploy: Deploy,
    /// Timed rounds per second of `--seconds`: the run's round count is
    /// this times `--seconds`, a fixed amount of work, never a timer.
    pub rounds_per_second: f64,
    /// Untimed (but checked) rounds before the timed phase.
    pub warmup: u64,
    /// Each instance's timed rounds are a multiple of this: the fleet's
    /// refresh period, so every spec refreshes equally often.
    pub cycle: u64,
    /// The tail percentile reported as `round_ms_tail`.
    pub tail: f64,
    /// Seeded single-item writes before every round.
    pub writes_per_round: u64,
    /// Seeded single-item writes timed once, between set-up and the
    /// first round (the write path of a deployment without a cache).
    pub setup_writes: u64,
    /// Puts a built network behind the front door; returns the session
    /// and the registration time in seconds (fleet only).
    pub session: fn(SimNetwork) -> (Box<dyn Session>, f64),
    /// The workload's own request envelope, as the simnet layer takes
    /// it: what the flat and `wave_proto` probes time.
    pub envelope: fn(&SimNetwork) -> Vec<CoreRequest>,
}

impl Workload {
    pub fn rounds(&self, seconds: u64) -> u64 {
        (self.rounds_per_second * seconds as f64).ceil() as u64
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "batch_scalar_1e5" => Some(batch()),
        "stream_arq_1e4" => Some(stream()),
        "fleet_update_16k" => Some(fleet()),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["batch_scalar_1e5", "stream_arq_1e4", "fleet_update_16k"];

/// The prune budget the engine compiles for QUANTILE(ε) on this tree.
fn quantile_budget(net: &SimNetwork, eps: f64) -> u32 {
    let prunes = (net.tree_height() + 1) * net.tree_max_degree() as u32;
    QuantilePlan::budget_for(eps, prunes).expect("quantile budget")
}

// ---------------------------------------------------------------------
// batch_scalar_1e5: the E16 4-slot round at N = 10^5.

fn batch_specs() -> [QuerySpec; 4] {
    [
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::Sum(Predicate::less_than(500)),
    ]
}

struct Batch(QueryEngine);

impl Session for Batch {
    fn net(&self) -> &SimNetwork {
        self.0.network()
    }
    fn net_mut(&mut self) -> &mut SimNetwork {
        self.0.network_mut()
    }
    fn write(&mut self, node: usize, value: u64) -> Result<(), QueryError> {
        self.0.network_mut().set_node_items(node, vec![value])
    }
    fn round(&mut self, ctx: &mut Ctx, phase: &mut Phase) {
        let engine = &mut self.0;
        let (reports, s) = timed(ctx, phase, || {
            for spec in batch_specs() {
                engine.submit(spec);
            }
            engine.run()
        });
        phase.rounds += 1;
        phase.round_ms.push(s * 1e3, "4-slot");
        match reports {
            Ok(reports) => {
                for r in &reports {
                    let ok = ctx.verify(&r.spec, &r.outcome);
                    ctx.check(ok);
                    phase.answers += 1;
                    phase.query_rounds.push(u64::from(r.waves));
                    phase.query_waves.push(u64::from(r.waves));
                }
            }
            Err(_) => {
                for _ in 0..batch_specs().len() {
                    ctx.check(false);
                }
            }
        }
    }
}

fn batch() -> Workload {
    Workload {
        name: "batch_scalar_1e5",
        deploy: Deploy {
            n: 100_000,
            degree: 8,
            loss: 0.0,
            cache: 0,
        },
        rounds_per_second: 2.4,
        warmup: 1,
        cycle: 1,
        tail: 80.0,
        writes_per_round: 0,
        setup_writes: 2048,
        session: |net| (Box::new(Batch(QueryEngine::new(net))), 0.0),
        envelope: |_| {
            vec![
                CoreRequest::Count(Predicate::TRUE),
                CoreRequest::Min(Domain::Raw),
                CoreRequest::Max(Domain::Log),
                CoreRequest::Sum(Predicate::less_than(500)),
            ]
        },
    }
}

// ---------------------------------------------------------------------
// stream_arq_1e4: eight closed-loop clients over lossy links with ARQ.

/// Client `c` always asks `stream_specs()[c % 4]`: two clients per
/// class, so every round carries the same envelope composition (two
/// COUNT, two SUM, two QUANTILE slots and the two medians' current
/// waves) and round time has one mode.
fn stream_specs() -> [QuerySpec; 4] {
    [
        QuerySpec::Count(Predicate::less_than(300)),
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::Median,
        QuerySpec::Quantile { q: 0.9, eps: 0.01 },
    ]
}

const STREAM_CLIENTS: usize = 8;

struct Stream {
    engine: StreamingEngine,
    /// In-flight query → (client, service clock at submission).
    inflight: HashMap<QueryId, (usize, f64)>,
    started: bool,
    /// Medians submitted since the last round: their first wave rides
    /// the next one.
    fresh_medians: usize,
}

impl Stream {
    fn submit(&mut self, client: usize, clock_s: f64) {
        let spec = stream_specs()[client % 4].clone();
        if matches!(spec, QuerySpec::Median) {
            self.fresh_medians += 1;
        }
        let id = self.engine.submit(spec);
        self.inflight.insert(id, (client, clock_s));
    }
}

impl Session for Stream {
    fn net(&self) -> &SimNetwork {
        self.engine.network()
    }
    fn net_mut(&mut self) -> &mut SimNetwork {
        self.engine.network_mut()
    }
    fn write(&mut self, node: usize, value: u64) -> Result<(), QueryError> {
        self.engine.network_mut().set_node_items(node, vec![value])
    }
    fn round(&mut self, ctx: &mut Ctx, phase: &mut Phase) {
        if !self.started {
            self.started = true;
            for c in 0..STREAM_CLIENTS {
                self.submit(c, ctx.clock_s);
            }
        }
        // A median's first wave carries its COUNT/MIN/MAX primitives:
        // such rounds are tagged apart, so the mode guard sees them.
        let fresh_median = std::mem::take(&mut self.fresh_medians) > 0;
        let engine = &mut self.engine;
        let (retired, s) = timed(ctx, phase, || engine.step());
        phase.rounds += 1;
        phase.round_ms.push(
            s * 1e3,
            if fresh_median {
                "median-start"
            } else {
                "steady"
            },
        );
        let Ok(retired) = retired else {
            ctx.check(false);
            return;
        };
        for r in retired {
            let Some((client, submitted)) = self.inflight.remove(&r.report.id) else {
                ctx.check(false);
                continue;
            };
            let ok = ctx.verify(&r.report.spec, &r.report.outcome);
            ctx.check(ok);
            phase.answers += 1;
            phase.query_rounds.push(r.latency_rounds());
            phase.query_waves.push(u64::from(r.report.waves));
            if r.report.waves > 1 {
                phase
                    .multiwave_ms
                    .push((ctx.clock_s - submitted) * 1e3, "median");
            }
            self.submit(client, ctx.clock_s);
        }
    }
}

fn stream() -> Workload {
    Workload {
        name: "stream_arq_1e4",
        deploy: Deploy {
            n: 10_000,
            degree: 8,
            loss: 0.05,
            cache: 0,
        },
        rounds_per_second: 7.5,
        warmup: 1,
        cycle: 1,
        tail: 90.0,
        writes_per_round: 0,
        setup_writes: 2048,
        session: |net| {
            let s = Stream {
                engine: StreamingEngine::new(net),
                inflight: HashMap::new(),
                started: false,
                fresh_medians: 0,
            };
            (Box::new(s), 0.0)
        },
        envelope: |net| {
            let budget = quantile_budget(net, 0.01);
            let mut reqs = Vec::new();
            for _ in 0..2 {
                reqs.push(CoreRequest::Count(Predicate::less_than(300)));
                reqs.push(CoreRequest::Sum(Predicate::TRUE));
                reqs.push(CoreRequest::Count(Predicate::less_than(XBAR / 2)));
                reqs.push(CoreRequest::Quantile { budget });
            }
            reqs
        },
    }
}

// ---------------------------------------------------------------------
// fleet_update_16k: 4096 standing registrations over 8 specs, with
// seeded writes before every round.

const FLEET_PERIOD: u64 = 8;
const FLEET_REGISTRATIONS: usize = 4096;

/// The eight distinct standing specs and their round labels. Spread
/// stagger gives the `i`-th spec phase `i`, so each round refreshes
/// exactly one of them; QUANTILE is the one value changes invalidate
/// instead of delta-maintaining.
fn fleet_specs() -> [(QuerySpec, &'static str); 8] {
    [
        (QuerySpec::Count(Predicate::TRUE), "count"),
        (QuerySpec::Count(Predicate::less_than(500)), "count<500"),
        (QuerySpec::Sum(Predicate::TRUE), "sum"),
        (QuerySpec::Sum(Predicate::less_than(250)), "sum<250"),
        (QuerySpec::Min(Domain::Raw), "min"),
        (QuerySpec::Max(Domain::Raw), "max"),
        (QuerySpec::Max(Domain::Log), "max-log"),
        (QuerySpec::Quantile { q: 0.5, eps: 0.02 }, "quantile"),
    ]
}

struct Fleet(FleetService);

impl Session for Fleet {
    fn net(&self) -> &SimNetwork {
        self.0.network()
    }
    fn net_mut(&mut self) -> &mut SimNetwork {
        self.0.network_mut()
    }
    fn write(&mut self, node: usize, value: u64) -> Result<(), QueryError> {
        self.0.update_items(node, vec![value])
    }
    fn round(&mut self, ctx: &mut Ctx, phase: &mut Phase) {
        let specs = fleet_specs();
        let kind = specs[(self.0.rounds_executed() % FLEET_PERIOD) as usize].1;
        let fleet = &mut self.0;
        let (out, s) = timed(ctx, phase, || fleet.step());
        phase.rounds += 1;
        phase.round_ms.push(s * 1e3, kind);
        let Ok(out) = out else {
            ctx.check(false);
            return;
        };
        // Every copy of one slot refresh carries the same outcome: check
        // the first against the mirror, the rest against the first.
        let mut first: Option<(usize, u64, bool)> = None;
        let mut reference = None;
        for r in &out.refreshes {
            let ok = match first {
                Some((slot, seq, ok)) if slot == r.slot && seq == r.seq => {
                    ok && reference.as_ref() == Some(&r.outcome)
                }
                _ => {
                    let spec = self
                        .0
                        .slot_query(r.slot)
                        .map(|(spec, _)| spec.clone())
                        .expect("refresh of a known slot");
                    let ok = ctx.verify(&spec, &r.outcome);
                    first = Some((r.slot, r.seq, ok));
                    reference = Some(r.outcome.clone());
                    phase.query_rounds.push(r.finished_round - r.due_round + 1);
                    phase.query_waves.push(r.finished_round - r.due_round + 1);
                    ok
                }
            };
            ctx.check(ok);
            phase.answers += 1;
        }
    }
}

fn fleet() -> Workload {
    Workload {
        name: "fleet_update_16k",
        deploy: Deploy {
            n: 16_384,
            degree: 4,
            loss: 0.0,
            cache: 256,
        },
        rounds_per_second: 120.0,
        warmup: FLEET_PERIOD,
        cycle: FLEET_PERIOD,
        tail: 99.0,
        writes_per_round: 64,
        setup_writes: 0,
        session: |net| {
            let t = Instant::now();
            let mut fleet = FleetService::new(net);
            let specs = fleet_specs();
            for i in 0..FLEET_REGISTRATIONS {
                fleet
                    .register(specs[i % specs.len()].0.clone(), FLEET_PERIOD)
                    .expect("registration");
            }
            (Box::new(Fleet(fleet)), t.elapsed().as_secs_f64())
        },
        envelope: |net| {
            let budget = quantile_budget(net, 0.02);
            vec![
                CoreRequest::Count(Predicate::TRUE),
                CoreRequest::Count(Predicate::less_than(500)),
                CoreRequest::Sum(Predicate::TRUE),
                CoreRequest::Sum(Predicate::less_than(250)),
                CoreRequest::Min(Domain::Raw),
                CoreRequest::Max(Domain::Raw),
                CoreRequest::Max(Domain::Log),
                CoreRequest::Quantile { budget },
            ]
        },
    }
}
