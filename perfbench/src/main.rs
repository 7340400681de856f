//! The saq benchmark: three closed-loop workloads through the public
//! front doors, a fixed amount of work per run, every answer checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the gated end-to-end metrics (exact work and cost
//! counters, peak RSS, set-up time) with telemetry detached, and prints
//! the wall-clock ones. `--trace 1` reports the per-layer metrics: the
//! same untraced rounds (their wall-clock readings), then half as many
//! with a `NullRecorder` attached, plus timed calls into each layer's
//! public functions. `--seconds` sets the
//! work (a fixed round count per second of it), not a timer. The last
//! line of standard output is the JSON result; the lines before it are
//! the human-readable report. See `README.md` for every metric.

mod check;
mod layers;
mod stats;
mod workloads;

use check::Mirror;
use layers::Counters;
use saq_obs::NullRecorder;
use stats::{minor_faults, peak_rss_mib, percentile, percentile_u64, Report, Rng};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Phase, Session, Workload, WORKERS};

/// Deployment instances per run, all alive at once, taking timed rounds
/// in turn. Round time depends on where a deployment's columns land in
/// memory: on the host the workloads were sized on, four instances
/// built side by side in one process had batch-round medians from 349 to
/// 434 ms, as far apart as separate processes. Pooling the rounds of
/// four instances averages that out of each run. Every instance gets the
/// same items and the same write schedule, so all do identical work.
const INSTANCES: usize = 4;
/// Set-ups timed per run, `setup_s` being their median: the instances'
/// builds plus throwaway ones. A set-up takes 5 to 60 ms, and single
/// builds vary by a factor of two from page faults and host load.
const SETUPS: usize = 9;
/// The traced write block is this many times smaller than the untraced
/// one: a traced write rescans every node's cache counters.
const TRACED_WRITE_SHARE: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// One set-up's component times, in seconds.
struct Setup {
    total: f64,
    topology: f64,
    build: f64,
    register: f64,
}

fn median_of(setups: &[Setup], f: impl Fn(&Setup) -> f64) -> f64 {
    percentile(&setups.iter().map(f).collect::<Vec<_>>(), 50.0)
}

/// One deployment behind its front door, with its own mirror of the
/// items and its own copy of the write schedule.
struct Instance {
    s: Box<dyn Session>,
    ctx: Ctx,
}

/// Runs `rounds` rounds, the instances taking turns, each round
/// preceded by the workload's per-round writes.
fn run_phase(w: &Workload, insts: &mut [Instance], rounds: u64) -> Phase {
    let mut phase = Phase::default();
    for r in 0..rounds {
        let Instance { s, ctx } = &mut insts[r as usize % insts.len()];
        for _ in 0..w.writes_per_round {
            write_one(w, s.as_mut(), ctx, &mut phase);
        }
        s.round(ctx, &mut phase);
    }
    phase
}

/// One seeded single-item write, timed, mirrored and checked.
fn write_one(w: &Workload, s: &mut dyn Session, ctx: &mut Ctx, phase: &mut Phase) {
    let node = ctx.rng.below(w.deploy.n as u64) as usize;
    let value = ctx.rng.below(workloads::XBAR + 1);
    let t = Instant::now();
    let res = s.write(node, value);
    let secs = t.elapsed().as_secs_f64();
    phase.busy_s += secs;
    phase.update_us.push(secs * 1e6);
    ctx.check(res.is_ok());
    ctx.mirror.set(node, value);
}

fn write_block(w: &Workload, inst: &mut Instance, writes: u64) -> Vec<f64> {
    let mut phase = Phase::default();
    for _ in 0..writes {
        write_one(w, inst.s.as_mut(), &mut inst.ctx, &mut phase);
    }
    phase.update_us
}

/// Set-up samples, the instances, the untraced and traced set-up write
/// times, and the peak RSS of one warmed-up instance.
struct Deployed {
    setups: Vec<Setup>,
    insts: Vec<Instance>,
    updates: [Vec<f64>; 2],
    rss_mib: f64,
}

fn deploy(w: &Workload, args: &Args) -> Deployed {
    let mut rng = Rng::new(args.seed);
    let items = w.deploy.items(&mut rng);
    let mut d = Deployed {
        setups: Vec::new(),
        insts: Vec::new(),
        updates: [Vec::new(), Vec::new()],
        rss_mib: f64::NAN,
    };
    for k in 0..INSTANCES {
        let (s, setup) = set_up(w, &items, args.seed);
        d.setups.push(setup);
        let mut inst = Instance {
            s,
            ctx: Ctx::new(Mirror::new(items.clone()), rng.clone()),
        };
        // Writes outside the rounds happen here, before any query is in
        // flight: a multi-wave query must see one set of items.
        d.updates[0].extend(write_block(w, &mut inst, w.setup_writes));
        if args.trace {
            inst.s.net_mut().attach_recorder(Box::new(NullRecorder));
            d.updates[1].extend(write_block(
                w,
                &mut inst,
                w.setup_writes / TRACED_WRITE_SHARE,
            ));
            inst.s.net_mut().detach_recorder();
        }
        run_phase(w, std::slice::from_mut(&mut inst), w.warmup);
        if k == 0 {
            d.rss_mib = peak_rss_mib();
        }
        d.insts.push(inst);
    }
    for _ in INSTANCES..SETUPS {
        d.setups.push(set_up(w, &items, args.seed).1);
    }
    d
}

/// One timed set-up: topology, network and (fleet) registrations.
fn set_up(w: &Workload, items: &[u64], seed: u64) -> (Box<dyn Session>, Setup) {
    let t = Instant::now();
    let (net, topology, build) = w.deploy.build(items, seed, WORKERS, true);
    let (s, register) = (w.session)(net);
    let setup = Setup {
        total: t.elapsed().as_secs_f64(),
        topology,
        build,
        register,
    };
    (s, setup)
}

fn run(w: &Workload, args: &Args) -> Report {
    let mut d = deploy(w, args);
    // A whole number of cycles per instance.
    let block = INSTANCES as u64 * w.cycle;
    let rounds = w.rounds(args.seconds).div_ceil(block) * block;
    let mut report = Report::default();
    println!(
        "workload {} seed {} rounds {} over {INSTANCES} instances, {WORKERS} worker(s), runner {}",
        w.name,
        args.seed,
        rounds,
        d.insts[0].s.net().runner_name()
    );
    if args.trace {
        // Half as many traced rounds, still a whole number of cycles.
        let traced_rounds = (rounds / 2).div_ceil(block) * block;
        per_layer(w, args, &mut d, rounds, traced_rounds, &mut report);
    } else {
        end_to_end(w, &mut d, rounds, &mut report);
    }
    for i in &d.insts {
        report.attempted += i.ctx.attempted;
        report.failed += i.ctx.failed;
    }
    report
}

fn end_to_end(w: &Workload, d: &mut Deployed, rounds: u64, r: &mut Report) {
    for i in &mut d.insts {
        i.s.net_mut().reset_stats();
    }
    let faults = minor_faults();
    let ph = run_phase(w, &mut d.insts, rounds);
    let faults = minor_faults() - faults;
    let per_instance = (rounds / INSTANCES as u64) as f64;
    let mut tx_bits = 0;
    let mut max_node_bits_per_round = 0.0_f64;
    for i in &d.insts {
        let (tx, max_node) = layers::window_bits(i.s.net());
        tx_bits += tx;
        max_node_bits_per_round = max_node_bits_per_round.max(max_node as f64 / per_instance);
    }

    r.timed("setup_s", median_of(&d.setups, |x| x.total), "s");
    r.exact("bits_per_query", tx_bits as f64 / ph.answers as f64, "bit");
    r.exact("max_node_bits_per_round", max_node_bits_per_round, "bit");
    r.exact(
        "query_rounds_p50",
        percentile_u64(&ph.query_rounds, 50.0) as f64,
        "round",
    );
    r.exact(
        "query_rounds_p90",
        percentile_u64(&ph.query_rounds, 90.0) as f64,
        "round",
    );
    r.timed("peak_rss_mib", d.rss_mib, "MiB");
    println!(
        "{:.1} minor page faults per timed round",
        faults as f64 / rounds as f64
    );
    wall_clock(w, &ph, &d.updates[0], r);
}

/// Wall-clock readings of an untraced phase: printed on every run under
/// the workload's own names, guarded, and returned as `(name, value,
/// unit)` for the traced run to record. They are not end-to-end
/// metrics: on the shared host the workloads were sized on, they spread
/// by more than any bound the harness allows (see README.md).
fn wall_clock(
    w: &Workload,
    ph: &Phase,
    setup_updates: &[f64],
    r: &mut Report,
) -> Vec<(&'static str, f64, &'static str)> {
    let updates = if ph.update_us.is_empty() {
        setup_updates
    } else {
        &ph.update_us
    };
    r.guard(&ph.round_ms, "round_ms_p50", 50.0);
    r.guard(&ph.round_ms, "round_ms_tail", w.tail);
    let mut out = vec![
        ("wall.rounds_per_s", ph.rounds as f64 / ph.busy_s, "1/s"),
        ("wall.queries_per_s", ph.answers as f64 / ph.busy_s, "1/s"),
        ("wall.round_ms_p50", ph.round_ms.percentile(50.0), "ms"),
        ("wall.round_ms_tail", ph.round_ms.percentile(w.tail), "ms"),
    ];
    let multiwave = if ph.multiwave_ms.is_empty() {
        0.0
    } else {
        r.guard(&ph.multiwave_ms, "median_query_ms_p50", 50.0);
        ph.multiwave_ms.percentile(50.0)
    };
    out.push(("wall.multiwave_query_ms_p50", multiwave, "ms"));

    println!(
        "wall clock (untraced, not gated): {:.3} s in front-door calls",
        ph.busy_s
    );
    println!("{}", ph.round_ms.describe("round time", "ms"));
    if !ph.multiwave_ms.is_empty() {
        println!(
            "{}",
            ph.multiwave_ms.describe("multi-wave query time", "ms")
        );
    }
    println!("named wall-clock metrics (the workload's own names):");
    let named: &[(&str, f64)] = match w.name {
        "batch_scalar_1e5" => &[("round_ms_p50", 50.0), ("round_ms_p80", 80.0)],
        "stream_arq_1e4" => &[("scalar_query_ms_p50", 50.0), ("scalar_query_ms_p90", 90.0)],
        _ => &[("round_ms_p50", 50.0), ("round_ms_p99", 99.0)],
    };
    for &(name, p) in named {
        println!("  {name} = {:.4} ms", ph.round_ms.percentile(p));
    }
    if multiwave > 0.0 {
        println!("  median_query_ms_p50 = {multiwave:.4} ms");
    }
    println!(
        "  update_us_p50 = {:.4} us ({} writes; recorded as simnet.update_us_p50)",
        percentile(updates, 50.0),
        updates.len()
    );
    for &(name, value, unit) in &out {
        println!("  {name} = {value:.4} {unit}");
    }
    out
}

fn per_layer(
    w: &Workload,
    args: &Args,
    d: &mut Deployed,
    rounds: u64,
    traced_rounds: u64,
    r: &mut Report,
) {
    // The untraced rounds, then the traced ones with a NullRecorder
    // attached: their throughput ratio is the tracing overhead.
    let untraced = run_phase(w, &mut d.insts, rounds);
    for (name, value, unit) in wall_clock(w, &untraced, &d.updates[0], r) {
        r.timed(name, value, unit);
    }
    let mut before = Counters::default();
    for i in &mut d.insts {
        i.s.net_mut().attach_recorder(Box::new(NullRecorder));
        before.add(i.s.net());
    }
    let traced = run_phase(w, &mut d.insts, traced_rounds);
    let mut after = Counters::default();
    for i in &mut d.insts {
        after.add(i.s.net());
        i.s.net_mut().detach_recorder();
    }
    let pick = |phase: &Phase, block: &Vec<f64>| {
        if phase.update_us.is_empty() {
            block.clone()
        } else {
            phase.update_us.clone()
        }
    };
    let direct_updates = pick(&untraced, &d.updates[0]);
    let traced_updates = pick(&traced, &d.updates[1]);

    // The probes need memory and quiet: take what they need from the
    // first instance, then release the deployments.
    let envelope = (w.envelope)(d.insts[0].s.net());
    let core = d.insts[0].s.net().core_proto();
    let items = d.insts[0].ctx.mirror.items.clone();
    for i in d.insts.drain(..) {
        r.attempted += i.ctx.attempted;
        r.failed += i.ctx.failed;
    }

    let n = w.deploy.n as f64;
    let rounds_t = traced.rounds as f64;
    let waves = (after.waves - before.waves).max(1) as f64;
    let wave_ns = (after.wave_ns - before.wave_ns) as f64;
    let drain_ns = (after.drain_ns - before.drain_ns) as f64;
    let step_ns = traced.step_s * 1e9;
    let cost = layers::proto_cost(core, envelope.clone(), &items);
    let probe_waves = if w.deploy.n >= 100_000 { 4 } else { 10 };
    let (one_w, two_w) = layers::flat_probe(&w.deploy, &items, args.seed, &envelope, probe_waves);
    let node_ops_ns = n * cost.per_node_ns();
    let env_slots = envelope.len() as f64;

    r.timed("simnet.wave_ms_per_round", wave_ns / 1e6 / rounds_t, "ms");
    r.exact(
        "simnet.messages_per_wave",
        (after.messages - before.messages) as f64 / waves,
        "count",
    );
    r.timed("flat.wave_ns_per_node_slot", two_w / (n * env_slots), "ns");
    r.timed("flat.node_ops_share", node_ops_ns / one_w, "ratio");
    r.timed("flat.remainder_share", 1.0 - node_ops_ns / one_w, "ratio");
    r.timed("flat.speedup_2w_over_1w", one_w / two_w, "ratio");
    r.timed("wave_proto.decode_request_ns", cost.decode_request, "ns");
    r.timed("wave_proto.encode_request_ns", cost.encode_request, "ns");
    r.timed("wave_proto.local_ns", cost.local, "ns");
    r.timed("wave_proto.merge_ns", cost.merge, "ns");
    r.timed("wave_proto.encode_partial_ns", cost.encode_partial, "ns");
    r.timed("wave_proto.decode_partial_ns", cost.decode_partial, "ns");
    r.exact("wave_proto.request_bits", cost.request_bits as f64, "bit");
    r.exact("wave_proto.partial_bits", cost.partial_bits as f64, "bit");

    let data = (after.data_frames - before.data_frames) as f64;
    let retx = (after.retransmits - before.retransmits) as f64;
    r.exact("link.data_frames_per_wave", data / waves, "count");
    r.exact("link.retransmits_per_wave", retx / waves, "count");
    r.exact(
        "link.ack_frames_per_wave",
        (after.ack_frames - before.ack_frames) as f64 / waves,
        "count",
    );
    r.exact(
        "link.frames_lost_per_wave",
        (after.frames_lost - before.frames_lost) as f64 / waves,
        "count",
    );
    r.exact(
        "link.first_attempt_ratio",
        if data + retx > 0.0 {
            data / (data + retx)
        } else {
            1.0
        },
        "ratio",
    );

    let (cb, ca) = (&before.cache, &after.cache);
    let hits = (ca.hits - cb.hits) as f64;
    let misses = (ca.misses - cb.misses) as f64;
    let writes = (traced.update_us.len() as f64).max(1.0);
    r.exact(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    r.exact("cache.hits_per_round", hits / rounds_t, "count");
    r.exact("cache.misses_per_round", misses / rounds_t, "count");
    r.exact(
        "cache.delta_applied_per_update",
        (ca.delta_applied - cb.delta_applied) as f64 / writes,
        "count",
    );
    r.exact(
        "cache.delta_invalidated_per_update",
        (ca.delta_invalidated - cb.delta_invalidated) as f64 / writes,
        "count",
    );
    r.exact(
        "cache.entries",
        ca.entries as f64 / INSTANCES as f64,
        "count",
    );

    let update_direct = percentile(&direct_updates, 50.0);
    let update_traced = percentile(&traced_updates, 50.0);
    r.timed("simnet.update_us_p50", update_direct, "us");
    r.timed("simnet.update_us_p50_traced", update_traced, "us");

    r.timed(
        "engine.self_ms_per_round",
        (step_ns - wave_ns - drain_ns) / 1e6 / rounds_t,
        "ms",
    );
    r.exact(
        "engine.slots_per_wave",
        (after.slots - before.slots) as f64 / waves,
        "count",
    );
    r.exact(
        "engine.waves_per_query",
        traced.query_waves.iter().sum::<u64>() as f64 / traced.query_waves.len().max(1) as f64,
        "count",
    );
    r.exact(
        "service.fanout_copies_per_round",
        (after.fanout_copies - before.fanout_copies) as f64 / rounds_t,
        "count",
    );
    r.timed("obs.drain_ms_per_round", drain_ns / 1e6 / rounds_t, "ms");
    let untraced_rps = untraced.rounds as f64 / untraced.busy_s;
    let traced_rps = traced.rounds as f64 / traced.busy_s;
    r.timed("obs.traced_slowdown", traced_rps / untraced_rps, "ratio");
    let setups = &d.setups;
    r.timed(
        "topology.build_ms",
        median_of(setups, |x| x.topology) * 1e3,
        "ms",
    );
    r.timed(
        "simnet.build_ms",
        median_of(setups, |x| x.build) * 1e3,
        "ms",
    );
    r.timed(
        "service.register_ms",
        median_of(setups, |x| x.register) * 1e3,
        "ms",
    );
    r.timed("probe.plain_loop_us", layers::plain_loop_us(&items), "us");

    println!(
        "traced split: front-door {:.3} ms/round = wave {:.3} + drain {:.3} + engine self {:.3}",
        step_ns / 1e6 / rounds_t,
        wave_ns / 1e6 / rounds_t,
        drain_ns / 1e6 / rounds_t,
        (step_ns - wave_ns - drain_ns) / 1e6 / rounds_t
    );
    println!(
        "flat split (1 worker, full uncached wave of {} slots): node ops {:.0} ns + remainder {:.0} ns = wave {:.0} ns",
        envelope.len(),
        node_ops_ns,
        one_w - node_ops_ns,
        one_w
    );
    println!(
        "obs.traced_slowdown = {:.4} (traced {:.3} rounds/s vs untraced {:.3} rounds/s)",
        traced_rps / untraced_rps,
        traced_rps,
        untraced_rps
    );
    println!(
        "finding: traced update_items costs {:.2} us against {:.2} us untraced ({:.2}x); \
         the traced path rescans every node's cache counters on each write",
        update_traced,
        update_direct,
        update_traced / update_direct
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let report = run(&w, &args);
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.exact_line());
    if !report.guard_violations.is_empty() {
        for v in &report.guard_violations {
            eprintln!("perfbench: mode guard: {v}");
        }
        return ExitCode::from(3);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", m.name);
        return ExitCode::from(4);
    }
    println!("{}", report.json());
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
