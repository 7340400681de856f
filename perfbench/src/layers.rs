//! Per-layer readings for the traced run: counter snapshots from the
//! telemetry registry and the cache, and timed calls into the
//! `wave_proto`, `simnet`/`flat` and plain-loop probes. Nothing here
//! adds tracing to the program; it reads what the public API exposes.

use crate::check::floor_log2;
use crate::stats::percentile;
use crate::workloads::Deploy;
use saq_core::net::AggregationNetwork;
use saq_core::simnet::SimNetwork;
use saq_core::wave_proto::{CoreRequest, CoreWave, SimItem};
use saq_netsim::rng::Xoshiro256StarStar;
use saq_netsim::wire::{BitReader, BitWriter};
use saq_protocols::wave::{MultiplexWave, WaveProtocol};
use saq_protocols::CacheStats;
use std::hint::black_box;
use std::time::Instant;

/// Cumulative counters of the deployments at one instant, summed over
/// instances.
#[derive(Default)]
pub struct Counters {
    pub waves: u64,
    pub messages: u64,
    pub slots: u64,
    pub data_frames: u64,
    pub retransmits: u64,
    pub ack_frames: u64,
    pub frames_lost: u64,
    pub fanout_copies: u64,
    pub cache: CacheStats,
    pub wave_ns: u128,
    pub drain_ns: u128,
}

impl Counters {
    pub fn add(&mut self, net: &SimNetwork) {
        let lane = |name: &str| {
            net.metrics()
                .wall_phases()
                .iter()
                .find(|p| p.phase == name)
                .map_or(0, |p| p.nanos)
        };
        let d = net.metrics_snapshot();
        self.waves += d.waves;
        self.messages += d.messages;
        self.slots += d.envelope_slots.total;
        self.data_frames += d.data_frames;
        self.retransmits += d.retransmits;
        self.ack_frames += d.ack_frames;
        self.frames_lost += d.frames_lost;
        self.fanout_copies += d.refresh_fanout_copies;
        self.cache.absorb(net.cache_stats());
        self.wave_ns += lane("wave");
        self.drain_ns += lane("drain");
    }
}

/// Network bits of the current stats window: `(Σ tx bits, busiest
/// node's tx + rx bits)`.
pub fn window_bits(net: &SimNetwork) -> (u64, u64) {
    let stats = net.net_stats().expect("simulated network keeps stats");
    (stats.total_tx_bits(), stats.max_node_bits())
}

/// Median time per call of `f`, in nanoseconds, over five batches of
/// `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    percentile(&batches, 50.0)
}

/// Per-call cost of each `WaveProtocol` operation of
/// `MultiplexWave<CoreWave>` on one envelope, at leaf level: a leaf's
/// one-item `local`, the merge of two leaf partials, and the codec on
/// the envelope an interior node receives and forwards.
pub struct ProtoCost {
    pub decode_request: f64,
    pub encode_request: f64,
    pub local: f64,
    pub merge: f64,
    pub encode_partial: f64,
    pub decode_partial: f64,
    pub request_bits: u64,
    pub partial_bits: u64,
}

impl ProtoCost {
    /// What one node of a full wave spends in protocol operations.
    pub fn per_node_ns(&self) -> f64 {
        self.decode_request
            + self.encode_request
            + self.local
            + self.merge
            + self.encode_partial
            + self.decode_partial
    }
}

pub fn proto_cost(core: CoreWave, reqs: Vec<CoreRequest>, items: &[u64]) -> ProtoCost {
    let proto = MultiplexWave::new(core);
    proto.ledger().lock().expect("ledger").reset(reqs.len());
    let root = MultiplexWave::<CoreWave>::envelope(reqs);
    let mut w = BitWriter::new();
    proto.encode_request(&root, &mut w);
    let req_wire = w.finish();
    let env = proto
        .decode_request(&mut BitReader::new(&req_wire))
        .expect("request decodes");
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0B);
    let mut leaf_a = vec![SimItem::new(items[0])];
    let mut leaf_b = vec![SimItem::new(items[1 % items.len()])];
    let a = proto.local(1, &mut leaf_a, &env, &mut rng);
    let b = proto.local(2, &mut leaf_b, &env, &mut rng);
    let merged = proto.merge(&env, a.clone(), b.clone());
    let mut w = BitWriter::new();
    proto.encode_partial(&env, &merged, &mut w);
    let part_wire = w.finish();

    let iters = 4_000;
    let decode_request = ns_per_call(iters, || {
        black_box(
            proto
                .decode_request(&mut BitReader::new(black_box(&req_wire)))
                .ok(),
        );
    });
    let encode_request = ns_per_call(iters, || {
        let mut w = BitWriter::new();
        proto.encode_request(black_box(&env), &mut w);
        black_box(w.finish());
    });
    let local = ns_per_call(iters, || {
        black_box(proto.local(1, &mut leaf_a, black_box(&env), &mut rng));
    });
    // Merging consumes its operands: time the clones alone and subtract.
    let clones = ns_per_call(iters, || {
        black_box((a.clone(), b.clone()));
    });
    let merge_and_clone = ns_per_call(iters, || {
        black_box(proto.merge(&env, a.clone(), b.clone()));
    });
    let encode_partial = ns_per_call(iters, || {
        let mut w = BitWriter::new();
        proto.encode_partial(&env, black_box(&merged), &mut w);
        black_box(w.finish());
    });
    let decode_partial = ns_per_call(iters, || {
        black_box(
            proto
                .decode_partial(&env, &mut BitReader::new(black_box(&part_wire)))
                .ok(),
        );
    });
    ProtoCost {
        decode_request,
        encode_request,
        local,
        merge: (merge_and_clone - clones).max(0.0),
        encode_partial,
        decode_partial,
        request_bits: req_wire.len_bits(),
        partial_bits: part_wire.len_bits(),
    }
}

/// Median wall time of one full, uncached wave of `reqs` through
/// `SimNetwork::run_batch`, on one flat worker and on two, in
/// nanoseconds.
pub fn flat_probe(
    deploy: &Deploy,
    items: &[u64],
    seed: u64,
    reqs: &[CoreRequest],
    waves: usize,
) -> (f64, f64) {
    let mut out = [0.0; 2];
    for (slot, workers) in [1, 2].into_iter().enumerate() {
        let (mut net, _, _) = deploy.build(items, seed, workers, false);
        net.run_batch(reqs.to_vec()).expect("warm-up wave");
        let mut times = Vec::new();
        for _ in 0..waves {
            let t = Instant::now();
            net.run_batch(reqs.to_vec()).expect("probe wave");
            times.push(t.elapsed().as_nanos() as f64);
        }
        out[slot] = percentile(&times, 50.0);
    }
    (out[0], out[1])
}

/// The machine-speed probe: a plain loop over the items computing the
/// batch round's four scalars, median of 25 passes, in microseconds.
pub fn plain_loop_us(items: &[u64]) -> f64 {
    let mut times = Vec::new();
    for _ in 0..25 {
        let t = Instant::now();
        let (mut count, mut min, mut max_log, mut sum) = (0u64, u64::MAX, 0u64, 0u64);
        for &v in black_box(items) {
            count += 1;
            min = min.min(v);
            max_log = max_log.max(floor_log2(v));
            if v < 500 {
                sum += v;
            }
        }
        black_box((count, min, max_log, sum));
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    percentile(&times, 50.0)
}
