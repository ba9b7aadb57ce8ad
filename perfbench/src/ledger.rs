//! The traced per-layer ledger.
//!
//! The traced run replays the workload's seeded operand stream through
//! each layer in isolation, timing the benchmark's own calls into the
//! layer's public functions with spans, and drives the workload itself
//! in alternating untraced and traced slices to measure what tracing
//! costs. Every result a layer returns is checked against the oracle.
//! The time budget (`--seconds`) is split into [`UNITS`] equal units.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitnum::batch::WideSlab;
use bitnum::UBig;
use vlcsa::engine::{Engine, Registry};
use vlcsa::exec::Executor;
use vlcsa::group::LaneBuilder;
use vlcsa::route::{RouteConfig, Router};
use vlcsa_serve::protocol::{format_response, Response};
use vlcsa_serve::{binary, Client, Program, ServeConfig, Service, AUTO_ENGINE};

use crate::drive::{Drive, RoundAcc, Window};
use crate::montecarlo::{self, Groups, ENGINES, GROUP_LANES};
use crate::pool::{self, Kind, Pool, Shape, Wire, SUM_N, WIDTH};
use crate::procfs;
use crate::served::{self, Conn};
use crate::stats::{quantile, Samples};
use crate::trace::Tracer;
use crate::verify::{check, Expect, Tally, Verdict};
use crate::wire::{self, answer_from_frame, answer_from_text};
use crate::{metric, Metric, Outcome, Workload};

/// Budget units the traced run is split into.
const UNITS: f64 = 24.0;

/// Lanes per issue group in the packing, unpacking and program layers:
/// one 256-lane slab word, as a serve lane's window fills it.
const LANES: usize = 256;

/// Span names of the kernel per engine, in [`ENGINES`] order.
const ENGINE_SPANS: [&str; 4] = [
    "vlcsa.engine.ripple",
    "vlcsa.engine.carry-select",
    "vlcsa.engine.vlcsa1",
    "vlcsa.engine.vlcsa2",
];

/// Per-layer results, collected in order.
struct Ledger {
    epoch: Instant,
    unit: Duration,
    seed: u64,
    tally: Tally,
    spans: Tracer,
    metrics: Vec<Metric>,
    report: Vec<(String, String)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

fn p_us(sorted: &[u64], q: f64) -> f64 {
    quantile(sorted, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    fn note(&mut self, key: &str, value: String) {
        self.report.push((key.to_string(), value));
    }

    fn tracer(&self, tag: u32) -> Tracer {
        Tracer::new(self.epoch, tag)
    }

    fn deadline(&self, units: f64) -> Instant {
        Instant::now() + self.unit.mul_f64(units)
    }
}

/// One shape's load over in-process or TCP connections, traced or not,
/// for `units` of the budget after a short warm-up.
fn slice(
    led: &mut Ledger,
    shape: &Shape,
    pools: &[Pool],
    conns: &mut [Conn],
    units: f64,
    traced: bool,
    tag: u32,
) -> (Vec<Drive>, Vec<Tracer>) {
    let begin = Instant::now();
    let t0 = begin + led.unit.mul_f64(0.1);
    let w = Window {
        t0,
        t1: t0 + led.unit.mul_f64(units),
        rounds: 1,
    };
    let mut trs = served::tracers(shape, traced.then_some(led.epoch), tag);
    let (drives, _) = served::drive_all(shape, pools, conns, begin, w, &mut trs);
    for d in &drives {
        led.tally.merge(&d.tally);
    }
    (drives, trs)
}

/// `STATS` readings sampled while a traced slice runs.
#[derive(Default)]
struct StatsSamples {
    depth: Vec<f64>,
    occupancy: Vec<f64>,
    lanes: Vec<u64>,
    groups: Vec<u64>,
    word_bits: usize,
}

fn sample_stats(addr: std::net::SocketAddr, stop: &AtomicBool) -> io::Result<StatsSamples> {
    let mut control = Client::connect(addr)?;
    let mut s = StatsSamples::default();
    loop {
        let r = control
            .stats()
            .map_err(|e| io::Error::other(e.to_string()))?;
        s.depth.push(r.queue_depth as f64);
        s.occupancy.push(r.window_occupancy());
        s.lanes.push(r.total_lanes());
        s.groups.push(r.total_groups());
        s.word_bits = r.word_bits;
        if stop.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    control.close();
    Ok(s)
}

/// The served path over TCP: untraced and traced slices alternate on one
/// server when `alternate` (the workload's own loop), one traced slice
/// otherwise. Records the client, server and `STATS` figures, and
/// returns the traced p50 in µs and the untraced/traced rates.
fn tcp_layer(
    led: &mut Ledger,
    shape: &Shape,
    alternate: bool,
) -> io::Result<(f64, Vec<f64>, Vec<f64>)> {
    let pools = shape.pools(led.seed);
    let (mut up, setup) = served::bring_up(shape, &pools, &mut led.tally)?;
    led.note("setup_s", setup.to_string());
    led.put(
        "serve.service.threads",
        procfs::thread_count() as f64,
        "count",
    );
    let plan: &[bool] = if alternate {
        &[false, true, false, true]
    } else {
        &[true]
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut kept: Vec<Drive> = Vec::new();
    let mut stats = StatsSamples::default();
    for (i, &on) in plan.iter().enumerate() {
        let addr = up.addr();
        let stop = AtomicBool::new(false);
        let (drives, trs, sampled) = std::thread::scope(|s| {
            let sampler = on.then(|| s.spawn(|| sample_stats(addr, &stop)));
            let (drives, trs) = slice(
                led,
                shape,
                &pools,
                &mut up.conns,
                2.0,
                on,
                10 + 4 * i as u32,
            );
            stop.store(true, Ordering::Relaxed);
            let sampled = sampler.map(|h| h.join().expect("the sampler does not panic"));
            (drives, trs, sampled)
        });
        if on {
            traced.push(served::rate(&drives));
            kept.extend(drives);
            for t in trs {
                led.spans.absorb(t);
            }
            let s = sampled.expect("traced slices sample")?;
            stats.depth.extend(s.depth);
            stats.occupancy.extend(s.occupancy);
            stats.word_bits = s.word_bits;
            if let (Some(l0), Some(l1), Some(g0), Some(g1)) = (
                s.lanes.first(),
                s.lanes.last(),
                s.groups.first(),
                s.groups.last(),
            ) {
                stats.lanes.push(l1 - l0);
                stats.groups.push(g1 - g0);
            }
        } else {
            untraced.push(served::rate(&drives));
        }
    }
    up.close();
    let sent: u64 = kept.iter().map(|d| d.tally.attempted).sum();
    let replies: u64 = kept.iter().map(|d| d.replies).sum();
    let reads: u64 = kept.iter().map(|d| d.reads.0).sum();
    let bytes_out: u64 = kept.iter().map(|d| d.reads.1).sum();
    let bytes_in: u64 = kept.iter().map(|d| d.bytes_sent).sum();
    let lat = served::latencies(&kept);
    let lag = Samples::sorted_all(&kept.iter().map(|d| &d.lag).collect::<Vec<_>>());
    led.put("serve.client.send_lag_p99_us", p_us(&lag, 0.99), "us");
    led.put(
        "serve.server.reads_per_reply",
        ratio(reads as f64, replies as f64),
        "count",
    );
    led.put(
        "serve.server.bytes_in_per_req",
        ratio(bytes_in as f64, sent as f64),
        "B",
    );
    led.put(
        "serve.server.bytes_out_per_req",
        ratio(bytes_out as f64, replies as f64),
        "B",
    );
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    led.put(
        "serve.service.lanes_per_group",
        ratio(
            stats.lanes.iter().sum::<u64>() as f64,
            stats.groups.iter().sum::<u64>() as f64,
        ),
        "count",
    );
    led.put(
        "serve.service.queue_depth_mean",
        mean(&stats.depth),
        "count",
    );
    led.put(
        "serve.service.window_occupancy_mean",
        mean(&stats.occupancy),
        "share",
    );
    led.note("word_bits", stats.word_bits.to_string());
    led.note("served_latency_samples", lat.len().to_string());
    Ok((p_us(&lat, 0.5), untraced, traced))
}

/// Encoding requests and decoding replies with the public wire formats.
fn client_layer(led: &mut Ledger, shape: &Shape, pool: &Pool) {
    let names = Registry::for_width(WIDTH).names();
    let mut tr = led.tracer(1);
    let until = led.deadline(0.5);
    let (mut encoded, mut at) = (0u64, 0);
    while Instant::now() < until {
        let batch = &pool.reqs[at..at + LANES];
        let bytes = tr.span("serve.client.encode", at as u64, || {
            batch
                .iter()
                .enumerate()
                .map(|(i, r)| pool::encode(shape.wire, &names, (at + i) as u64, r).len())
                .sum::<usize>()
        });
        std::hint::black_box(bytes);
        encoded += LANES as u64;
        at = (at + LANES) % (pool.len() - LANES + 1);
    }
    // Replies as the server formats them, one buffer per batch.
    let replies: Vec<Vec<u8>> = pool
        .expect
        .chunks_exact(LANES)
        .enumerate()
        .map(|(c, chunk)| {
            let mut buf = Vec::new();
            for (i, e) in chunk.iter().enumerate() {
                let seq = (c * LANES + i) as u64;
                match shape.wire {
                    Wire::Text => {
                        buf.extend_from_slice(
                            format_response(&Response::Ok {
                                seq,
                                sum: e.sum.clone(),
                                cout: e.cout,
                                cycles: 1,
                            })
                            .as_bytes(),
                        );
                        buf.push(b'\n');
                    }
                    Wire::Binary => {
                        buf.extend_from_slice(&binary::encode_ok(seq, e.cout, 1, e.sum.limbs()))
                    }
                }
            }
            buf
        })
        .collect();
    let until = led.deadline(0.5);
    let mut decoded = 0u64;
    let mut c = 0;
    while Instant::now() < until {
        let buf = &replies[c];
        let answers = tr.span("serve.client.decode", c as u64, || match shape.wire {
            Wire::Text => buf
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .map(|l| answer_from_text(std::str::from_utf8(l).unwrap_or("")))
                .collect::<Vec<_>>(),
            Wire::Binary => {
                let mut out = Vec::with_capacity(LANES);
                let mut rest = &buf[..];
                while rest.len() >= binary::HEADER_LEN {
                    let len = u32::from_le_bytes(rest[2..6].try_into().expect("4 bytes")) as usize;
                    let end = binary::HEADER_LEN + len;
                    out.push(answer_from_frame(rest[1], &rest[binary::HEADER_LEN..end]));
                    rest = &rest[end..];
                }
                out
            }
        });
        led.tally.attempted += LANES as u64;
        for a in &answers {
            let idx = a.seq as usize;
            let v = pool
                .expect
                .get(idx)
                .map_or(Verdict::Wrong, |e| check(e, &a.result));
            led.tally.record(v);
        }
        led.tally.missing += (LANES - answers.len().min(LANES)) as u64;
        decoded += LANES as u64;
        c = (c + 1) % replies.len();
    }
    led.put(
        "serve.client.encode_ns_per_req",
        ratio(
            tr.total("serve.client.encode").total_ns as f64,
            encoded as f64,
        ),
        "ns",
    );
    led.put(
        "serve.client.decode_ns_per_req",
        ratio(
            tr.total("serve.client.decode").total_ns as f64,
            decoded as f64,
        ),
        "ns",
    );
    led.spans.absorb(tr);
}

/// `shape` with its wire forced: the workload's own when it matches,
/// otherwise the protocol's reference traffic at the same load.
fn with_wire(shape: &Shape, wire: Wire) -> Shape {
    if shape.wire == wire {
        return *shape;
    }
    match wire {
        Wire::Text => Shape {
            wire,
            kind: Kind::Add,
            engines: &["vlcsa1"],
            load: shape.load,
        },
        Wire::Binary => Shape {
            wire,
            kind: Kind::Sum,
            engines: &[AUTO_ENGINE],
            load: shape.load,
        },
    }
}

/// `ByteSession::feed` over in-memory buffers, for both protocols, at
/// the workload's load. Returns the p50 of the workload's own protocol.
fn session_layer(led: &mut Ledger, shape: &Shape, service: &Arc<Service>) -> f64 {
    let mut own_p50 = f64::NAN;
    for (wire, key) in [(Wire::Text, "text"), (Wire::Binary, "bin")] {
        let s = with_wire(shape, wire);
        let pools = s.pools(led.seed);
        let mut sinks = Vec::new();
        let mut conns: Vec<Conn> = pools
            .iter()
            .map(|_| {
                let (tx, rx, sink) = wire::session(service, wire);
                sinks.push(sink);
                (Box::new(tx) as _, Box::new(rx) as _)
            })
            .collect();
        let (drives, trs) = slice(led, &s, &pools, &mut conns, 2.0, true, 20 + wire as u32 * 4);
        let fed: u64 = drives.iter().map(|d| d.tally.attempted).sum();
        let feed_ns: u64 = trs
            .iter()
            .map(|t| t.total("serve.session.feed").total_ns)
            .sum();
        led.put(
            &format!("serve.session.{key}_feed_ns_per_req"),
            ratio(feed_ns as f64, fed as f64),
            "ns",
        );
        if wire == shape.wire {
            let replies: u64 = drives.iter().map(|d| d.replies).sum();
            let calls: u64 = sinks.iter().map(|s| s.calls()).sum();
            led.put(
                "serve.session.sink_calls_per_reply",
                ratio(calls as f64, replies as f64),
                "count",
            );
            let lat = served::latencies(&drives);
            own_p50 = p_us(&lat, 0.5);
            led.put("serve.session.p50_us", own_p50, "us");
        }
        for t in trs {
            led.spans.absorb(t);
        }
    }
    own_p50
}

/// `Service::submit*` in process, at the workload's load.
fn service_layer(led: &mut Ledger, shape: &Shape, service: &Arc<Service>) {
    let pools = shape.pools(led.seed);
    let mut conns: Vec<Conn> = pools
        .iter()
        .map(|_| {
            let (tx, rx) = wire::service(service);
            (Box::new(tx) as _, Box::new(rx) as _)
        })
        .collect();
    let (drives, trs) = slice(led, shape, &pools, &mut conns, 2.0, true, 30);
    let lat = served::latencies(&drives);
    led.put("serve.service.ops_per_s", served::rate(&drives), "1/s");
    led.put("serve.service.p50_us", p_us(&lat, 0.5), "us");
    led.put("serve.service.p99_us", p_us(&lat, 0.99), "us");
    let submit = trs.iter().fold((0u64, 0u64), |(n, ns), t| {
        let s = t.total("serve.service.submit");
        (n + s.count, ns + s.total_ns)
    });
    led.put(
        "serve.service.submit_ns",
        ratio(submit.1 as f64, submit.0 as f64),
        "ns",
    );
    for t in trs {
        led.spans.absorb(t);
    }
}

/// The workload's operands as 256-lane groups of pairs, with oracle sums.
struct PairGroups {
    a: Vec<Vec<UBig>>,
    b: Vec<Vec<UBig>>,
    a_slab: Vec<WideSlab>,
    b_slab: Vec<WideSlab>,
    expect: Vec<Vec<Expect>>,
}

fn pair_groups(pool: &Pool) -> PairGroups {
    let ops: Vec<&UBig> = pool.reqs.iter().flat_map(|r| r.operands.iter()).collect();
    let mut g = PairGroups {
        a: Vec::new(),
        b: Vec::new(),
        a_slab: Vec::new(),
        b_slab: Vec::new(),
        expect: Vec::new(),
    };
    for chunk in ops.chunks_exact(2 * LANES) {
        let a: Vec<UBig> = chunk.iter().step_by(2).map(|&x| x.clone()).collect();
        let b: Vec<UBig> = chunk
            .iter()
            .skip(1)
            .step_by(2)
            .map(|&x| x.clone())
            .collect();
        g.expect
            .push(a.iter().zip(&b).map(|(x, y)| Expect::add(x, y)).collect());
        g.a_slab.push(WideSlab::from_lanes(&a));
        g.b_slab.push(WideSlab::from_lanes(&b));
        g.a.push(a);
        g.b.push(b);
    }
    g
}

fn wrong(n: usize, ok: impl Fn(usize) -> bool) -> u64 {
    (0..n).filter(|&i| !ok(i)).count() as u64
}

/// `LaneBuilder` packing and `WideSlab` unpacking.
fn group_and_batch_layers(led: &mut Ledger, groups: &PairGroups, engine: &dyn Engine) {
    let mut tr = led.tracer(2);
    let until = led.deadline(1.0);
    let (mut pushed, mut pushed_limbs, mut c) = (0u64, 0u64, 0usize);
    while Instant::now() < until {
        let (a, b) = (groups.a[c].clone(), groups.b[c].clone());
        let mut lane: LaneBuilder<u32> = LaneBuilder::new("vlcsa1", WIDTH);
        tr.span("vlcsa.group.push", c as u64, || {
            for (i, (x, y)) in a.into_iter().zip(b).enumerate() {
                lane.push(x, y, i as u32);
            }
        });
        let g = tr
            .span("vlcsa.group.drain", c as u64, || lane.drain())
            .expect("a full window");
        let bad = u64::from(g.a != groups.a_slab[c] || g.b != groups.b_slab[c]) * LANES as u64;
        led.tally.record_many(LANES as u64, bad);
        pushed += LANES as u64;
        tr.span("vlcsa.group.push_limbs", c as u64, || {
            for (i, (x, y)) in groups.a[c].iter().zip(&groups.b[c]).enumerate() {
                lane.push_limbs(x.limbs(), y.limbs(), i as u32);
            }
        });
        let g = tr
            .span("vlcsa.group.drain", c as u64, || lane.drain())
            .expect("a full window");
        let bad = u64::from(g.a != groups.a_slab[c] || g.b != groups.b_slab[c]) * LANES as u64;
        led.tally.record_many(LANES as u64, bad);
        pushed_limbs += LANES as u64;
        c = (c + 1) % groups.a.len();
    }
    let drain = tr.total("vlcsa.group.drain");
    led.put(
        "vlcsa.group.push_ns_per_lane",
        ratio(tr.total("vlcsa.group.push").total_ns as f64, pushed as f64),
        "ns",
    );
    led.put(
        "vlcsa.group.push_limbs_ns_per_lane",
        ratio(
            tr.total("vlcsa.group.push_limbs").total_ns as f64,
            pushed_limbs as f64,
        ),
        "ns",
    );
    led.put(
        "vlcsa.group.drain_ns_per_group",
        ratio(drain.total_ns as f64, drain.count as f64),
        "ns",
    );

    let exec = Executor::new(1);
    let sums: Vec<WideSlab> = (0..groups.a.len())
        .map(|c| exec.run(engine, &groups.a_slab[c], &groups.b_slab[c]).sum)
        .collect();
    let until = led.deadline(1.0);
    let (mut lanes, mut c) = (0u64, 0usize);
    let mut limbs = vec![0u64; WIDTH.div_ceil(64)];
    while Instant::now() < until {
        let slab = &sums[c];
        let unpacked = tr.span("bitnum.batch.lane_unpack", c as u64, || {
            (0..LANES).map(|l| slab.lane(l)).collect::<Vec<UBig>>()
        });
        let expect = &groups.expect[c];
        led.tally
            .record_many(LANES as u64, wrong(LANES, |l| unpacked[l] == expect[l].sum));
        let mut ok = 0u64;
        tr.open("bitnum.batch.write_limbs", c as u64);
        for (l, e) in expect.iter().enumerate() {
            slab.write_lane_limbs(l, &mut limbs);
            ok += u64::from(limbs == e.sum.limbs());
        }
        tr.close();
        led.tally.record_many(LANES as u64, LANES as u64 - ok);
        lanes += LANES as u64;
        c = (c + 1) % sums.len();
    }
    led.put(
        "bitnum.batch.lane_unpack_ns",
        ratio(
            tr.total("bitnum.batch.lane_unpack").total_ns as f64,
            lanes as f64,
        ),
        "ns",
    );
    led.put(
        "bitnum.batch.write_limbs_ns",
        ratio(
            tr.total("bitnum.batch.write_limbs").total_ns as f64,
            lanes as f64,
        ),
        "ns",
    );
    led.spans.absorb(tr);
}

/// `Program::run_csa` over 8-operand groups, and the per-request
/// carry-save pair the service computes for every `SUM`.
fn program_layer(led: &mut Ledger, pool: &Pool, engine: &dyn Engine) {
    let program = Program::sum(SUM_N).expect("a small sum program");
    let ops: Vec<&UBig> = pool.reqs.iter().flat_map(|r| r.operands.iter()).collect();
    let sets: Vec<Vec<UBig>> = ops
        .chunks_exact(SUM_N)
        .map(|c| c.iter().map(|&x| x.clone()).collect())
        .collect();
    let mut batches = Vec::new();
    for chunk in sets.chunks_exact(LANES) {
        let slabs: Vec<WideSlab> = (0..SUM_N)
            .map(|j| WideSlab::from_lanes(&chunk.iter().map(|s| s[j].clone()).collect::<Vec<_>>()))
            .collect();
        let sums: Vec<UBig> = chunk.iter().map(|s| Expect::sum(&program, s).sum).collect();
        batches.push((slabs, WideSlab::from_lanes(&sums), chunk));
    }
    let exec = Executor::new(1);
    let mut tr = led.tracer(3);
    let until = led.deadline(1.0);
    let (mut reqs, mut cycles, mut c) = (0u64, 0u64, 0usize);
    while Instant::now() < until {
        let (slabs, sums, sets) = &batches[c];
        let out = tr.span("vlcsa.program.run_csa", c as u64, || {
            program.run_csa(engine, &exec, slabs)
        });
        led.tally
            .record_many(LANES as u64, u64::from(out.sum != *sums) * LANES as u64);
        cycles += out.total_cycles();
        let pairs = tr.span("vlcsa.program.csa_pair", c as u64, || {
            sets.iter()
                .map(|s| program.csa_pair_scalar(s))
                .collect::<Vec<_>>()
        });
        let bad = wrong(LANES, |l| {
            pairs[l].0.wrapping_add(&pairs[l].1) == sums.lane(l)
        });
        led.tally.record_many(LANES as u64, bad);
        reqs += LANES as u64;
        c = (c + 1) % batches.len();
    }
    led.put(
        "vlcsa.program.sum8_ns_per_req",
        ratio(
            tr.total("vlcsa.program.run_csa").total_ns as f64,
            reqs as f64,
        ),
        "ns",
    );
    led.put(
        "vlcsa.program.csa_pair_ns_per_req",
        ratio(
            tr.total("vlcsa.program.csa_pair").total_ns as f64,
            reqs as f64,
        ),
        "ns",
    );
    led.put(
        "vlcsa.program.cycles_per_req",
        ratio(cycles as f64, reqs as f64),
        "cycles",
    );
    led.spans.absorb(tr);
}

/// `Router::route` and `Router::record`, fed with kernel outcomes of the
/// workload's operands.
fn route_layer(led: &mut Ledger, registry: &Registry, groups: &PairGroups) {
    let router = Router::new(RouteConfig::default());
    let min_batches = RouteConfig::default().min_batches;
    let names = registry.names();
    let outcomes: Vec<(u64, u64)> = registry
        .engines()
        .iter()
        .map(|e| {
            let out = e.add_batch(&groups.a_slab[0].chunks()[0], &groups.b_slab[0].chunks()[0]);
            let bad = wrong(out.lanes(), |l| out.sum.lane(l) == groups.expect[0][l].sum);
            led.tally.record_many(out.lanes() as u64, bad);
            (out.lanes() as u64, u64::from(out.stalls()))
        })
        .collect();
    let mut tr = led.tracer(4);
    let until = led.deadline(1.0);
    let (mut explore, mut explored, mut k) = (0u64, false, 0u64);
    while Instant::now() < until {
        k += 1;
        let d = tr
            .span("vlcsa.route.route", k, || router.route(WIDTH))
            .expect("the registry lists engines at the width");
        let i = names
            .iter()
            .position(|n| *n == d.engine)
            .expect("a registry engine");
        let (lanes, stalls) = outcomes[i];
        tr.span("vlcsa.route.record", k, || {
            router.record(&d.engine, WIDTH, lanes, stalls, 100)
        });
        if !explored {
            explore += 1;
            explored = names.iter().all(|n| {
                router
                    .estimate(n, WIDTH)
                    .is_some_and(|e| e.batches >= min_batches)
            });
        }
    }
    let route = tr.total("vlcsa.route.route");
    let record = tr.total("vlcsa.route.record");
    led.put(
        "vlcsa.route.route_ns",
        ratio(route.total_ns as f64, route.count as f64),
        "ns",
    );
    led.put(
        "vlcsa.route.record_ns",
        ratio(record.total_ns as f64, record.count as f64),
        "ns",
    );
    led.put(
        "vlcsa.route.explore_groups",
        if explored { explore as f64 } else { f64::NAN },
        "count",
    );
    led.spans.absorb(tr);
}

/// `Executor::run` at one and at all host threads, and the kernel's
/// `add_batch` over the same chunks, on 4096-lane groups.
fn exec_and_engine_layers(led: &mut Ledger, registry: &Registry) {
    let groups = Groups::build(led.seed, 4, GROUP_LANES);
    let engines: Vec<&dyn Engine> = ENGINES
        .iter()
        .map(|n| montecarlo::engine(registry, n))
        .collect();
    let (one, all) = (Executor::new(1), Executor::new(montecarlo::host_cpus()));
    let mut tr = led.tracer(5);
    let mut lanes = [0u64; 4];
    let mut stalls = [0u64; 4];
    let until = led.deadline(2.0);
    let mut k = 0usize;
    while Instant::now() < until {
        let (g, e) = (k % groups.len(), (k / groups.len()) % ENGINES.len());
        let (a, b) = (&groups.a[g], &groups.b[g]);
        let out1 = tr.span("vlcsa.exec.run1", k as u64, || one.run(engines[e], a, b));
        led.tally
            .record_many(out1.lanes() as u64, groups.wrong_lanes(g, &out1));
        let outn = tr.span("vlcsa.exec.runn", k as u64, || all.run(engines[e], a, b));
        led.tally
            .record_many(outn.lanes() as u64, groups.wrong_lanes(g, &outn));
        let chunks = tr.span(ENGINE_SPANS[e], k as u64, || {
            a.chunks()
                .iter()
                .zip(b.chunks())
                .map(|(x, y)| engines[e].add_batch(x, y))
                .collect::<Vec<_>>()
        });
        let same = chunks
            .iter()
            .zip(out1.sum.chunks())
            .all(|(c, s)| c.sum == *s);
        led.tally
            .record_many(out1.lanes() as u64, u64::from(!same) * out1.lanes() as u64);
        lanes[e] += out1.lanes() as u64;
        stalls[e] += chunks.iter().map(|c| u64::from(c.stalls())).sum::<u64>();
        k += 1;
    }
    let adds: u64 = lanes.iter().sum();
    let kernel_ns: u64 = ENGINE_SPANS.iter().map(|n| tr.total(n).total_ns).sum();
    let run1 = tr.total("vlcsa.exec.run1").total_ns;
    led.put(
        "vlcsa.exec.t1_ns_per_add",
        ratio(run1 as f64, adds as f64),
        "ns",
    );
    led.put(
        "vlcsa.exec.tn_ns_per_add",
        ratio(tr.total("vlcsa.exec.runn").total_ns as f64, adds as f64),
        "ns",
    );
    led.put(
        "vlcsa.exec.overhead_ns_per_add",
        ratio(run1 as f64 - kernel_ns as f64, adds as f64),
        "ns",
    );
    for (e, span) in ENGINE_SPANS.iter().enumerate() {
        led.put(
            &format!("{span}.ns_per_add"),
            ratio(tr.total(span).total_ns as f64, lanes[e] as f64),
            "ns",
        );
        led.put(
            &format!("{span}.stall_share"),
            ratio(stalls[e] as f64, lanes[e] as f64),
            "share",
        );
    }
    led.spans.absorb(tr);
}

/// The Monte Carlo loop in untraced and traced slices; returns the rates.
fn montecarlo_slices(led: &mut Ledger, registry: &Registry) -> (Vec<f64>, Vec<f64>) {
    let groups = Groups::build(led.seed, montecarlo::GROUPS, GROUP_LANES);
    let exec = Executor::new(montecarlo::host_cpus());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (i, on) in [false, true, false, true].into_iter().enumerate() {
        let mut tr = if on {
            led.tracer(40 + i as u32)
        } else {
            Tracer::disabled()
        };
        let t0 = Instant::now();
        let w = Window {
            t0,
            t1: led.deadline(2.0),
            rounds: 1,
        };
        let mut accs = [RoundAcc::new(1 << 16)];
        let adds = montecarlo::drive(
            &groups,
            registry,
            &exec,
            &w,
            w.t1,
            &mut accs,
            &mut led.tally,
            &mut tr,
        );
        let r = adds as f64 / t0.elapsed().as_secs_f64();
        if on {
            traced.push(r);
            led.spans.absorb(tr);
        } else {
            untraced.push(r);
        }
    }
    (untraced, traced)
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.tsv", workload.name()))
}

/// The traced run: every per-layer metric, in a fixed order.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut led = Ledger {
        epoch,
        unit: Duration::from_secs_f64(seconds / UNITS),
        seed,
        tally: Tally::default(),
        spans: Tracer::new(epoch, 0),
        metrics: Vec::new(),
        report: Vec::new(),
    };
    let shape = workload.shape();
    let registry = Registry::for_width(WIDTH);
    let vlcsa1 = montecarlo::engine(&registry, "vlcsa1");
    let pools = shape.pools(seed);

    client_layer(&mut led, &shape, &pools[0]);
    let (served_p50, untraced, traced) = if workload == Workload::EngineMonteCarlo {
        let (served_p50, _, _) = tcp_layer(&mut led, &shape, false)?;
        let (u, t) = montecarlo_slices(&mut led, &registry);
        (served_p50, u, t)
    } else {
        tcp_layer(&mut led, &shape, true)?
    };
    let service = Arc::new(Service::start(ServeConfig::default()));
    let session_p50 = session_layer(&mut led, &shape, &service);
    led.put(
        "serve.server.transport_us_p50",
        served_p50 - session_p50,
        "us",
    );
    service_layer(&mut led, &shape, &service);
    match Arc::try_unwrap(service) {
        Ok(s) => s.shutdown(),
        Err(_) => return Err(io::Error::other("the in-process service is still shared")),
    }
    let pairs = pair_groups(&pools[0]);
    group_and_batch_layers(&mut led, &pairs, vlcsa1);
    program_layer(&mut led, &pools[0], vlcsa1);
    route_layer(&mut led, &registry, &pairs);
    exec_and_engine_layers(&mut led, &registry);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    led.put(
        "trace.overhead_share",
        1.0 - mean(&traced) / mean(&untraced),
        "share",
    );
    led.note("untraced_ops_per_s", format!("{:?}", untraced));
    led.note("traced_ops_per_s", format!("{:?}", traced));

    // Self time per call of every span name: a span's duration minus
    // what its child spans cover.
    let self_times: Vec<(String, String)> = led
        .spans
        .totals()
        .map(|(n, t)| {
            (
                n.to_string(),
                format!("{:.1}", t.self_ns as f64 / t.count.max(1) as f64),
            )
        })
        .collect();
    led.note("span_self_ns_per_call", crate::json_object(&self_times));
    let path = spans_path(workload, seed);
    std::fs::create_dir_all(path.parent().expect("a directory"))?;
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    led.spans.write_tsv(&mut out)?;
    io::Write::flush(&mut out)?;
    led.note("spans_written", led.spans.spans().len().to_string());
    led.note(
        "spans_file",
        format!(
            "\"perfbench/out/{}\"",
            path.file_name().expect("a file").to_string_lossy()
        ),
    );
    Ok((led.metrics, led.tally, led.report))
}
