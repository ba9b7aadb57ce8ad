//! Served workloads: a loopback [`Server`], set up several times over and
//! then driven by the shape's load for the measurement window.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use vlcsa::engine::Registry;
use vlcsa::route::RouteConfig;
use vlcsa_serve::{Client, ServeConfig, Server, StatsReport, AUTO_ENGINE};

use crate::drive::{self, Drive, RoundAcc, Window};
use crate::pool::{Load, Pool, Shape, WIDTH};
use crate::procfs;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::verify::{check, Tally, Verdict};
use crate::wire::{self, Receiver, Sender};
use crate::{EndToEnd, Round};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 21;

/// Sub-windows of a `seconds`-long measurement window: one per second.
/// Each timing metric is the median over them, which holds still when
/// the batching loop or a shared host speeds up or stalls for a second.
pub fn rounds(seconds: f64) -> usize {
    (seconds.round() as usize).max(1)
}

/// Load offered before the measurement window opens.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Requests per connection in each `auto` exploration burst.
const EXPLORE_BURST: usize = 16;

/// A connection's two halves, as the drivers take them.
pub type Conn = (Box<dyn Sender>, Box<dyn Receiver>);

/// A server with its connections, each past its first verified answer.
pub struct Served {
    server: Server,
    /// The load connections, one per pool.
    pub conns: Vec<Conn>,
}

impl Served {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Closes the connections and shuts the server down.
    pub fn close(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// The server's counters, read over a `STATS` control connection.
pub fn stats(addr: SocketAddr) -> io::Result<StatsReport> {
    let mut control = Client::connect(addr)?;
    let report = control.stats().map_err(|e| io::Error::other(e.to_string()));
    control.close();
    report
}

/// Sends requests `range` of `pool` and verifies their answers.
fn exchange(
    pool: &Pool,
    conn: &mut Conn,
    range: std::ops::Range<usize>,
    tally: &mut Tally,
) -> io::Result<()> {
    conn.0.send(pool, range.clone(), &mut Tracer::disabled())?;
    tally.attempted += range.len() as u64;
    for _ in range.clone() {
        let answer = conn.1.recv()?;
        let idx = answer.seq as usize;
        let verdict = if range.contains(&idx) {
            check(&pool.expect[idx], &answer.result)
        } else {
            Verdict::Wrong
        };
        tally.record(verdict);
        if !matches!(verdict, Verdict::Correct { .. }) {
            return Err(io::Error::other(format!(
                "set-up answer {answer:?} failed: {verdict:?}"
            )));
        }
    }
    Ok(())
}

/// Exchanges bursts until every candidate engine at the width has served
/// the router's exploration batches, as the server's `STATS` reports.
fn explore(
    pools: &[Pool],
    conns: &mut [Conn],
    addr: SocketAddr,
    tally: &mut Tally,
) -> io::Result<()> {
    let names = Registry::for_width(WIDTH).names();
    let min_batches = RouteConfig::default().min_batches;
    let mut control = Client::connect(addr)?;
    let mut at = 0;
    for _ in 0..1000 {
        for (pool, conn) in pools.iter().zip(conns.iter_mut()) {
            exchange(pool, conn, at..at + EXPLORE_BURST, tally)?;
        }
        at = (at + EXPLORE_BURST) % (pools[0].len() - EXPLORE_BURST);
        let report = control
            .stats()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let explored = names
            .iter()
            .all(|n| report.engine(n).is_some_and(|e| e.groups >= min_batches));
        if explored {
            control.close();
            return Ok(());
        }
    }
    Err(io::Error::other("the router never finished exploring"))
}

/// Starts a server and brings every lane the shape uses to its first
/// verified answer. Returns the server and the seconds that took.
pub fn bring_up(shape: &Shape, pools: &[Pool], tally: &mut Tally) -> io::Result<(Served, f64)> {
    let t = Instant::now();
    let server = Server::start("127.0.0.1:0", ServeConfig::default())?;
    let mut conns: Vec<Conn> = Vec::with_capacity(pools.len());
    for _ in pools {
        let (s, r) = wire::connect(server.local_addr(), shape.wire)?;
        conns.push((Box::new(s), Box::new(r)));
    }
    if shape.engines == [AUTO_ENGINE] {
        explore(pools, &mut conns, server.local_addr(), tally)?;
    } else {
        for (pool, conn) in pools.iter().zip(conns.iter_mut()) {
            exchange(pool, conn, 0..shape.engines.len(), tally)?;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    Ok((Served { server, conns }, secs))
}

/// Runs the shape's load over `conns` (one per pool) from `begin`, and
/// reads the process CPU clock at every sub-window boundary; returns the
/// drives and each sub-window's CPU time. Tracers, when given, record
/// one per generator thread.
pub fn drive_all(
    shape: &Shape,
    pools: &[Pool],
    conns: &mut [Conn],
    begin: Instant,
    w: Window,
    tracers: &mut [Tracer],
) -> (Vec<Drive>, Vec<u64>) {
    let sleep_until = |t: Instant| {
        let now = Instant::now();
        if t > now {
            std::thread::sleep(t - now);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = match shape.load {
            Load::Closed { depth, .. } => pools
                .iter()
                .zip(conns.iter_mut())
                .zip(tracers.iter_mut())
                .map(|((pool, (tx, rx)), tr)| {
                    s.spawn(move || drive::closed(pool, depth, tx.as_mut(), rx.as_mut(), w, tr))
                })
                .collect(),
            Load::Open { rate } => {
                let (tx, rx) = &mut conns[0];
                let [a, b] = tracers else {
                    panic!("an open loop records two tracers")
                };
                let pool = &pools[0];
                vec![s.spawn(move || {
                    drive::open(pool, rate, tx.as_mut(), rx.as_mut(), begin, w, (a, b))
                })]
            }
        };
        let cpu: Vec<u64> = (0..=w.rounds)
            .map(|k| {
                sleep_until(w.boundary(k));
                procfs::process_cpu_ns()
            })
            .collect();
        let drives = handles
            .into_iter()
            .map(|h| h.join().expect("driver threads do not panic"))
            .collect();
        (drives, cpu.windows(2).map(|c| c[1] - c[0]).collect())
    })
}

/// Tracers for the shape's generator threads: recording or disabled.
pub fn tracers(shape: &Shape, epoch: Option<Instant>, first_tag: u32) -> Vec<Tracer> {
    let n = match shape.load {
        Load::Closed { conns, .. } => conns,
        Load::Open { .. } => 2,
    };
    (0..n)
        .map(|i| match epoch {
            Some(e) => Tracer::new(e, first_tag + i as u32),
            None => Tracer::disabled(),
        })
        .collect()
}

/// The drives' sub-windows merged across connections, one [`Round`]
/// each, with `cpu_ns[k]` the process CPU time of sub-window `k`.
pub fn merge_rounds(drives: &[Drive], cpu_ns: &[u64], tally: &mut Tally) -> Vec<Round> {
    for d in drives {
        tally.merge(&d.tally);
    }
    cpu_ns
        .iter()
        .enumerate()
        .map(|(k, &cpu)| {
            let accs: Vec<&RoundAcc> = drives.iter().map(|d| &d.rounds[k]).collect();
            Round::from_accs(&accs, cpu)
        })
        .collect()
}

/// The rate of verified completions over a whole window, all
/// sub-windows and connections together.
pub fn rate(drives: &[Drive]) -> f64 {
    let accs: Vec<&RoundAcc> = drives.iter().flat_map(|d| &d.rounds).collect();
    let r = Round::from_accs(&accs, 0);
    r.ops as f64 / r.secs
}

/// Latencies of every sub-window of `drives`, ascending.
pub fn latencies(drives: &[Drive]) -> Vec<u64> {
    Samples::sorted_all(
        &drives
            .iter()
            .flat_map(|d| d.rounds.iter().map(|r| &r.lat))
            .collect::<Vec<_>>(),
    )
}

/// Modelled cycles per request over the pools' first correct answers,
/// and the share of pool requests answered.
fn pool_cycles(drives: &[Drive], pools: &[Pool]) -> (f64, f64) {
    let (mut cycles, mut covered, mut total) = (0u64, 0u64, 0u64);
    for (d, pool) in drives.iter().zip(pools) {
        for &c in &d.first_cycles[..pool.len()] {
            total += 1;
            if c > 0 {
                covered += 1;
                cycles += u64::from(c);
            }
        }
    }
    (
        cycles as f64 / covered.max(1) as f64,
        covered as f64 / total.max(1) as f64,
    )
}

/// The untraced end-to-end run of a served workload: [`SETUP_RUNS`]
/// set-ups, the last of which is driven through warm-up and the window,
/// cut into one-second sub-windows.
pub fn run(shape: &Shape, seed: u64, seconds: f64) -> io::Result<EndToEnd> {
    let pools = shape.pools(seed);
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut served = None;
    for k in 0..SETUP_RUNS {
        let (up, secs) = bring_up(shape, &pools, &mut tally)?;
        setup_s.push(secs);
        if k + 1 < SETUP_RUNS {
            up.close();
        } else {
            served = Some(up);
        }
    }
    let mut up = served.expect("at least one set-up");
    let word_bits = stats(up.addr())?.word_bits;
    let begin = Instant::now();
    let t0 = begin + WARMUP;
    let w = Window {
        t0,
        t1: t0 + Duration::from_secs_f64(seconds),
        rounds: rounds(seconds),
    };
    let mut trs = tracers(shape, None, 0);
    let (drives, cpu_ns) = drive_all(shape, &pools, &mut up.conns, begin, w, &mut trs);
    up.close();
    let (sim, coverage) = pool_cycles(&drives, &pools);
    let lag = Samples::sorted_all(&drives.iter().map(|d| &d.lag).collect::<Vec<_>>());
    let mut notes = vec![("sim_coverage".to_string(), coverage)];
    if let Some(p99) = crate::stats::quantile(&lag, 0.99) {
        notes.push(("send_lag_p99_us".into(), p99 as f64 / 1e3));
    }
    Ok(EndToEnd {
        rounds: merge_rounds(&drives, &cpu_ns, &mut tally),
        setup_s,
        sim_cycles_per_add: sim,
        tally,
        word_bits,
        notes,
    })
}
