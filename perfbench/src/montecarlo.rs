//! The in-process Monte Carlo workload: pre-generated 4096-lane issue
//! groups cycled over four engines through [`Executor::run`] at the
//! host's thread count, with every sum and carry checked against oracle
//! slabs.

use std::time::{Duration, Instant};

use bitnum::batch::{DefaultWord, WideSlab, Word};
use bitnum::UBig;
use vlcsa::engine::{Engine, Registry};
use vlcsa::exec::{Executor, WideOutcome};

use crate::drive::{RoundAcc, Window};
use crate::pool::{source, WIDTH};
use crate::procfs;
use crate::served::{rounds, SETUP_RUNS};
use crate::trace::Tracer;
use crate::verify::{Expect, Tally};
use crate::{EndToEnd, Round};

/// The engines the loop cycles over.
pub const ENGINES: [&str; 4] = ["ripple", "carry-select", "vlcsa1", "vlcsa2"];

/// Lanes per issue group: 16 chunks of a 256-lane slab word.
pub const GROUP_LANES: usize = 4096;

/// Distinct groups in the pool.
pub const GROUPS: usize = 8;

/// Host threads; the executor runs at this width.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seeded operand groups with oracle sums and carry words.
pub struct Groups {
    /// First operands per group.
    pub a: Vec<WideSlab>,
    /// Second operands per group.
    pub b: Vec<WideSlab>,
    sum: Vec<WideSlab>,
    cout: Vec<WideSlab>,
}

impl Groups {
    /// Draws `groups` groups of `lanes` lanes from the seeded stream.
    pub fn build(seed: u64, groups: usize, lanes: usize) -> Self {
        let mut src = source(seed);
        let mut g = Groups {
            a: Vec::new(),
            b: Vec::new(),
            sum: Vec::new(),
            cout: Vec::new(),
        };
        for _ in 0..groups {
            let (a, b) = src.next_wide(lanes);
            let mut sums = Vec::with_capacity(lanes);
            let mut couts = Vec::with_capacity(lanes);
            for l in 0..lanes {
                let e = Expect::add(&a.lane(l), &b.lane(l));
                sums.push(e.sum);
                couts.push(UBig::from_u128(u128::from(e.cout), 1));
            }
            g.sum.push(WideSlab::from_lanes(&sums));
            g.cout.push(WideSlab::from_lanes(&couts));
            g.a.push(a);
            g.b.push(b);
        }
        g
    }

    /// Groups in the pool.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// Lanes of group `g` whose sum or carry is wrong (0 when all match).
    pub fn wrong_lanes(&self, g: usize, out: &WideOutcome) -> u64 {
        let couts_match = out.cout.len() == self.cout[g].chunks().len()
            && out
                .cout
                .iter()
                .zip(self.cout[g].chunks())
                .all(|(w, c)| *w == c.words()[0]);
        if out.sum == self.sum[g] && couts_match {
            return 0;
        }
        let bad = (0..self.a[g].lanes())
            .filter(|&l| {
                out.sum.lane(l) != self.sum[g].lane(l) || out.cout(l) != self.cout[g].lane(l).bit(0)
            })
            .count();
        bad.max(1) as u64
    }
}

/// The engine named `name` in `registry`.
pub fn engine<'r>(registry: &'r Registry, name: &str) -> &'r dyn Engine {
    registry.get(name).expect("workload engines are registered")
}

/// One timed step of the loop: group and engine of call `k`, so every
/// (group, engine) pair recurs once per `GROUPS * ENGINES.len()` calls.
fn pick(k: usize, groups: usize) -> (usize, usize) {
    let p = k % (groups * ENGINES.len());
    (p % groups, p / groups)
}

/// Runs the loop until `until`, recording each call's latency and
/// additions in the sub-window of `w` it completes in; returns the
/// additions run.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    groups: &Groups,
    registry: &Registry,
    exec: &Executor,
    w: &Window,
    until: Instant,
    rounds: &mut [RoundAcc],
    tally: &mut Tally,
    tr: &mut Tracer,
) -> u64 {
    let engines: Vec<&dyn Engine> = ENGINES.iter().map(|n| engine(registry, n)).collect();
    let mut adds = 0;
    let mut k = 0;
    while Instant::now() < until {
        let (g, e) = pick(k, groups.len());
        tr.open("vlcsa.exec.group", k as u64 + 1);
        let t = Instant::now();
        let out = exec.run(engines[e], &groups.a[g], &groups.b[g]);
        let end = Instant::now();
        let bad = tr.span("vlcsa.exec.verify", k as u64 + 1, || {
            groups.wrong_lanes(g, &out)
        });
        tr.close();
        let lanes = out.lanes() as u64;
        tally.record_many(lanes, bad);
        if let (Some(r), 0) = (w.round_of(end), bad) {
            rounds[r].add(lanes, t, end);
        }
        adds += lanes;
        k += 1;
    }
    adds
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> EndToEnd {
    let groups = Groups::build(seed, GROUPS, GROUP_LANES);
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let exec = Executor::new(host_cpus());
    for _ in 0..SETUP_RUNS {
        let t = Instant::now();
        let registry = Registry::for_width(WIDTH);
        for name in ENGINES {
            let out = exec.run(engine(&registry, name), &groups.a[0], &groups.b[0]);
            tally.record_many(out.lanes() as u64, groups.wrong_lanes(0, &out));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let registry = Registry::for_width(WIDTH);
    // Warm-up: every (group, engine) pair once; its cycles are the
    // run's simulated cost, fixed by the seed.
    let (mut cycles, mut lanes) = (0u64, 0u64);
    for k in 0..GROUPS * ENGINES.len() {
        let (g, e) = pick(k, GROUPS);
        let out = exec.run(engine(&registry, ENGINES[e]), &groups.a[g], &groups.b[g]);
        tally.record_many(out.lanes() as u64, groups.wrong_lanes(g, &out));
        cycles += out.total_cycles();
        lanes += out.lanes() as u64;
    }
    let t0 = Instant::now();
    let w = Window {
        t0,
        t1: t0 + Duration::from_secs_f64(seconds),
        rounds: rounds(seconds),
    };
    let mut accs = vec![RoundAcc::new(1 << 16); w.rounds];
    let mut cpu = vec![procfs::process_cpu_ns()];
    // The loop runs on this thread, so the CPU clock is read between
    // sub-windows by running one sub-window at a time.
    for k in 1..=w.rounds {
        let until = w.boundary(k);
        drive(
            &groups,
            &registry,
            &exec,
            &w,
            until,
            &mut accs,
            &mut tally,
            &mut Tracer::disabled(),
        );
        cpu.push(procfs::process_cpu_ns());
    }
    let calls: u64 = accs.iter().map(|a| a.lat.seen()).sum();
    EndToEnd {
        rounds: accs
            .iter()
            .zip(cpu.windows(2))
            .map(|(a, c)| Round::from_accs(&[a], c[1] - c[0]))
            .collect(),
        setup_s,
        sim_cycles_per_add: cycles as f64 / lanes as f64,
        tally,
        word_bits: DefaultWord::LANES,
        notes: vec![("group_calls".into(), calls as f64)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_visits_every_pair_once_per_cycle() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..3 * ENGINES.len() {
            assert!(seen.insert(pick(k, 3)));
        }
        assert_eq!(pick(3 * ENGINES.len(), 3), (0, 0));
    }

    #[test]
    fn oracle_slabs_accept_the_engines_and_catch_a_flipped_bit() {
        let groups = Groups::build(5, 1, 300);
        let registry = Registry::for_width(WIDTH);
        let exec = Executor::new(2);
        for name in ENGINES {
            let out = exec.run(engine(&registry, name), &groups.a[0], &groups.b[0]);
            assert_eq!(groups.wrong_lanes(0, &out), 0, "{name}");
        }
        let mut out = exec.run(engine(&registry, "ripple"), &groups.a[0], &groups.b[0]);
        let mut lanes = out.sum.to_lanes();
        let flipped = !lanes[123].bit(5);
        lanes[123].set_bit(5, flipped);
        out.sum = WideSlab::from_lanes(&lanes);
        assert_eq!(groups.wrong_lanes(0, &out), 1);
    }
}
