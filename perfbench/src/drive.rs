//! Load drivers: a closed loop that keeps a fixed number of requests in
//! flight, and an open loop that sends on a fixed schedule. Both verify
//! every answer and time requests inside a measurement window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::pool::Pool;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::verify::{check, Tally, Verdict};
use crate::wire::{Receiver, Sender};

/// Latency samples kept per driver, shared out over its rounds.
const SAMPLE_CAP: usize = 1 << 21;

/// The measurement window: answers verified in `[t0, t1)` count; no
/// request is sent at or after `t1`. The window is cut into `rounds`
/// equal sub-windows, each summarised on its own.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start of the window (the end of warm-up).
    pub t0: Instant,
    /// End of the window.
    pub t1: Instant,
    /// Sub-windows.
    pub rounds: usize,
}

impl Window {
    /// The sub-window `t` falls in, if it is inside the window.
    pub fn round_of(&self, t: Instant) -> Option<usize> {
        if t < self.t0 || t >= self.t1 {
            return None;
        }
        let share = (t - self.t0).as_secs_f64() / (self.t1 - self.t0).as_secs_f64();
        Some(((share * self.rounds as f64) as usize).min(self.rounds - 1))
    }

    /// The start of sub-window `k` (`k == rounds` is the window's end).
    pub fn boundary(&self, k: usize) -> Instant {
        self.t0 + (self.t1 - self.t0).mul_f64(k as f64 / self.rounds as f64)
    }
}

/// Correct answers verified in one sub-window.
#[derive(Debug, Clone)]
pub struct RoundAcc {
    /// Operations they completed.
    pub ops: u64,
    /// Operations of the first of them.
    pub first_ops: u64,
    /// First and last of their verification times.
    pub span: Option<(Instant, Instant)>,
    /// Their latencies, ns.
    pub lat: Samples,
}

impl RoundAcc {
    /// An empty sub-window keeping up to `cap` latencies.
    pub fn new(cap: usize) -> Self {
        Self {
            ops: 0,
            first_ops: 0,
            span: None,
            lat: Samples::with_capacity(cap),
        }
    }

    /// Counts one completion of `ops` operations that started at `start`
    /// and ended at `end`.
    pub fn add(&mut self, ops: u64, start: Instant, end: Instant) {
        if self.span.is_none() {
            self.first_ops = ops;
        }
        self.ops += ops;
        self.span = Some(self.span.map_or((end, end), |(first, _)| (first, end)));
        self.lat.push((end - start).as_nanos() as u64);
    }
}

/// What one driver saw.
pub struct Drive {
    /// Failure accounting over everything sent.
    pub tally: Tally,
    /// Completions per sub-window.
    pub rounds: Vec<RoundAcc>,
    /// How late each request was sent, ns: after its due time in an open
    /// loop, after the answer that freed its slot in a closed loop.
    pub lag: Samples,
    /// Per pool request: cycles of its first correct answer, 0 before one.
    pub first_cycles: Vec<u8>,
    /// Answers received.
    pub replies: u64,
    /// Socket reads that returned data, and their bytes.
    pub reads: (u64, u64),
    /// Request bytes sent.
    pub bytes_sent: u64,
}

impl Drive {
    /// An empty record for a pool of `n` requests and the window `w`.
    fn new(n: usize, w: &Window) -> Self {
        Self {
            tally: Tally::default(),
            rounds: vec![RoundAcc::new(SAMPLE_CAP / w.rounds); w.rounds],
            lag: Samples::with_capacity(SAMPLE_CAP / 4),
            first_cycles: vec![0; n],
            replies: 0,
            reads: (0, 0),
            bytes_sent: 0,
        }
    }

    /// Records the transport's read and write counters since `reads0`
    /// and `bytes0` were taken.
    fn count_io(&mut self, rx: &dyn Receiver, tx: &dyn Sender, reads0: (u64, u64), bytes0: u64) {
        let (reads, bytes) = rx.reads();
        self.reads = (reads - reads0.0, bytes - reads0.1);
        self.bytes_sent = tx.bytes() - bytes0;
    }

    fn judge(&mut self, idx: usize, result: Verdict, start: Instant, end: Instant, w: &Window) {
        self.tally.record(result);
        if let Verdict::Correct { cycles } = result {
            if self.first_cycles[idx] == 0 {
                self.first_cycles[idx] = cycles;
            }
            if let Some(r) = w.round_of(end) {
                self.rounds[r].add(1, start, end);
            }
        }
    }
}

/// Sends the next `count` pool requests (wrapping) as one write burst and
/// returns the time the burst started.
fn send_burst(
    pool: &Pool,
    tx: &mut dyn Sender,
    tr: &mut Tracer,
    next: &mut usize,
    count: usize,
    sent_at: &mut [Option<(Instant, u64)>],
    sent: &mut u64,
) -> std::io::Result<Instant> {
    let n = pool.len();
    let t = Instant::now();
    tr.open("serve.client.write", *sent + 1);
    let mut left = count;
    let mut result = Ok(());
    while left > 0 && result.is_ok() {
        let end = (*next + left).min(n);
        result = tx.send(pool, *next..end, tr);
        if result.is_ok() {
            for slot in &mut sent_at[*next..end] {
                *sent += 1;
                *slot = Some((t, *sent));
            }
            left -= end - *next;
            *next = end % n;
        }
    }
    tr.close();
    result.map(|()| t)
}

/// Requests a closed loop writes at once: freed slots are refilled in
/// bursts of this many, the way a pipelining client batches its writes,
/// so between `depth - REFILL` and `depth` requests are in flight.
pub const REFILL: usize = 32;

/// Keeps `depth` requests in flight until the window ends, then drains.
pub fn closed(
    pool: &Pool,
    depth: usize,
    tx: &mut dyn Sender,
    rx: &mut dyn Receiver,
    w: Window,
    tr: &mut Tracer,
) -> Drive {
    let n = pool.len();
    let depth = depth.min(n);
    let mut d = Drive::new(n, &w);
    let mut sent_at: Vec<Option<(Instant, u64)>> = vec![None; n];
    let mut next = 0usize;
    let mut sent = 0u64;
    let mut matched = 0u64;
    let mut freed: Vec<Instant> = Vec::with_capacity(REFILL);
    let mut stopping = false;
    let mut outstanding = 0usize;
    let (reads0, bytes0) = (rx.reads(), tx.bytes());
    if send_burst(pool, tx, tr, &mut next, depth, &mut sent_at, &mut sent).is_ok() {
        outstanding = depth;
    }
    while outstanding > 0 {
        tr.open("serve.client.read", 0);
        let got = rx.recv();
        tr.close();
        let Ok(answer) = got else { break };
        let now = Instant::now();
        d.replies += 1;
        let idx = answer.seq as usize;
        let Some((start, req)) = sent_at.get_mut(idx).and_then(Option::take) else {
            d.tally.wrong += 1;
            continue;
        };
        matched += 1;
        outstanding -= 1;
        let verdict = tr.span("serve.client.verify", req, || {
            check(&pool.expect[idx], &answer.result)
        });
        tr.record("serve.client.request", req, start, now);
        d.judge(idx, verdict, start, now, &w);
        if stopping {
            continue;
        }
        if now >= w.t1 {
            stopping = true;
            continue;
        }
        freed.push(now);
        if freed.len() >= REFILL.min(depth) {
            match send_burst(
                pool,
                tx,
                tr,
                &mut next,
                freed.len(),
                &mut sent_at,
                &mut sent,
            ) {
                Ok(t) => {
                    outstanding += freed.len();
                    for f in freed.drain(..) {
                        d.lag.push(t.saturating_duration_since(f).as_nanos() as u64);
                    }
                }
                Err(_) => stopping = true,
            }
        }
    }
    d.tally.attempted = sent;
    d.tally.missing = sent - matched;
    d.count_io(rx, tx, reads0, bytes0);
    d
}

/// Sends one request every `1/rate` seconds from `begin` until the window
/// ends, on a sender thread, while this thread receives. Latency runs
/// from each request's scheduled time, so a stall that delays later sends
/// is charged to them.
pub fn open(
    pool: &Pool,
    rate: f64,
    tx: &mut dyn Sender,
    rx: &mut dyn Receiver,
    begin: Instant,
    w: Window,
    trs: (&mut Tracer, &mut Tracer),
) -> Drive {
    let n = pool.len();
    let period = Duration::from_secs_f64(1.0 / rate);
    let count = ((w.t1 - begin).as_secs_f64() * rate).ceil() as u64;
    let due: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let req_no: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let pending: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let stop = AtomicBool::new(false);
    let (tr_send, tr_recv) = trs;
    let mut d = Drive::new(n, &w);
    let (reads0, bytes0) = (rx.reads(), tx.bytes());
    let (lag, sent) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lag = Samples::with_capacity(SAMPLE_CAP / 4);
            let mut sent = 0u64;
            for i in 0..count {
                let at = begin + period * i as u32;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let idx = (i % n as u64) as usize;
                due[idx].store((at - begin).as_nanos() as u64, Ordering::Relaxed);
                req_no[idx].store(i + 1, Ordering::Relaxed);
                pending[idx].store(true, Ordering::Release);
                let t = Instant::now();
                tr_send.open("serve.client.write", i + 1);
                let r = tx.send(pool, idx..idx + 1, tr_send);
                tr_send.close();
                if r.is_err() {
                    pending[idx].store(false, Ordering::Release);
                    break;
                }
                lag.push(t.saturating_duration_since(at).as_nanos() as u64);
                sent += 1;
            }
            (lag, sent)
        });
        let mut received = 0u64;
        while received < count {
            tr_recv.open("serve.client.read", 0);
            let got = rx.recv();
            tr_recv.close();
            let Ok(answer) = got else {
                stop.store(true, Ordering::Relaxed);
                break;
            };
            let now = Instant::now();
            d.replies += 1;
            let idx = answer.seq as usize;
            if idx >= n || !pending[idx].swap(false, Ordering::Acquire) {
                d.tally.wrong += 1;
                continue;
            }
            received += 1;
            let at = begin + Duration::from_nanos(due[idx].load(Ordering::Relaxed));
            let req = req_no[idx].load(Ordering::Relaxed);
            let verdict = tr_recv.span("serve.client.verify", req, || {
                check(&pool.expect[idx], &answer.result)
            });
            tr_recv.record("serve.client.request", req, at, now);
            d.judge(idx, verdict, at, now, &w);
        }
        let (lag, sent) = sender.join().expect("the sender thread does not panic");
        d.tally.missing = sent - received.min(sent);
        (lag, sent)
    });
    d.lag = lag;
    d.tally.attempted = sent;
    d.count_io(rx, tx, reads0, bytes0);
    d
}
