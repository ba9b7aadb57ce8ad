//! Seeded request pools: the operand stream of a workload, its oracle
//! answers, and its pre-encoded wire bytes, all built before any timing.

use std::ops::Range;

use bitnum::UBig;
use vlcsa::engine::Registry;
use vlcsa_serve::binary::{self, ENGINE_ID_AUTO};
use vlcsa_serve::{protocol, Program, AUTO_ENGINE};
use workloads::dist::{Distribution, OperandSource};

use crate::verify::Expect;

/// Operand width of every workload.
pub const WIDTH: usize = 64;

/// Operands per `SUM` request.
pub const SUM_N: usize = 8;

/// The operand model: two's-complement Gaussian, σ = 2^24, at [`WIDTH`].
pub fn source(seed: u64) -> OperandSource {
    OperandSource::new(
        Distribution::TwosComplementGaussian {
            sigma: (1u64 << 24) as f64,
        },
        WIDTH,
        seed,
    )
}

/// How requests travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Newline-delimited hex text.
    Text,
    /// `HELLO`-negotiated limb frames.
    Binary,
}

/// What each request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One addition of two operands.
    Add,
    /// One [`SUM_N`]-operand reduction.
    Sum,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `conns` connections, each keeping `depth` requests in flight.
    Closed {
        /// Connections (and generator threads).
        conns: usize,
        /// Requests in flight per connection.
        depth: usize,
    },
    /// One connection sending on a fixed schedule.
    Open {
        /// Requests per second.
        rate: f64,
    },
}

/// A traffic shape: wire, request kind, engine rotation and load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// How requests travel.
    pub wire: Wire,
    /// What each request asks for.
    pub kind: Kind,
    /// Request `i` names `engines[i % engines.len()]`.
    pub engines: &'static [&'static str],
    /// How requests are offered.
    pub load: Load,
}

impl Shape {
    /// Connections the shape uses.
    pub fn conns(&self) -> usize {
        match self.load {
            Load::Closed { conns, .. } => conns,
            Load::Open { .. } => 1,
        }
    }

    /// Requests per connection pool. A request's sequence number is its
    /// pool index, so the pool must outlast the requests in flight: 32
    /// times a closed loop's depth, and 0.8 s of an open loop's traffic.
    pub fn pool_len(&self) -> usize {
        match self.load {
            Load::Closed { depth, .. } => 32 * depth,
            Load::Open { rate } => (0.8 * rate) as usize,
        }
    }

    /// One pool per connection, from independent splits of the seeded
    /// stream.
    pub fn pools(&self, seed: u64) -> Vec<Pool> {
        source(seed)
            .split(self.conns())
            .into_iter()
            .map(|mut src| Pool::build(self, &mut src, self.pool_len()))
            .collect()
    }
}

/// One request in parsed form.
#[derive(Debug, Clone)]
pub struct Req {
    /// The engine it names (possibly `auto`).
    pub engine: &'static str,
    /// Two operands for `ADD`, [`SUM_N`] for `SUM`.
    pub operands: Vec<UBig>,
}

/// A connection's requests: request `i` carries sequence number `i`.
pub struct Pool {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
    /// Parsed requests, for in-process transports.
    pub reqs: Vec<Req>,
    /// The oracle's answers.
    pub expect: Vec<Expect>,
}

/// The binary protocol's engine id for `name`.
pub fn engine_id(names: &[&str], name: &str) -> u8 {
    if name == AUTO_ENGINE {
        return ENGINE_ID_AUTO;
    }
    let id = names
        .iter()
        .position(|n| *n == name)
        .expect("workload engines are registry engines");
    u8::try_from(id).expect("registry ids fit a byte")
}

/// Encodes one request with the public wire formatters.
pub fn encode(wire: Wire, names: &[&str], seq: u64, req: &Req) -> Vec<u8> {
    match (wire, req.operands.len()) {
        (Wire::Text, 2) => {
            let mut line =
                protocol::format_add(seq, req.engine, &req.operands[0], &req.operands[1]);
            line.push('\n');
            line.into_bytes()
        }
        (Wire::Text, _) => {
            let mut line = protocol::format_sum(seq, req.engine, &req.operands);
            line.push('\n');
            line.into_bytes()
        }
        (Wire::Binary, 2) => binary::encode_add(
            seq,
            engine_id(names, req.engine),
            WIDTH,
            req.operands[0].limbs(),
            req.operands[1].limbs(),
        ),
        (Wire::Binary, _) => binary::encode_sum(seq, engine_id(names, req.engine), &req.operands),
    }
}

impl Pool {
    /// Draws `n` requests of `shape` from `src`, with oracle answers and
    /// wire bytes.
    pub fn build(shape: &Shape, src: &mut OperandSource, n: usize) -> Self {
        let names = Registry::for_width(WIDTH).names();
        let program = Program::sum(SUM_N).expect("a small sum program");
        let mut pool = Pool {
            bytes: Vec::new(),
            offsets: vec![0],
            reqs: Vec::with_capacity(n),
            expect: Vec::with_capacity(n),
        };
        for i in 0..n {
            let engine = shape.engines[i % shape.engines.len()];
            let (operands, expect) = match shape.kind {
                Kind::Add => {
                    let (a, b) = src.next_pair();
                    let e = Expect::add(&a, &b);
                    (vec![a, b], e)
                }
                Kind::Sum => {
                    let ops: Vec<UBig> = (0..SUM_N).map(|_| src.next_operand()).collect();
                    let e = Expect::sum(&program, &ops);
                    (ops, e)
                }
            };
            let req = Req { engine, operands };
            pool.bytes
                .extend_from_slice(&encode(shape.wire, &names, i as u64, &req));
            pool.offsets.push(pool.bytes.len());
            pool.reqs.push(req);
            pool.expect.push(expect);
        }
        pool
    }

    /// Requests in the pool.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// The wire bytes of requests `range`, back to back.
    pub fn encoded(&self, range: Range<usize>) -> &[u8] {
        &self.bytes[self.offsets[range.start]..self.offsets[range.end]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        wire: Wire::Text,
        kind: Kind::Add,
        engines: &["ripple", "vlcsa1"],
        load: Load::Closed { conns: 2, depth: 4 },
    };

    #[test]
    fn pools_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Pool::build(&SHAPE, &mut source(7), 16);
        let b = Pool::build(&SHAPE, &mut source(7), 16);
        let c = Pool::build(&SHAPE, &mut source(8), 16);
        assert_eq!(a.encoded(0..16), b.encoded(0..16));
        assert_ne!(a.encoded(0..16), c.encoded(0..16));
        assert_eq!(a.expect, b.expect);
    }

    #[test]
    fn text_pool_lines_name_their_sequence_and_engine() {
        let pool = Pool::build(&SHAPE, &mut source(1), 4);
        let line = std::str::from_utf8(pool.encoded(3..4)).unwrap();
        assert!(line.starts_with("ADD 3 vlcsa1 64 "), "{line}");
        assert!(line.ends_with('\n'));
        assert_eq!(
            pool.encoded(0..4).iter().filter(|&&b| b == b'\n').count(),
            4
        );
    }

    #[test]
    fn binary_sum_frames_decode_back_to_the_pool_request() {
        let shape = Shape {
            wire: Wire::Binary,
            kind: Kind::Sum,
            engines: &[AUTO_ENGINE],
            load: Load::Closed { conns: 1, depth: 1 },
        };
        let pool = Pool::build(&shape, &mut source(3), 2);
        let frame = pool.encoded(1..2);
        let names = Registry::for_width(WIDTH).names();
        let body = &frame[binary::HEADER_LEN..];
        match binary::decode_request(frame[1], body, &names) {
            Ok(binary::BinRequest::Sum {
                seq,
                engine,
                operands,
                ..
            }) => {
                assert_eq!(seq, 1);
                assert_eq!(engine, AUTO_ENGINE);
                assert_eq!(operands, pool.reqs[1].operands);
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }
}
