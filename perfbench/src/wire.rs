//! Transports a load driver can push a pool through: TCP loopback to a
//! [`Server`](vlcsa_serve::Server), a [`ByteSession`] over in-memory
//! buffers, or [`Service`] submit calls. Each splits into a sending and
//! a receiving half, so an open loop can send and receive on two threads.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bitnum::UBig;
use vlcsa_serve::binary::{self, BinResponse, HEADER_LEN, HELLO_LINE};
use vlcsa_serve::protocol::{parse_response, Response};
use vlcsa_serve::{AddResult, ByteSession, FeedOutcome, FrameSink, ResponseSink, Service};

use crate::pool::{Pool, Wire, WIDTH};
use crate::trace::Tracer;
use crate::verify::{Answer, Failure, Okay};

/// How long a receiver waits for one answer before the rest count as
/// missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The sending half of a transport.
pub trait Sender: Send {
    /// Sends requests `range` of `pool` (a contiguous run).
    fn send(&mut self, pool: &Pool, range: Range<usize>, tr: &mut Tracer) -> io::Result<()>;

    /// Request bytes handed to the transport so far.
    fn bytes(&self) -> u64 {
        0
    }
}

/// The receiving half of a transport.
pub trait Receiver: Send {
    /// The next answer, blocking up to [`REPLY_TIMEOUT`].
    fn recv(&mut self) -> io::Result<Answer>;

    /// Socket reads that returned data, and the bytes they returned.
    fn reads(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Decodes one text reply line.
pub fn answer_from_text(line: &str) -> Answer {
    match parse_response(line.trim_end(), WIDTH) {
        Ok(response) => answer_from_response(&response),
        Err(msg) => garbled(msg),
    }
}

/// Converts a parsed text response.
pub fn answer_from_response(response: &Response) -> Answer {
    match response {
        Response::Ok {
            seq,
            sum,
            cout,
            cycles,
        } => Answer {
            seq: *seq,
            result: Ok(Okay {
                sum: sum.clone(),
                cout: *cout,
                cycles: *cycles,
            }),
        },
        Response::Err(e) => Answer {
            seq: e.seq,
            result: Err(Failure::Err(format!("{} {}", e.code, e.message))),
        },
        other => garbled(format!("unexpected response {other:?}")),
    }
}

/// Decodes one binary reply frame (opcode and body).
pub fn answer_from_frame(opcode: u8, body: &[u8]) -> Answer {
    match binary::decode_response(opcode, body) {
        Ok(BinResponse::Ok {
            seq,
            cout,
            cycles,
            sum_limbs,
        }) if sum_limbs.len() == WIDTH.div_ceil(64) => Answer {
            seq,
            result: Ok(Okay {
                sum: UBig::from_limbs(&sum_limbs, WIDTH),
                cout,
                cycles,
            }),
        },
        Ok(BinResponse::Err(e)) => Answer {
            seq: e.seq,
            result: Err(Failure::Err(format!("{} {}", e.code, e.message))),
        },
        Ok(other) => garbled(format!("unexpected frame {other:?}")),
        Err(msg) => garbled(msg),
    }
}

fn garbled(msg: String) -> Answer {
    Answer {
        seq: u64::MAX,
        result: Err(Failure::Garbled(msg)),
    }
}

fn from_result(seq: u64, r: AddResult) -> Answer {
    Answer {
        seq,
        result: Ok(Okay {
            sum: r.sum,
            cout: r.cout,
            cycles: r.cycles,
        }),
    }
}

/// A reader that counts the reads that returned data.
struct Counted<R> {
    inner: R,
    reads: u64,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.reads += 1;
            self.bytes += n as u64;
        }
        Ok(n)
    }
}

/// The sending half of a loopback connection.
pub struct TcpSend {
    stream: TcpStream,
    bytes: u64,
}

/// The receiving half of a loopback connection.
pub struct TcpRecv {
    reader: BufReader<Counted<TcpStream>>,
    wire: Wire,
    line: String,
}

/// Connects to `addr` and, for [`Wire::Binary`], negotiates the framing.
pub fn connect(addr: SocketAddr, wire: Wire) -> io::Result<(TcpSend, TcpRecv)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut send = TcpSend {
        stream: stream.try_clone()?,
        bytes: 0,
    };
    let mut recv = TcpRecv {
        reader: BufReader::with_capacity(
            64 * 1024,
            Counted {
                inner: stream,
                reads: 0,
                bytes: 0,
            },
        ),
        wire,
        line: String::new(),
    };
    if wire == Wire::Binary {
        send.stream
            .write_all(format!("{HELLO_LINE}\n").as_bytes())?;
        recv.reader.read_line(&mut recv.line)?;
        if recv.line.trim_end() != HELLO_LINE {
            return Err(io::Error::other(format!(
                "binary upgrade refused: {:?}",
                recv.line
            )));
        }
    }
    Ok((send, recv))
}

impl Sender for TcpSend {
    fn send(&mut self, pool: &Pool, range: Range<usize>, _tr: &mut Tracer) -> io::Result<()> {
        let bytes = pool.encoded(range);
        self.stream.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Receiver for TcpRecv {
    fn recv(&mut self) -> io::Result<Answer> {
        match self.wire {
            Wire::Text => {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                Ok(answer_from_text(&self.line))
            }
            Wire::Binary => match binary::read_frame(&mut self.reader) {
                Ok(Some((opcode, body))) => Ok(answer_from_frame(opcode, &body)),
                Ok(None) => Err(io::ErrorKind::UnexpectedEof.into()),
                Err(e) => Err(io::Error::other(e.to_string())),
            },
        }
    }

    fn reads(&self) -> (u64, u64) {
        let c = self.reader.get_ref();
        (c.reads, c.bytes)
    }
}

/// A sink that turns every reply into an [`Answer`] on a channel and
/// counts its calls.
pub struct SessionSink {
    tx: mpsc::Sender<Answer>,
    calls: AtomicU64,
    hello: AtomicBool,
}

impl SessionSink {
    /// Sink calls that carried a reply.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl ResponseSink for SessionSink {
    fn send(&self, response: &Response) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(answer_from_response(response));
    }
}

impl FrameSink for SessionSink {
    fn send_frame(&self, frame: &[u8]) {
        if frame == format!("{HELLO_LINE}\n").as_bytes() {
            self.hello.store(true, Ordering::Release);
            return;
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let answer = if frame.len() < HEADER_LEN {
            garbled(format!("short frame of {} bytes", frame.len()))
        } else {
            answer_from_frame(frame[1], &frame[HEADER_LEN..])
        };
        let _ = self.tx.send(answer);
    }
}

/// Feeds request bytes into a [`ByteSession`] over an in-process service.
pub struct SessionSend {
    session: ByteSession<SessionSink>,
    service: Arc<Service>,
}

/// Takes answers from a channel.
pub struct ChanRecv {
    rx: mpsc::Receiver<Answer>,
}

/// A session over `service`, already upgraded for [`Wire::Binary`].
pub fn session(service: &Arc<Service>, wire: Wire) -> (SessionSend, ChanRecv, Arc<SessionSink>) {
    let (tx, rx) = mpsc::channel();
    let sink = Arc::new(SessionSink {
        tx,
        calls: AtomicU64::new(0),
        hello: AtomicBool::new(false),
    });
    let mut session = ByteSession::new(Arc::clone(&sink));
    if wire == Wire::Binary {
        let outcome = session.feed(format!("{HELLO_LINE}\n").as_bytes(), service);
        assert_eq!(outcome, FeedOutcome::Continue);
        assert!(
            sink.hello.load(Ordering::Acquire),
            "the upgrade is acked inline"
        );
    }
    (
        SessionSend {
            session,
            service: Arc::clone(service),
        },
        ChanRecv { rx },
        sink,
    )
}

impl Sender for SessionSend {
    fn send(&mut self, pool: &Pool, range: Range<usize>, tr: &mut Tracer) -> io::Result<()> {
        let bytes = pool.encoded(range.clone());
        let (session, service) = (&mut self.session, &self.service);
        let outcome = tr.span("serve.session.feed", range.start as u64, || {
            session.feed(bytes, service)
        });
        match outcome {
            FeedOutcome::Continue => Ok(()),
            FeedOutcome::Close => Err(io::Error::other("the session closed the stream")),
        }
    }
}

impl Receiver for ChanRecv {
    fn recv(&mut self) -> io::Result<Answer> {
        self.rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, e))
    }
}

/// Submits parsed requests straight to a [`Service`].
pub struct ServiceSend {
    service: Arc<Service>,
    tx: mpsc::Sender<Answer>,
}

/// The service transport: submit calls in, reply callbacks out.
pub fn service(service: &Arc<Service>) -> (ServiceSend, ChanRecv) {
    let (tx, rx) = mpsc::channel();
    (
        ServiceSend {
            service: Arc::clone(service),
            tx,
        },
        ChanRecv { rx },
    )
}

impl Sender for ServiceSend {
    fn send(&mut self, pool: &Pool, range: Range<usize>, tr: &mut Tracer) -> io::Result<()> {
        for i in range {
            let req = &pool.reqs[i];
            let seq = i as u64;
            let tx = self.tx.clone();
            let reply = Box::new(move |r: AddResult| {
                let _ = tx.send(from_result(seq, r));
            });
            let submitted = if req.operands.len() == 2 {
                let (a, b) = (req.operands[0].clone(), req.operands[1].clone());
                tr.span("serve.service.submit", seq, || {
                    self.service.submit(req.engine, a, b, reply)
                })
            } else {
                tr.span("serve.service.submit", seq, || {
                    self.service.submit_sum(req.engine, &req.operands, reply)
                })
            };
            if let Err(e) = submitted {
                let _ = self.tx.send(Answer {
                    seq,
                    result: Err(Failure::Err(e.to_string())),
                });
            }
        }
        Ok(())
    }
}
