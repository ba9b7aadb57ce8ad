//! Transport-independent protocol handling: the byte-stream state machine
//! and the per-request surface of both wire protocols.
//!
//! [`server`](crate::server) owns sockets and threads; this module owns
//! everything between received bytes and the [`Service`]. [`ByteSession`]
//! splits a connection's bytes into lines and frames, negotiates the
//! `HELLO` upgrade and applies the poison, UTF-8 and end-of-stream rules;
//! [`dispatch_text`] and [`dispatch_binary`] map one decoded request onto
//! validation errors, submit calls and reply routing. Responses leave
//! through a caller-supplied sink:
//!
//! * [`ResponseSink`] receives parsed [`Response`] values (the text
//!   protocol's unit of output);
//! * [`FrameSink`] receives pre-encoded binary frames (the framed
//!   protocol's unit of output).
//!
//! The TCP server implements both sinks on `Mutex<TcpStream>`; the C ABI
//! ([`vlcsa-ffi`]) and in-process tests implement them on plain
//! collectors. Either way, worker threads call the sink directly when an
//! issue group completes — possibly out of submission order, possibly
//! concurrently — so sinks must be `Send + Sync` and serialize their own
//! output.
//!
//! [`vlcsa-ffi`]: https://docs.rs/vlcsa-ffi

use std::sync::Arc;

use vlcsa::route::AUTO_ENGINE;

use crate::binary::{
    self, BinRequest, FrameReadError, ENGINE_ID_AUTO, HEADER_LEN, HELLO_LINE, MAX_FRAME_BODY,
    PROTOCOL_VERSION,
};
use crate::protocol::{
    format_response, parse_request, ErrorCode, Request, RequestError, Response, SloAction,
};
use crate::service::{Service, SubmitError};

/// Where parsed text-protocol responses go. Implementations must
/// tolerate concurrent calls from worker threads and serialize their own
/// output (the TCP server locks the socket; a test sink locks a `Vec`).
pub trait ResponseSink: Send + Sync + 'static {
    /// Delivers one response. Errors are the sink's problem: a dispatch
    /// has nobody to tell that the client hung up.
    fn send(&self, response: &Response);
}

/// Where pre-encoded binary frames go; same concurrency contract as
/// [`ResponseSink`].
pub trait FrameSink: Send + Sync + 'static {
    /// Delivers one complete, already-encoded frame.
    fn send_frame(&self, frame: &[u8]);
}

/// Maps a [`SubmitError`] onto the wire error-code space, echoing the
/// request's sequence number. One mapping for both protocols (and the C
/// ABI, which reuses the same codes).
pub fn submit_error(seq: u64, err: SubmitError) -> RequestError {
    let code = match err {
        SubmitError::UnknownEngine(_) => ErrorCode::UnknownEngine,
        SubmitError::WidthMismatch(..) => ErrorCode::BadRequest,
        SubmitError::BadWidth(_) => ErrorCode::BadWidth,
        SubmitError::BadOperandCount(_) => ErrorCode::BadRequest,
        SubmitError::BadLimbs(_) => ErrorCode::BadOperand,
        SubmitError::Stopped => ErrorCode::Shutdown,
    };
    RequestError {
        seq,
        code,
        message: err.to_string(),
    }
}

fn submit_error_response(seq: u64, err: SubmitError) -> Response {
    Response::Err(submit_error(seq, err))
}

/// Dispatches one text-protocol line: parse, validate, submit; answer
/// errors inline through the sink. `ADD`/`SUM`/`PROG` replies arrive
/// later, from a worker thread, when the batching window flushes — the
/// sink is retained (via `Arc`) until every in-flight reply has fired.
pub fn dispatch_text<S: ResponseSink>(line: &str, service: &Service, sink: &Arc<S>) {
    match parse_request(line) {
        Ok(Request::Engines) => {
            // Engine names are width-independent; any registry lists
            // them. 64 is as good a cache key as any. `auto` rides
            // along so clients discover the pseudo-engine too.
            let names = service.registries().at(64).names();
            let names = names
                .into_iter()
                .map(str::to_string)
                .chain(std::iter::once(AUTO_ENGINE.to_string()))
                .collect();
            sink.send(&Response::Engines(names));
        }
        Ok(Request::Stats) => {
            sink.send(&Response::Stats(service.stats()));
        }
        Ok(Request::Slo(action)) => {
            match action {
                SloAction::Query => {}
                SloAction::Set(micros) => service.set_slo(Some(micros)),
                SloAction::Clear => service.set_slo(None),
            }
            // Always echo the budget now in force, so a set doubles
            // as a readback and a query is just the degenerate case.
            sink.send(&Response::Slo(service.slo()));
        }
        Ok(Request::Add {
            seq,
            engine,
            width: _,
            a,
            b,
        }) => {
            let reply_to = Arc::clone(sink);
            let submitted = service.submit(
                &engine,
                a,
                b,
                Box::new(move |result| {
                    reply_to.send(&Response::Ok {
                        seq,
                        sum: result.sum,
                        cout: result.cout,
                        cycles: result.cycles,
                    });
                }),
            );
            if let Err(err) = submitted {
                sink.send(&submit_error_response(seq, err));
            }
        }
        Ok(Request::Sum {
            seq,
            engine,
            width: _,
            operands,
        }) => {
            let reply_to = Arc::clone(sink);
            let submitted = service.submit_sum(
                &engine,
                &operands,
                Box::new(move |result| {
                    reply_to.send(&Response::Ok {
                        seq,
                        sum: result.sum,
                        cout: result.cout,
                        cycles: result.cycles,
                    });
                }),
            );
            if let Err(err) = submitted {
                sink.send(&submit_error_response(seq, err));
            }
        }
        Ok(Request::Program {
            seq,
            engine,
            width: _,
            program,
            inputs,
        }) => {
            let reply_to = Arc::clone(sink);
            let submitted = service.submit_program(
                &engine,
                &program,
                &inputs,
                Box::new(move |result| {
                    reply_to.send(&Response::Ok {
                        seq,
                        sum: result.sum,
                        cout: result.cout,
                        cycles: result.cycles,
                    });
                }),
            );
            if let Err(err) = submitted {
                sink.send(&submit_error_response(seq, err));
            }
        }
        Err(err) => sink.send(&Response::Err(err)),
    }
}

/// Dispatches one binary frame (already read and length-delimited):
/// decode, validate, submit; answer errors as `ERR` frames through the
/// sink. `names` is the width-independent engine listing frame ids index
/// into — the caller computes it once per connection, not per frame.
/// Body-level malformation is answered and absorbed here; only the
/// *caller* can see header-level poison (bad version, oversized length),
/// which is a close-the-stream event.
pub fn dispatch_binary<S: FrameSink>(
    opcode: u8,
    body: &[u8],
    names: &[&'static str],
    service: &Service,
    sink: &Arc<S>,
) {
    match binary::decode_request(opcode, body, names) {
        Ok(BinRequest::Add {
            seq,
            engine,
            width,
            a,
            b,
        }) => {
            let reply_to = Arc::clone(sink);
            // The limbs go straight from the frame into the slab
            // layout; the reply's limbs come straight out of it.
            let submitted = service.submit_limbs(
                engine,
                width,
                a,
                b,
                Box::new(move |result| {
                    reply_to.send_frame(&binary::encode_ok(
                        seq,
                        result.cout,
                        result.cycles,
                        result.sum.limbs(),
                    ));
                }),
            );
            if let Err(err) = submitted {
                sink.send_frame(&binary::encode_err(&submit_error(seq, err)));
            }
        }
        Ok(BinRequest::Sum {
            seq,
            engine,
            width: _,
            operands,
        }) => {
            let reply_to = Arc::clone(sink);
            let submitted = service.submit_sum(
                engine,
                &operands,
                Box::new(move |result| {
                    reply_to.send_frame(&binary::encode_ok(
                        seq,
                        result.cout,
                        result.cycles,
                        result.sum.limbs(),
                    ));
                }),
            );
            if let Err(err) = submitted {
                sink.send_frame(&binary::encode_err(&submit_error(seq, err)));
            }
        }
        Ok(BinRequest::Prog {
            seq,
            engine,
            width: _,
            program,
            inputs,
        }) => {
            let reply_to = Arc::clone(sink);
            let submitted = service.submit_program(
                engine,
                &program,
                &inputs,
                Box::new(move |result| {
                    reply_to.send_frame(&binary::encode_ok(
                        seq,
                        result.cout,
                        result.cycles,
                        result.sum.limbs(),
                    ));
                }),
            );
            if let Err(err) = submitted {
                sink.send_frame(&binary::encode_err(&submit_error(seq, err)));
            }
        }
        Ok(BinRequest::Engines) => {
            let entries: Vec<(u8, &str)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (i as u8, *n))
                .chain(std::iter::once((ENGINE_ID_AUTO, AUTO_ENGINE)))
                .collect();
            sink.send_frame(&binary::encode_engines(&entries));
        }
        Ok(BinRequest::Stats) => {
            // The counters snapshot rides as its text line — one
            // format, one parser, whatever the transport.
            let line = format_response(&Response::Stats(service.stats()));
            sink.send_frame(&binary::encode_stats(&line));
        }
        Ok(BinRequest::Slo(action)) => {
            match action {
                SloAction::Query => {}
                SloAction::Set(micros) => service.set_slo(Some(micros)),
                SloAction::Clear => service.set_slo(None),
            }
            sink.send_frame(&binary::encode_slo(service.slo()));
        }
        Err(err) => sink.send_frame(&binary::encode_err(&err)),
    }
}

/// How a [`ByteSession::feed`] left the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The stream is still healthy; feed more bytes as they arrive.
    Continue,
    /// The stream is finished — poisoned framing or an undecodable line.
    /// Any answerable error was already answered through the sink; the
    /// caller should stop reading and close the connection once replies
    /// already in flight have been written.
    Close,
}

/// The one protocol driver of a byte-stream connection: an incremental
/// session that accepts bytes in arbitrary slices, so every transport —
/// the thread-per-connection server, the `reactor` feature's epoll reader
/// pool, in-memory benches — shares one state machine.
///
/// * text lines are dispatched as they complete; blank lines are ignored
///   and do not burn the upgrade opportunity;
/// * a **first** non-empty line equal to [`HELLO_LINE`] upgrades the
///   session to binary framing — the ack (the upgrade line echoed) leaves
///   through [`FrameSink`] as raw bytes, the last non-frame output the
///   connection ever sees; a `HELLO` anywhere later is just an unknown
///   text command;
/// * framed mode consumes length-delimited frames; a malformed **body** is
///   answered with an `ERR` frame and the stream continues, while an
///   untrustworthy header (unknown version byte, lying length prefix)
///   answers one `ERR` frame and reports [`FeedOutcome::Close`] — the
///   stream cannot be resynchronized;
/// * a line that is not valid UTF-8 reports [`FeedOutcome::Close`]
///   unanswered;
/// * at end of stream ([`ByteSession::finish`]) a pending text line that
///   lacks its `\n` is dispatched; a partial frame is dropped.
///
/// One instance is one connection's state; callers serialize `feed` per
/// connection. Replies to batched submissions arrive later, from worker
/// threads, through the same sink.
pub struct ByteSession<S> {
    sink: Arc<S>,
    /// Received bytes not yet part of a complete line or frame.
    buf: Vec<u8>,
    mode: SessionMode,
    first: bool,
}

enum SessionMode {
    Text,
    Binary { names: Vec<&'static str> },
}

impl<S: ResponseSink + FrameSink> ByteSession<S> {
    /// A fresh session in text mode, answering through `sink`.
    pub fn new(sink: Arc<S>) -> Self {
        Self {
            sink,
            buf: Vec::new(),
            mode: SessionMode::Text,
            first: true,
        }
    }

    /// Consumes `bytes` — any split, including an empty slice — and
    /// dispatches every request they complete. Incomplete trailing input
    /// is buffered for the next call.
    pub fn feed(&mut self, bytes: &[u8], service: &Service) -> FeedOutcome {
        let mut buf = std::mem::take(&mut self.buf);
        // The kept tail was already searched for a line end, so a long
        // line arriving in many reads is scanned once, not once per read.
        let searched = buf.len();
        buf.extend_from_slice(bytes);
        let (used, outcome) = self.consume(&buf, searched, service);
        // Complete requests are walked by offset; the unconsumed tail
        // moves to the front once per call, not once per request.
        buf.drain(..used);
        self.buf = buf;
        outcome
    }

    /// Ends the stream: the transport saw EOF. A text line still pending
    /// without its `\n` is dispatched as if terminated, so a client that
    /// writes its last request and half-closes is answered; a partial
    /// binary frame has nothing to answer with and is dropped.
    pub fn finish(&mut self, service: &Service) {
        let rest = std::mem::take(&mut self.buf);
        if matches!(self.mode, SessionMode::Text) && !rest.is_empty() {
            self.text_line(&rest, service);
        }
    }

    /// Dispatches every complete request at the front of `data`, whose
    /// first `searched` bytes hold no line end; returns how many bytes the
    /// requests spanned and whether the stream lives on.
    fn consume(&mut self, data: &[u8], searched: usize, service: &Service) -> (usize, FeedOutcome) {
        let mut used = 0;
        loop {
            let rest = &data[used..];
            match &self.mode {
                SessionMode::Text => {
                    let from = searched.saturating_sub(used);
                    let Some(nl) = rest[from..].iter().position(|&b| b == b'\n') else {
                        return (used, FeedOutcome::Continue);
                    };
                    let line = &rest[..=from + nl];
                    used += line.len();
                    if self.text_line(line, service) == FeedOutcome::Close {
                        return (used, FeedOutcome::Close);
                    }
                }
                SessionMode::Binary { names } => {
                    if rest.len() < HEADER_LEN {
                        return (used, FeedOutcome::Continue);
                    }
                    let version = rest[0];
                    let len =
                        u32::from_le_bytes(rest[2..6].try_into().expect("4 header bytes")) as usize;
                    let poison = if version != PROTOCOL_VERSION {
                        Some(FrameReadError::BadVersion(version))
                    } else if len > MAX_FRAME_BODY {
                        Some(FrameReadError::Oversized(len))
                    } else {
                        None
                    };
                    if let Some(poison) = poison {
                        service.note_binary_request();
                        self.sink.send_frame(&binary::encode_err(&RequestError {
                            seq: 0,
                            code: ErrorCode::BadRequest,
                            message: poison.to_string(),
                        }));
                        return (used, FeedOutcome::Close);
                    }
                    let Some(frame) = rest.get(..HEADER_LEN + len) else {
                        return (used, FeedOutcome::Continue);
                    };
                    used += frame.len();
                    service.note_binary_request();
                    dispatch_binary(frame[1], &frame[HEADER_LEN..], names, service, &self.sink);
                }
            }
        }
    }

    /// Handles one text line (with or without its line ending): skip it if
    /// blank, upgrade on a first `HELLO`, dispatch it otherwise.
    fn text_line(&mut self, line: &[u8], service: &Service) -> FeedOutcome {
        let Ok(line) = std::str::from_utf8(line) else {
            return FeedOutcome::Close;
        };
        if line.trim().is_empty() {
            return FeedOutcome::Continue;
        }
        if self.first && line.trim_end_matches(['\r', '\n']) == HELLO_LINE {
            // The ack is the upgrade line itself; it rides the frame sink
            // because it is raw bytes, not a `Response`. The exchange
            // counts as neither protocol's traffic.
            self.sink.send_frame(format!("{HELLO_LINE}\n").as_bytes());
            self.mode = SessionMode::Binary {
                names: service.registries().at(64).names(),
            };
            return FeedOutcome::Continue;
        }
        self.first = false;
        service.note_text_request();
        dispatch_text(line, service, &self.sink);
        FeedOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::service::ServeConfig;

    /// A sink that collects formatted response lines — the whole point of
    /// the split: the text protocol exercised with no socket anywhere.
    struct Lines(Mutex<Vec<String>>);

    impl ResponseSink for Lines {
        fn send(&self, response: &Response) {
            self.0
                .lock()
                .expect("test sink lock")
                .push(format_response(response));
        }
    }

    impl FrameSink for Lines {
        fn send_frame(&self, frame: &[u8]) {
            // Tests only need to see that *a* frame arrived; stash the
            // opcode byte (frame[1], after the version byte).
            self.0
                .lock()
                .expect("test sink lock")
                .push(format!("frame:{:#04x}", frame[1]));
        }
    }

    fn drain(sink: &Arc<Lines>, want: usize) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let lines = sink.0.lock().expect("test sink lock");
                if lines.len() >= want {
                    return lines.clone();
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for replies");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn text_dispatch_needs_no_socket() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        });
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        dispatch_text("ADD 7 carry-select 32 2 3", &service, &sink);
        dispatch_text("SUM 8 ripple 32 4 1 2 3 4", &service, &sink);
        dispatch_text("nonsense", &service, &sink);
        let mut lines = drain(&sink, 3);
        lines.sort();
        // Cycles may be 1 or 2 (a recovery stall), so match the prefix.
        assert!(
            lines.iter().any(|l| l.starts_with("OK 7 5 0 ")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("OK 8 a 0 ")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("ERR 0 bad-request")),
            "{lines:?}"
        );
        service.shutdown();
    }

    #[test]
    fn text_dispatch_maps_submit_errors_inline() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        dispatch_text("ADD 3 no-such-engine 32 1 2", &service, &sink);
        let lines = drain(&sink, 1);
        assert!(
            lines[0].starts_with("ERR 3 unknown-engine"),
            "{:?}",
            lines[0]
        );
        service.shutdown();
    }

    #[test]
    fn binary_dispatch_needs_no_socket() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        });
        let names = service.registries().at(64).names();
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        // A STATS frame is opcode-only; an ADD frame carries real limbs.
        let stats = binary::encode_stats_request();
        dispatch_binary(
            stats[1],
            &stats[binary::HEADER_LEN..],
            &names,
            &service,
            &sink,
        );
        let add = binary::encode_add(5, 0, 64, &[7], &[8]);
        dispatch_binary(add[1], &add[binary::HEADER_LEN..], &names, &service, &sink);
        let mut lines = drain(&sink, 2);
        lines.sort();
        assert!(
            lines.contains(&format!("frame:{:#04x}", binary::resp::STATS)),
            "{lines:?}"
        );
        assert!(
            lines.contains(&format!("frame:{:#04x}", binary::resp::OK)),
            "{lines:?}"
        );
        service.shutdown();
    }

    /// A byte-accurate sink for [`ByteSession`] tests: text responses as
    /// their wire lines, frames (and the HELLO ack) verbatim.
    struct Wire(Mutex<Vec<Vec<u8>>>);

    impl ResponseSink for Wire {
        fn send(&self, response: &Response) {
            let mut line = format_response(response).into_bytes();
            line.push(b'\n');
            self.0.lock().expect("test sink lock").push(line);
        }
    }

    impl FrameSink for Wire {
        fn send_frame(&self, frame: &[u8]) {
            self.0.lock().expect("test sink lock").push(frame.to_vec());
        }
    }

    fn drain_wire(sink: &Arc<Wire>, want: usize) -> Vec<Vec<u8>> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let out = sink.0.lock().expect("test sink lock");
                if out.len() >= want {
                    return out.clone();
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for replies");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn byte_session_reassembles_split_text_lines() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        });
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        // A request split mid-token across three feeds dispatches exactly
        // once, when its newline arrives.
        assert_eq!(
            session.feed(b"ADD 7 carry-s", &service),
            FeedOutcome::Continue
        );
        assert_eq!(
            session.feed(b"elect 32 2 3", &service),
            FeedOutcome::Continue
        );
        assert!(sink.0.lock().expect("test sink lock").is_empty());
        assert_eq!(session.feed(b"\n", &service), FeedOutcome::Continue);
        let out = drain_wire(&sink, 1);
        let line = String::from_utf8(out[0].clone()).expect("text reply");
        assert!(line.starts_with("OK 7 5 0 "), "{line:?}");
        service.shutdown();
    }

    #[test]
    fn byte_session_upgrades_and_frames_byte_at_a_time() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        });
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        // Blank lines (even CRLF) before the HELLO do not burn the
        // upgrade; then a whole ADD frame arrives one byte at a time.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(b"HELLO BIN 1\n");
        bytes.extend_from_slice(&binary::encode_add(5, 0, 64, &[7], &[8]));
        for b in bytes {
            assert_eq!(session.feed(&[b], &service), FeedOutcome::Continue);
        }
        let out = drain_wire(&sink, 2);
        assert_eq!(out[0], b"HELLO BIN 1\n".to_vec(), "ack first");
        assert_eq!(out[1][1], binary::resp::OK, "then the OK frame");
        let report = service.stats();
        assert_eq!(
            report.proto_text, 0,
            "the upgrade is neither protocol's traffic"
        );
        assert_eq!(report.proto_bin, 1);
        service.shutdown();
    }

    #[test]
    fn byte_session_finish_completes_a_text_line_and_drops_a_partial_frame() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        });
        // Several requests and a partial one in a single feed: the
        // complete ones dispatch now, the tail waits for end of stream.
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        let bytes = b"ADD 1 ripple 8 1 2\n\nADD 2 ripple 8 2 3\nADD 3 ripple 8 3 4";
        assert_eq!(session.feed(bytes, &service), FeedOutcome::Continue);
        assert_eq!(service.stats().proto_text, 2);
        session.finish(&service);
        assert_eq!(service.stats().proto_text, 3);
        let mut out: Vec<String> = drain_wire(&sink, 3)
            .into_iter()
            .map(|l| String::from_utf8(l).expect("text reply"))
            .collect();
        out.sort();
        assert_eq!(out, ["OK 1 3 0 1\n", "OK 2 5 0 1\n", "OK 3 7 0 1\n"]);

        // In framed mode a partial frame has nothing to answer with.
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        let frame = binary::encode_add(5, 0, 64, &[7], &[8]);
        let mut bytes = b"HELLO BIN 1\n".to_vec();
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&frame[..frame.len() - 1]);
        assert_eq!(session.feed(&bytes, &service), FeedOutcome::Continue);
        session.finish(&service);
        assert_eq!(service.stats().proto_bin, 2);
        service.shutdown();
    }

    #[test]
    fn byte_session_poisoned_header_answers_err_and_closes() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        assert_eq!(
            session.feed(b"HELLO BIN 1\n", &service),
            FeedOutcome::Continue
        );
        // Version byte 9: untrustworthy header, stream unrecoverable.
        let header = [9u8, 0x01, 0, 0, 0, 0];
        assert_eq!(session.feed(&header, &service), FeedOutcome::Close);
        let out = drain_wire(&sink, 2);
        assert_eq!(out[1][1], binary::resp::ERR, "{out:?}");
        service.shutdown();
    }

    #[test]
    fn byte_session_closes_on_invalid_utf8_line() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        assert_eq!(
            session.feed(&[0xff, 0xfe, b'\n'], &service),
            FeedOutcome::Close
        );
        assert!(sink.0.lock().expect("test sink lock").is_empty());
        service.shutdown();
    }
}
