//! The TCP front-end: a listener, one read loop per connection, and
//! response writing from the worker threads.
//!
//! Each accepted connection gets a reader thread that reads into a fixed
//! 16 KiB buffer and feeds a [`ByteSession`] — the protocol state machine
//! of [`crate::session`], which splits lines and frames, negotiates the
//! `HELLO` upgrade to the binary framing of [`crate::binary`], and submits
//! requests to the shared [`Service`]. The write half of the socket is
//! wrapped in an `Arc<Mutex<TcpStream>>`; each request's reply callback
//! captures that handle plus the request's sequence number, so worker
//! threads write `OK` lines (or `OK` frames) directly to the right client
//! whenever their issue group completes — out of submission order when
//! the batching window split a connection's requests across groups.
//! Validation and protocol errors are answered inline by the reader; a
//! connection stops reading at EOF, on a socket error, or when the session
//! reports a poisoned stream, and closes once its pending replies are
//! written. Because workers
//! write to client sockets directly, a client that stops reading could
//! otherwise pin a worker on its full send buffer and head-of-line-block
//! every other connection — so each accepted socket carries
//! [`Server::WRITE_TIMEOUT`], after which that client's response is
//! dropped (its connection is already broken) and the worker moves on.
//!
//! [`Server::shutdown`] is clean and bounded: stop accepting, shut the
//! sockets down (unblocking the readers), answer everything already
//! accepted (worker writes to a shut-down socket are ignored), and join
//! every thread.
//!
//! With the `reactor` cargo feature, the reader threads are replaced by an
//! `epoll(7)` reader pool (see the `reactor` module) that runs the same
//! read step, `read_step`, on whichever connection is readable — many
//! idle connections, a handful of threads. Everything else — the service
//! core, the session, the write path, the shutdown contract — is shared.
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client
//!     .add("carry-select", &UBig::from_u128(2, 32), &UBig::from_u128(3, 32))
//!     .unwrap();
//! assert_eq!(response.sum.to_u128(), Some(5));
//! client.close();
//! server.shutdown();
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::Response;
use crate::service::{ServeConfig, Service};
use crate::session::{ByteSession, FeedOutcome, FrameSink, ResponseSink};

/// Bytes taken per `read`: a whole burst of pipelined requests fits.
pub(crate) const READ_BUF: usize = 16 * 1024;

/// The text sink over a shared socket: writes one response line,
/// swallowing write errors — a worker answering after the client hung up
/// (or after shutdown) has nobody left to tell. A failed (or timed-out)
/// write may have sent a partial line, so the socket is shut down: a
/// desynced stream is unrecoverable and killing it also unblocks the
/// connection's reader.
impl ResponseSink for Mutex<TcpStream> {
    fn send(&self, response: &Response) {
        // Line and newline in one buffer: one `write_all`, and so one
        // segment under `TCP_NODELAY`.
        let mut line = crate::protocol::format_response(response);
        line.push('\n');
        self.send_frame(line.as_bytes());
    }
}

/// The frame sink over a shared socket, with the same swallow-and-shutdown
/// failure policy as the text sink — a partial frame desyncs the stream
/// just as a partial line does.
impl FrameSink for Mutex<TcpStream> {
    fn send_frame(&self, frame: &[u8]) {
        let mut stream = self.lock().expect("connection write lock");
        if stream.write_all(frame).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// One step of a connection's read loop — one `read` into `buf`, fed to
/// the connection's session. Returns whether the connection lives on: it
/// ends at EOF (after the session's end-of-stream rule), on a socket
/// error, or on a poisoned stream, whose read half is shut down here.
/// Either way the write half stays open until the last pending reply has
/// been written, so every request accepted before the end is answered.
pub(crate) fn read_step(
    stream: &TcpStream,
    buf: &mut [u8],
    session: &mut ByteSession<Mutex<TcpStream>>,
    service: &Service,
) -> bool {
    match (&*stream).read(buf) {
        Ok(0) => {
            session.finish(service);
            false
        }
        Ok(n) => match session.feed(&buf[..n], service) {
            FeedOutcome::Continue => true,
            FeedOutcome::Close => {
                let _ = stream.shutdown(Shutdown::Read);
                false
            }
        },
        Err(e) => e.kind() == std::io::ErrorKind::Interrupted,
    }
}

/// One connection's reader thread: [`read_step`] until the connection
/// ends. The accepted stream is the read half; a clone, shared with every
/// pending reply, is the write half.
#[cfg(not(feature = "reactor"))]
fn serve_connection(stream: TcpStream, service: &Service) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut session = ByteSession::new(Arc::new(Mutex::new(writer)));
    let mut buf = vec![0u8; READ_BUF];
    while read_step(&stream, &mut buf, &mut session, service) {}
}

/// Hands one accepted connection to the epoll reactor: the original
/// stream becomes the watched read half, a clone becomes the shared
/// write half, and `on_close` keeps the server's connection registry in
/// sync with the reactor's. On any setup failure the connection is
/// dropped (and deregistered) — the same fate a failed `try_clone` has
/// on the threaded path.
#[cfg(feature = "reactor")]
fn attach_to_reactor(
    reactor: &crate::reactor::Reactor,
    stream: TcpStream,
    conn_id: u64,
    connections: &Arc<Mutex<HashMap<u64, TcpStream>>>,
) {
    let deregister = |connections: &Mutex<HashMap<u64, TcpStream>>| {
        connections
            .lock()
            .expect("connection registry lock")
            .remove(&conn_id);
    };
    match stream.try_clone() {
        Ok(writer) => {
            let conns = Arc::clone(connections);
            let on_close = Box::new(move || {
                conns
                    .lock()
                    .expect("connection registry lock")
                    .remove(&conn_id);
            });
            if reactor
                .register(stream, Arc::new(Mutex::new(writer)), on_close)
                .is_err()
            {
                deregister(connections);
            }
        }
        Err(_) => deregister(connections),
    }
}

/// The running TCP server — see the module docs and example.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Option<Arc<Service>>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<HashMap<u64, TcpStream>>>,
    reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    #[cfg(feature = "reactor")]
    reactor: Option<Arc<crate::reactor::Reactor>>,
}

impl Server {
    /// How long a worker will wait on one client's full send buffer
    /// before abandoning that response. A client that stops reading gets
    /// its replies dropped after this bound instead of wedging the shared
    /// worker pool (head-of-line blocking across connections).
    pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

    /// Binds `addr` (use port 0 for an OS-assigned port), starts the
    /// service core and the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        Self::start_with_service(addr, Service::start(config))
    }

    /// Like [`Server::start`], but over an already-built [`Service`] —
    /// the seam for serving custom routers or injected registries
    /// ([`Service::start_custom`]) over real sockets.
    ///
    /// # Errors
    ///
    /// Returns the bind error (the feature-gated reactor build can also
    /// surface an `epoll` setup error). The service is dropped — and
    /// thereby drained — on the error path.
    pub fn start_with_service(addr: impl ToSocketAddrs, service: Service) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(service);
        #[cfg(feature = "reactor")]
        let reactor =
            crate::reactor::Reactor::start(Arc::clone(&service), Self::reactor_readers())?;
        let connections: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let stop = Arc::clone(&stop);
            #[cfg(not(feature = "reactor"))]
            let service = Arc::clone(&service);
            let connections = Arc::clone(&connections);
            #[cfg(not(feature = "reactor"))]
            let reader_threads = Arc::clone(&reader_threads);
            #[cfg(feature = "reactor")]
            let reactor = Arc::clone(&reactor);
            std::thread::spawn(move || {
                let mut next_conn_id = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are single short lines; without NODELAY,
                    // Nagle + delayed ACK quantizes every round trip to
                    // tens of milliseconds. The write timeout bounds how
                    // long a worker can be held by one stalled client.
                    stream.set_nodelay(true).ok();
                    stream.set_write_timeout(Some(Self::WRITE_TIMEOUT)).ok();
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(registered) = stream.try_clone() {
                        connections
                            .lock()
                            .expect("connection registry lock")
                            .insert(conn_id, registered);
                    }
                    #[cfg(not(feature = "reactor"))]
                    {
                        let service = Arc::clone(&service);
                        let conns = Arc::clone(&connections);
                        let handle = std::thread::spawn(move || {
                            serve_connection(stream, &service);
                            // Deregister on exit so a long-running server
                            // does not accumulate one open fd per dead
                            // connection.
                            conns
                                .lock()
                                .expect("connection registry lock")
                                .remove(&conn_id);
                        });
                        // Reap finished readers here, for the same reason.
                        let finished: Vec<JoinHandle<()>> = {
                            let mut handles = reader_threads.lock().expect("reader registry lock");
                            let (done, live) = handles.drain(..).partition(|h| h.is_finished());
                            *handles = live;
                            handles.push(handle);
                            done
                        };
                        for done in finished {
                            // Already returned; join cannot block.
                            let _ = done.join();
                        }
                    }
                    #[cfg(feature = "reactor")]
                    attach_to_reactor(&reactor, stream, conn_id, &connections);
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            service: Some(service),
            accept_thread: Some(accept_thread),
            connections,
            reader_threads,
            #[cfg(feature = "reactor")]
            reactor: Some(reactor),
        })
    }

    /// Reader-pool size for the reactor build: a few threads overlap a
    /// few concurrently-chatty connections; idle ones cost nothing.
    #[cfg(feature = "reactor")]
    fn reactor_readers() -> usize {
        std::thread::available_parallelism()
            .map_or(2, usize::from)
            .clamp(1, 4)
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently registered connections. Dead connections are
    /// deregistered by their reader threads (and their handles reaped on
    /// the next accept), so a long-running server's registries track live
    /// clients, not connection history — this is the observable for that.
    pub fn open_connections(&self) -> usize {
        self.connections
            .lock()
            .expect("connection registry lock")
            .len()
    }

    /// Stops accepting, shuts every connection's socket down, answers the
    /// already-accepted requests, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if the
        // listener is somehow unreachable the loop is already dead.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for (_, stream) in self
            .connections
            .lock()
            .expect("connection registry lock")
            .drain()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // With the sockets already shut down, every pool thread's next
        // read returns, so the join inside is bounded; the reactor binding
        // drops at the end of the block, releasing its `Arc<Service>`
        // clone so `into_inner` below sees the last handle.
        #[cfg(feature = "reactor")]
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        let readers: Vec<_> = self
            .reader_threads
            .lock()
            .expect("reader registry lock")
            .drain(..)
            .collect();
        for handle in readers {
            let _ = handle.join();
        }
        // The readers are gone, so nothing submits anymore; this drains
        // and answers what was accepted (writes to dead sockets no-op).
        // The joined readers dropped their `Arc` clones, so `into_inner`
        // succeeds; if it ever did not, `Service::drop` closes and joins.
        if let Some(service) = self.service.take().and_then(Arc::into_inner) {
            service.shutdown();
        }
    }
}

impl Drop for Server {
    /// A dropped (not shut down) server still stops its accept loop so the
    /// listener thread cannot outlive the handle.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The pool threads notice within their wait timeout, exit, and
        // drop their reactor handles — no join needed here, mirroring the
        // reader threads being left to unblock on their own.
        #[cfg(feature = "reactor")]
        if let Some(reactor) = &self.reactor {
            reactor.request_stop();
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}
