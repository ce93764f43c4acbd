//! The HTTP front end the worker ([`crate::Server`]) and the fleet
//! router share: the bind, one accept thread, one thread per
//! connection, the socket timeouts, the pipelined request loop and
//! graceful shutdown.
//!
//! A server plugs in a per-connection handler. The handler sees every
//! request the parser yields, in order, writes its response and returns
//! whether the connection stays open. A protocol error, an incomplete
//! request past [`REQUEST_TIMEOUT`] included, is shown to the handler too
//! (so it can count it), then answered here and the connection closed.
//!
//! Two rules bound what a peer can hold: one that takes no response
//! bytes for 5 s (`WRITE_TIMEOUT`) is dropped, and one whose request,
//! head and body, is not complete [`REQUEST_TIMEOUT`] after its first
//! byte is answered 408 (slow-loris). Either way its thread cannot block
//! [`Front::shutdown`], which joins every connection thread.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{encode_response, HttpError, Request, RequestParser, REQUEST_TIMEOUT};

/// Read timeout on connections: bounds how long a quiet socket delays
/// noticing shutdown or an expired request.
const READ_POLL: Duration = Duration::from_millis(100);

/// Write timeout on connections: a peer that takes no response bytes for
/// this long is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One connection's request handler. It gets the stream, the next
/// request (or the error ending the connection) and the stop flag, set
/// once shutdown begins; it writes the response and returns whether the
/// connection stays open.
pub type Handler =
    Box<dyn FnMut(&mut TcpStream, Result<&Request, &HttpError>, &AtomicBool) -> bool + Send>;

/// A bound listener, its accept thread and its connection threads.
pub struct Front {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Front {
    /// Binds `addr` and starts accepting. Threads are named `{name}-accept`
    /// and `{name}-conn`; bodies above `max_body` bytes are a 413.
    /// `new_handler` builds each accepted connection's [`Handler`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, spawn) from the OS.
    pub fn start(
        addr: &str,
        name: &str,
        max_body: usize,
        new_handler: impl Fn() -> Handler + Send + 'static,
    ) -> std::io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    accept_loop(&listener, &conn_name, &new_handler, &stop, &conns, max_body)
                })?
        };
        Ok(Front {
            addr,
            stop,
            acceptor,
            conns,
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: the acceptor wakes and exits, open connections
    /// finish their current request, and every thread is joined.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor blocked in accept().
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in conns {
            let _ = c.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    conn_name: &str,
    new_handler: &dyn Fn() -> Handler,
    stop: &Arc<AtomicBool>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
    max_body: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let handler = new_handler();
        let stop = Arc::clone(stop);
        let spawned = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || handle_conn(stream, handler, &stop, max_body));
        if let Ok(j) = spawned {
            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
            // A finished thread keeps its stack until its handle is joined
            // or dropped: reap those before adding to the list.
            conns.retain(|c| !c.is_finished());
            conns.push(j);
        }
    }
}

fn handle_conn(mut stream: TcpStream, mut handler: Handler, stop: &AtomicBool, max_body: usize) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::with_max_body(max_body);
    let mut buf = [0u8; 16 * 1024];
    // When the first byte of the request now buffered was seen.
    let mut since: Option<Instant> = None;
    loop {
        // Serve everything already buffered (pipelining).
        let failure = loop {
            match parser.poll() {
                Ok(Some(req)) => {
                    since = None;
                    if !handler(&mut stream, Ok(&req), stop) {
                        return;
                    }
                }
                Ok(None) if !parser.request_pending() => {
                    since = None;
                    break None;
                }
                Ok(None) => {
                    let first = *since.get_or_insert_with(Instant::now);
                    break (first.elapsed() >= REQUEST_TIMEOUT)
                        .then_some(HttpError::RequestTimeout);
                }
                Err(e) => break Some(e),
            }
        };
        if let Some(e) = failure {
            handler(&mut stream, Err(&e), stop);
            let body = format!("{e}\n");
            let _ = stream.write_all(&encode_response(
                e.status(),
                "text/plain",
                body.as_bytes(),
                false,
            ));
            return;
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}
