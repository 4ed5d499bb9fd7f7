//! The serve loops: a thread-per-connection TCP listener and a pipe-driven
//! stdio mode, both speaking `mf-proto` against one shared [`Router`] — the
//! one thing that serves a session, at any worker count.
//!
//! The server is std-only — `std::net::TcpListener` plus `std::thread` — so
//! it runs in the offline build environment; the parallelism that matters
//! comes from concurrent sessions and from the portfolio race on a shard's
//! solver pool, while the router dispatches each request (and each `batch`
//! item) on its session's own thread.
//!
//! Shutdown is cooperative: a `shutdown` request answers `ok shutdown`, ends
//! its own session, and stops the accept loop (already-open sessions run to
//! completion; new connections are refused by the closed listener).

use crate::proto::{ProtoError, ProtoReader, Request, Response, GREETING};
use crate::router::Router;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runs one session: greeting, then a request/response loop until EOF or
/// `shutdown`. Returns `true` when the session ended with a `shutdown`
/// request.
///
/// Malformed request lines answer `err bad-request …` and the session
/// continues; an input that ends mid-payload answers the error and closes
/// the session (the stream offset is no longer trustworthy).
pub fn run_session(
    router: &Router,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<bool> {
    let mut session = router.begin_session();
    let mut reader = ProtoReader::new(input);
    writeln!(output, "{GREETING}")?;
    output.flush()?;
    loop {
        let request = match reader.read_request() {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(false), // clean EOF
            Err(ProtoError::Io(detail)) => {
                return Err(std::io::Error::other(detail));
            }
            Err(error) => {
                let response =
                    Response::error(crate::proto::ErrorCode::BadRequest, error.to_string());
                write_response(&mut output, &response)?;
                // A truncated input, or a failed `load`/`evaluate`/`batch`
                // head whose payload count never parsed, leaves the stream
                // offset untrustworthy — the following lines could be
                // payload, and executing them as commands would cascade
                // garbage. Close.
                if matches!(error, ProtoError::UnexpectedEof { .. }) || reader.is_desynced() {
                    return Ok(false);
                }
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = router.dispatch(&mut session, request);
        write_response(&mut output, &response)?;
        if shutdown {
            return Ok(true);
        }
    }
}

fn write_response(output: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let text = crate::proto::response_to_text(response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    output.write_all(text.as_bytes())?;
    output.flush()
}

/// Serves a single session over arbitrary byte streams — the `--stdio` mode
/// used by pipe-driven tests and the CI golden transcript.
pub fn serve_stdio(
    router: &Router,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<()> {
    run_session(router, input, output).map(|_| ())
}

/// Consecutive accept failures after which [`Server::run`] gives up and
/// returns the listener error. Transient failures (fd exhaustion, aborted
/// handshakes) reset on the next successful accept; a permanently broken
/// listener must surface as an error instead of spinning the 50 ms backoff
/// loop silently forever.
pub const MAX_ACCEPT_FAILURES: u32 = 64;

/// Accept-loop failure policy: back off on a transient error, give up with
/// the error once [`MAX_ACCEPT_FAILURES`] failures arrive without a single
/// successful accept in between.
#[derive(Debug, Default)]
struct AcceptRetry {
    consecutive: u32,
}

impl AcceptRetry {
    /// A successful accept: the failure streak resets.
    fn succeeded(&mut self) {
        self.consecutive = 0;
    }

    /// A failed accept: the backoff to sleep, or — once the streak reaches
    /// [`MAX_ACCEPT_FAILURES`] — the error itself to return.
    fn failed(&mut self, error: std::io::Error) -> std::io::Result<std::time::Duration> {
        self.consecutive += 1;
        if self.consecutive >= MAX_ACCEPT_FAILURES {
            Err(error)
        } else {
            Ok(std::time::Duration::from_millis(50))
        }
    }
}

/// A TCP server: one accept loop, one thread per connection, one shared
/// [`Router`].
pub struct Server {
    router: Arc<Router>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds a listener (`port 0` picks an ephemeral port) over a fresh
    /// [`Router`] with `workers` shard engines of `threads` solver workers
    /// each.
    pub fn bind_router(
        addr: impl ToSocketAddrs,
        workers: usize,
        threads: usize,
    ) -> std::io::Result<Server> {
        Server::with_handler(addr, Arc::new(Router::new(workers, threads)))
    }

    /// Binds a listener over an existing router (lets callers pre-load the
    /// store or attach a data directory).
    pub fn with_handler(addr: impl ToSocketAddrs, router: Arc<Router>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            router,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (needed with `port 0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared router.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Runs the accept loop until a session requests `shutdown`, then joins
    /// the remaining session threads. [`MAX_ACCEPT_FAILURES`] consecutive
    /// accept failures return the last error instead (open sessions keep
    /// running detached; there is nothing left to accept for).
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut retry = AcceptRetry::default();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished sessions — on the error path too — so a
            // long-lived server doesn't grow a handle per connection it
            // ever served.
            handles.retain(|handle| !handle.is_finished());
            let stream = match stream {
                Ok(stream) => {
                    retry.succeeded();
                    stream
                }
                Err(error) => {
                    // Transient accept errors (e.g. fd exhaustion) would
                    // otherwise fail instantly forever — back off instead of
                    // spinning the loop hot; a broken listener gives up.
                    std::thread::sleep(retry.failed(error)?);
                    continue;
                }
            };
            let router = Arc::clone(&self.router);
            let shutdown = Arc::clone(&self.shutdown);
            handles.push(std::thread::spawn(move || {
                if let Ok(true) = handle_connection(&router, stream) {
                    shutdown.store(true, Ordering::SeqCst);
                    // Unblock the accept loop with a throwaway connection.
                    let _ = TcpStream::connect(addr);
                }
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

fn handle_connection(router: &Router, stream: TcpStream) -> std::io::Result<bool> {
    let reader = BufReader::new(stream.try_clone()?);
    let writer = BufWriter::new(stream);
    run_session(router, reader, writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdio_session_greets_and_answers() {
        let router = Router::new(1, 1);
        let mut output = Vec::new();
        serve_stdio(&router, "list\nstats\n".as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.starts_with("mf-proto v1\n"), "{text}");
        assert!(text.contains("ok list 0"), "{text}");
        assert!(text.contains("stat requests 2"), "{text}");
    }

    #[test]
    fn malformed_lines_answer_errors_without_killing_the_session() {
        let router = Router::new(1, 1);
        let mut output = Vec::new();
        serve_stdio(
            &router,
            "frobnicate\nlist\nshutdown\n".as_bytes(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("err bad-request"), "{text}");
        assert!(text.contains("ok list 0"), "{text}");
        assert!(text.contains("ok shutdown"), "{text}");
    }

    #[test]
    fn bad_load_head_closes_the_session_instead_of_executing_payload() {
        // `5x` is not a count, so the 2 would-be payload lines are still in
        // the stream; executing them as commands would desync the protocol.
        let router = Router::new(1, 1);
        let mut output = Vec::new();
        serve_stdio(
            &router,
            "load a 5x\ntasks 1\nlist\nshutdown\n".as_bytes(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("err bad-request"), "{text}");
        assert!(
            !text.contains("ok list") && !text.contains("ok shutdown"),
            "payload lines must not execute: {text}"
        );
    }

    #[test]
    fn truncated_payload_ends_the_session_with_an_error() {
        let router = Router::new(1, 1);
        let mut output = Vec::new();
        serve_stdio(&router, "load a 5\ntasks 1\n".as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("err bad-request"), "{text}");
    }

    #[test]
    fn routers_serve_stdio_sessions_too() {
        let router = Router::new(2, 1);
        let mut output = Vec::new();
        serve_stdio(
            &router,
            "hello mf-proto v2\nlist\nstats\nshutdown\n".as_bytes(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.starts_with("mf-proto v1\n"), "{text}");
        assert!(text.contains("ok hello mf-proto v2"), "{text}");
        assert!(text.contains("ok list 0"), "{text}");
        assert!(text.contains("stat evaluate-cache-hits 0"), "{text}");
        assert!(text.contains("ok shutdown"), "{text}");
    }

    #[test]
    fn accept_retry_backs_off_then_gives_up_after_consecutive_failures() {
        let failure = || std::io::Error::other("accept failed");
        // Below the threshold every failure is a 50 ms backoff.
        let mut retry = AcceptRetry::default();
        for _ in 0..MAX_ACCEPT_FAILURES - 1 {
            let backoff = retry
                .failed(failure())
                .expect("transient failures back off");
            assert_eq!(backoff, std::time::Duration::from_millis(50));
        }
        // The streak-completing failure is returned.
        assert!(retry.failed(failure()).is_err());

        // A single success resets the streak: the same count of failures
        // interleaved with accepts never gives up.
        let mut retry = AcceptRetry::default();
        for _ in 0..3 * MAX_ACCEPT_FAILURES {
            assert!(retry.failed(failure()).is_ok());
            retry.succeeded();
        }
    }

    #[test]
    fn v1_sessions_cannot_batch_and_torn_batches_close_the_session() {
        let router = Router::new(1, 1);
        let mut output = Vec::new();
        serve_stdio(&router, "batch 1\nlist\nshutdown\n".as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(
            text.contains("err bad-request `batch` requires mf-proto v2"),
            "{text}"
        );
        assert!(text.contains("ok shutdown"), "{text}");
        // A batch whose envelope tears mid-parse desyncs and closes.
        let mut output = Vec::new();
        serve_stdio(
            &router,
            "hello mf-proto v2\nbatch 2\nlist\n".as_bytes(),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("ok hello mf-proto v2"), "{text}");
        assert!(text.contains("err bad-request"), "{text}");
    }
}
