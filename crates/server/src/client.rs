//! A small blocking `mf-proto` client with a typed request API.
//!
//! Used by the `microfactory client`/`stats` subcommands and by the
//! integration tests; deliberately synchronous — one request, one response —
//! because the protocol itself is strictly request/response.
//!
//! The typed methods ([`Client::load`], [`Client::evaluate`],
//! [`Client::solve`], …) build the [`Request`], send it, and destructure
//! the matching [`Response`] — a server-side `err <code> <detail>` becomes
//! [`ClientError::Server`], an answer of the wrong shape
//! [`ClientError::Unexpected`]. For raw scripting there are two escape
//! hatches: [`Client::request`] sends any pre-built [`Request`], and
//! [`Client::send_line`] ships one hand-written protocol line verbatim.

use crate::proto::{
    request_to_text, ErrorCode, GapReport, InstanceInfo, Probe, ProtoError, ProtoReader,
    ProtoVersion, Request, Response, SolveMethod, GREETING,
};
use mf_core::textio;
use mf_core::Mapping;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Errors a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or stream failure.
    Io(std::io::Error),
    /// The peer is not an `mf-proto` server.
    BadGreeting(String),
    /// The peer's bytes did not parse as a protocol response.
    Proto(ProtoError),
    /// The peer closed the stream before answering.
    ServerClosed,
    /// The server answered `err <code> <detail>`.
    Server {
        /// Error class.
        code: ErrorCode,
        /// The server's one-line detail.
        detail: String,
    },
    /// The server answered successfully, but not with the response shape
    /// the typed call expected.
    Unexpected {
        /// The response the call was waiting for.
        expected: &'static str,
        /// Debug rendering of what arrived instead.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::BadGreeting(greeting) => {
                write!(f, "not an mf-proto server (greeting `{greeting}`)")
            }
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Server { code, detail } => {
                write!(f, "server error ({}): {detail}", code.token())
            }
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected an `{expected}` answer, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A finished `evaluate` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// System period (ms), bit-identical to the one-shot evaluation.
    pub period: f64,
    /// Critical machine index.
    pub critical: usize,
    /// Per-machine loads (ms), indexed by machine.
    pub loads: Vec<f64>,
}

/// A finished `solve` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Winning method label (registry name, or portfolio cell label).
    pub label: String,
    /// Achieved system period (ms).
    pub period: f64,
    /// The computed mapping.
    pub mapping: Mapping,
}

/// A finished `solve … anytime` answer: the streamed incumbent/bound
/// reports (monotone, first one feasible) plus the final mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeSolution {
    /// Every `gap` line the server streamed, in emission order.
    pub reports: Vec<GapReport>,
    /// Final period (ms) of the returned mapping.
    pub period: f64,
    /// The best mapping found within the budget.
    pub mapping: Mapping,
}

/// A connected session.
#[derive(Debug)]
pub struct Client {
    reader: ProtoReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

impl Client {
    /// Connects and verifies the server greeting. The session speaks v1
    /// until [`Client::hello`] upgrades it.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let mut client = Client {
            reader: ProtoReader::new(BufReader::new(stream.try_clone()?)),
            writer: stream,
        };
        let greeting = client
            .reader
            .read_greeting()?
            .ok_or(ClientError::ServerClosed)?;
        if greeting != GREETING {
            return Err(ClientError::BadGreeting(greeting));
        }
        Ok(client)
    }

    /// Sends one pre-built request and blocks for its response. Error
    /// responses are returned as values, not as [`ClientError::Server`] —
    /// this is the structured escape hatch the typed methods build on.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let text = request_to_text(request)?;
        self.send_text(&text)
    }

    /// Ships hand-written protocol text verbatim (a newline is appended if
    /// missing) and blocks for one response — the raw escape hatch for
    /// scripts and protocol exploration. The text must be one complete
    /// request (head line plus any payload lines).
    pub fn send_line(&mut self, line: &str) -> Result<Response, ClientError> {
        if line.ends_with('\n') {
            self.send_text(line)
        } else {
            self.send_text(&format!("{line}\n"))
        }
    }

    fn send_text(&mut self, text: &str) -> Result<Response, ClientError> {
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        self.reader
            .read_response()?
            .ok_or(ClientError::ServerClosed)
    }

    /// Sends a typed request and converts an `err` answer into
    /// [`ClientError::Server`].
    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            response => Ok(response),
        }
    }

    /// Negotiates the protocol version (`hello mf-proto v{requested}`) and
    /// returns what the server granted.
    pub fn hello(&mut self, requested: u32) -> Result<ProtoVersion, ClientError> {
        match self.expect(&Request::Hello { requested })? {
            Response::Hello { version } => Ok(version),
            other => Err(unexpected("hello", other)),
        }
    }

    /// Loads (or replaces) a named instance from `mf_core::textio` instance
    /// text; returns its (tasks, machines, types) shape.
    pub fn load(
        &mut self,
        name: &str,
        instance_text: &str,
    ) -> Result<(usize, usize, usize), ClientError> {
        let request = Request::Load {
            name: name.to_string(),
            payload: crate::proto::text_payload(instance_text),
        };
        match self.expect(&request)? {
            Response::Loaded {
                tasks,
                machines,
                types,
                ..
            } => Ok((tasks, machines, types)),
            other => Err(unexpected("load", other)),
        }
    }

    /// Drops a named instance from the store.
    pub fn unload(&mut self, name: &str) -> Result<(), ClientError> {
        match self.expect(&Request::Unload {
            name: name.to_string(),
        })? {
            Response::Unloaded { .. } => Ok(()),
            other => Err(unexpected("unload", other)),
        }
    }

    /// The resident instances, sorted by name.
    pub fn list(&mut self) -> Result<Vec<InstanceInfo>, ClientError> {
        match self.expect(&Request::List)? {
            Response::List(entries) => Ok(entries),
            other => Err(unexpected("list", other)),
        }
    }

    /// Evaluates a mapping against a resident instance.
    pub fn evaluate(&mut self, name: &str, mapping: &Mapping) -> Result<Evaluation, ClientError> {
        let request = Request::Evaluate {
            name: name.to_string(),
            payload: crate::proto::text_payload(&textio::mapping_to_text(mapping)),
        };
        match self.expect(&request)? {
            Response::Evaluated {
                period,
                critical,
                loads,
            } => Ok(Evaluation {
                period,
                critical,
                loads,
            }),
            other => Err(unexpected("evaluate", other)),
        }
    }

    /// Probes a move/swap against the session's resident evaluator state;
    /// returns the candidate (period, critical machine).
    pub fn what_if(&mut self, name: &str, probe: Probe) -> Result<(f64, usize), ClientError> {
        match self.expect(&Request::WhatIf {
            name: name.to_string(),
            probe,
        })? {
            Response::WhatIf { period, critical } => Ok((period, critical)),
            other => Err(unexpected("whatif", other)),
        }
    }

    /// Solves a resident instance.
    pub fn solve(
        &mut self,
        name: &str,
        method: SolveMethod,
        seed: Option<u64>,
    ) -> Result<Solution, ClientError> {
        match self.expect(&Request::Solve {
            name: name.to_string(),
            method,
            seed,
        })? {
            Response::Solved {
                label,
                period,
                machines,
                assignment,
            } => {
                let mapping = Mapping::from_indices(&assignment, machines).map_err(|e| {
                    ClientError::Proto(ProtoError::Malformed {
                        detail: format!("solve answer is not a mapping: {e}"),
                    })
                })?;
                Ok(Solution {
                    label,
                    period,
                    mapping,
                })
            }
            other => Err(unexpected("solve", other)),
        }
    }

    /// Runs the anytime incumbent/bound race on a resident instance (v3
    /// sessions only): the answer carries every streamed `gap` report plus
    /// the final mapping. `None` budget/seed use the server defaults.
    pub fn solve_anytime(
        &mut self,
        name: &str,
        budget: Option<u64>,
        seed: Option<u64>,
    ) -> Result<AnytimeSolution, ClientError> {
        match self.expect(&Request::Solve {
            name: name.to_string(),
            method: SolveMethod::Anytime { budget },
            seed,
        })? {
            Response::SolvedAnytime {
                reports,
                period,
                machines,
                assignment,
            } => {
                let mapping = Mapping::from_indices(&assignment, machines).map_err(|e| {
                    ClientError::Proto(ProtoError::Malformed {
                        detail: format!("solve-anytime answer is not a mapping: {e}"),
                    })
                })?;
                Ok(AnytimeSolution {
                    reports,
                    period,
                    mapping,
                })
            }
            other => Err(unexpected("solve-anytime", other)),
        }
    }

    /// The statistics counters, in the server's fixed presentation order
    /// (16 keys on v1 sessions, plus the cache counters after a v2
    /// `hello`).
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.expect(&Request::Stats)? {
            Response::Stats(entries) => Ok(entries),
            other => Err(unexpected("stats", other)),
        }
    }

    /// The full machine-readable statistics report as one JSON document
    /// (v2 sessions only).
    pub fn status_export(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::StatusExport)? {
            Response::StatusExport(lines) => {
                let mut document = lines.join("\n");
                document.push('\n');
                Ok(document)
            }
            other => Err(unexpected("status-export", other)),
        }
    }

    /// Ships a batch envelope (v2 sessions only); the answers come back in
    /// request order, errors in place as [`Response::Error`] values.
    pub fn batch(&mut self, items: Vec<Request>) -> Result<Vec<Response>, ClientError> {
        match self.expect(&Request::Batch(items))? {
            Response::Batch(answers) => Ok(answers),
            other => Err(unexpected("batch", other)),
        }
    }

    /// Ends the session and asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => Err(unexpected("shutdown", other)),
        }
    }
}

fn unexpected(expected: &'static str, got: Response) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: format!("{got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use mf_core::textio;
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    #[test]
    fn connect_refuses_non_protocol_peers() {
        // A listener that greets wrongly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"hello there\n").unwrap();
        });
        let err = Client::connect(addr).unwrap_err();
        assert!(matches!(err, ClientError::BadGreeting(_)), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn typed_round_trip_against_a_live_server() {
        let server = Server::bind_router("127.0.0.1:0", 1, 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();

        assert_eq!(client.hello(2).unwrap(), ProtoVersion::V2);
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(6, 3, 2))
            .generate(1)
            .unwrap();
        let text = textio::instance_to_text(&instance);
        assert_eq!(client.load("a", &text).unwrap(), (6, 3, 2));
        let names: Vec<String> = client
            .list()
            .unwrap()
            .into_iter()
            .map(|info| info.name)
            .collect();
        assert_eq!(names, ["a"]);

        let solution = client
            .solve("a", SolveMethod::Heuristic("h4w".into()), None)
            .unwrap();
        assert_eq!(solution.label, "H4w");
        let evaluation = client.evaluate("a", &solution.mapping).unwrap();
        assert_eq!(
            evaluation.period.to_bits(),
            solution.period.to_bits(),
            "evaluate must agree with solve bit-for-bit"
        );
        let (probed, _) = client.what_if("a", Probe::Swap { a: 0, b: 1 }).unwrap();
        assert!(probed.is_finite());

        // Typed errors surface as ClientError::Server with the wire code.
        let err = client.unload("missing").unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Server {
                    code: ErrorCode::UnknownInstance,
                    ..
                }
            ),
            "{err}"
        );

        // The raw escape hatch speaks the same session.
        let response = client.send_line("list").unwrap();
        assert!(matches!(response, Response::List(_)), "{response:?}");

        // A v3 upgrade unlocks the anytime race; the streamed reports are
        // monotone and the final mapping re-evaluates to the answer period.
        assert_eq!(client.hello(3).unwrap(), ProtoVersion::V3);
        let anytime = client.solve_anytime("a", Some(50_000), None).unwrap();
        assert!(!anytime.reports.is_empty());
        assert_eq!(anytime.reports[0].phase, "seed");
        for pair in anytime.reports.windows(2) {
            assert!(pair[1].period <= pair[0].period);
            assert!(pair[1].bound >= pair[0].bound);
        }
        let evaluation = client.evaluate("a", &anytime.mapping).unwrap();
        assert_eq!(evaluation.period.to_bits(), anytime.period.to_bits());

        let stats = client.stats().unwrap();
        assert!(
            stats.iter().any(|(key, _)| key == "evaluate-cache-misses"),
            "v2 session must see cache counters: {stats:?}"
        );
        let json = client.status_export().unwrap();
        assert!(json.contains("\"format\": \"mf-stats v1\""), "{json}");

        client.unload("a").unwrap();
        client.shutdown().unwrap();
        drop(client);
        handle.join().unwrap();
    }
}
