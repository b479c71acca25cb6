//! The daemon's wire protocol: one JSON line per request, one per
//! response, one request per connection.
//!
//! The framing is `lrd-net`'s (connection-per-request over localhost
//! TCP or a Unix socket, each side writing one newline-terminated JSON
//! object built with the in-tree JSON layer), and so is the failure
//! model: a connection dying at any byte loses nothing, because the
//! daemon's authoritative state — the per-flow windows and the
//! solve-session cache — never leaves the process. Clients simply
//! retry.

use lrd_obs::{parse_json, write_json_f64, write_json_string, Json};

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for the tick counter and the per-flow roster.
    Status,
    /// Ask for the freshest provable loss-rate bracket of `flow` at
    /// buffer size `buffer`, refined incrementally under the daemon's
    /// staleness contract.
    LossBound {
        /// The flow name (as registered with `--flow`).
        flow: String,
        /// Buffer size in Mb.
        buffer: f64,
    },
    /// Ask for the smallest buffer whose provable upper loss bound is
    /// at or below `target_loss`.
    Provision {
        /// The flow name.
        flow: String,
        /// Target loss rate in `(0, 1)`.
        target_loss: f64,
    },
    /// Ask for a *one-shot batch solve* of the daemon's currently
    /// fitted model for `(flow, buffer)` — the validation hook: once
    /// the incremental session behind [`Request::LossBound`] has
    /// converged, the two answers must agree bit for bit (the
    /// `SolveSession` equivalence contract, live over the wire).
    Solve {
        /// The flow name.
        flow: String,
        /// Buffer size in Mb.
        buffer: f64,
    },
    /// Shut the daemon down gracefully (flushes telemetry).
    Shutdown,
}

impl Request {
    /// The wire discriminant (also the telemetry span tag).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Status => "status",
            Request::LossBound { .. } => "loss_bound",
            Request::Provision { .. } => "provision",
            Request::Solve { .. } => "solve",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as one protocol line.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"kind\":");
        match self {
            Request::Status => out.push_str("\"status\""),
            Request::LossBound { flow, buffer } => {
                out.push_str("\"loss_bound\",\"flow\":");
                write_json_string(&mut out, flow);
                out.push_str(",\"buffer\":");
                write_json_f64(&mut out, *buffer);
            }
            Request::Provision { flow, target_loss } => {
                out.push_str("\"provision\",\"flow\":");
                write_json_string(&mut out, flow);
                out.push_str(",\"target_loss\":");
                write_json_f64(&mut out, *target_loss);
            }
            Request::Solve { flow, buffer } => {
                out.push_str("\"solve\",\"flow\":");
                write_json_string(&mut out, flow);
                out.push_str(",\"buffer\":");
                write_json_f64(&mut out, *buffer);
            }
            Request::Shutdown => out.push_str("\"shutdown\""),
        }
        out.push('}');
        out
    }

    /// Parses one protocol line into a request.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = parse_json(line).map_err(|e| format!("bad request: {e}"))?;
        let str_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("request missing {name:?}"))
        };
        let num_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("request missing {name:?}"))
        };
        match doc.get("kind").and_then(Json::as_str) {
            Some("status") => Ok(Request::Status),
            Some("loss_bound") => Ok(Request::LossBound {
                flow: str_field("flow")?,
                buffer: num_field("buffer")?,
            }),
            Some("provision") => Ok(Request::Provision {
                flow: str_field("flow")?,
                target_loss: num_field("target_loss")?,
            }),
            Some("solve") => Ok(Request::Solve {
                flow: str_field("flow")?,
                buffer: num_field("buffer")?,
            }),
            Some("shutdown") => Ok(Request::Shutdown),
            other => Err(format!("unknown request kind {other:?}")),
        }
    }
}

/// One roster row in a status response: the daemon's live view of a
/// flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStatus {
    /// The flow name.
    pub name: String,
    /// The source family tag (`pareto`, `markov`, `onoff`).
    pub family: String,
    /// Samples currently held in the sliding window.
    pub samples: u64,
    /// Mean of the window samples (Mb/s).
    pub mean_rate: f64,
    /// The pooled streaming Hurst estimate, once the window has filled
    /// with non-constant data.
    pub hurst: Option<f64>,
    /// Pushes absorbed since the Hurst estimate was last refreshed.
    /// Grows past the refresh cadence when the window degenerates (for
    /// example every block constant) and the daemon keeps serving the
    /// stale cached estimate instead of panicking.
    pub hurst_staleness: u64,
    /// Whether the flow can answer model queries yet (window full and
    /// an estimate cached).
    pub warmed: bool,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tick counter and flow roster.
    Status {
        /// Arrival ticks absorbed so far.
        tick: u64,
        /// Per-flow roster.
        flows: Vec<FlowStatus>,
    },
    /// A provable loss-rate bracket (answers both `LossBound` and
    /// `Solve`).
    Bound {
        /// Provable lower bound on the loss rate.
        lower: f64,
        /// Provable upper bound on the loss rate.
        upper: f64,
        /// Whether the session behind the answer has converged.
        converged: bool,
        /// Ticks since the answering model was fitted from the window.
        staleness: u64,
        /// Grid resolution of the session.
        bins: u64,
        /// Iterations the session has spent so far.
        iterations: u64,
    },
    /// A provisioning verdict.
    Provision {
        /// The smallest buffer found with `upper <= target_loss` (Mb).
        buffer: f64,
        /// The provable upper loss bound at that buffer.
        upper: f64,
        /// One-shot solves spent on the search.
        solves: u64,
    },
    /// Shutdown acknowledged; the daemon is exiting.
    Bye,
    /// The request could not be answered.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Renders the response as one protocol line.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"kind\":");
        match self {
            Response::Status { tick, flows } => {
                out.push_str(&format!("\"status\",\"tick\":{tick},\"flows\":["));
                for (i, f) in flows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    write_json_string(&mut out, &f.name);
                    out.push_str(",\"family\":");
                    write_json_string(&mut out, &f.family);
                    out.push_str(&format!(",\"samples\":{},\"mean_rate\":", f.samples));
                    write_json_f64(&mut out, f.mean_rate);
                    out.push_str(",\"hurst\":");
                    match f.hurst {
                        Some(h) => write_json_f64(&mut out, h),
                        None => out.push_str("null"),
                    }
                    out.push_str(&format!(
                        ",\"hurst_staleness\":{},\"warmed\":{}}}",
                        f.hurst_staleness, f.warmed
                    ));
                }
                out.push(']');
            }
            Response::Bound {
                lower,
                upper,
                converged,
                staleness,
                bins,
                iterations,
            } => {
                out.push_str("\"bound\",\"lower\":");
                write_json_f64(&mut out, *lower);
                out.push_str(",\"upper\":");
                write_json_f64(&mut out, *upper);
                out.push_str(&format!(
                    ",\"converged\":{converged},\"staleness\":{staleness},\
                     \"bins\":{bins},\"iterations\":{iterations}"
                ));
            }
            Response::Provision {
                buffer,
                upper,
                solves,
            } => {
                out.push_str("\"provision\",\"buffer\":");
                write_json_f64(&mut out, *buffer);
                out.push_str(",\"upper\":");
                write_json_f64(&mut out, *upper);
                out.push_str(&format!(",\"solves\":{solves}"));
            }
            Response::Bye => out.push_str("\"bye\""),
            Response::Error { message } => {
                out.push_str("\"error\",\"message\":");
                write_json_string(&mut out, message);
            }
        }
        out.push('}');
        out
    }

    /// Parses one protocol line into a response.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = parse_json(line).map_err(|e| format!("bad response: {e}"))?;
        let num_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("response missing {name:?}"))
        };
        let int_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing {name:?}"))
        };
        match doc.get("kind").and_then(Json::as_str) {
            Some("status") => {
                let mut flows = Vec::new();
                for f in doc
                    .get("flows")
                    .and_then(Json::as_array)
                    .ok_or("status missing flow roster")?
                {
                    flows.push(FlowStatus {
                        name: f
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("roster row missing name")?
                            .to_string(),
                        family: f
                            .get("family")
                            .and_then(Json::as_str)
                            .ok_or("roster row missing family")?
                            .to_string(),
                        samples: f.get("samples").and_then(Json::as_u64).unwrap_or(0),
                        mean_rate: f.get("mean_rate").and_then(Json::as_num).unwrap_or(0.0),
                        hurst: f.get("hurst").and_then(Json::as_num),
                        hurst_staleness: f
                            .get("hurst_staleness")
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                        warmed: f.get("warmed").and_then(Json::as_bool).unwrap_or(false),
                    });
                }
                Ok(Response::Status {
                    tick: int_field("tick")?,
                    flows,
                })
            }
            Some("bound") => Ok(Response::Bound {
                lower: num_field("lower")?,
                upper: num_field("upper")?,
                converged: doc
                    .get("converged")
                    .and_then(Json::as_bool)
                    .ok_or("bound missing converged")?,
                staleness: int_field("staleness")?,
                bins: int_field("bins")?,
                iterations: int_field("iterations")?,
            }),
            Some("provision") => Ok(Response::Provision {
                buffer: num_field("buffer")?,
                upper: num_field("upper")?,
                solves: int_field("solves")?,
            }),
            Some("bye") => Ok(Response::Bye),
            Some("error") => Ok(Response::Error {
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error missing message")?
                    .to_string(),
            }),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Status,
            Request::LossBound {
                flow: "mtv".to_string(),
                buffer: 2.5,
            },
            Request::Provision {
                flow: "flow \"quoted\"".to_string(),
                target_loss: 1e-4,
            },
            Request::Solve {
                flow: "bc".to_string(),
                buffer: 0.125,
            },
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
        assert!(Request::parse("{\"kind\":\"gimme\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"kind\":\"loss_bound\",\"flow\":\"x\"}").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Status {
                tick: 4096,
                flows: vec![
                    FlowStatus {
                        name: "mtv".to_string(),
                        family: "pareto".to_string(),
                        samples: 1024,
                        mean_rate: 8.125,
                        hurst: Some(0.8125),
                        hurst_staleness: 3,
                        warmed: true,
                    },
                    FlowStatus {
                        name: "cold".to_string(),
                        family: "onoff".to_string(),
                        samples: 12,
                        mean_rate: 0.25,
                        hurst: None,
                        hurst_staleness: 0,
                        warmed: false,
                    },
                ],
            },
            Response::Status {
                tick: 0,
                flows: vec![],
            },
            Response::Bound {
                lower: 1.25e-3,
                upper: 2.5e-3,
                converged: true,
                staleness: 17,
                bins: 4096,
                iterations: 12345,
            },
            Response::Provision {
                buffer: 3.5,
                upper: 9.5e-5,
                solves: 21,
            },
            Response::Bye,
            Response::Error {
                message: "unknown flow \"nope\"".to_string(),
            },
        ];
        for resp in cases {
            let line = resp.to_line();
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
        assert!(Response::parse("{\"kind\":\"bound\"}").is_err());
        assert!(Response::parse("{\"kind\":\"status\"}").is_err());
    }

    #[test]
    fn float_fields_round_trip_exactly() {
        // write_json_f64 renders the shortest exact decimal, so a
        // bound crossing the wire and coming back compares bit-equal —
        // the property the ci smoke's session-vs-batch diff rests on.
        let exact = Response::Bound {
            lower: 0.1 + 0.2,
            upper: f64::MIN_POSITIVE,
            converged: false,
            staleness: 0,
            bins: 2,
            iterations: 1,
        };
        let Response::Bound { lower, upper, .. } = Response::parse(&exact.to_line()).unwrap()
        else {
            panic!("expected bound");
        };
        assert_eq!(lower.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(upper.to_bits(), f64::MIN_POSITIVE.to_bits());
    }
}
