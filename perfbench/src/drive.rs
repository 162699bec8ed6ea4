//! The closed loop: each connection, on its own thread, submits its next
//! request only after the previous one's reply arrived.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bcc_client::wire::{decode_msg, encode_msg};
use bcc_client::{ClientMsg, ServedClient, ServerMsg, WireOutcome};

use crate::workload::{Generated, Inputs};

/// One request of a timed window.
#[derive(Debug)]
pub struct Sample {
    /// Position in the workload's request stream.
    pub number: u64,
    /// The daemon's ticket — the engine submission index the request's
    /// seed derives from. `None` when admission refused the request.
    pub ticket: Option<u64>,
    /// Client submit → reply, nanoseconds.
    pub latency_ns: u64,
    /// The reply, or the refusal / fault as text.
    pub result: Result<WireOutcome, String>,
    /// Side measurements of a traced window.
    pub spans: Option<Spans>,
}

/// The benchmark's own spans around one request (traced windows only).
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// The `Submit` round trip.
    pub submit_ns: u64,
    /// Encoded `Submit` message, bytes.
    pub request_bytes: u64,
    /// Encoded `Done` message, bytes.
    pub reply_bytes: u64,
    /// `encode_msg` of the `Submit` plus the `Done` message.
    pub encode_ns: u64,
    /// `decode_msg` of the same two messages.
    pub decode_ns: u64,
}

/// Everything one timed window produced.
#[derive(Debug)]
pub struct Window {
    /// Every attempted request, in stream order.
    pub samples: Vec<Sample>,
    /// First submit to last reply.
    pub wall: Duration,
    /// The daemon's `VmHWM` in KiB, read when the window's `at`-th reply
    /// arrived (see [`RssProbe`]).
    pub peak_rss_kib: Option<Result<u64, String>>,
}

impl Window {
    /// Successful replies.
    pub fn replies(&self) -> impl Iterator<Item = (&Sample, &WireOutcome)> {
        self.samples
            .iter()
            .filter_map(|s| s.result.as_ref().ok().map(|o| (s, o)))
    }

    /// Refused, faulted and failed-wait requests, as text.
    pub fn errors(&self) -> impl Iterator<Item = String> + '_ {
        self.samples.iter().filter_map(|s| {
            s.result
                .as_ref()
                .err()
                .map(|e| format!("request {}: {e}", s.number))
        })
    }
}

/// Reads the daemon's peak resident set after a fixed number of replies,
/// so that the reading depends on the work served and not on how much
/// of it fits in the window.
#[derive(Debug, Clone, Copy)]
pub struct RssProbe {
    /// The daemon's process id.
    pub pid: u32,
    /// The reply count (of this window) at which to read.
    pub at: u64,
}

/// Runs the closed loop over `clients` for `seconds`, taking request numbers
/// from `next` in order. The window stays open past `seconds` until it has
/// started at least `min_requests` requests, and until `rss`'s reply count
/// is reached. No request starts after the window closes; the ones in
/// flight then finish and count.
pub fn closed_loop(
    clients: &mut [ServedClient],
    inputs: &Inputs,
    next: &AtomicU64,
    seconds: f64,
    min_requests: u64,
    rss: Option<RssProbe>,
    traced: bool,
) -> Window {
    let samples = Mutex::new(Vec::new());
    let peak_rss_kib = Mutex::new(None);
    let min_requests = min_requests.max(rss.map_or(0, |p| p.at));
    let (started, replied) = (AtomicU64::new(0), AtomicU64::new(0));
    let start = Instant::now();
    let close = start + Duration::from_secs_f64(seconds);
    let ends: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (samples, peak_rss_kib) = (&samples, &peak_rss_kib);
                let (started, replied) = (&started, &replied);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let k = started.fetch_add(1, Ordering::SeqCst);
                        if Instant::now() >= close && k >= min_requests {
                            break;
                        }
                        let number = next.fetch_add(1, Ordering::SeqCst);
                        mine.push(one_request(client, number, &inputs.request(number), traced));
                        let count = replied.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some(probe) = rss.filter(|p| p.at == count) {
                            *peak_rss_kib.lock().expect("no loop thread panics") =
                                Some(crate::daemon::peak_rss_kib(probe.pid));
                        }
                    }
                    samples.lock().expect("no loop thread panics").extend(mine);
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loop thread panicked"))
            .collect()
    });
    let end = ends.into_iter().max().unwrap_or(start);
    let mut samples = samples.into_inner().expect("no loop thread panics");
    samples.sort_by_key(|s| s.number);
    Window {
        samples,
        wall: end - start,
        peak_rss_kib: peak_rss_kib.into_inner().expect("no loop thread panics"),
    }
}

/// Submits one request and waits for its reply.
pub fn one_request(
    client: &mut ServedClient,
    number: u64,
    request: &Generated,
    traced: bool,
) -> Sample {
    let wire = request.to_wire();
    let side = traced.then(|| wire.clone());
    let start = Instant::now();
    let ticket = match client.submit(wire) {
        Ok(ticket) => ticket,
        Err(e) => {
            return Sample {
                number,
                ticket: None,
                latency_ns: elapsed_ns(start),
                result: Err(format!("refused: {e}")),
                spans: None,
            }
        }
    };
    let submitted = Instant::now();
    let result = client
        .wait(ticket)
        .map_err(|e| format!("ticket {ticket} failed: {e}"));
    let latency_ns = elapsed_ns(start);
    let submit_ns = (submitted - start).as_nanos() as u64;
    let spans =
        side.map(|request| side_time_wire(request, ticket, result.as_ref().ok(), submit_ns));
    Sample {
        number,
        ticket: Some(ticket),
        latency_ns,
        result,
        spans,
    }
}

/// Times `encode_msg` / `decode_msg` on the same `Submit` and `Done`
/// messages the request exchanged.
fn side_time_wire(
    request: bcc_client::WireRequest,
    ticket: u64,
    outcome: Option<&WireOutcome>,
    submit_ns: u64,
) -> Spans {
    let mut spans = Spans {
        submit_ns,
        request_bytes: 0,
        reply_bytes: 0,
        encode_ns: 0,
        decode_ns: 0,
    };
    let submit = ClientMsg::Submit {
        request,
        deadline_ms: None,
    };
    let (bytes, encode_ns, decode_ns) = round_trip::<ClientMsg>(&submit);
    spans.request_bytes = bytes;
    spans.encode_ns += encode_ns;
    spans.decode_ns += decode_ns;
    if let Some(outcome) = outcome {
        let done = ServerMsg::Done {
            ticket,
            outcome: outcome.clone(),
        };
        let (bytes, encode_ns, decode_ns) = round_trip::<ServerMsg>(&done);
        spans.reply_bytes = bytes;
        spans.encode_ns += encode_ns;
        spans.decode_ns += decode_ns;
    }
    spans
}

fn round_trip<T: serde::Serialize + serde::Deserialize>(msg: &T) -> (u64, u64, u64) {
    let start = Instant::now();
    let payload = encode_msg(msg).expect("benchmark messages encode");
    let encode_ns = elapsed_ns(start);
    let start = Instant::now();
    let decoded: T = decode_msg(&payload).expect("benchmark messages decode");
    let decode_ns = elapsed_ns(start);
    std::hint::black_box(decoded);
    (payload.len() as u64, encode_ns, decode_ns)
}

pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
