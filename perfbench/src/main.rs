//! `perfbench`: the repository benchmark. It spawns the release `bcc-served`
//! daemon, drives it in a closed loop through `bcc-client` from one
//! process, verifies every reply, and prints the end-to-end metrics — or,
//! with `--trace 1`, the per-layer metrics of a traced run.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE --work DIR
//! ```
//!
//! `run.py` in this directory builds the daemon and this program from
//! source and fills in `--daemon` and `--work`; see `README.md`.

mod daemon;
mod drive;
mod metrics;
mod replay;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use bcc_client::ServedClient;
use bcc_core::config::EngineConfig;

use crate::daemon::Daemon;
use crate::drive::{closed_loop, one_request, RssProbe, Window};
use crate::metrics::{provenance, Metrics};
use crate::replay::Replayer;
use crate::verify::Verifier;
use crate::workload::{Inputs, Workload};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Requests the timed window of an untraced run starts at least, so that
/// `latency_p90_ms` always rests on that many samples (`mcmf` serves about
/// 150 in 33 seconds; a slower daemon keeps the window open longer).
const MIN_REQUESTS: u64 = 120;

/// Extra handshakes on the running daemon that `served.connect_ns` is the
/// median of (traced runs).
const CONNECT_SAMPLES: usize = 5;

const USAGE: &str = "usage: perfbench --workload mcmf|laplacian-warm|laplacian-cold \
                     --seed N --seconds S --trace 0|1 --daemon EXE --work DIR";

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a duration"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("not a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1, got")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required\n{USAGE}");
    let workload_name = workload.ok_or_else(|| missing("--workload"))?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload `{workload_name}`\n{USAGE}"))?,
        workload_name,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        daemon: daemon.ok_or_else(|| missing("--daemon"))?,
        work: work.ok_or_else(|| missing("--work"))?,
    })
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(run);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A daemon that finished set-up, with its connections.
struct Live {
    daemon: Daemon,
    clients: Vec<ServedClient>,
}

impl Live {
    /// Closes the connections and shuts the daemon down. The process has
    /// ended when this returns, also on error: a failed graceful shutdown
    /// (for example a final report the daemon could not send) kills it.
    fn finish(self) -> Result<(), String> {
        drop(self.clients);
        self.daemon.shutdown()
    }
}

fn run(args: Args) -> Result<(), String> {
    let config = args.workload.engine_config();
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let config_path = args.work.join("engine-config.json");
    let config_json = serde_json::to_string_pretty(&config)
        .map_err(|e| format!("cannot encode the engine config: {e}"))?;
    std::fs::write(&config_path, &config_json)
        .map_err(|e| format!("cannot write {}: {e}", config_path.display()))?;

    let inputs = Inputs::new(args.workload, args.seed);
    let mut verifier = Verifier::new(
        config.epsilon.min(0.5),
        args.workload == Workload::LaplacianWarm,
    );
    let mut failures = Vec::new();

    // Set-up: spawn → every connection's handshake → warm-up, repeated;
    // the last daemon serves the timed window.
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        let start = Instant::now();
        let socket = args.work.join(format!("daemon-{rep}.sock"));
        let mut daemon = Daemon::spawn(&args.daemon, &socket, &config_path)?;
        let mut clients = Vec::new();
        for _ in 0..args.workload.connections() {
            clients.push(daemon.connect()?);
        }
        for (k, request) in inputs.warmup().iter().enumerate() {
            let sample = one_request(&mut clients[0], k as u64, request, false);
            match &sample.result {
                Ok(outcome) => failures.extend(verifier.check(request, outcome).err()),
                Err(e) => failures.push(format!("warm-up: {e}")),
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        let this = Live { daemon, clients };
        if rep + 1 < SETUP_REPEATS {
            this.finish()?;
        } else {
            live = Some(this);
        }
    }
    let mut live = live.expect("at least one set-up");
    let warmups = SETUP_REPEATS * inputs.warmup().len();

    let provenance = provenance(&args.workload_name, args.seed, args.seconds, &config);
    let next = AtomicU64::new(0);
    let mut metrics = if args.trace {
        traced(
            &args,
            &config,
            &inputs,
            &verifier,
            &mut failures,
            live,
            &next,
        )?
    } else {
        let rss = RssProbe {
            pid: live.daemon.pid(),
            at: args.workload.rss_probe_at(),
        };
        let window = closed_loop(
            &mut live.clients,
            &inputs,
            &next,
            args.seconds,
            MIN_REQUESTS,
            Some(rss),
            false,
        );
        failures.extend(live.finish().err());
        let rss_kib = window
            .peak_rss_kib
            .clone()
            .expect("the window stays open until the probe's reply count")?;
        failures.extend(verifier.check_window(&inputs, &window));
        let mut m = Metrics::default();
        m.end_to_end(&window, &setups, rss_kib);
        m
    };
    metrics.count_attempts(warmups);
    metrics.print(provenance, &failures)
}

/// The traced run: an untraced then a traced half-window on one daemon,
/// then the in-process replay of a sample of the traced half's requests.
fn traced(
    args: &Args,
    config: &EngineConfig,
    inputs: &Inputs,
    verifier: &Verifier,
    failures: &mut Vec<String>,
    mut live: Live,
    next: &AtomicU64,
) -> Result<Metrics, String> {
    let half = args.seconds / 2.0;
    let plain = closed_loop(&mut live.clients, inputs, next, half, 0, None, false);
    let before = live.clients[0]
        .telemetry_snapshot()
        .map_err(|e| format!("telemetry snapshot failed: {e}"))?;
    let spans = closed_loop(&mut live.clients, inputs, next, half, 0, None, true);
    let after = live.clients[0]
        .telemetry_snapshot()
        .map_err(|e| format!("telemetry snapshot failed: {e}"))?;
    let mut connects = Vec::new();
    for _ in 0..CONNECT_SAMPLES {
        let start = Instant::now();
        let client = live.daemon.connect()?;
        connects.push(drive::elapsed_ns(start));
        drop(client);
    }
    failures.extend(live.finish().err());
    failures.extend(verifier.check_window(inputs, &plain));
    failures.extend(verifier.check_window(inputs, &spans));

    let mut replayer = Replayer::new(config);
    let mut sample: Vec<_> = spans
        .replies()
        .filter_map(|(s, o)| s.ticket.map(|t| (t, s.number, o)))
        .collect();
    sample.sort_by_key(|&(ticket, _, _)| ticket);
    for &(ticket, number, outcome) in sample.iter().take(replay_sample(args.workload)) {
        replayer.replay(&inputs.request(number), ticket, outcome);
    }
    failures.extend(
        replayer
            .mismatches
            .iter()
            .map(|m| format!("replay identity: {m}")),
    );

    let mut m = Metrics::default();
    m.per_layer(
        &plain,
        &spans,
        &before,
        &after,
        &connects,
        &replayer,
        &all_replies(&[&plain, &spans]),
    );
    Ok(m)
}

/// How many requests of the traced window the replay re-runs.
fn replay_sample(workload: Workload) -> usize {
    match workload {
        Workload::Mcmf => 3,
        Workload::LaplacianWarm => 300,
        Workload::LaplacianCold => 24,
    }
}

fn all_replies<'w>(windows: &[&'w Window]) -> Vec<&'w bcc_client::WireOutcome> {
    windows
        .iter()
        .flat_map(|w| w.replies().map(|(_, o)| o))
        .collect()
}
