//! The three workloads: the daemon configuration each runs under and the
//! deterministic request stream each sends.
//!
//! Request `i` of a run is a pure function of `(workload, seed, i)`, so two
//! runs with the same seed send the same requests in the same order, and
//! the in-process replay can regenerate any request from its number.

use std::sync::Arc;

use bcc_client::{WireFlowInstance, WireGraph, WireRequest};
use bcc_core::config::EngineConfig;
use bcc_core::graph::{generators, FlowInstance, Graph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Entry bound of the prepared-solver cache under `laplacian-cold`.
const COLD_CACHE_CAPACITY: usize = 8;

/// Accuracy of the standalone `Sparsify` requests of `laplacian-cold`.
const SPARSIFY_EPSILON: f64 = 0.5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.1 min-cost max-flow on small random instances.
    Mcmf,
    /// Laplacian solves on three fixed grids: every request after warm-up
    /// is a cache hit.
    LaplacianWarm,
    /// Laplacian solves and sparsifications on fresh random graphs: every
    /// request is a cache miss.
    LaplacianCold,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "mcmf" => Some(Workload::Mcmf),
            "laplacian-warm" => Some(Workload::LaplacianWarm),
            "laplacian-cold" => Some(Workload::LaplacianCold),
            _ => None,
        }
    }

    /// Closed-loop connections, each on its own thread; the daemon's
    /// worker pool is pinned to the same count. `mcmf` runs one: with two
    /// concurrent compute-bound requests, a busy neighbour on either of the
    /// host's two cores slows one of them, while a single request can run
    /// on the less loaded core, and its latency spread less from run to run
    /// (see `README.md`). The Laplacian workloads run two: their requests
    /// are short, and with one connection the cores idle between hand-offs
    /// and each request pays the host's wake-up latency.
    pub fn connections(self) -> usize {
        match self {
            Workload::Mcmf => 1,
            Workload::LaplacianWarm | Workload::LaplacianCold => 2,
        }
    }

    /// The daemon's `--config` document for this workload.
    pub fn engine_config(self) -> EngineConfig {
        EngineConfig {
            workers: Some(self.connections()),
            cache_capacity: match self {
                Workload::LaplacianCold => Some(COLD_CACHE_CAPACITY),
                _ => None,
            },
            ..EngineConfig::default()
        }
    }

    /// The reply count of the untraced window at which `peak_rss_mb` is
    /// read. It is fixed, so the reading does not move with throughput;
    /// each is reached 16–21 s into the window at the time of writing, and
    /// sits between two of the steps in which the daemon's per-submission
    /// records grow (see `README.md`).
    pub fn rss_probe_at(self) -> u64 {
        match self {
            Workload::Mcmf => 60,
            Workload::LaplacianWarm => 45_000,
            Workload::LaplacianCold => 12_000,
        }
    }
}

/// A generated request, in the in-process types the verifier and the
/// replay work with.
#[derive(Debug)]
pub enum Generated {
    /// A Laplacian solve `L x = b` at the engine's default accuracy.
    Laplacian { graph: Arc<Graph>, b: Vec<f64> },
    /// A standalone spectral sparsification.
    Sparsify { graph: Graph, epsilon: f64 },
    /// A min-cost max-flow instance under the engine's default options.
    Mcmf { instance: FlowInstance },
}

impl Generated {
    /// The request as it crosses the wire.
    pub fn to_wire(&self) -> WireRequest {
        match self {
            Generated::Laplacian { graph, b } => WireRequest::Laplacian {
                graph: WireGraph::from_graph(graph),
                b: b.clone(),
                epsilon: None,
            },
            Generated::Sparsify { graph, epsilon } => WireRequest::Sparsify {
                graph: WireGraph::from_graph(graph),
                epsilon: *epsilon,
            },
            Generated::Mcmf { instance } => WireRequest::MinCostMaxFlow {
                instance: WireFlowInstance::from_instance(instance),
                options: None,
            },
        }
    }
}

/// The request stream of one run.
#[derive(Debug)]
pub struct Inputs {
    workload: Workload,
    seed: u64,
    /// The fixed grid topologies of `laplacian-warm`.
    topologies: Vec<Arc<Graph>>,
}

impl Inputs {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let topologies = match workload {
            Workload::LaplacianWarm => [8, 10, 12]
                .iter()
                .map(|&side| Arc::new(generators::grid(side, side)))
                .collect(),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            seed,
            topologies,
        }
    }

    /// The warm-up requests: one per `laplacian-warm` topology, so every
    /// timed request afterwards is a cache hit. Other workloads have none.
    pub fn warmup(&self) -> Vec<Generated> {
        self.topologies
            .iter()
            .enumerate()
            .map(|(t, graph)| Generated::Laplacian {
                graph: Arc::clone(graph),
                b: rhs(graph.n(), &mut self.rng(u64::MAX - t as u64)),
            })
            .collect()
    }

    /// Request number `i` of the timed stream.
    pub fn request(&self, i: u64) -> Generated {
        let mut rng = self.rng(i);
        match self.workload {
            // Four nodes (~0.25 s a request), so that one connection starts
            // the `MIN_REQUESTS` that p90 needs within about 33 seconds.
            Workload::Mcmf => Generated::Mcmf {
                instance: generators::random_flow_instance(4, 0.3, 3, &mut rng),
            },
            Workload::LaplacianWarm => {
                let graph = &self.topologies[rng.gen_range(0..self.topologies.len())];
                Generated::Laplacian {
                    graph: Arc::clone(graph),
                    b: rhs(graph.n(), &mut rng),
                }
            }
            Workload::LaplacianCold => {
                let graph = generators::random_connected(40, 0.1, 5, &mut rng);
                if i % 4 == 3 {
                    Generated::Sparsify {
                        graph,
                        epsilon: SPARSIFY_EPSILON,
                    }
                } else {
                    let b = rhs(graph.n(), &mut rng);
                    Generated::Laplacian {
                        graph: Arc::new(graph),
                        b,
                    }
                }
            }
        }
    }

    fn rng(&self, i: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(splitmix(self.seed ^ splitmix(i)))
    }
}

/// A mean-zero right-hand side (a Laplacian system is solvable exactly for
/// those) with entries in `[-1, 1)` before centring.
fn rhs(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    for x in &mut b {
        *x -= mean;
    }
    b
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
