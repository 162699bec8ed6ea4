//! The in-process replay of the traced run: a sample of the requests the
//! daemon served, re-run by calling each crate's public functions in
//! pipeline order, with a span around each call.
//!
//! Every replayed result is also checked bit for bit against the daemon's
//! reply and against `Session` on the same input and seed (the replay
//! identity check), so the per-layer numbers describe the computation the
//! daemon ran.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use bcc_client::{WireGraph, WireOutcome, WireResponse};
use bcc_core::config::EngineConfig;
use bcc_core::flow::{build_flow_lp, FlowLpConfig, McmfOptions, SddGramSolver};
use bcc_core::graph::{fingerprint, laplacian, FlowInstance, Graph};
use bcc_core::laplacian::{LaplacianSolver, ScratchArena, SddMatrix};
use bcc_core::linalg::{CsrMatrix, DenseMatrix};
use bcc_core::lp::lewis::LewisOptions;
use bcc_core::lp::{try_lp_solve, GramSolver, LpError, LpOptions, WeightStrategy};
use bcc_core::runtime::{ModelConfig, Network};
use bcc_core::session::{PreparedLaplacian, Session};
use bcc_core::spanner::{baswana_sen_spanner, SpannerParams};
use bcc_core::sparsifier::{quality, try_sparsify_ad_hoc, SparsifierConfig};
use bcc_core::stream::{StreamEngine, StreamEngineBuilder};
use bcc_core::RoundReport;

use crate::drive::elapsed_ns;
use crate::verify::bit_equal;
use crate::workload::Generated;

/// Accuracy of every Gram solve of the flow pipeline
/// (`try_min_cost_max_flow_bcc` fixes it).
const GRAM_PRECISION: f64 = 1e-8;

/// Per-call spans and counts gathered by the replay, one entry per call.
#[derive(Debug, Default)]
pub struct Layers {
    pub fingerprint_ns: Vec<u64>,
    pub spanner_ns: Vec<u64>,
    pub sparsifier_ns: Vec<u64>,
    pub kappa_ns: Vec<u64>,
    pub factor_ns: Vec<u64>,
    pub preprocess_ns: Vec<u64>,
    pub solve_ns: Vec<u64>,
    pub solve_iterations: Vec<u64>,
    pub lp_build_ns: Vec<u64>,
    pub lp_solve_ns: Vec<u64>,
    pub gram_ns: Vec<u64>,
    pub gram_calls: Vec<u64>,
    pub gram_distinct: Vec<u64>,
    pub path_iterations: Vec<u64>,
    /// Round reports of the replayed preprocessing runs.
    pub preprocessing: Vec<RoundReport>,
}

/// A topology prepared twice: through the crates, and through `Session`.
struct Prepared {
    solver: LaplacianSolver,
    session: PreparedLaplacian,
}

/// Replays requests of one daemon run.
pub struct Replayer {
    model: ModelConfig,
    epsilon: f64,
    engine: StreamEngine,
    prepared: HashMap<u128, Prepared>,
    arena: ScratchArena,
    session_arena: ScratchArena,
    out: Vec<f64>,
    /// Spans and counts.
    pub layers: Layers,
    /// Identity-check failures, as text.
    pub mismatches: Vec<String>,
}

impl Replayer {
    /// A replayer for a daemon that ran under `config`.
    pub fn new(config: &EngineConfig) -> Self {
        let engine = StreamEngineBuilder::from_config(config.clone())
            .expect("the benchmark's engine config is valid")
            .build();
        Replayer {
            model: config.model,
            epsilon: config.epsilon,
            engine,
            prepared: HashMap::new(),
            arena: ScratchArena::new(),
            session_arena: ScratchArena::new(),
            out: Vec::new(),
            layers: Layers::default(),
            mismatches: Vec::new(),
        }
    }

    /// Replays `request`, which the daemon served as submission `ticket`
    /// with reply `reply`.
    pub fn replay(&mut self, request: &Generated, ticket: u64, reply: &WireOutcome) {
        let result = match request {
            Generated::Laplacian { graph, b } => self.laplacian(graph, b, reply),
            Generated::Sparsify { graph, epsilon } => self.sparsify(graph, *epsilon, ticket, reply),
            Generated::Mcmf { instance } => self.mcmf(instance, ticket, reply),
        };
        if let Err(e) = result {
            self.mismatches.push(format!("ticket {ticket}: {e}"));
        }
    }

    fn laplacian(&mut self, graph: &Graph, b: &[f64], reply: &WireOutcome) -> Result<(), String> {
        let start = Instant::now();
        let fp = fingerprint(graph);
        self.layers.fingerprint_ns.push(elapsed_ns(start));
        if !self.prepared.contains_key(&fp.as_u128()) {
            let prepared = self.preprocess(graph)?;
            self.prepared.insert(fp.as_u128(), prepared);
        }
        let prepared = &self.prepared[&fp.as_u128()];
        let epsilon = self.epsilon.min(0.5);

        let mut net = Network::clique(self.model, graph.n());
        let start = Instant::now();
        let stats = prepared
            .solver
            .try_solve_into(&mut net, b, epsilon, &mut self.arena, &mut self.out)
            .map_err(|e| format!("replayed solve failed: {e}"))?;
        self.layers.solve_ns.push(elapsed_ns(start));
        self.layers.solve_iterations.push(stats.iterations as u64);
        let report = RoundReport::from_ledger(net.ledger());

        let session = prepared
            .session
            .solve_shared(b, None, &mut self.session_arena)
            .map_err(|e| format!("session solve failed: {e}"))?;
        let WireResponse::Laplacian {
            solution,
            iterations,
            ..
        } = &reply.value
        else {
            return Err("reply is not a Laplacian solve".to_string());
        };
        same("solve report vs reply", &report, &reply.report)?;
        same("solve report vs Session", &report, &session.report)?;
        if !bit_equal(&self.out, solution) || !bit_equal(&self.out, &session.value.solution) {
            return Err("replayed solution differs".to_string());
        }
        if stats.iterations != *iterations {
            return Err("replayed iteration count differs".to_string());
        }
        Ok(())
    }

    /// Preprocesses one topology through the crates, side-timing the
    /// sparsifier, spanner, factorization and κ certificate on the same
    /// inputs outside the preprocessing span.
    fn preprocess(&mut self, graph: &Graph) -> Result<Prepared, String> {
        let n = graph.n();
        let session = Session::builder()
            .model(self.model)
            .seed(self.engine.seed())
            .epsilon(self.epsilon)
            .build();
        // The configuration `Session::laplacian` preprocesses with.
        let config = SparsifierConfig::laboratory(n, graph.m().max(2), 0.5, self.engine.seed())
            .with_t(6)
            .with_k(2);

        let mut net = Network::clique(self.model, n);
        let start = Instant::now();
        let solver = LaplacianSolver::try_preprocess(&mut net, graph, &config)
            .map_err(|e| format!("replayed preprocessing failed: {e}"))?;
        self.layers.preprocess_ns.push(elapsed_ns(start));
        let report = RoundReport::from_ledger(net.ledger());

        let start = Instant::now();
        let output = try_sparsify_ad_hoc(&mut Network::clique(self.model, n), graph, &config)
            .map_err(|e| format!("replayed sparsification failed: {e}"))?;
        self.layers.sparsifier_ns.push(elapsed_ns(start));
        if output.sparsifier != *solver.sparsifier() {
            return Err("side-timed sparsifier differs from the preprocessed one".to_string());
        }
        let params = SpannerParams {
            k: config.k,
            seed: config.seed,
        };
        let start = Instant::now();
        std::hint::black_box(baswana_sen_spanner(
            &mut Network::clique(self.model, n),
            graph,
            params,
        ));
        self.layers.spanner_ns.push(elapsed_ns(start));
        self.time_factor_and_kappa(graph, solver.sparsifier());

        let prepared = session
            .laplacian(graph)
            .preprocess()
            .map_err(|e| format!("session preprocessing failed: {e}"))?;
        same(
            "preprocessing report vs Session",
            &report,
            prepared.preprocessing_report(),
        )?;
        self.layers.preprocessing.push(report);
        Ok(Prepared {
            solver,
            session: prepared,
        })
    }

    /// Times the dense factorization of the `1.5·L_H` preconditioner and the
    /// κ certificate of the pair `(graph, sparsifier)`.
    fn time_factor_and_kappa(&mut self, graph: &Graph, sparsifier: &Graph) {
        let scaled = sparsifier.map_weights(|e| 1.5 * e.weight);
        let dense = DenseMatrix::from_rows(&laplacian::laplacian_dense(&scaled));
        let start = Instant::now();
        std::hint::black_box(dense.factor_psd());
        self.layers.factor_ns.push(elapsed_ns(start));
        let start = Instant::now();
        std::hint::black_box(quality::achieved_epsilon(graph, sparsifier));
        self.layers.kappa_ns.push(elapsed_ns(start));
    }

    fn sparsify(
        &mut self,
        graph: &Graph,
        epsilon: f64,
        ticket: u64,
        reply: &WireOutcome,
    ) -> Result<(), String> {
        let seed = self.engine.request_seed(ticket as usize);
        // The configuration and model `Session::sparsify` uses.
        let config = SparsifierConfig::laboratory(graph.n(), graph.m().max(2), epsilon, seed);
        let mut net = Network::on_graph(ModelConfig::broadcast_congest(), graph.adjacency_lists())
            .map_err(|e| format!("cannot build the network: {e}"))?;
        let output = try_sparsify_ad_hoc(&mut net, graph, &config)
            .map_err(|e| format!("replayed sparsification failed: {e}"))?;
        let report = RoundReport::from_ledger(net.ledger());
        let session = self
            .session(seed)
            .sparsify(graph, epsilon)
            .map_err(|e| format!("session sparsification failed: {e}"))?;
        let WireResponse::Sparsify { sparsifier, .. } = &reply.value else {
            return Err("reply is not a sparsification".to_string());
        };
        same("sparsify report vs reply", &report, &reply.report)?;
        same("sparsify report vs Session", &report, &session.report)?;
        let replayed = WireGraph::from_graph(&output.sparsifier);
        if replayed != *sparsifier || output.sparsifier != session.value.sparsifier {
            return Err("replayed sparsifier differs".to_string());
        }
        Ok(())
    }

    /// `try_min_cost_max_flow_bcc` step by step: the LP encoding, then the
    /// interior point method with a timing wrapper around the Gram solver.
    fn mcmf(
        &mut self,
        instance: &FlowInstance,
        ticket: u64,
        reply: &WireOutcome,
    ) -> Result<(), String> {
        let seed = self.engine.request_seed(ticket as usize);
        // `Session::min_cost_max_flow` runs the default options at its seed.
        let options = McmfOptions {
            seed,
            ..McmfOptions::default()
        };
        let mut net = Network::clique(self.model, instance.graph.n());
        net.begin_phase("mcmf");
        let start = Instant::now();
        let flow_lp = build_flow_lp(
            instance,
            &FlowLpConfig {
                seed: options.seed,
                paper_constants: options.paper_constants,
            },
        );
        self.layers.lp_build_ns.push(elapsed_ns(start));

        // The Lewis-weight options `try_min_cost_max_flow_bcc` sets.
        let mut lp_options = LpOptions::new(options.lp_epsilon, flow_lp.lp.m(), options.seed);
        lp_options.path.max_newton_steps = options.max_newton_steps;
        let mut lewis = LewisOptions::laboratory(flow_lp.lp.m(), options.seed);
        lewis.iterations = 6;
        lewis.max_sketch_dimension = Some(10);
        lewis.eta = 0.5;
        lp_options.strategy = WeightStrategy::RegularizedLewis { options: lewis };
        lp_options.path.weight_refresh_sweeps = 1;

        let gram = TimingGram::new(SddGramSolver::new(GRAM_PRECISION));
        let start = Instant::now();
        let solution = try_lp_solve(
            &mut net,
            &flow_lp.lp,
            &flow_lp.interior_point,
            &lp_options,
            &gram,
        )
        .map_err(|e| format!("replayed LP solve failed: {e}"))?;
        self.layers.lp_solve_ns.push(elapsed_ns(start));
        self.layers.gram_ns.push(gram.ns.get());
        self.layers.gram_calls.push(gram.calls.get());
        self.layers
            .gram_distinct
            .push(gram.distinct.borrow().len() as u64);
        self.layers
            .path_iterations
            .push(solution.path_iterations() as u64);
        if let Some((a, d, y)) = gram.first.take() {
            self.time_gram_system(&a, &d, &y)?;
        }

        let fractional = flow_lp.edge_flows(&solution.x).to_vec();
        let flow: Vec<i64> = instance
            .graph
            .arcs()
            .iter()
            .zip(&fractional)
            .map(|(arc, &f)| (f.round() as i64).clamp(0, arc.capacity))
            .collect();
        let report = RoundReport::from_ledger(net.ledger());

        let session = self
            .session(seed)
            .min_cost_max_flow(instance)
            .map_err(|e| format!("session min-cost flow failed: {e}"))?;
        let WireResponse::MinCostMaxFlow {
            flow: replied_flow,
            fractional: replied_fractional,
            path_iterations,
            gram_solves,
            ..
        } = &reply.value
        else {
            return Err("reply is not a min-cost flow".to_string());
        };
        same("mcmf report vs reply", &report, &reply.report)?;
        same("mcmf report vs Session", &report, &session.report)?;
        if flow != *replied_flow || flow != session.value.flow.flow {
            return Err("replayed integral flow differs".to_string());
        }
        if !bit_equal(&fractional, replied_fractional)
            || !bit_equal(&fractional, &session.value.fractional)
        {
            return Err("replayed fractional flow differs".to_string());
        }
        if (solution.path_iterations(), solution.gram_solves()) != (*path_iterations, *gram_solves)
        {
            return Err("replayed iteration counts differ".to_string());
        }
        Ok(())
    }

    /// Side-times the pieces of one Gram solve on its own inputs: the
    /// rebuild of the Gremban graph's exact preconditioner (dense factor
    /// and κ certificate included), then the Laplacian solve on it.
    fn time_gram_system(&mut self, a: &CsrMatrix, d: &[f64], y: &[f64]) -> Result<(), String> {
        let matrix = SddMatrix::from_triplets(a.cols(), gram_triplets(a, d))
            .map_err(|e| format!("Gram system is not SDD: {e}"))?;
        let gremban = matrix.gremban_graph();
        let start = Instant::now();
        let solver = LaplacianSolver::try_exact_preconditioner(&gremban)
            .map_err(|e| format!("Gremban graph rejected: {e}"))?;
        self.layers.preprocess_ns.push(elapsed_ns(start));
        self.time_factor_and_kappa(&gremban, &gremban);
        let mut rhs = y.to_vec();
        rhs.extend(y.iter().map(|v| -v));
        let mut net = Network::clique(self.model, gremban.n());
        let start = Instant::now();
        let stats = solver
            .try_solve_into(
                &mut net,
                &rhs,
                GRAM_PRECISION.min(0.5),
                &mut self.arena,
                &mut self.out,
            )
            .map_err(|e| format!("Gremban solve failed: {e}"))?;
        self.layers.solve_ns.push(elapsed_ns(start));
        self.layers.solve_iterations.push(stats.iterations as u64);
        Ok(())
    }

    fn session(&self, seed: u64) -> Session {
        Session::builder()
            .model(self.model)
            .seed(seed)
            .epsilon(self.epsilon)
            .build()
    }
}

fn same(what: &str, replayed: &RoundReport, expected: &RoundReport) -> Result<(), String> {
    if replayed == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} rounds replayed, {} expected",
            replayed.total_rounds, expected.total_rounds
        ))
    }
}

/// `AᵀDA` as the upper-triangle triplets `SddGramSolver` assembles.
fn gram_triplets(a: &CsrMatrix, d: &[f64]) -> Vec<(usize, usize, f64)> {
    let mut triplets = Vec::new();
    for (r, &dr) in d.iter().enumerate() {
        let entries: Vec<(usize, f64)> = a.row(r).collect();
        for &(ci, vi) in &entries {
            for &(cj, vj) in &entries {
                if ci <= cj {
                    triplets.push((ci, cj, dr * vi * vj));
                }
            }
        }
    }
    triplets
}

/// One Gram system `(A, d, y)`: solve `(Aᵀ·diag(d)·A) x = y`.
type GramSystem = (CsrMatrix, Vec<f64>, Vec<f64>);

/// A [`GramSolver`] that times and counts the calls into the one it wraps,
/// remembers which diagonals `D` it has seen (so distinct `AᵀDA` systems
/// can be told from repeats) and keeps the first system for side timing.
struct TimingGram {
    inner: SddGramSolver,
    calls: Cell<u64>,
    ns: Cell<u64>,
    distinct: RefCell<HashSet<u64>>,
    first: RefCell<Option<GramSystem>>,
}

impl TimingGram {
    fn new(inner: SddGramSolver) -> Self {
        TimingGram {
            inner,
            calls: Cell::new(0),
            ns: Cell::new(0),
            distinct: RefCell::new(HashSet::new()),
            first: RefCell::new(None),
        }
    }
}

impl GramSolver for TimingGram {
    fn solve(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        y: &[f64],
    ) -> Result<Vec<f64>, LpError> {
        let start = Instant::now();
        let x = self.inner.solve(net, a, d, y);
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.calls.set(self.calls.get() + 1);
        let mut hasher = DefaultHasher::new();
        for v in d {
            v.to_bits().hash(&mut hasher);
        }
        self.distinct.borrow_mut().insert(hasher.finish());
        let mut first = self.first.borrow_mut();
        if first.is_none() {
            *first = Some((a.clone(), d.to_vec(), y.to_vec()));
        }
        x
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
