//! Checks every reply of a window against a centralized baseline, after the
//! window closed.
//!
//! * Laplacian: relative `L`-norm error against `exact_solve` at most the
//!   engine's solve accuracy.
//! * Sparsify: `quality::achieved_epsilon` at most the requested `ε`.
//! * Min-cost max-flow: value and cost equal `ssp_min_cost_max_flow`.

use std::collections::HashMap;

use bcc_client::{WireOutcome, WireResponse};
use bcc_core::flow::ssp_min_cost_max_flow;
use bcc_core::graph::{fingerprint, laplacian, Graph};
use bcc_core::laplacian::exact_solve;
use bcc_core::linalg::{vector, DenseMatrix, FactoredPsd};
use bcc_core::sparsifier::quality;

use crate::drive::Window;
use crate::workload::{Generated, Inputs};

/// Threads that check a window's replies; the daemon has stopped by then,
/// so they have the host's two cores to themselves.
const THREADS: usize = 2;

/// Verifies replies; remembers one factorization per topology so repeated
/// topologies cost a triangular solve each instead of an elimination.
pub struct Verifier {
    /// The engine's Laplacian solve accuracy (requests carry no own `ε`).
    epsilon: f64,
    factors: HashMap<u128, FactoredPsd>,
    reuse_factors: bool,
}

impl Verifier {
    /// A verifier for replies solved at accuracy `epsilon`. With
    /// `reuse_factors` the exact solutions of one topology share a factored
    /// Laplacian — bit-identical to `exact_solve`, which the first use of
    /// each factorization checks.
    pub fn new(epsilon: f64, reuse_factors: bool) -> Self {
        Verifier {
            epsilon,
            factors: HashMap::new(),
            reuse_factors,
        }
    }

    /// Checks every reply of `window` on [`THREADS`] threads; returns the
    /// failures as text, the window's refused, faulted and failed-wait
    /// requests first.
    pub fn check_window(&self, inputs: &Inputs, window: &Window) -> Vec<String> {
        let mut failures: Vec<String> = window.errors().collect();
        let replies: Vec<_> = window.replies().collect();
        let chunk = replies.len().div_ceil(THREADS).max(1);
        let wrong = std::thread::scope(|scope| {
            let handles: Vec<_> = replies
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let mut verifier = Verifier::new(self.epsilon, self.reuse_factors);
                        part.iter()
                            .filter_map(|(sample, outcome)| {
                                verifier
                                    .check(&inputs.request(sample.number), outcome)
                                    .err()
                                    .map(|e| format!("request {}: {e}", sample.number))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verifier thread panicked"))
                .collect::<Vec<_>>()
        });
        failures.extend(wrong);
        failures
    }

    /// Checks one reply against its request.
    pub fn check(&mut self, request: &Generated, outcome: &WireOutcome) -> Result<(), String> {
        match (request, &outcome.value) {
            (Generated::Laplacian { graph, b }, WireResponse::Laplacian { solution, .. }) => {
                let exact = self.exact(graph, b)?;
                if solution.len() != exact.len() {
                    return Err(format!("solution has {} entries", solution.len()));
                }
                let error = laplacian::laplacian_norm(graph, &vector::sub(&exact, solution))
                    / laplacian::laplacian_norm(graph, &exact).max(1e-300);
                if error.is_nan() || error > self.epsilon {
                    return Err(format!(
                        "relative L-norm error {error:e} exceeds {:e}",
                        self.epsilon
                    ));
                }
                Ok(())
            }
            (Generated::Sparsify { graph, epsilon }, WireResponse::Sparsify { sparsifier, .. }) => {
                let sparsifier = sparsifier
                    .to_graph()
                    .map_err(|e| format!("sparsifier is not a graph: {e}"))?;
                let achieved = quality::achieved_epsilon(graph, &sparsifier);
                if achieved.is_nan() || achieved > *epsilon {
                    return Err(format!("achieved epsilon {achieved} exceeds {epsilon}"));
                }
                Ok(())
            }
            (
                Generated::Mcmf { instance },
                WireResponse::MinCostMaxFlow {
                    value,
                    cost,
                    rounded_feasible,
                    ..
                },
            ) => {
                let baseline = ssp_min_cost_max_flow(instance);
                if !rounded_feasible || (*value, *cost) != (baseline.value, baseline.cost) {
                    return Err(format!(
                        "flow value {value} cost {cost} (feasible {rounded_feasible}), \
                         baseline value {} cost {}",
                        baseline.value, baseline.cost
                    ));
                }
                Ok(())
            }
            _ => Err("reply kind does not match the request".to_string()),
        }
    }

    fn exact(&mut self, graph: &Graph, b: &[f64]) -> Result<Vec<f64>, String> {
        if !self.reuse_factors {
            return Ok(exact_solve(graph, b));
        }
        let key = fingerprint(graph).as_u128();
        let centred = vector::remove_mean(b);
        if let Some(factor) = self.factors.get(&key) {
            return Ok(factor.solve(&centred, true));
        }
        let factor = DenseMatrix::from_rows(&laplacian::laplacian_dense(graph))
            .factor_psd()
            .ok_or("the Laplacian does not factor")?;
        let solution = factor.solve(&centred, true);
        let reference = exact_solve(graph, b);
        if !bit_equal(&solution, &reference) {
            return Err("factored exact solve differs from exact_solve".to_string());
        }
        self.factors.insert(key, factor);
        Ok(solution)
    }
}

/// Whether two vectors are equal bit for bit.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
