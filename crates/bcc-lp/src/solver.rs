//! The top-level LP solver (`LPSolve`, Algorithm 9 / Theorem 1.4).
//!
//! Given an interior starting point `x₀`, the solver
//!
//! 1. computes initial weights `g(x₀)` (regularized Lewis weights, or all-ones
//!    for the uniform-barrier ablation),
//! 2. follows the weighted central path for the *auxiliary* cost
//!    `d = −g(x₀)∘φ'(x₀)` from `t = 1` down to a tiny `t₁` — `x₀` is exactly
//!    central for `d` at `t = 1`, and at `t₁` the influence of any cost vector
//!    is negligible, so the iterate ends up near the weighted analytic
//!    center, and
//! 3. follows the path for the *real* cost `c` from `t₁` up to
//!    `t₂ = Θ(c₁/ε)`, at which point the duality gap is at most `ε`.

use bcc_linalg::vector;
use bcc_runtime::Network;

use crate::barrier::BarrierSystem;
use crate::error::LpError;
use crate::gram::{GramSolver, ScaledMatrix};
use crate::instance::LpInstance;
use crate::lewis::{self, LewisOptions};
use crate::path_following::{path_following, PathOptions, PathStats};

/// The weight function used by the interior point method.
#[derive(Debug, Clone)]
pub enum WeightStrategy {
    /// `g(x) ≡ 1`: the classical logarithmic barrier. Path following needs
    /// `Θ(√m)` iterations — the baseline of the √n-vs-√m experiment (A2).
    Uniform,
    /// Regularized ℓ_p Lewis weights (Definition 4.3), `Θ(√n)` iterations.
    RegularizedLewis {
        /// Options of the Lewis-weight computation.
        options: LewisOptions,
    },
}

impl WeightStrategy {
    /// The paper's default: regularized Lewis weights with laboratory
    /// parameters.
    pub fn lewis_laboratory(m: usize, seed: u64) -> Self {
        WeightStrategy::RegularizedLewis {
            options: LewisOptions::laboratory(m, seed),
        }
    }

    fn initial_weights(
        &self,
        net: &mut Network,
        instance: &LpInstance,
        barriers: &BarrierSystem,
        x0: &[f64],
        gram_solver: &dyn GramSolver,
    ) -> Result<Vec<f64>, LpError> {
        match self {
            WeightStrategy::Uniform => Ok(vec![1.0; instance.m()]),
            WeightStrategy::RegularizedLewis { options } => {
                let phi2 = barriers.hessian(x0);
                let scales: Vec<f64> = phi2.iter().map(|v| 1.0 / v.sqrt()).collect();
                let ax = ScaledMatrix::new(&instance.a, scales);
                lewis::regularized_lewis_weights(net, &ax, options, gram_solver)
            }
        }
    }

    fn refresh(
        &self,
        net: &mut Network,
        instance: &LpInstance,
        barriers: &BarrierSystem,
        x: &[f64],
        current: &[f64],
        sweeps: usize,
        gram_solver: &dyn GramSolver,
    ) -> Result<Vec<f64>, LpError> {
        match self {
            WeightStrategy::Uniform => Ok(current.to_vec()),
            WeightStrategy::RegularizedLewis { options } => {
                if sweeps == 0 {
                    return Ok(current.to_vec());
                }
                let refresh_options = LewisOptions {
                    iterations: sweeps,
                    ..*options
                };
                let phi2 = barriers.hessian(x);
                let scales: Vec<f64> = phi2.iter().map(|v| 1.0 / v.sqrt()).collect();
                let ax = ScaledMatrix::new(&instance.a, scales);
                lewis::regularized_lewis_weights(net, &ax, &refresh_options, gram_solver)
            }
        }
    }
}

/// Options of [`try_lp_solve`].
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Additive objective accuracy `ε`.
    pub epsilon: f64,
    /// Weight function.
    pub strategy: WeightStrategy,
    /// Path-following tuning knobs.
    pub path: PathOptions,
    /// Override for the initial path parameter `t₁` (`None` = derived from
    /// the instance magnitude as in Algorithm 9).
    pub t_start_override: Option<f64>,
}

impl LpOptions {
    /// Laboratory defaults with the given accuracy and the Lewis-weight
    /// strategy.
    pub fn new(epsilon: f64, m: usize, seed: u64) -> Self {
        LpOptions {
            epsilon,
            strategy: WeightStrategy::lewis_laboratory(m, seed),
            path: PathOptions::default(),
            t_start_override: None,
        }
    }

    /// The same options with the uniform-weight (log-barrier) strategy.
    pub fn with_uniform_weights(mut self) -> Self {
        self.strategy = WeightStrategy::Uniform;
        self
    }
}

/// Result of [`try_lp_solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// The returned feasible point `x ∈ Ω°` with `cᵀx ≤ OPT + ε` (up to the
    /// laboratory constants).
    pub x: Vec<f64>,
    /// Objective value `cᵀx`.
    pub objective: f64,
    /// Statistics of the auxiliary (centering) phase.
    pub phase1: PathStats,
    /// Statistics of the optimization phase.
    pub phase2: PathStats,
    /// Total rounds charged on the network during the solve.
    pub rounds: u64,
}

impl LpSolution {
    /// Total number of path iterations across both phases — the quantity
    /// Theorem 1.4 bounds by `Õ(√n·log(U/ε))`.
    pub fn path_iterations(&self) -> usize {
        self.phase1.path_iterations + self.phase2.path_iterations
    }

    /// Total Gram solves (each costs `T(n, m)` rounds).
    pub fn gram_solves(&self) -> usize {
        self.phase1.gram_solves + self.phase2.gram_solves
    }
}

/// Solves `min { cᵀx : Aᵀx = b, l ≤ x ≤ u }` from the interior point `x0`
/// (Algorithm 9, `LPSolve`).
///
/// # Errors
///
/// * [`LpError::MalformedInstance`] — inconsistent dimensions or bounds.
/// * [`LpError::NotInterior`] — `x0` is not strictly inside the box bounds.
/// * [`LpError::InfeasibleStart`] — `Aᵀx0 ≠ b` beyond a small tolerance.
/// * [`LpError::GramSolve`] — the inner `(AᵀDA)⁻¹` oracle rejected a system
///   (e.g. a non-SDD Gram matrix routed through the Gremban reduction).
pub fn try_lp_solve(
    net: &mut Network,
    instance: &LpInstance,
    x0: &[f64],
    options: &LpOptions,
    gram_solver: &dyn GramSolver,
) -> Result<LpSolution, LpError> {
    instance.try_validate()?;
    if !instance.is_interior(x0) {
        return Err(LpError::NotInterior);
    }
    let residual = vector::norm_inf(&instance.equality_residual(x0));
    let tolerance = 1e-6 * (1.0 + vector::norm_inf(&instance.b));
    // Negate `<` instead of testing `>=` so a NaN residual (or NaN data in
    // `b`) is rejected rather than silently accepted.
    if !matches!(
        residual.partial_cmp(&tolerance),
        Some(std::cmp::Ordering::Less)
    ) {
        return Err(LpError::InfeasibleStart { residual });
    }
    lp_solve_unchecked(net, instance, x0, options, gram_solver)
}

fn lp_solve_unchecked(
    net: &mut Network,
    instance: &LpInstance,
    x0: &[f64],
    options: &LpOptions,
    gram_solver: &dyn GramSolver,
) -> Result<LpSolution, LpError> {
    let rounds_before = net.ledger().total_rounds();
    net.begin_phase("lp solve");

    let barriers = BarrierSystem::new(&instance.lower, &instance.upper);
    let m = instance.m() as f64;
    let u_param = instance.parameter_u(x0);

    // Initial weights and the auxiliary cost d = −g(x₀)∘φ'(x₀).
    let w0 = options
        .strategy
        .initial_weights(net, instance, &barriers, x0, gram_solver)?;
    let phi1 = barriers.gradient(x0);
    let d: Vec<f64> = w0.iter().zip(&phi1).map(|(wi, gi)| -wi * gi).collect();

    let c1: f64 = w0.iter().sum::<f64>().max(1.0);
    let t1 = options
        .t_start_override
        .unwrap_or_else(|| 1.0 / (1024.0 * m.powf(1.5) * u_param * u_param));
    let t2 = 2.0 * c1 / options.epsilon.max(1e-12);

    // Phase 1: from t = 1 down to t1 with the auxiliary cost.
    let strategy = &options.strategy;
    let sweeps = options.path.weight_refresh_sweeps;
    let (x_centered, w_centered, phase1) = path_following(
        net,
        instance,
        &barriers,
        x0.to_vec(),
        w0,
        1.0,
        t1,
        &d,
        &options.path,
        gram_solver,
        |net, x, w| strategy.refresh(net, instance, &barriers, x, w, sweeps, gram_solver),
    )?;

    // Phase 2: from t1 up to t2 with the real cost.
    let (x_final, _w_final, phase2) = path_following(
        net,
        instance,
        &barriers,
        x_centered,
        w_centered,
        t1,
        t2,
        &instance.c,
        &options.path,
        gram_solver,
        |net, x, w| strategy.refresh(net, instance, &barriers, x, w, sweeps, gram_solver),
    )?;

    Ok(LpSolution {
        objective: instance.objective(&x_final),
        x: x_final,
        phase1,
        phase2,
        rounds: net.ledger().total_rounds() - rounds_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::DenseGramSolver;
    use bcc_linalg::CsrMatrix;
    use bcc_runtime::ModelConfig;

    /// min x₁ s.t. x₀ + x₁ = 1, 0 ≤ x ≤ 1 (optimum 0 at x = (1, 0)).
    fn simple_lp() -> LpInstance {
        LpInstance {
            a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
            b: vec![1.0],
            c: vec![0.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, 1.0],
        }
    }

    /// A transportation-style LP:
    /// min Σ cᵢxᵢ over a path of 3 "edges" carrying one unit of demand with
    /// upper bounds; variables x₀..x₂, constraints x₀+x₁ = 1, x₁−x₂ = 0.3.
    fn second_lp() -> (LpInstance, Vec<f64>) {
        let a =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 1, -1.0)]);
        let lp = LpInstance {
            a,
            b: vec![1.0, 0.3],
            c: vec![1.0, 3.0, 1.0],
            lower: vec![0.0, 0.0, 0.0],
            upper: vec![2.0, 2.0, 2.0],
        };
        // Interior start: x1 = 0.5, x0 = 0.5, x2 = 0.2.
        let x0 = vec![0.5, 0.5, 0.2];
        (lp, x0)
    }

    #[test]
    fn solves_the_simple_lp_with_uniform_weights() {
        let lp = simple_lp();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let options = LpOptions::new(1e-3, lp.m(), 1).with_uniform_weights();
        let solution = try_lp_solve(
            &mut net,
            &lp,
            &[0.5, 0.5],
            &options,
            &DenseGramSolver::new(),
        )
        .unwrap();
        assert!(lp.is_feasible(&solution.x, 1e-6));
        assert!(
            solution.objective < 5e-3,
            "objective {}",
            solution.objective
        );
        assert!(solution.rounds > 0);
        assert!(solution.path_iterations() > 0);
    }

    #[test]
    fn solves_the_simple_lp_with_lewis_weights() {
        let lp = simple_lp();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let mut options = LpOptions::new(1e-3, lp.m(), 2);
        if let WeightStrategy::RegularizedLewis { options: lewis } = &mut options.strategy {
            lewis.exact_leverage = true;
            lewis.iterations = 6;
        }
        let solution = try_lp_solve(
            &mut net,
            &lp,
            &[0.5, 0.5],
            &options,
            &DenseGramSolver::new(),
        )
        .unwrap();
        assert!(lp.is_feasible(&solution.x, 1e-6));
        assert!(
            solution.objective < 5e-3,
            "objective {}",
            solution.objective
        );
    }

    #[test]
    fn second_lp_reaches_the_known_optimum() {
        let (lp, x0) = second_lp();
        assert!(lp.is_feasible(&x0, 1e-9));
        // Optimum: x1 carries as little as possible: x1 = 0.3 (forced by
        // x1 - x2 = 0.3 and x2 ≥ 0 ⇒ x1 ≥ 0.3), x0 = 0.7, x2 = 0.
        // Optimal cost = 0.7 + 0.9 + 0 = 1.6.
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let options = LpOptions::new(1e-3, lp.m(), 3).with_uniform_weights();
        let solution = try_lp_solve(&mut net, &lp, &x0, &options, &DenseGramSolver::new()).unwrap();
        assert!(lp.is_feasible(&solution.x, 1e-5));
        assert!(
            (solution.objective - 1.6).abs() < 2e-2,
            "objective {}",
            solution.objective
        );
    }

    #[test]
    fn tighter_epsilon_costs_more_iterations() {
        let lp = simple_lp();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let coarse = try_lp_solve(
            &mut net,
            &lp,
            &[0.5, 0.5],
            &LpOptions::new(1e-1, lp.m(), 4).with_uniform_weights(),
            &DenseGramSolver::new(),
        )
        .unwrap();
        let fine = try_lp_solve(
            &mut net,
            &lp,
            &[0.5, 0.5],
            &LpOptions::new(1e-5, lp.m(), 4).with_uniform_weights(),
            &DenseGramSolver::new(),
        )
        .unwrap();
        assert!(fine.path_iterations() > coarse.path_iterations());
        assert!(fine.objective <= coarse.objective + 1e-9);
    }

    #[test]
    fn non_interior_start_is_rejected() {
        let lp = simple_lp();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let options = LpOptions::new(1e-2, lp.m(), 5).with_uniform_weights();
        let result = try_lp_solve(
            &mut net,
            &lp,
            &[1.0, 0.0],
            &options,
            &DenseGramSolver::new(),
        );
        assert_eq!(result.unwrap_err(), LpError::NotInterior);
    }

    #[test]
    fn infeasible_start_is_rejected() {
        let lp = simple_lp();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let options = LpOptions::new(1e-2, lp.m(), 6).with_uniform_weights();
        let result = try_lp_solve(
            &mut net,
            &lp,
            &[0.4, 0.4],
            &options,
            &DenseGramSolver::new(),
        );
        assert!(
            matches!(result, Err(LpError::InfeasibleStart { residual }) if residual > 0.1),
            "{result:?}"
        );
    }
}
