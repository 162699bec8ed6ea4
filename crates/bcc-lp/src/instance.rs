//! Linear program instances in the Lee–Sidford form used by the paper.
//!
//! The LP is `min { cᵀx : Aᵀx = b, lᵢ ≤ xᵢ ≤ uᵢ }` with `A ∈ R^{m×n}`
//! (note the transpose convention: `n` is the number of *equality
//! constraints* — vertices, in flow formulations — and `m` the number of
//! variables — edges). Every `xᵢ` must have at least one finite bound.

use bcc_linalg::CsrMatrix;

use crate::error::LpError;

/// A linear program `min cᵀx  s.t.  Aᵀx = b, l ≤ x ≤ u`.
#[derive(Debug, Clone)]
pub struct LpInstance {
    /// Constraint matrix `A ∈ R^{m×n}` with `rank(A) = n`.
    pub a: CsrMatrix,
    /// Demand vector `b ∈ R^n`.
    pub b: Vec<f64>,
    /// Cost vector `c ∈ R^m`.
    pub c: Vec<f64>,
    /// Lower bounds `l ∈ (R ∪ {−∞})^m`.
    pub lower: Vec<f64>,
    /// Upper bounds `u ∈ (R ∪ {+∞})^m`.
    pub upper: Vec<f64>,
}

impl LpInstance {
    /// Number of variables `m` (rows of `A`).
    pub fn m(&self) -> usize {
        self.a.rows()
    }

    /// Number of equality constraints `n` (columns of `A`).
    pub fn n(&self) -> usize {
        self.a.cols()
    }

    /// Validates dimensions and the requirement that every variable has at
    /// least one finite bound and `l < u`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::MalformedInstance`] with a descriptive message when
    /// the instance is malformed.
    pub fn try_validate(&self) -> Result<(), LpError> {
        let malformed = |msg: String| Err(LpError::MalformedInstance(msg));
        if self.b.len() != self.n() {
            return malformed(format!(
                "b must have length n = {}, got {}",
                self.n(),
                self.b.len()
            ));
        }
        if self.c.len() != self.m() {
            return malformed(format!(
                "c must have length m = {}, got {}",
                self.m(),
                self.c.len()
            ));
        }
        if self.lower.len() != self.m() {
            return malformed(format!(
                "l must have length m = {}, got {}",
                self.m(),
                self.lower.len()
            ));
        }
        if self.upper.len() != self.m() {
            return malformed(format!(
                "u must have length m = {}, got {}",
                self.m(),
                self.upper.len()
            ));
        }
        if let Some(i) = self.b.iter().position(|v| !v.is_finite()) {
            return malformed(format!("b[{i}] = {} is not finite", self.b[i]));
        }
        if let Some(i) = self.c.iter().position(|v| !v.is_finite()) {
            return malformed(format!("c[{i}] = {} is not finite", self.c[i]));
        }
        for i in 0..self.m() {
            if !(self.lower[i].is_finite() || self.upper[i].is_finite()) {
                return malformed(format!("variable {i} has no finite bound"));
            }
            // NaN bounds must be rejected too, so compare with the negation
            // of `<` rather than `>=`.
            if !matches!(
                self.lower[i].partial_cmp(&self.upper[i]),
                Some(std::cmp::Ordering::Less)
            ) {
                return malformed(format!(
                    "variable {i}: lower bound {} is not below upper bound {}",
                    self.lower[i], self.upper[i]
                ));
            }
        }
        Ok(())
    }

    /// The objective value `cᵀx`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.c).map(|(xi, ci)| xi * ci).sum()
    }

    /// Residual of the equality constraints, `Aᵀx − b`.
    pub fn equality_residual(&self, x: &[f64]) -> Vec<f64> {
        let ax = self.a.matvec_transpose(x);
        ax.iter().zip(&self.b).map(|(v, bi)| v - bi).collect()
    }

    /// Returns `true` if `x` satisfies all constraints up to `tolerance`.
    pub fn is_feasible(&self, x: &[f64], tolerance: f64) -> bool {
        if x.len() != self.m() {
            return false;
        }
        for i in 0..self.m() {
            if x[i] < self.lower[i] - tolerance || x[i] > self.upper[i] + tolerance {
                return false;
            }
        }
        self.equality_residual(x)
            .iter()
            .all(|r| r.abs() <= tolerance)
    }

    /// Returns `true` if `x` lies strictly inside the box bounds (the
    /// interior `Ω°` required of the starting point).
    pub fn is_interior(&self, x: &[f64]) -> bool {
        x.len() == self.m() && (0..self.m()).all(|i| x[i] > self.lower[i] && x[i] < self.upper[i])
    }

    /// The magnitude parameter
    /// `U = max{‖1/(u−x₀)‖_∞, ‖1/(x₀−l)‖_∞, ‖u−l‖_∞, ‖c‖_∞}` of Theorem 1.4
    /// (infinite bounds are skipped in the `‖u−l‖_∞` term).
    pub fn parameter_u(&self, x0: &[f64]) -> f64 {
        let mut u_param = self.c.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for i in 0..self.m() {
            if self.upper[i].is_finite() {
                u_param = u_param.max(1.0 / (self.upper[i] - x0[i]).max(1e-300));
            }
            if self.lower[i].is_finite() {
                u_param = u_param.max(1.0 / (x0[i] - self.lower[i]).max(1e-300));
            }
            if self.upper[i].is_finite() && self.lower[i].is_finite() {
                u_param = u_param.max(self.upper[i] - self.lower[i]);
            }
        }
        u_param.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min x₀ + x₁ subject to x₀ + x₁ = 1, 0 ≤ xᵢ ≤ 1.
    fn tiny() -> LpInstance {
        LpInstance {
            a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
            b: vec![1.0],
            c: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, 1.0],
        }
    }

    #[test]
    fn dimensions_and_objective() {
        let lp = tiny();
        assert_eq!(lp.try_validate(), Ok(()));
        assert_eq!(lp.m(), 2);
        assert_eq!(lp.n(), 1);
        assert_eq!(lp.objective(&[0.25, 0.75]), 1.0);
    }

    #[test]
    fn feasibility_checks() {
        let lp = tiny();
        assert!(lp.is_feasible(&[0.25, 0.75], 1e-9));
        assert!(!lp.is_feasible(&[0.25, 0.5], 1e-9)); // equality violated
        assert!(!lp.is_feasible(&[-0.25, 1.25], 1e-9)); // bounds violated
        assert!(lp.is_interior(&[0.5, 0.5]));
        assert!(!lp.is_interior(&[0.0, 1.0]));
    }

    #[test]
    fn parameter_u_reflects_closeness_to_bounds() {
        let lp = tiny();
        let centered = lp.parameter_u(&[0.5, 0.5]);
        let near_edge = lp.parameter_u(&[0.01, 0.99]);
        assert!(near_edge > centered);
        assert!(centered >= 1.0);
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        let mut lp = tiny();
        lp.lower[0] = 2.0;
        assert_eq!(
            lp.try_validate(),
            Err(LpError::MalformedInstance(
                "variable 0: lower bound 2 is not below upper bound 1".to_string()
            ))
        );
    }

    #[test]
    fn validate_rejects_fully_free_variables() {
        let mut lp = tiny();
        lp.lower[0] = f64::NEG_INFINITY;
        lp.upper[0] = f64::INFINITY;
        assert_eq!(
            lp.try_validate(),
            Err(LpError::MalformedInstance(
                "variable 0 has no finite bound".to_string()
            ))
        );
    }
}
