//! # bcc-flow
//!
//! Exact minimum cost maximum flow in the Broadcast Congested Clique
//! (Section 5 / Theorem 1.1 of *"The Laplacian Paradigm in the Broadcast
//! Congested Clique"*, Forster & de Vos, PODC 2022), plus the centralized
//! combinatorial baselines used as ground truth.
//!
//! * [`formulation`] — the Section-5 LP encoding (slack variables, flow-value
//!   reward, cost perturbation, interior starting point).
//! * [`mcmf`] — the end-to-end BCC algorithm: LP solver + Gremban/Laplacian
//!   Gram solves + rounding to the exact integral optimum.
//! * [`baselines`] — Dinic's max flow and successive-shortest-path min-cost
//!   max-flow.
//!
//! ## Example
//!
//! ```
//! use bcc_flow::baselines::ssp_min_cost_max_flow;
//! use bcc_flow::mcmf::{try_min_cost_max_flow_bcc, McmfOptions};
//! use bcc_graph::{DiGraph, FlowInstance};
//! use bcc_runtime::{ModelConfig, Network};
//!
//! let g = DiGraph::from_arcs(3, [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 1, 5)]);
//! let instance = FlowInstance::new(g, 0, 2);
//! let mut net = Network::clique(ModelConfig::bcc(), 3);
//! let result = try_min_cost_max_flow_bcc(&mut net, &instance, &McmfOptions::default())?;
//! let baseline = ssp_min_cost_max_flow(&instance);
//! assert_eq!(result.flow.value, baseline.value);
//! assert_eq!(result.flow.cost, baseline.cost);
//! # Ok::<(), bcc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod error;
pub mod formulation;
pub mod mcmf;

pub use baselines::{dinic_max_flow, ssp_min_cost_max_flow, IntegralFlow};
pub use error::FlowError;
pub use formulation::{build_flow_lp, FlowLp, FlowLpConfig};
pub use mcmf::{
    try_min_cost_max_flow_bcc, McmfOptions, McmfResult, SddGramSolver, WeightStrategyChoice,
};
