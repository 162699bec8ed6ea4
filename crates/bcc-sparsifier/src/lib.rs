//! # bcc-sparsifier
//!
//! Spectral sparsification in the Broadcast CONGEST model (Section 3.2 of
//! *"The Laplacian Paradigm in the Broadcast Congested Clique"*, Forster &
//! de Vos, PODC 2022).
//!
//! * [`SparsifierConfig`] — the parameters of Algorithms 4/5 with paper and
//!   laboratory defaults.
//! * [`try_sparsify_ad_hoc`] — Algorithm 5 (Theorem 1.2): sampling happens on the
//!   fly inside the probabilistic-edge spanner and outcomes are communicated
//!   implicitly; implementable under the broadcast constraint.
//! * [`sparsify_a_priori`] — Algorithm 4: the Koutis–Xu / Kyng et al.
//!   reference with per-edge a-priori coin flips (needs unicast).
//! * [`quality`] — exact generalized-eigenvalue certificates of the
//!   `(1±ε)` guarantee.
//!
//! ## Example
//!
//! ```
//! use bcc_graph::generators;
//! use bcc_runtime::{ModelConfig, Network};
//! use bcc_sparsifier::{quality, try_sparsify_ad_hoc, SparsifierConfig};
//!
//! let g = generators::complete(20);
//! let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 1).with_t(4).with_k(2);
//! let mut net = Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
//! let out = try_sparsify_ad_hoc(&mut net, &g, &cfg)?;
//! assert!(out.sparsifier.is_connected());
//! assert!(quality::achieved_epsilon(&g, &out.sparsifier).is_finite());
//! # Ok::<(), bcc_sparsifier::SparsifierError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod quality;
pub mod sparsify;

pub use config::SparsifierConfig;
pub use error::SparsifierError;
pub use sparsify::{sparsify_a_priori, try_sparsify_ad_hoc, SparsifierOutput};
