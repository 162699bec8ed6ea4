//! The one-slot memo of `SddGramSolver` is invisible in its results: one
//! solver driven through a call sequence with repeats returns the same
//! vectors, the same errors and charges the same rounds as a fresh solver
//! per call, in both SDD solve modes.

use bcc_flow::{build_flow_lp, FlowLpConfig, SddGramSolver};
use bcc_graph::generators;
use bcc_linalg::CsrMatrix;
use bcc_lp::gram::GramSolver;
use bcc_lp::LpError;
use bcc_runtime::{ModelConfig, Network};
use bcc_sparsifier::SparsifierConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const PRECISION: f64 = 1e-8;

/// The two solver kinds `try_min_cost_max_flow_bcc` builds, with its
/// sparsifier configuration for the full pipeline.
fn solver_kinds(n: usize, m: usize) -> Vec<(&'static str, Box<dyn Fn() -> SddGramSolver>)> {
    let full = SparsifierConfig::laboratory(2 * n.max(2), 4 * m.max(4), 0.5, 7)
        .with_t(4)
        .with_k(2);
    vec![
        ("exact", Box::new(|| SddGramSolver::new(PRECISION))),
        (
            "full",
            Box::new(move || SddGramSolver::with_full_pipeline(PRECISION, full)),
        ),
    ]
}

fn random_vector(len: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..len).map(|_| rng.gen::<f64>() - 0.5).collect()
}

fn positive_vector(len: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.2..3.0)).collect()
}

/// Runs `(a, d, y)` through the memoized solver on `memo_net` and through a
/// fresh solver on `fresh_net`; both must agree bit for bit, ledgers included.
fn check_call(
    label: &str,
    memoized: &SddGramSolver,
    fresh: &SddGramSolver,
    nets: (&mut Network, &mut Network),
    (a, d, y): (&CsrMatrix, &[f64], &[f64]),
) -> Result<Vec<f64>, LpError> {
    let (memo_net, fresh_net) = nets;
    let got = memoized.solve(memo_net, a, d, y);
    let expected = fresh.solve(fresh_net, a, d, y);
    match (&got, &expected) {
        (Ok(x), Ok(e)) => {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(e), "{label}: solution differs");
        }
        _ => assert_eq!(got, expected, "{label}: outcome differs"),
    }
    let (mine, theirs) = (memo_net.ledger(), fresh_net.ledger());
    assert_eq!(mine.total_rounds(), theirs.total_rounds(), "{label}");
    assert_eq!(mine.total_bits(), theirs.total_bits(), "{label}");
    assert_eq!(
        mine.total_operations(),
        theirs.total_operations(),
        "{label}"
    );
    assert_eq!(mine, theirs, "{label}: phase breakdown differs");
    got
}

#[test]
fn memoized_gram_solves_are_bit_identical_to_fresh_solvers() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let instance = generators::random_flow_instance(5, 0.3, 3, &mut rng);
    let lp = build_flow_lp(&instance, &FlowLpConfig::default()).lp;
    let (m, n) = (lp.a.rows(), lp.a.cols());
    let a = &lp.a;
    // A different constraint matrix of the same shape whose Gram matrix is
    // still SDD (row scaling keeps the Section-5 structure).
    let other_a = a.scale_rows(&positive_vector(m, &mut rng));
    let d_a = positive_vector(m, &mut rng);
    let d_b = positive_vector(m, &mut rng);

    for (kind, make) in solver_kinds(n, m) {
        let memoized = make();
        let mut memo_net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let mut fresh_net = memo_net.clone();
        let mut call = |label: &str, a: &CsrMatrix, d: &[f64], y: &[f64]| {
            check_call(
                &format!("{kind} {label}"),
                &memoized,
                &make(),
                (&mut memo_net, &mut fresh_net),
                (a, d, y),
            )
        };
        let y1 = random_vector(n, &mut rng);
        let y2 = random_vector(n, &mut rng);
        call("A", a, &d_a, &y1).unwrap();
        call("A again", a, &d_a, &y2).unwrap();
        call("A same rhs", a, &d_a, &y1).unwrap();
        call("B", a, &d_b, &y1).unwrap();
        call("back to A", a, &d_a, &y2).unwrap();
        call("other a, same d", &other_a, &d_a, &y1).unwrap();
        call("other a again", &other_a, &d_a, &y2).unwrap();
        let short = &y1[..n - 1];
        assert!(matches!(
            call("wrong-length y on a hit", &other_a, &d_a, short),
            Err(LpError::GramSolve { .. })
        ));
        call("after the wrong-length y", &other_a, &d_a, &y2).unwrap();
        call("A after the error", a, &d_a, &y1).unwrap();
    }
}

#[test]
fn failed_gram_systems_leave_no_stale_slot() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let instance = generators::random_flow_instance(5, 0.3, 3, &mut rng);
    let lp = build_flow_lp(&instance, &FlowLpConfig::default()).lp;
    let (m, n) = (lp.a.rows(), lp.a.cols());
    let d = positive_vector(m, &mut rng);
    let y = random_vector(n, &mut rng);
    // A single row (1, 2): AᵀDA = [[1, 2], [2, 4]] is not diagonally dominant.
    let not_sdd = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 2.0)]);
    // The identity: AᵀDA is diagonal, so its Gremban graph is disconnected.
    let diagonal = CsrMatrix::identity(2);

    for (kind, make) in solver_kinds(n, m) {
        let memoized = make();
        let mut memo_net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let mut fresh_net = memo_net.clone();
        let mut call = |label: &str, a: &CsrMatrix, d: &[f64], y: &[f64]| {
            check_call(
                &format!("{kind} {label}"),
                &memoized,
                &make(),
                (&mut memo_net, &mut fresh_net),
                (a, d, y),
            )
        };
        call("valid", &lp.a, &d, &y).unwrap();
        match call("not SDD", &not_sdd, &[1.0], &[1.0, -1.0]) {
            Err(LpError::GramSolve { solver, message }) => {
                assert_eq!(solver, "gremban-laplacian");
                assert!(message.contains("diagonally dominant"), "{message}");
            }
            other => panic!("{kind}: expected a GramSolve error, got {other:?}"),
        }
        call("valid after not SDD", &lp.a, &d, &y).unwrap();
        match call("diagonal", &diagonal, &[1.0, 2.0], &[1.0, -1.0]) {
            Err(LpError::GramSolve { message, .. }) => {
                assert!(message.contains("Gremban reduction"), "{message}");
            }
            other => panic!("{kind}: expected a GramSolve error, got {other:?}"),
        }
        call("valid after diagonal", &lp.a, &d, &y).unwrap();
        call("valid again", &lp.a, &d, &y).unwrap();
    }
}
