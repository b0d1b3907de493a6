//! Cross-checks the *static* tableau lints against the *empirical*
//! order/consistency machinery in `enode_ode::verify`: the two must agree
//! on every shipped method, and must agree on what is wrong with a
//! corrupted one.

use enode_analysis::diag::Code;
use enode_analysis::tableau::lint_tableau;
use enode_ode::tableau::{all_tableaux, ButcherTableau};
use enode_ode::verify::estimate_global_order;

fn decay(_t: f64, y: &[f64]) -> Vec<f64> {
    vec![-y[0]]
}

#[test]
fn static_and_empirical_order_agree_on_shipped_methods() {
    let exact = vec![(-1.0f64).exp()];
    for tab in all_tableaux() {
        // Static: the order conditions hold through min(order, 4).
        let ds = lint_tableau(&tab);
        assert!(ds.is_empty(), "{}:\n{}", tab.name(), ds.render());
        // Empirical: step-halving reaches the claimed order.
        let est = estimate_global_order(&tab, |t, y| decay(t, y), vec![1.0], 1.0, &exact, 16);
        assert!(
            est > tab.order() as f64 - 0.6,
            "{}: lints clean but measures order {est:.2} (claimed {})",
            tab.name(),
            tab.order()
        );
    }
}

#[test]
fn static_and_empirical_checks_agree_on_inflated_order() {
    // Heun (order 2) relabeled as order 3: the lint must flag the missing
    // third-order conditions, and the estimator must refuse to credit 3.
    let inflated = ButcherTableau::from_coefficients_unchecked(
        "heun_claiming_3",
        vec![0.0, 1.0],
        vec![vec![], vec![1.0]],
        vec![0.5, 0.5],
        None,
        3,
        None,
        false,
    );
    let ds = lint_tableau(&inflated);
    assert!(
        ds.has_code(Code::E003TableauOrderCondition),
        "lint missed the inflated order:\n{}",
        ds.render()
    );

    let exact = vec![(-1.0f64).exp()];
    let est = estimate_global_order(&inflated, |t, y| decay(t, y), vec![1.0], 1.0, &exact, 32);
    assert!(
        est < 2.5,
        "estimator credited order {est:.2} to a second-order method"
    );
}

#[test]
fn corrupted_weights_fail_both_statically_and_empirically() {
    // RK4 with one advancing weight perturbed: breaks Σb = 1, so the
    // method drops to order 0 (inconsistent) — both views must notice.
    let rk4 = ButcherTableau::rk4();
    let mut b = rk4.b().to_vec();
    b[0] += 0.05;
    let corrupted = ButcherTableau::from_coefficients_unchecked(
        "rk4_corrupted",
        rk4.c().to_vec(),
        rk4.a().to_vec(),
        b,
        None,
        4,
        None,
        false,
    );
    let ds = lint_tableau(&corrupted);
    assert!(
        ds.has_code(Code::E003TableauOrderCondition),
        "{}",
        ds.render()
    );

    let exact = vec![(-1.0f64).exp()];
    let est = estimate_global_order(&corrupted, |t, y| decay(t, y), vec![1.0], 1.0, &exact, 16);
    assert!(
        est < 1.5,
        "estimator credited order {est:.2} to an inconsistent method"
    );
}
