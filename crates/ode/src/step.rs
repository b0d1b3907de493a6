//! A single Runge–Kutta integration step.

use crate::state::StateOps;
use crate::tableau::ButcherTableau;

/// The result of one Runge–Kutta step (one "integration trial" in the
/// paper's stepsize-search terminology).
#[derive(Clone, Debug)]
pub struct StepOutcome<S> {
    /// The advanced state `h(t + Δt)`.
    pub y_next: S,
    /// The embedded error state `e` (absent for fixed-order methods).
    pub error: Option<S>,
    /// The integral states `k_1..k_s` (kept so FSAL methods can reuse the
    /// last stage, and so the adjoint pass can replay intermediate states).
    pub stages: Vec<S>,
    /// Function evaluations performed in this step.
    pub nfe: usize,
}

impl<S: StateOps> StepOutcome<S> {
    /// L2 norm of the error state (the `‖e‖₂` compared against ε in the
    /// stepsize search).
    ///
    /// # Panics
    ///
    /// Panics if the method has no embedded error estimate.
    pub fn error_norm(&self) -> f64 {
        self.error
            .as_ref()
            .expect("error_norm requires an adaptive (embedded-pair) method")
            .norm_l2()
    }
}

/// A pool of reusable state buffers threaded through [`rk_step_with`],
/// eliminating the per-trial `y_next`/partial/error allocations of the
/// stepsize-search inner loop (the paper's integration trials dominate
/// solver time, and each used to clone the full state two or three
/// times).
///
/// Callers keep one `StepScratch` alive across a solve and feed rejected
/// trials' states back via [`StepScratch::recycle`]. All pooled buffers
/// must share the solve's state shape — `copy_from` rebuilds a pooled
/// buffer element-wise before any read, which is exactly what `clone`
/// produces, so pooling is bit-invisible. Call [`StepScratch::clear`]
/// before reusing a pool for a solve with a different state shape.
#[derive(Debug)]
pub struct StepScratch<S> {
    pool: Vec<S>,
}

impl<S> Default for StepScratch<S> {
    fn default() -> Self {
        StepScratch::new()
    }
}

impl<S> StepScratch<S> {
    /// An empty pool.
    pub fn new() -> Self {
        StepScratch { pool: Vec::new() }
    }

    /// Returns retired states (a rejected trial's `y_next`, error state,
    /// or spent stages) to the pool for reuse by later steps.
    pub fn recycle(&mut self, states: impl IntoIterator<Item = S>) {
        self.pool.extend(states);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Drops every pooled buffer (required before switching state shapes).
    pub fn clear(&mut self) {
        self.pool.clear();
    }
}

impl<S: StateOps> StepScratch<S> {
    /// A buffer holding a copy of `src`: a pooled buffer rebuilt with
    /// `copy_from` when available, a fresh `clone` otherwise.
    fn take_copy_of(&mut self, src: &S) -> S {
        match self.pool.pop() {
            Some(mut s) => {
                s.copy_from(src);
                s
            }
            None => src.clone(),
        }
    }
}

/// Performs one explicit Runge–Kutta step `y(t) → y(t + h)`.
///
/// `k1` may carry the previous step's FSAL stage to save one `f`
/// evaluation; pass `None` to evaluate from scratch.
///
/// Allocates fresh state buffers per step; the solver loops use
/// [`rk_step_with`] with a shared [`StepScratch`] instead.
///
/// # Panics
///
/// Panics if `h` is not positive and finite.
pub fn rk_step<S: StateOps>(
    tableau: &ButcherTableau,
    f: &mut impl FnMut(f64, &S) -> S,
    t: f64,
    h: f64,
    y: &S,
    k1: Option<S>,
) -> StepOutcome<S> {
    rk_step_with(tableau, f, t, h, y, k1, &mut StepScratch::new())
}

/// [`rk_step`] drawing every temporary state from `scratch` instead of
/// allocating. Bit-identical to [`rk_step`]: pooled buffers are rebuilt
/// with `copy_from` before use and the arithmetic is unchanged.
pub fn rk_step_with<S: StateOps>(
    tableau: &ButcherTableau,
    f: &mut impl FnMut(f64, &S) -> S,
    t: f64,
    h: f64,
    y: &S,
    mut k1: Option<S>,
    scratch: &mut StepScratch<S>,
) -> StepOutcome<S> {
    assert!(
        h > 0.0 && h.is_finite(),
        "stepsize must be positive, got {h}"
    );
    debug_assert!(t.is_finite(), "integration time must be finite, got {t}");
    debug_assert!(
        y.norm_l2().is_finite(),
        "state contains NaN/Inf entering rk_step at t = {t}"
    );
    let s = tableau.stages();
    let mut stages: Vec<S> = Vec::with_capacity(s);
    let mut nfe = 0;

    // One reusable partial-state buffer across all stages (instead of a
    // fresh clone per stage): `p` is rebuilt from `y` by copy_from.
    let mut partial: Option<S> = None;
    for i in 0..s {
        if i == 0 {
            if let Some(k) = k1.take() {
                stages.push(k);
                continue;
            }
            // fall through to evaluate k1
        }
        // Partial state p_i = y + h * sum_{j<i} a[i][j] * k_j  (the paper's
        // p_{i,j} chain, fully accumulated).
        let p = match partial.as_mut() {
            Some(p) => {
                p.copy_from(y);
                p
            }
            None => partial.insert(scratch.take_copy_of(y)),
        };
        for (j, &aij) in tableau.a()[i].iter().enumerate() {
            if aij != 0.0 {
                p.axpy(h * aij, &stages[j]);
            }
        }
        stages.push(f(t + tableau.c()[i] * h, p));
        nfe += 1;
    }
    if let Some(p) = partial {
        scratch.pool.push(p);
    }

    // y_next = y + h * sum b_i k_i.
    let mut y_next = scratch.take_copy_of(y);
    for (i, &bi) in tableau.b().iter().enumerate() {
        if bi != 0.0 {
            y_next.axpy(h * bi, &stages[i]);
        }
    }

    // e = h * sum d_i k_i — seeded by scaling the first contributing
    // stage rather than axpy-ing onto a zero state, saving the per-step
    // zeros allocation. (`0.0 + x` and `x` agree bitwise except on the
    // sign of a zero, which `==` cannot observe.)
    let error = tableau.error_weights().map(|d| {
        let mut e: Option<S> = None;
        for (i, &di) in d.iter().enumerate() {
            if di != 0.0 {
                match e.as_mut() {
                    Some(e) => e.axpy(h * di, &stages[i]),
                    None => {
                        let mut first = scratch.take_copy_of(&stages[i]);
                        first.scale_mut(h * di);
                        e = Some(first);
                    }
                }
            }
        }
        e.unwrap_or_else(|| y.zeros_like())
    });

    StepOutcome {
        y_next,
        error,
        stages,
        nfe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::all_tableaux;

    /// dy/dt = -y, y(0) = 1: exact solution e^{-t}.
    fn decay(_t: f64, y: &[f64]) -> Vec<f64> {
        vec![-y[0]]
    }

    #[test]
    fn euler_step_exact_formula() {
        let tab = ButcherTableau::euler();
        let out = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.0,
            0.1,
            &vec![1.0],
            None,
        );
        assert!((out.y_next[0] - 0.9).abs() < 1e-15);
        assert_eq!(out.nfe, 1);
        assert!(out.error.is_none());
    }

    #[test]
    fn rk4_one_step_accuracy() {
        let tab = ButcherTableau::rk4();
        let out = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.0,
            0.1,
            &vec![1.0],
            None,
        );
        let exact = (-0.1f64).exp();
        // RK4 local truncation error is O(h^5): ~1e-7 at h = 0.1.
        assert!((out.y_next[0] - exact).abs() < 2e-7);
    }

    #[test]
    fn convergence_orders() {
        // Halving h must reduce the one-step error by ~2^(order+1)
        // (local truncation error is O(h^{p+1})).
        for tab in all_tableaux() {
            let err_at = |h: f64| {
                let out = rk_step(
                    &tab,
                    &mut |t, y: &Vec<f64>| decay(t, y),
                    0.0,
                    h,
                    &vec![1.0],
                    None,
                );
                (out.y_next[0] - (-h).exp()).abs()
            };
            let e1 = err_at(0.2);
            let e2 = err_at(0.1);
            if e2 < 1e-13 {
                continue; // high-order methods hit roundoff on this problem
            }
            let observed = (e1 / e2).log2();
            let expected = (tab.order() + 1) as f64;
            assert!(
                observed > expected - 0.7,
                "{}: observed order {observed:.2}, expected ≈{expected}",
                tab.name()
            );
        }
    }

    #[test]
    fn fsal_reuse_saves_one_nfe() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let first = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.0,
            0.1,
            &vec![1.0],
            None,
        );
        assert_eq!(first.nfe, 4);
        let k1 = first.stages.last().unwrap().clone();
        let second = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.1,
            0.1,
            &first.y_next,
            Some(k1),
        );
        assert_eq!(second.nfe, 3);
        // Reused k1 must give the same result as computing from scratch.
        let scratch = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.1,
            0.1,
            &first.y_next,
            None,
        );
        assert!((second.y_next[0] - scratch.y_next[0]).abs() < 1e-14);
    }

    #[test]
    fn error_estimate_tracks_true_error() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let out = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.0,
            0.2,
            &vec![1.0],
            None,
        );
        let true_err = (out.y_next[0] - (-0.2f64).exp()).abs();
        let est = out.error_norm();
        // Same order of magnitude.
        assert!(
            est > true_err * 0.05 && est < true_err * 50.0,
            "estimate {est} vs true {true_err}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_stepsize_rejected() {
        let tab = ButcherTableau::euler();
        let _ = rk_step(
            &tab,
            &mut |t, y: &Vec<f64>| decay(t, y),
            0.0,
            0.0,
            &vec![1.0],
            None,
        );
    }

    #[test]
    fn pooled_scratch_is_bit_identical_and_reuses_buffers() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut scratch = StepScratch::new();
        let mut y = vec![1.0, -0.5];
        let f = |_t: f64, s: &Vec<f64>| vec![-s[0], 0.5 * s[1]];
        let mut t = 0.0;
        for _ in 0..8 {
            let pooled = rk_step_with(&tab, &mut f.clone(), t, 0.1, &y, None, &mut scratch);
            let fresh = rk_step(&tab, &mut f.clone(), t, 0.1, &y, None);
            assert_eq!(pooled.y_next, fresh.y_next);
            assert_eq!(pooled.error, fresh.error);
            assert_eq!(pooled.stages, fresh.stages);
            t += 0.1;
            y = pooled.y_next;
            // Retire the spent states the way the solver loops do.
            scratch.recycle(pooled.stages);
            scratch.recycle(pooled.error);
        }
        // After the first couple of steps the pool satisfies every
        // checkout; the steady state allocates nothing.
        assert!(
            scratch.pooled() >= 3,
            "pool should accumulate retired states"
        );
    }
}
