//! Initial-value-problem solvers: fixed-step and adaptive with iterative
//! stepsize search.

use crate::controller::{StepController, TrialDecision};
use crate::state::StateOps;
use crate::step::{rk_step_with, StepScratch};
use crate::tableau::ButcherTableau;
use std::error::Error;
use std::fmt;

/// Failure modes of the adaptive solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The stepsize search could not find an acceptable step above the
    /// minimum stepsize.
    StepsizeUnderflow,
    /// The step budget was exhausted before reaching the end time.
    MaxStepsExceeded,
    /// The state became non-finite (diverging ODE or unstable method).
    NonFiniteState,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::StepsizeUnderflow => write!(f, "stepsize search underflowed dt_min"),
            SolveError::MaxStepsExceeded => write!(f, "maximum step count exceeded"),
            SolveError::NonFiniteState => write!(f, "state became non-finite"),
        }
    }
}

impl Error for SolveError {}

/// Options for [`solve_adaptive`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveOptions {
    /// Error tolerance ε compared against `‖e‖₂` (paper default 1e-6).
    pub tolerance: f64,
    /// Smallest stepsize before declaring underflow.
    pub dt_min: f64,
    /// Largest allowed stepsize.
    pub dt_max: f64,
    /// Trial budget per evaluation point.
    pub max_trials_per_point: usize,
    /// Evaluation-point budget for the whole span.
    pub max_points: usize,
}

impl AdaptiveOptions {
    /// Creates options with the given tolerance and generous defaults.
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        AdaptiveOptions {
            tolerance,
            dt_min: 1e-12,
            dt_max: f64::INFINITY,
            max_trials_per_point: 64,
            max_points: 1_000_000,
        }
    }
}

/// One accepted evaluation point of an adaptive solve.
#[derive(Clone, Debug)]
pub struct EvalPoint<S> {
    /// Time at the point (after the accepted step).
    pub t: f64,
    /// The accepted stepsize Δt that led here.
    pub dt: f64,
    /// State at `t`.
    pub y: S,
    /// Number of trials the stepsize search used at this point.
    pub trials: usize,
    /// The derivative `f(t, y)` at this point when the method provides it
    /// for free (the FSAL stage); enables cubic Hermite dense output.
    pub dy: Option<S>,
}

/// Aggregate statistics of a solve (the quantities profiled in paper §II-D
/// and plotted in Figs 11/13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total function (`f`) evaluations.
    pub nfe: usize,
    /// Accepted trials (= number of evaluation points).
    pub accepted: usize,
    /// Rejected trials.
    pub rejected: usize,
}

impl SolveStats {
    /// Total trials: accepted + rejected (the paper's `n_try · n_eval`).
    pub fn total_trials(&self) -> usize {
        self.accepted + self.rejected
    }
}

/// The result of a solve: the initial condition followed by every accepted
/// evaluation point, plus statistics.
#[derive(Clone, Debug)]
pub struct Solution<S> {
    /// Initial time.
    pub t0: f64,
    /// Initial state.
    pub y0: S,
    /// Accepted evaluation points in time order.
    pub points: Vec<EvalPoint<S>>,
    /// Solve statistics.
    pub stats: SolveStats,
}

impl<S: StateOps> Solution<S> {
    /// The state at the final time.
    pub fn final_state(&self) -> &S {
        self.points.last().map(|p| &p.y).unwrap_or(&self.y0)
    }

    /// The final time reached.
    pub fn final_time(&self) -> f64 {
        self.points.last().map(|p| p.t).unwrap_or(self.t0)
    }

    /// Number of evaluation points (`n_eval` in the paper's complexity
    /// analysis).
    pub fn n_eval(&self) -> usize {
        self.points.len()
    }

    /// Linear interpolation of the state at time `t` between stored points.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside the solved span.
    pub fn sample(&self, t: f64) -> S {
        let t_end = self.final_time();
        let (lo, hi) = if self.t0 <= t_end {
            (self.t0, t_end)
        } else {
            (t_end, self.t0)
        };
        assert!(
            t >= lo - 1e-9 && t <= hi + 1e-9,
            "sample time {t} outside span [{lo}, {hi}]"
        );
        let mut prev_t = self.t0;
        let mut prev_y = &self.y0;
        for p in &self.points {
            let (a, b) = if prev_t <= p.t {
                (prev_t, p.t)
            } else {
                (p.t, prev_t)
            };
            if t >= a - 1e-12 && t <= b + 1e-12 {
                let span = p.t - prev_t;
                let w = if span.abs() < 1e-300 {
                    0.0
                } else {
                    (t - prev_t) / span
                };
                let mut y = prev_y.clone();
                y.scale_mut(1.0 - w);
                y.axpy(w, &p.y);
                return y;
            }
            prev_t = p.t;
            prev_y = &p.y;
        }
        self.final_state().clone()
    }

    /// Cubic Hermite interpolation at time `t`, using the stored FSAL
    /// derivatives when both interval endpoints carry one; falls back to
    /// [`Solution::sample`] (linear) otherwise. One to two orders of
    /// magnitude more accurate than linear sampling between adaptive
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside the solved span.
    pub fn sample_hermite(&self, t: f64) -> S {
        let mut prev_t = self.t0;
        let mut prev: Option<&EvalPoint<S>> = None;
        for p in &self.points {
            if t >= prev_t - 1e-12 && t <= p.t + 1e-12 {
                let (y0, d0) = match prev {
                    Some(q) => (&q.y, q.dy.as_ref()),
                    None => (&self.y0, None),
                };
                if let (Some(d0), Some(_)) = (d0, p.dy.as_ref()) {
                    let h = p.t - prev_t;
                    if h.abs() < 1e-300 {
                        return p.y.clone();
                    }
                    let s = (t - prev_t) / h;
                    // Hermite basis: h00 y0 + h10 h d0 + h01 y1 + h11 h d1.
                    let s2 = s * s;
                    let s3 = s2 * s;
                    let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
                    let h10 = s3 - 2.0 * s2 + s;
                    let h01 = -2.0 * s3 + 3.0 * s2;
                    let h11 = s3 - s2;
                    let mut out = y0.clone();
                    out.scale_mut(h00);
                    out.axpy(h10 * h, d0);
                    out.axpy(h01, &p.y);
                    out.axpy(h11 * h, p.dy.as_ref().expect("checked"));
                    return out;
                }
                return self.sample(t);
            }
            prev_t = p.t;
            prev = Some(p);
        }
        self.sample(t)
    }
}

/// Integrates with a fixed number of equal steps (no stepsize search) —
/// what a ResNet-style discrete network or a fixed-grid integrator does.
///
/// # Panics
///
/// Panics if `n_steps` is zero.
pub fn solve_fixed<S: StateOps>(
    mut f: impl FnMut(f64, &S) -> S,
    t0: f64,
    t1: f64,
    y0: S,
    tableau: &ButcherTableau,
    n_steps: usize,
) -> Solution<S> {
    assert!(n_steps > 0, "n_steps must be positive");
    let h = (t1 - t0) / n_steps as f64;
    let mut points = Vec::with_capacity(n_steps);
    let mut y = y0.clone();
    let mut t = t0;
    let mut nfe = 0;
    let mut fsal: Option<S> = None;
    // One buffer pool for the whole solve: spent stages and superseded
    // states feed the next step's temporaries instead of the allocator.
    let mut scratch = StepScratch::new();
    for _ in 0..n_steps {
        let out = rk_step_with(tableau, &mut f, t, h.abs(), &y, fsal.take(), &mut scratch);
        nfe += out.nfe;
        let prev_y = std::mem::replace(&mut y, out.y_next);
        scratch.recycle([prev_y]);
        scratch.recycle(out.error);
        let dy = if tableau.is_fsal() {
            let mut stages = out.stages;
            let last = stages.pop();
            scratch.recycle(stages);
            fsal = last.clone();
            last
        } else {
            scratch.recycle(out.stages);
            None
        };
        t += h;
        points.push(EvalPoint {
            t,
            dt: h,
            y: y.clone(),
            trials: 1,
            dy,
        });
    }
    Solution {
        t0,
        y0,
        points,
        stats: SolveStats {
            nfe,
            accepted: n_steps,
            rejected: 0,
        },
    }
}

/// Integrates `t0 → t1` with iterative stepsize search (paper §II-B): at
/// each evaluation point, trial integrations are repeated under the
/// [`StepController`]'s policy until `‖e‖₂ ≤ ε`.
///
/// Only forward spans (`t1 > t0`) are supported; integrate the reversed
/// ODE for backward passes (as the adjoint method does).
///
/// # Errors
///
/// Returns [`SolveError`] on stepsize underflow, exhausted budgets, or
/// non-finite states.
pub fn solve_adaptive<S: StateOps>(
    mut f: impl FnMut(f64, &S) -> S,
    t0: f64,
    t1: f64,
    y0: S,
    tableau: &ButcherTableau,
    controller: &mut dyn StepController,
    opts: &AdaptiveOptions,
) -> Result<Solution<S>, SolveError> {
    assert!(
        tableau.is_adaptive(),
        "adaptive solve requires an embedded-pair method, got {}",
        tableau.name()
    );
    assert!(t1 > t0, "solve_adaptive requires t1 > t0");
    let mut y = y0.clone();
    let mut t = t0;
    let mut points = Vec::new();
    let mut stats = SolveStats::default();
    let mut dt_hint: Option<f64> = None;
    let mut fsal: Option<S> = None;
    // One buffer pool for the whole solve: rejected trials' states feed
    // the retries instead of the allocator — the stepsize search is the
    // solver's hot loop and used to clone the full state every trial.
    let mut scratch = StepScratch::new();

    while t < t1 - 1e-12 {
        if points.len() >= opts.max_points {
            return Err(SolveError::MaxStepsExceeded);
        }
        let remaining = t1 - t;
        let mut dt = controller
            .begin_point(dt_hint, remaining)
            .clamp(opts.dt_min, opts.dt_max)
            .min(remaining);
        let mut trials = 0;
        loop {
            trials += 1;
            if trials > opts.max_trials_per_point {
                return Err(SolveError::StepsizeUnderflow);
            }
            // A truncated-to-remaining step invalidates the FSAL stage only
            // if dt changed vs the step it came from; recompute when absent.
            let out = rk_step_with(tableau, &mut f, t, dt, &y, fsal.take(), &mut scratch);
            stats.nfe += out.nfe;
            if !out.y_next.is_finite() {
                return Err(SolveError::NonFiniteState);
            }
            let err = out.error_norm();
            let ratio = err / opts.tolerance;
            match controller.on_trial(dt, ratio) {
                TrialDecision::Accept { dt_next_hint } => {
                    stats.accepted += 1;
                    t += dt;
                    let prev_y = std::mem::replace(&mut y, out.y_next);
                    scratch.recycle([prev_y]);
                    scratch.recycle(out.error);
                    let dy = if tableau.is_fsal() {
                        let mut stages = out.stages;
                        let last = stages.pop();
                        scratch.recycle(stages);
                        fsal = last.clone();
                        last
                    } else {
                        scratch.recycle(out.stages);
                        None
                    };
                    points.push(EvalPoint {
                        t,
                        dt,
                        y: y.clone(),
                        trials,
                        dy,
                    });
                    dt_hint = Some(dt_next_hint.clamp(opts.dt_min, opts.dt_max));
                    controller.end_point(trials == 1);
                    break;
                }
                TrialDecision::Reject { dt_retry } => {
                    stats.rejected += 1;
                    scratch.recycle([out.y_next]);
                    scratch.recycle(out.error);
                    scratch.recycle(out.stages);
                    dt = dt_retry.max(opts.dt_min);
                    if dt <= opts.dt_min && dt_retry < opts.dt_min {
                        return Err(SolveError::StepsizeUnderflow);
                    }
                }
            }
        }
    }
    Ok(Solution {
        t0,
        y0,
        points,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{
        ClassicController, ConventionalSearchController, SlopeAdaptiveController,
    };

    fn decay(_t: f64, y: &[f64]) -> Vec<f64> {
        vec![-y[0]]
    }

    /// Harmonic oscillator: y'' = -y as a first-order system.
    fn oscillator(_t: f64, y: &[f64]) -> Vec<f64> {
        vec![y[1], -y[0]]
    }

    #[test]
    fn fixed_rk4_accuracy() {
        let sol = solve_fixed(
            |t, y| decay(t, y),
            0.0,
            2.0,
            vec![1.0],
            &ButcherTableau::rk4(),
            100,
        );
        assert!((sol.final_state()[0] - (-2.0f64).exp()).abs() < 1e-9);
        assert_eq!(sol.n_eval(), 100);
    }

    #[test]
    fn fixed_euler_first_order_error() {
        let e = |n: usize| {
            let sol = solve_fixed(
                |t, y| decay(t, y),
                0.0,
                1.0,
                vec![1.0],
                &ButcherTableau::euler(),
                n,
            );
            (sol.final_state()[0] - (-1.0f64).exp()).abs()
        };
        let e100 = e(100);
        let e200 = e(200);
        let ratio = e100 / e200;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "Euler global order 1, ratio {ratio}"
        );
    }

    #[test]
    fn adaptive_meets_tolerance() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        for tol in [1e-4, 1e-6, 1e-8] {
            let mut ctl = ClassicController::new(tab.error_order());
            let sol = solve_adaptive(
                |t, y| decay(t, y),
                0.0,
                3.0,
                vec![1.0],
                &tab,
                &mut ctl,
                &AdaptiveOptions::new(tol),
            )
            .unwrap();
            let err = (sol.final_state()[0] - (-3.0f64).exp()).abs();
            // Global error ~ n_points * tol; allow generous headroom.
            assert!(
                err < tol * sol.n_eval() as f64 * 10.0,
                "tol {tol}: err {err} over {} points",
                sol.n_eval()
            );
        }
    }

    #[test]
    fn tighter_tolerance_means_more_points() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let run = |tol: f64| {
            let mut ctl = ClassicController::new(tab.error_order());
            solve_adaptive(
                |t, y| oscillator(t, y),
                0.0,
                10.0,
                vec![1.0, 0.0],
                &tab,
                &mut ctl,
                &AdaptiveOptions::new(tol),
            )
            .unwrap()
            .n_eval()
        };
        assert!(run(1e-8) > run(1e-4));
    }

    #[test]
    fn oscillator_energy_preserved_at_tight_tolerance() {
        let tab = ButcherTableau::dopri5();
        let mut ctl = ClassicController::new(tab.error_order());
        let sol = solve_adaptive(
            |t, y| oscillator(t, y),
            0.0,
            2.0 * std::f64::consts::PI,
            vec![1.0, 0.0],
            &tab,
            &mut ctl,
            &AdaptiveOptions::new(1e-10),
        )
        .unwrap();
        let y = sol.final_state();
        assert!((y[0] - 1.0).abs() < 1e-6, "cos(2π)=1, got {}", y[0]);
        assert!(y[1].abs() < 1e-6, "sin'(2π)=0, got {}", y[1]);
    }

    #[test]
    fn slope_adaptive_reduces_trials_on_decaying_slope() {
        // On e^{-t}, the slope keeps shrinking, so the optimal dt keeps
        // growing. The conventional search (paper §II-B) can never grow its
        // stepsize; the slope-adaptive β⁺ boost can, so it needs far fewer
        // evaluation points and trials — the Fig 11 mechanism.
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let opts = AdaptiveOptions::new(1e-7);
        let mut conventional = ConventionalSearchController::new(0.01, 0.5);
        let base = solve_adaptive(
            |t, y| decay(t, y),
            0.0,
            20.0,
            vec![1.0],
            &tab,
            &mut conventional,
            &opts,
        )
        .unwrap()
        .stats;
        let mut slope = SlopeAdaptiveController::new(3, 3).with_default_dt(0.01);
        let fast = solve_adaptive(
            |t, y| decay(t, y),
            0.0,
            20.0,
            vec![1.0],
            &tab,
            &mut slope,
            &opts,
        )
        .unwrap()
        .stats;
        assert!(
            fast.total_trials() < base.total_trials(),
            "slope-adaptive {} vs conventional {}",
            fast.total_trials(),
            base.total_trials()
        );
    }

    #[test]
    fn diverging_ode_detected() {
        // y' = y^2 from y(0)=1 blows up at t=1.
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut ctl = ClassicController::new(tab.error_order());
        let mut opts = AdaptiveOptions::new(1e-6);
        opts.max_points = 100_000;
        let res = solve_adaptive(
            |_, y: &Vec<f64>| vec![y[0] * y[0]],
            0.0,
            2.0,
            vec![1.0],
            &tab,
            &mut ctl,
            &opts,
        );
        assert!(res.is_err(), "integration through a blow-up must fail");
    }

    #[test]
    fn sample_interpolates() {
        let sol = solve_fixed(
            |t, y| decay(t, y),
            0.0,
            1.0,
            vec![1.0],
            &ButcherTableau::rk4(),
            10,
        );
        let mid = sol.sample(0.55);
        assert!((mid[0] - (-0.55f64).exp()).abs() < 1e-3);
        let start = sol.sample(0.0);
        assert!((start[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hermite_sampling_beats_linear() {
        // RK23 is FSAL: derivatives are stored for free, so Hermite dense
        // output should be far more accurate than linear interpolation at
        // mid-step sample times.
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let sol = solve_fixed(|t, y| decay(t, y), 0.0, 2.0, vec![1.0], &tab, 10);
        // Skip the first interval (no stored derivative at y0 -> linear
        // fallback); compare mid-interval samples where interpolation
        // error, not the solver's global error, differentiates the two.
        let mut err_lin = 0.0f64;
        let mut err_herm = 0.0f64;
        for i in 0..9 {
            let t = 0.3 + i as f64 * 0.2; // midpoints of intervals 2..10
            let exact = (-t).exp();
            err_lin += (sol.sample(t)[0] - exact).abs();
            err_herm += (sol.sample_hermite(t)[0] - exact).abs();
        }
        assert!(
            err_herm < err_lin / 10.0,
            "hermite {err_herm:.2e} vs linear {err_lin:.2e}"
        );
    }

    #[test]
    fn hermite_falls_back_without_derivatives() {
        // RK4 is not FSAL: no stored derivatives, hermite == linear.
        let sol = solve_fixed(
            |t, y| decay(t, y),
            0.0,
            1.0,
            vec![1.0],
            &ButcherTableau::rk4(),
            5,
        );
        for i in 0..10 {
            let t = i as f64 * 0.1;
            assert_eq!(sol.sample(t)[0], sol.sample_hermite(t)[0]);
        }
    }

    #[test]
    fn hermite_interpolates_through_points() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut ctl = ClassicController::new(tab.error_order());
        let sol = solve_adaptive(
            |t, y| oscillator(t, y),
            0.0,
            3.0,
            vec![1.0, 0.0],
            &tab,
            &mut ctl,
            &AdaptiveOptions::new(1e-6),
        )
        .unwrap();
        // At stored points, interpolation reproduces the stored state.
        for p in sol.points.iter().step_by(3) {
            let s = sol.sample_hermite(p.t);
            assert!((s[0] - p.y[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_trials_consistent_with_points() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut ctl = ClassicController::new(tab.error_order());
        let sol = solve_adaptive(
            |t, y| oscillator(t, y),
            0.0,
            5.0,
            vec![1.0, 0.0],
            &tab,
            &mut ctl,
            &AdaptiveOptions::new(1e-6),
        )
        .unwrap();
        let per_point: usize = sol.points.iter().map(|p| p.trials).sum();
        assert_eq!(per_point, sol.stats.total_trials());
        assert_eq!(sol.stats.accepted, sol.n_eval());
    }
}
