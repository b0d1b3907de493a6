//! Canonical test problems with analytic solutions.
//!
//! Used by the solver test suites and by the controller experiments: the
//! slope-adaptive stepsize search (§VII-A) pays off exactly when the slope
//! of the solution varies over time, so the problems here span constant,
//! decaying and oscillating slope regimes.

/// A scalar/vector ODE test problem with a known exact solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// `y' = −λ y`, solution `y0·e^{−λt}` (slope decays).
    ExponentialDecay,
    /// `y'' = −ω² y` as a 2-D system, solution `cos(ωt)` (slope oscillates).
    HarmonicOscillator,
    /// `y' = r·y·(1 − y)`, logistic growth (slope rises then falls).
    Logistic,
    /// `y' = cos(t²)·t` — a chirp whose slope varies faster and faster,
    /// the adversarial case for fixed-scaling stepsize search.
    Chirp,
}

impl Problem {
    /// Dimension of the state vector.
    pub fn dim(self) -> usize {
        match self {
            Problem::HarmonicOscillator => 2,
            _ => 1,
        }
    }

    /// The standard initial state.
    pub fn initial_state(self) -> Vec<f64> {
        match self {
            Problem::ExponentialDecay => vec![1.0],
            Problem::HarmonicOscillator => vec![1.0, 0.0],
            Problem::Logistic => vec![0.1],
            Problem::Chirp => vec![0.0],
        }
    }

    /// The right-hand side `f(t, y)`.
    pub fn f(self, t: f64, y: &[f64]) -> Vec<f64> {
        match self {
            Problem::ExponentialDecay => vec![-y[0]],
            Problem::HarmonicOscillator => vec![y[1], -y[0]],
            Problem::Logistic => vec![2.0 * y[0] * (1.0 - y[0])],
            Problem::Chirp => vec![(t * t).cos() * t],
        }
    }

    /// The exact solution at time `t` (from the standard initial state).
    pub fn exact(self, t: f64) -> Vec<f64> {
        match self {
            Problem::ExponentialDecay => vec![(-t).exp()],
            Problem::HarmonicOscillator => vec![t.cos(), -t.sin()],
            Problem::Logistic => {
                // y(t) = 1 / (1 + (1/y0 - 1) e^{-rt}), y0 = 0.1, r = 2.
                vec![1.0 / (1.0 + 9.0 * (-2.0 * t).exp())]
            }
            Problem::Chirp => {
                // ∫₀ᵗ s·cos(s²) ds = sin(t²)/2.
                vec![(t * t).sin() / 2.0]
            }
        }
    }

    /// All problems.
    pub fn all() -> [Problem; 4] {
        [
            Problem::ExponentialDecay,
            Problem::HarmonicOscillator,
            Problem::Logistic,
            Problem::Chirp,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClassicController;
    use crate::solver::{solve_adaptive, AdaptiveOptions};
    use crate::tableau::ButcherTableau;

    #[test]
    fn exact_solutions_satisfy_ode() {
        // d/dt exact(t) ≈ f(t, exact(t)) by central differences.
        let eps = 1e-5;
        for p in Problem::all() {
            for &t in &[0.3, 1.1, 2.7] {
                let lo = p.exact(t - eps);
                let hi = p.exact(t + eps);
                let f = p.f(t, &p.exact(t));
                for i in 0..p.dim() {
                    let fd = (hi[i] - lo[i]) / (2.0 * eps);
                    assert!(
                        (fd - f[i]).abs() < 1e-4 * f[i].abs().max(1.0),
                        "{p:?} component {i} at t={t}: fd {fd} vs f {}",
                        f[i]
                    );
                }
            }
        }
    }

    #[test]
    fn initial_states_match_exact_at_zero() {
        for p in Problem::all() {
            let y0 = p.initial_state();
            let e0 = p.exact(0.0);
            for i in 0..p.dim() {
                assert!((y0[i] - e0[i]).abs() < 1e-12, "{p:?}");
            }
        }
    }

    #[test]
    fn adaptive_solver_matches_exact_on_all_problems() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        for p in Problem::all() {
            let mut ctl = ClassicController::new(tab.error_order());
            let sol = solve_adaptive(
                |t, y: &Vec<f64>| p.f(t, y),
                0.0,
                3.0,
                p.initial_state(),
                &tab,
                &mut ctl,
                &AdaptiveOptions::new(1e-8),
            )
            .unwrap();
            let exact = p.exact(3.0);
            assert_eq!(exact.len(), p.dim());
            for (i, (got, want)) in sol.final_state().iter().zip(&exact).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "{p:?} component {i}: {got} vs {want}"
                );
            }
        }
    }
}
