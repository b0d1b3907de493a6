//! Micro-benchmarks of the integrator substrate: single RK steps,
//! adaptive solves under each controller, and the NODE forward pass (the
//! kernel behind Figs 11/13/17).
//!
//! ```sh
//! cargo bench -p enode-bench --bench integrators
//! ```

use enode_bench::micro::Micro;
use enode_node::inference::{forward_layer, ControllerKind, NodeSolveOptions};
use enode_ode::controller::{ClassicController, ConventionalSearchController};
use enode_ode::solver::{solve_adaptive, AdaptiveOptions};
use enode_ode::step::rk_step;
use enode_ode::tableau::ButcherTableau;
use enode_tensor::dense::Dense;
use enode_tensor::init;
use enode_tensor::network::{Network, Op};
use std::hint::black_box;

fn lv(_t: f64, y: &[f64]) -> Vec<f64> {
    vec![1.5 * y[0] - y[0] * y[1], y[0] * y[1] - 3.0 * y[1]]
}

fn rk_steps(m: &Micro) {
    for tab in [
        ButcherTableau::euler(),
        ButcherTableau::rk23_bogacki_shampine(),
        ButcherTableau::dopri5(),
    ] {
        let y0 = vec![1.0, 1.0];
        m.bench(&format!("rk_step_{}_lotka_volterra", tab.name()), || {
            rk_step(
                &tab,
                &mut |t, y: &Vec<f64>| lv(t, y),
                0.0,
                0.05,
                black_box(&y0),
                None,
            )
        });
    }
}

fn adaptive_solves(m: &Micro) {
    let tab = ButcherTableau::rk23_bogacki_shampine();
    m.bench("solve_classic_lv_tol1e-7", || {
        let mut ctl = ClassicController::new(tab.error_order());
        solve_adaptive(
            |t, y| lv(t, y),
            0.0,
            5.0,
            vec![1.0, 1.0],
            &tab,
            &mut ctl,
            &AdaptiveOptions::new(1e-7),
        )
        .unwrap()
    });
    m.bench("solve_conventional_lv_tol1e-7", || {
        let mut ctl = ConventionalSearchController::new(0.1, 0.5);
        solve_adaptive(
            |t, y| lv(t, y),
            0.0,
            5.0,
            vec![1.0, 1.0],
            &tab,
            &mut ctl,
            &AdaptiveOptions::new(1e-7),
        )
        .unwrap()
    });
}

fn node_forward(m: &Micro) {
    let f = Network::new(vec![
        Op::ConcatTime,
        Op::dense(Dense::new_seeded(3, 16, 1)),
        Op::tanh(),
        Op::dense(Dense::new_seeded(16, 2, 2)),
    ]);
    let y0 = init::uniform(&[4, 2], -0.5, 0.5, 3);
    for (name, kind) in [
        (
            "conventional",
            ControllerKind::ConventionalConstantInit { shrink: 0.5 },
        ),
        (
            "slope_adaptive",
            ControllerKind::SlopeAdaptive { s_acc: 3, s_rej: 3 },
        ),
    ] {
        let opts = NodeSolveOptions::new(1e-5).with_controller(kind);
        m.bench(&format!("node_forward_layer_{name}"), || {
            forward_layer(&f, black_box(&y0), (0.0, 1.0), &opts).unwrap()
        });
    }
}

fn main() {
    let m = Micro::default();
    rk_steps(&m);
    adaptive_solves(&m);
    node_forward(&m);
}
