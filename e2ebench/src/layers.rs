//! Per-layer probes for the traced run: the adaptive solve
//! (`node.inference`), one evaluation of the embedded network
//! (`tensor.network`) and the tensor kernels under it, each timed around
//! its public entry point. Kernel flops and bytes are computed from the
//! tensor shapes, not measured.

use crate::report::{m, pct, Metric};
use enode_node::inference::{forward_model, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_tensor::network::Op;
use enode_tensor::{init, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe measures for, and the fewest blocks it times.
const PROBE: Duration = Duration::from_millis(250);
const PROBE_BLOCKS: usize = 5;

/// Calls `f` in blocks of about a millisecond until `PROBE` has passed
/// and `PROBE_BLOCKS` blocks ran; returns the median per-call time of the
/// blocks in ns.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as u64;
    let per_block = (1_000_000 / once).clamp(1, 10_000) as usize;
    let start = Instant::now();
    let mut blocks = Vec::new();
    while blocks.len() < PROBE_BLOCKS || start.elapsed() < PROBE {
        let t = Instant::now();
        for _ in 0..per_block {
            f();
        }
        blocks.push(t.elapsed().as_nanos() as u64 / per_block as u64);
    }
    pct(&blocks, 50, 1.0)
}

/// Time of one evaluation of the first layer's embedded network at the
/// model's state shape `x`, in µs.
fn network_eval_us(model: &NodeModel, x: &Tensor) -> f64 {
    let net = &model.layers()[0];
    per_call_ns(|| {
        black_box(net.eval(0.5, black_box(x)));
    }) / 1e3
}

/// `node.inference`: direct `forward_model` calls on each input (at least
/// one pass over them), with the solver's own counts.
pub fn inference(model: &NodeModel, inputs: &[Tensor], opts: &NodeSolveOptions) -> Vec<Metric> {
    let (mut calls_ns, mut nfe, mut trials, mut points) = (Vec::new(), 0usize, 0usize, 0usize);
    let start = Instant::now();
    while calls_ns.len() < inputs.len() || start.elapsed() < PROBE {
        let x = &inputs[calls_ns.len() % inputs.len()];
        let t = Instant::now();
        let (y, trace) = forward_model(model, x, opts).expect("probe solve");
        calls_ns.push(t.elapsed().as_nanos() as u64);
        black_box(y);
        let s = trace.total_stats();
        (nfe, trials, points) = (nfe + s.nfe, trials + s.trials, points + s.points);
    }
    let n = calls_ns.len() as f64;
    let us_per_nfe = calls_ns.iter().sum::<u64>() as f64 / 1e3 / nfe as f64;
    let eval_us = network_eval_us(model, &inputs[0]);
    vec![
        m("inference.forward_us_p50", pct(&calls_ns, 50, 1e3), "us"),
        m("inference.us_per_nfe", us_per_nfe, "us"),
        m("inference.overhead_us_per_nfe", us_per_nfe - eval_us, "us"),
        m("inference.nfe_per_request", nfe as f64 / n, "count"),
        m("inference.trials_per_request", trials as f64 / n, "count"),
        m(
            "inference.accepted_share",
            points as f64 / trials as f64,
            "ratio",
        ),
        m("network.eval_us", eval_us, "us"),
    ]
}

/// Kernel probes at the model's state shape `x`: the first dense op (the
/// classifier head's when the embedded network has none) and the first
/// convolution, fused with its epilogue exactly as `Network::eval` runs
/// it. Convolution backward is probed only where the workload trains. A
/// kernel the workload never runs reads 0.
pub fn kernels(model: &NodeModel, x: &Tensor, backward: bool) -> Vec<Metric> {
    let ops = model.layers()[0].ops();
    let n = x.shape()[0];
    let mut out = Vec::new();

    let dense = ops
        .iter()
        .find_map(|op| match op {
            Op::Dense(d) => Some(d),
            _ => None,
        })
        .or_else(|| model.head().map(|h| h.dense()));
    let (mut us, mut flops, mut bytes) = (0.0, 0.0, 0.0);
    if let Some(d) = dense {
        let (i, o) = (d.in_features(), d.out_features());
        let xin = init::uniform(&[n, i], -1.0, 1.0, 5);
        us = per_call_ns(|| {
            black_box(d.forward(black_box(&xin)));
        }) / 1e3;
        flops = 2.0 * d.macs(n) as f64;
        bytes = 4.0 * (n * i + i * o + o + n * o) as f64;
    }
    out.extend([
        m("kernel.dense_fwd_us", us, "us"),
        m("kernel.dense_fwd_flops", flops, "flop"),
        m("kernel.dense_fwd_bytes", bytes, "B"),
    ]);

    let conv = ops.iter().enumerate().find_map(|(i, op)| match op {
        Op::Conv2d(c) => Some((i, c)),
        _ => None,
    });
    let mut probes = [(0.0, 0.0, 0.0); 3];
    if let Some((i, c)) = conv {
        let gn = match ops.get(i + 1) {
            Some(Op::GroupNorm(g)) => Some(g),
            _ => None,
        };
        let act = ops[i + 1 + usize::from(gn.is_some())..]
            .first()
            .and_then(|op| match op {
                Op::Activation(a) => Some(*a),
                _ => None,
            });
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let (ci, co, k) = (c.in_channels(), c.out_channels(), c.kernel());
        let flops = 2.0 * c.macs(n, h, w) as f64;
        let (x_el, y_el, w_el) = (n * ci * h * w, n * co * h * w, co * ci * k * k);
        let dy = init::uniform(&[n, co, h, w], -1.0, 1.0, 6);
        probes[0] = (
            per_call_ns(|| {
                black_box(c.forward_fused(black_box(x), gn, act));
            }),
            flops,
            4.0 * (x_el + w_el + co + y_el) as f64,
        );
        if backward {
            probes[1] = (
                per_call_ns(|| {
                    black_box(c.backward_input(black_box(&dy)));
                }),
                flops,
                4.0 * (y_el + w_el + x_el) as f64,
            );
            probes[2] = (
                per_call_ns(|| {
                    black_box(c.backward_params(black_box(x), black_box(&dy)));
                }),
                flops,
                4.0 * (x_el + y_el + w_el + co) as f64,
            );
        }
    }
    let names = [
        (
            "kernel.conv_fwd_us",
            "kernel.conv_fwd_flops",
            "kernel.conv_fwd_bytes",
        ),
        (
            "kernel.conv_bwd_input_us",
            "kernel.conv_bwd_input_flops",
            "kernel.conv_bwd_input_bytes",
        ),
        (
            "kernel.conv_bwd_params_us",
            "kernel.conv_bwd_params_flops",
            "kernel.conv_bwd_params_bytes",
        ),
    ];
    for ((t, f, b), (ns, flops, bytes)) in names.into_iter().zip(probes) {
        out.extend([m(t, ns / 1e3, "us"), m(f, flops, "flop"), m(b, bytes, "B")]);
    }
    out
}
