//! The serving workloads, `serve_dyn` and `serve_img`: a wall-clock
//! [`Server`] under the shipped `edge_default` policy, driven by one
//! generator thread.
//!
//! A run has a latency phase (open loop, Poisson arrivals at the policy's
//! design rate, each request timed from its scheduled send) and a
//! capacity phase (closed loop with a fixed number of requests in
//! flight). Open-loop throughput equals the offered rate, so capacity is
//! measured closed-loop instead.
//!
//! The traced run replays the same schedule through the server's pump
//! calls (`form_batch` / `solve_batch` / `deliver_batch`) on the same
//! wall clock and times each call from outside.

use crate::layers;
use crate::report::{
    complete, context, host_metrics, m, mean, min_samples_for_tail, pct, peak_rss_mb, ratio,
    Outcome, END_TO_END, PER_LAYER, QUIET,
};
use crate::Args;
use enode_node::eval::forward_model_batched_with;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{
    Clock, CostModel, Priority, Rejected, Request, Response, ServeConfig, Server, Ticket,
    ToleranceClass,
};
use enode_tensor::rng::Rng64;
use enode_tensor::Tensor;
use enode_workloads::images::SyntheticImages;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Which serving workload a run drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `dynamic_system(2,16,2,42)` on inputs uniform in [-1,1]².
    Dyn,
    /// The edge image classifier on 4×16×16 `cifar_like` images.
    Img,
}

/// Distinct inputs a run draws its requests from. Bounded so that every
/// response can be checked against a direct solve without re-solving
/// each request; large enough that the pool's mean solve cost barely
/// moves with the seed.
const POOL_DYN: usize = 256;
const POOL_IMG: usize = 64;

/// Arrivals per latency block (1 s at the design rate): the fewest whose
/// p95 has 10 samples beyond it, so a run has as many blocks as it can.
const LATENCY_BLOCK: usize = 200;

/// Blocks the capacity phase is cut into.
const CAPACITY_BLOCKS: usize = 32;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Seed-stream salts, so arrival times, request inputs and the closed
/// loop's input picks are independent streams of one seed.
const STREAM_ARRIVALS: u64 = 0xA11C_E5ED;
const STREAM_CLOSED: u64 = 0xC105_ED00;

impl Kind {
    fn model(self) -> NodeModel {
        match self {
            Kind::Dyn => NodeModel::dynamic_system(2, 16, 2, 42),
            Kind::Img => NodeModel::image_classifier(4, 2, 2, 10, 9),
        }
    }

    fn pool(self, seed: u64) -> Vec<Tensor> {
        match self {
            Kind::Dyn => {
                let mut rng = Rng64::seed_from_u64(seed);
                (0..POOL_DYN)
                    .map(|_| {
                        let xy = vec![rng.gen_range_f32(-1.0, 1.0), rng.gen_range_f32(-1.0, 1.0)];
                        Tensor::from_vec(xy, &[1, 2])
                    })
                    .collect()
            }
            Kind::Img => {
                let batch = SyntheticImages::cifar_like(4, seed).batch(POOL_IMG, seed ^ 1);
                let x = &batch.inputs;
                let len = x.len() / POOL_IMG;
                let mut shape = x.shape().to_vec();
                shape[0] = 1;
                x.data()
                    .chunks_exact(len)
                    .map(|c| Tensor::from_vec(c.to_vec(), &shape))
                    .collect()
            }
        }
    }

    /// Requests kept in flight in the capacity phase: two full batches
    /// for the cheap model; one for the image model, whose second batch
    /// would eat the deadline slack and push requests to tier 1.
    fn closed_in_flight(self, cfg: &ServeConfig) -> usize {
        match self {
            Kind::Dyn => 2 * cfg.max_batch,
            Kind::Img => cfg.max_batch,
        }
    }
}

fn base_opts() -> NodeSolveOptions {
    NodeSolveOptions::new(1e-4)
}

/// Expected responses: the bits of a direct solve per (input, tier),
/// tier 0 precomputed in set-up, other tiers solved on first use.
struct References {
    model: NodeModel,
    cfg: ServeConfig,
    bits: HashMap<(usize, usize), Vec<u32>>,
}

impl References {
    fn new(model: NodeModel, cfg: ServeConfig, pool: &[Tensor]) -> Self {
        let mut refs = References {
            model,
            cfg,
            bits: HashMap::new(),
        };
        for i in 0..pool.len() {
            refs.expected(pool, i, 0);
        }
        refs
    }

    fn expected(&mut self, pool: &[Tensor], input: usize, tier: usize) -> &[u32] {
        let (model, cfg) = (&self.model, &self.cfg);
        self.bits.entry((input, tier)).or_insert_with(|| {
            let ovr = cfg.tiers[tier].solve_override(ToleranceClass::Standard);
            let (y, _) = forward_model_batched_with(model, &pool[input], &base_opts(), ovr)
                .expect("direct reference solve");
            y.data().iter().map(|v| v.to_bits()).collect()
        })
    }

    fn matches(&mut self, pool: &[Tensor], input: usize, resp: &Response) -> bool {
        let got: Vec<u32> = resp.output.data().iter().map(|v| v.to_bits()).collect();
        self.expected(pool, input, resp.tier) == got.as_slice()
    }
}

/// One scheduled send of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the phase start (µs).
    pub at_us: u64,
    /// Index into the input pool.
    pub input: usize,
}

/// Poisson arrivals at `rate_rps` over `span_us`, extended if needed to
/// `min_count` arrivals. Depends only on its arguments.
pub fn poisson_schedule(
    seed: u64,
    rate_rps: f64,
    span_us: u64,
    min_count: usize,
    pool: usize,
) -> Vec<Arrival> {
    let mut rng = Rng64::seed_from_u64(seed ^ STREAM_ARRIVALS);
    let mut t_us = 0.0f64;
    let mut out = Vec::new();
    loop {
        t_us += -(1.0 - rng.gen_f64()).ln() / rate_rps * 1e6;
        if t_us >= span_us as f64 && out.len() >= min_count {
            return out;
        }
        out.push(Arrival {
            at_us: t_us as u64,
            input: rng.gen_range_usize(0, pool),
        });
    }
}

/// A request the generator sent, resolved.
struct Done {
    input: usize,
    due_us: u64,
    deadline_us: u64,
    result: Result<Response, Rejected>,
}

impl Done {
    fn latency_ns(&self) -> Option<u64> {
        self.result
            .as_ref()
            .ok()
            .map(|r| r.completed_us.saturating_sub(self.due_us) * 1000)
    }
}

fn request(x: &Tensor, deadline_us: u64) -> Request {
    Request {
        input: x.clone(),
        deadline_us,
        tolerance_class: ToleranceClass::Standard,
        priority: Priority::Normal,
    }
}

fn sleep_until(clock: &Clock, due_us: u64) {
    let now = clock.now_us();
    if due_us > now {
        std::thread::sleep(Duration::from_micros(due_us - now));
    }
}

fn resolve(sent: Result<Ticket, Rejected>) -> Result<Response, Rejected> {
    sent.and_then(Ticket::wait)
}

/// Open loop: sends each arrival at its scheduled time whatever the
/// server is doing. Returns the resolved requests and how late (ns) the
/// generator sent each one.
fn open_loop(
    server: &Server,
    clock: &Clock,
    pool: &[Tensor],
    arrivals: &[Arrival],
) -> (Vec<Done>, Vec<u64>) {
    let slack = server.config().min_deadline_us;
    let t0 = clock.now_us() + 1_000;
    let mut late_ns = Vec::with_capacity(arrivals.len());
    let mut sent = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let due_us = t0 + a.at_us;
        sleep_until(clock, due_us);
        late_ns.push(clock.now_us().saturating_sub(due_us) * 1000);
        let ticket = server.submit(request(&pool[a.input], due_us + slack));
        sent.push((a.input, due_us, ticket));
    }
    let done = sent
        .into_iter()
        .map(|(input, due_us, t)| Done {
            input,
            due_us,
            deadline_us: due_us + slack,
            result: resolve(t),
        })
        .collect();
    (done, late_ns)
}

/// Closed loop: keeps `in_flight` requests outstanding for `span_us`,
/// sending the next request as soon as the oldest resolves, and tallies
/// each response as it resolves (so memory does not grow with the
/// count). Returns the completion times (µs), the most requests ever
/// outstanding, and the start time (µs).
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    server: &Server,
    clock: &Clock,
    pool: &[Tensor],
    refs: &mut References,
    tally: &mut Tally,
    seed: u64,
    in_flight: usize,
    span_us: u64,
) -> (Vec<u64>, usize, u64) {
    let slack = server.config().min_deadline_us;
    let mut rng = Rng64::seed_from_u64(seed ^ STREAM_CLOSED);
    let start = clock.now_us();
    let end = start + span_us;
    let mut send = |window: &mut VecDeque<_>| {
        let input = rng.gen_range_usize(0, pool.len());
        let now = clock.now_us();
        let t = server.submit(request(&pool[input], now + slack));
        window.push_back((input, now, t));
    };
    let mut window = VecDeque::with_capacity(in_flight);
    for _ in 0..in_flight {
        send(&mut window);
    }
    let mut most = window.len();
    let mut ends = Vec::new();
    while let Some((input, due_us, t)) = window.pop_front() {
        let done = Done {
            input,
            due_us,
            deadline_us: due_us + slack,
            result: resolve(t),
        };
        if let Ok(r) = &done.result {
            ends.push(r.completed_us);
        }
        tally.record(&done, refs, pool);
        if clock.now_us() < end {
            send(&mut window);
            most = most.max(window.len());
        }
    }
    (ends, most, start)
}

/// Each latency block's p50 and p95, reported at the quietest tenth
/// over blocks (ms). A block is `LATENCY_BLOCK` consecutive arrivals; a
/// request that was not answered counts as infinitely late, and a last
/// block shorter than `min_samples` is left out.
fn block_latency(done: &[Done], min_samples: usize) -> (f64, f64, usize) {
    let (mut p50, mut p95) = (Vec::new(), Vec::new());
    for block in done.chunks(LATENCY_BLOCK) {
        if block.len() >= min_samples {
            let ns: Vec<u64> = block
                .iter()
                .map(|d| d.latency_ns().unwrap_or(u64::MAX))
                .collect();
            p50.push(pct(&ns, 50, 1.0) as u64);
            p95.push(pct(&ns, 95, 1.0) as u64);
        }
    }
    (pct(&p50, QUIET, 1e6), pct(&p95, QUIET, 1e6), p50.len())
}

/// Completion rate (1/s) at the quietest tenth of `CAPACITY_BLOCKS`
/// blocks of consecutive responses, each block timed from the previous
/// block's last completion to its own. Blocks hold whole batches of
/// `batch` responses, so each spans a whole number of batch intervals.
fn block_capacity(mut ends: Vec<u64>, start_us: u64, batch: usize) -> (f64, usize) {
    ends.sort_unstable();
    let per_block = (ends.len() / CAPACITY_BLOCKS / batch).max(1) * batch;
    let mut prev = start_us;
    let mut ns_per_response = Vec::with_capacity(CAPACITY_BLOCKS);
    for block in ends.chunks_exact(per_block) {
        let last = block[per_block - 1];
        ns_per_response.push((last.saturating_sub(prev) * 1000 / per_block as u64).max(1));
        prev = last;
    }
    (1e9 / pct(&ns_per_response, QUIET, 1.0), per_block)
}

/// Tallies of resolved requests: successes, and each kind of miss.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    full_tier: u64,
    /// Responses whose bits differ from the direct solve.
    mismatched: u64,
    /// Answered after the deadline.
    late: u64,
    /// Refused at the door (queue full).
    rejected: u64,
    /// Shed in the queue (deadline expired).
    shed: u64,
    /// Any other failure.
    failed: u64,
}

impl Tally {
    fn record(&mut self, d: &Done, refs: &mut References, pool: &[Tensor]) {
        self.attempted += 1;
        let resp = match &d.result {
            Ok(resp) => resp,
            Err(Rejected::QueueFull { .. }) => return self.rejected += 1,
            Err(Rejected::DeadlineExpired { .. }) => return self.shed += 1,
            Err(_) => return self.failed += 1,
        };
        let bits_ok = refs.matches(pool, d.input, resp);
        self.mismatched += u64::from(!bits_ok);
        self.full_tier += u64::from(resp.tier == 0);
        let in_time = resp.completed_us <= d.deadline_us;
        self.late += u64::from(!in_time);
        self.ok += u64::from(bits_ok && in_time);
    }

    fn add(&mut self, done: &[Done], refs: &mut References, pool: &[Tensor]) {
        for d in done {
            self.record(d, refs, pool);
        }
    }

    /// The miss counts, for the run's context lines.
    fn misses(&self) -> [(&'static str, usize); 5] {
        [
            ("mismatched_outputs", self.mismatched as usize),
            ("late", self.late as usize),
            ("rejected", self.rejected as usize),
            ("shed", self.shed as usize),
            ("failed", self.failed as usize),
        ]
    }
}

/// A built model, its input pool and references, and a warmed server.
struct Ready {
    pool: Vec<Tensor>,
    refs: References,
    server: Server,
    clock: Clock,
}

fn set_up(kind: Kind, seed: u64, workers: usize) -> Ready {
    let model = kind.model();
    let pool = kind.pool(seed);
    let mut cfg = ServeConfig::edge_default();
    let refs = References::new(model.clone(), cfg.clone(), &pool);
    cfg.workers = workers;
    let clock = Clock::wall();
    let server = Server::new(model, base_opts(), cfg, clock.clone());
    let ready = Ready {
        pool,
        refs,
        server,
        clock,
    };
    // Warm-up: two full batches through whichever path the run uses. Its
    // outcomes are not scored; a host stall here must not end the run.
    let warm: Vec<Arrival> = (0..16).map(|i| Arrival { at_us: 0, input: i }).collect();
    if workers > 0 {
        open_loop(&ready.server, &ready.clock, &ready.pool, &warm);
    } else {
        pump(&ready.server, &ready.clock, &ready.pool, Load::Open(&warm));
    }
    ready
}

/// Runs set-up `SETUPS` times (the first timed from process start) and
/// keeps the last; returns it with the median set-up time in seconds.
fn set_up_timed(kind: Kind, args: &Args, workers: usize) -> (Ready, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for i in 0..SETUPS {
        let t = if i == 0 { args.started } else { Instant::now() };
        drop(ready.take());
        ready = Some(set_up(kind, args.seed, workers));
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (ready.expect("at least one set-up"), times[SETUPS / 2])
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    if args.trace {
        return run_traced(kind, args);
    }
    let (mut r, setup_s) = set_up_timed(kind, args, 1);
    let cfg = r.server.config().clone();
    let in_flight = kind.closed_in_flight(&cfg);
    assert!(
        in_flight <= cfg.queue_capacity,
        "closed loop would overflow the queue"
    );
    let min_samples = min_samples_for_tail(95, 10);

    let lat_span = (args.seconds * 0.7 * 1e6) as u64;
    let arrivals = poisson_schedule(
        args.seed,
        cfg.design_rate_rps,
        lat_span,
        3 * LATENCY_BLOCK,
        r.pool.len(),
    );
    let (lat_done, late_ns) = open_loop(&r.server, &r.clock, &r.pool, &arrivals);
    let cap_span = (args.seconds * 0.2 * 1e6) as u64;
    let mut tally = Tally::default();
    tally.add(&lat_done, &mut r.refs, &r.pool);
    let (ends, _, cap_start) = closed_loop(
        &r.server,
        &r.clock,
        &r.pool,
        &mut r.refs,
        &mut tally,
        args.seed,
        in_flight,
        cap_span,
    );
    let (p50, p95, blocks) = block_latency(&lat_done, min_samples);
    let cap_samples = ends.len();
    let (capacity, per_block) = block_capacity(ends, cap_start, cfg.max_batch);
    let attempted = tally.attempted as f64;
    Outcome {
        correct: tally.mismatched == 0,
        attempted: tally.attempted,
        failed: tally.attempted - tally.ok,
        metrics: complete(
            END_TO_END,
            vec![
                m("latency_p50_ms", p50, "ms"),
                m("latency_p95_ms", p95, "ms"),
                m("capacity_per_s", capacity, "1/s"),
                m("ok_share", tally.ok as f64 / attempted, "ratio"),
                m(
                    "full_tier_share",
                    tally.full_tier as f64 / attempted,
                    "ratio",
                ),
                m("setup_s", setup_s, "s"),
                m("peak_rss_mb", peak_rss_mb(), "MiB"),
            ],
        ),
        context: context(
            args,
            &[
                ("latency_blocks", blocks),
                ("latency_samples_per_block", LATENCY_BLOCK),
                ("capacity_blocks", CAPACITY_BLOCKS),
                ("capacity_samples_per_block", per_block),
                ("capacity_samples", cap_samples),
                ("capacity_in_flight", in_flight),
            ]
            .iter()
            .chain(&tally.misses())
            .copied()
            .collect::<Vec<_>>(),
            pct(&late_ns, 99, 1e6),
        ),
    }
}

/// How the pump loop generates requests.
enum Load<'a> {
    /// Send each arrival at its scheduled time.
    Open(&'a [Arrival]),
    /// Keep this many requests outstanding for the span (µs).
    Closed {
        in_flight: usize,
        span_us: u64,
        seed: u64,
    },
}

/// What the traced pump loop measured.
#[derive(Default)]
struct PumpTrace {
    submit_ns: Vec<u64>,
    form_ns: Vec<u64>,
    solve_ns: Vec<u64>,
    deliver_ns: Vec<u64>,
    /// Per solved batch: measured solve ÷ the cost model's prediction,
    /// in millionths.
    drift_ppm: Vec<u64>,
    batch_sizes: Vec<f64>,
    /// Per request: time from submit to the formation of its batch.
    queue_wait_ns: Vec<u64>,
    /// Per request: (measured latency, sum of its stage times), µs.
    stage_check: Vec<(f64, f64)>,
    done: Vec<Done>,
}

/// A pending request in the pump loop: its inputs and ticket.
struct Outstanding {
    input: usize,
    due_us: u64,
    ticket: Result<Ticket, Rejected>,
}

/// Drives a pump-mode server (`workers == 0`) on the wall clock from this
/// one thread: submit what is due, form a batch if one is ready, solve and
/// deliver it, timing each call.
fn pump(server: &Server, clock: &Clock, pool: &[Tensor], load: Load) -> PumpTrace {
    let slack = server.config().min_deadline_us;
    let cost = CostModel::default_for_pool();
    let mut tr = PumpTrace::default();
    let mut pending: Vec<Outstanding> = Vec::new();
    let t0 = clock.now_us() + 1_000;
    let (mut next, mut rng) = (0usize, Rng64::seed_from_u64(0));
    let (mut in_flight, mut end_us) = (0usize, u64::MAX);
    if let Load::Closed {
        in_flight: k,
        span_us,
        seed,
    } = load
    {
        rng = Rng64::seed_from_u64(seed ^ STREAM_CLOSED);
        in_flight = k;
        end_us = clock.now_us() + span_us;
    }
    loop {
        // 1. Submit everything due.
        let now = clock.now_us();
        let due: Vec<(usize, u64)> = match load {
            Load::Open(arrivals) => {
                let mut v = Vec::new();
                while next < arrivals.len() && t0 + arrivals[next].at_us <= now {
                    v.push((arrivals[next].input, t0 + arrivals[next].at_us));
                    next += 1;
                }
                v
            }
            Load::Closed { .. } if now < end_us => (pending.len()..in_flight)
                .map(|_| (rng.gen_range_usize(0, pool.len()), now))
                .collect(),
            Load::Closed { .. } => Vec::new(),
        };
        for (input, due_us) in due {
            let t = Instant::now();
            let ticket = server.submit(request(&pool[input], due_us + slack));
            tr.submit_ns.push(t.elapsed().as_nanos() as u64);
            pending.push(Outstanding {
                input,
                due_us,
                ticket,
            });
        }
        // 2. Form, solve, deliver one batch if one is ready.
        let form_start_us = clock.now_us();
        let t = Instant::now();
        let formed = server.form_batch(false);
        let form_ns = t.elapsed().as_nanos() as u64;
        let mut stage = None;
        if let Some(batch) = formed {
            tr.form_ns.push(form_ns);
            tr.batch_sizes.push(batch.len() as f64);
            let t = Instant::now();
            let solved = server.solve_batch(batch);
            let solve_ns = t.elapsed().as_nanos() as u64;
            tr.solve_ns.push(solve_ns);
            let modelled_us = cost.service_us(solved.per_sample_nfe());
            tr.drift_ppm.push(solve_ns * 1000 / modelled_us.max(1));
            let t = Instant::now();
            server.deliver_batch(solved);
            tr.deliver_ns.push(t.elapsed().as_nanos() as u64);
            stage = Some((form_start_us, form_ns + solve_ns));
        }
        // 3. Collect what resolved (a delivered batch, or shed requests).
        let mut still = Vec::with_capacity(pending.len());
        for p in pending {
            let taken = match &p.ticket {
                Ok(t) => t.try_take(),
                Err(e) => Some(Err(e.clone())),
            };
            let Some(result) = taken else {
                still.push(p);
                continue;
            };
            if let (Ok(resp), Some((form_start_us, call_ns))) = (&result, stage) {
                let wait_us = form_start_us.saturating_sub(resp.submitted_us);
                tr.queue_wait_ns.push(wait_us * 1000);
                let stages_us = resp.submitted_us.saturating_sub(p.due_us) as f64
                    + wait_us as f64
                    + call_ns as f64 / 1e3;
                let measured_us = resp.completed_us.saturating_sub(p.due_us) as f64;
                tr.stage_check.push((measured_us, stages_us));
            }
            tr.done.push(Done {
                input: p.input,
                due_us: p.due_us,
                deadline_us: p.due_us + slack,
                result,
            });
        }
        pending = still;
        // 4. Finished, or sleep until the next arrival or window expiry.
        let more = match load {
            Load::Open(arrivals) => next < arrivals.len(),
            Load::Closed { .. } => clock.now_us() < end_us,
        };
        if !more && pending.is_empty() {
            return tr;
        }
        if stage.is_none() {
            let next_arrival = match load {
                Load::Open(arrivals) if next < arrivals.len() => t0 + arrivals[next].at_us,
                _ => u64::MAX,
            };
            let wake = next_arrival.min(server.next_window_expiry_us().unwrap_or(u64::MAX));
            if wake != u64::MAX {
                sleep_until(clock, wake);
            }
        }
    }
}

/// The traced run: per-layer metrics. It first repeats the untraced
/// latency phase (so tracing overhead shows against the same run), then
/// drives the schedule through the pump calls, then a closed-loop pump
/// for per-request solve cost at full batches, then the layer probes.
fn run_traced(kind: Kind, args: &Args) -> Outcome {
    let (mut worker, _) = set_up_timed(kind, args, 1);
    let cfg = worker.server.config().clone();
    let in_flight = kind.closed_in_flight(&cfg);
    let min_samples = min_samples_for_tail(95, 10);
    let span = (args.seconds * 0.3 * 1e6) as u64;
    let arrivals = poisson_schedule(
        args.seed,
        cfg.design_rate_rps,
        span,
        min_samples,
        worker.pool.len(),
    );
    let (plain_done, late_ns) = open_loop(&worker.server, &worker.clock, &worker.pool, &arrivals);
    let plain_ns: Vec<u64> = plain_done.iter().filter_map(Done::latency_ns).collect();
    let mut tally = Tally::default();
    tally.add(&plain_done, &mut worker.refs, &worker.pool);
    worker.server.shutdown();

    let mut r = set_up(kind, args.seed, 0);
    let open = pump(&r.server, &r.clock, &r.pool, Load::Open(&arrivals));
    let closed = pump(
        &r.server,
        &r.clock,
        &r.pool,
        Load::Closed {
            in_flight,
            span_us: (args.seconds * 0.15 * 1e6) as u64,
            seed: args.seed,
        },
    );
    tally.add(&open.done, &mut r.refs, &r.pool);
    tally.add(&closed.done, &mut r.refs, &r.pool);
    let snap = r.server.snapshot();
    let traced_ns: Vec<u64> = open.done.iter().filter_map(Done::latency_ns).collect();
    let measured: f64 = open.stage_check.iter().map(|s| s.0).sum();
    let staged: f64 = open.stage_check.iter().map(|s| s.1).sum();
    let per_request_ns: Vec<u64> = closed
        .solve_ns
        .iter()
        .zip(&closed.batch_sizes)
        .map(|(&ns, &n)| (ns as f64 / n) as u64)
        .collect();
    let drift_ppm = [open.drift_ppm, closed.drift_ppm].concat();

    let model = kind.model();
    let opts = cfg.tiers[0]
        .solve_override(ToleranceClass::Standard)
        .apply(&base_opts());
    let mut metrics = host_metrics();
    metrics.extend([
        m("untraced.latency_samples", plain_ns.len() as f64, "count"),
        m("loadgen.late_p99_ms", pct(&late_ns, 99, 1e6), "ms"),
        m("untraced.latency_p50_ms", pct(&plain_ns, 50, 1e6), "ms"),
        m("traced.latency_p50_ms", pct(&traced_ns, 50, 1e6), "ms"),
        m(
            "trace.latency_ratio",
            ratio(pct(&traced_ns, 50, 1e6), pct(&plain_ns, 50, 1e6)),
            "ratio",
        ),
        m("trace.stage_sum_share", ratio(staged, measured), "ratio"),
        m("server.submit_us_p50", pct(&open.submit_ns, 50, 1e3), "us"),
        m("server.form_us_p50", pct(&open.form_ns, 50, 1e3), "us"),
        m(
            "server.deliver_us_p50",
            pct(&open.deliver_ns, 50, 1e3),
            "us",
        ),
        m(
            "server.queue_wait_ms_p50",
            pct(&open.queue_wait_ns, 50, 1e6),
            "ms",
        ),
        m(
            "server.queue_wait_ms_p95",
            pct(&open.queue_wait_ns, 95, 1e6),
            "ms",
        ),
        m("server.batch_size_mean", mean(&open.batch_sizes), "count"),
        m("server.rejected", snap.rejected_full as f64, "count"),
        m("server.shed", snap.shed as f64, "count"),
        m("server.failed", snap.failed as f64, "count"),
        m("eval.solve_ms_p50", pct(&open.solve_ns, 50, 1e6), "ms"),
        m(
            "eval.solve_us_per_request",
            pct(&per_request_ns, 50, 1e3),
            "us",
        ),
        m("model.service_drift", pct(&drift_ppm, 50, 1e6), "ratio"),
    ]);
    metrics.extend(layers::inference(&model, &r.pool, &opts));
    metrics.extend(layers::kernels(&model, &r.pool[0], false));
    Outcome {
        correct: tally.mismatched == 0,
        attempted: tally.attempted,
        failed: tally.attempted - tally.ok,
        metrics: complete(PER_LAYER, metrics),
        context: context(
            args,
            &[
                ("untraced_latency_samples", plain_ns.len()),
                ("traced_latency_samples", traced_ns.len()),
                ("traced_capacity_batches", closed.solve_ns.len()),
            ]
            .iter()
            .chain(&tally.misses())
            .copied()
            .collect::<Vec<_>>(),
            pct(&late_ns, 99, 1e6),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::samples_beyond;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 200.0, 2_000_000, 200, 64);
        assert_eq!(a, poisson_schedule(7, 200.0, 2_000_000, 200, 64));
        assert_ne!(a, poisson_schedule(8, 200.0, 2_000_000, 200, 64));
        assert!(a.len() >= 200);
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn every_latency_block_has_ten_samples_beyond_its_p95() {
        assert!(samples_beyond(LATENCY_BLOCK, 95) >= 10);
        // A short last block counts only if its own p95 has the tail.
        let done: Vec<Done> = (0..LATENCY_BLOCK + 199)
            .map(|i| Done {
                input: 0,
                due_us: 0,
                deadline_us: u64::MAX,
                result: Ok(Response {
                    output: Tensor::zeros(&[1, 2]),
                    tier: 0,
                    batch_size: 1,
                    submitted_us: 0,
                    completed_us: 1_000 + i as u64,
                }),
            })
            .collect();
        let (_, _, blocks) = block_latency(&done, min_samples_for_tail(95, 10));
        assert_eq!(blocks, 1);
    }

    #[test]
    fn schedule_is_extended_to_the_minimum_count() {
        assert_eq!(poisson_schedule(1, 200.0, 1_000, 200, 4).len(), 200);
    }

    #[test]
    fn closed_loop_never_exceeds_the_queue() {
        let mut cfg = ServeConfig::edge_default();
        let in_flight = Kind::Dyn.closed_in_flight(&cfg);
        assert!(in_flight <= cfg.queue_capacity);
        assert!(Kind::Img.closed_in_flight(&cfg) <= cfg.queue_capacity);
        cfg.workers = 1;
        let clock = Clock::wall();
        let server_model = || NodeModel::dynamic_system(2, 8, 1, 7);
        let server = Server::new(server_model(), base_opts(), cfg.clone(), clock.clone());
        let pool = Kind::Dyn.pool(3);
        let mut refs = References::new(server_model(), cfg.clone(), &pool);
        let mut tally = Tally::default();
        let (ends, most, _) = closed_loop(
            &server, &clock, &pool, &mut refs, &mut tally, 3, in_flight, 200_000,
        );
        assert!(most <= cfg.queue_capacity, "{most} in flight");
        assert!(ends.len() > in_flight);
        assert_eq!(server.snapshot().rejected_full, 0);
        assert_eq!(tally.rejected, 0);
        assert_eq!(tally.mismatched, 0);
    }
}
