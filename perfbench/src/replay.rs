//! The traced run. It runs the workload's pass through the `Session`
//! API (untraced), then replays the same generated jobs, in the same
//! DAG or arrival order, through each layer's public functions —
//! `Job::validate`, `SimulatorBackend::admit_continuous`,
//! `Tiler::plan`, `SimulatorBackend::step_farm`, the native kernels and
//! the wide accumulator — once untraced and once with a span around
//! every call. The replay's outputs must match the `Session` run's bit
//! for bit, so the per-layer numbers describe the same work.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ntx::cpu::{NativeBackend, NativeMode};
use ntx::sched::{DurationTable, Job, JobKind, SimulatorBackend, Tiler};

use crate::gen::{Item, CHAOS_POOL_JOBS};
use crate::live::{self, Done, Tally};
use crate::oracle::{self, bits_equal, native_run};
use crate::stats::{median, ms, quantile, us, write_file, Metrics};
use crate::workload::{Inputs, Workload, CHAOS_RATE_PER_S, SERVE_CLIENTS, SERVE_WINDOW};

/// Untraced repetitions of the `Session` pass and of the replay; walls
/// are their medians.
const REPS: usize = 3;

/// One recorded call.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    job: Option<u64>,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, job: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
    }

    fn span<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, job);
        let r = f();
        self.end(id);
        r
    }

    /// Per span name: calls, total time and self time (time not
    /// covered by child spans), in first-seen order.
    fn self_times(&self) -> Vec<(&'static str, u64, Duration, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut rows: Vec<(&'static str, u64, Duration, Duration)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end - s.start;
            let own = total.saturating_sub(child[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    fn total(&self, name: &str) -> (u64, Duration) {
        self.self_times()
            .into_iter()
            .find(|r| r.0 == name)
            .map_or((0, Duration::ZERO), |r| (r.1, r.2))
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn call<R>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    job: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, job, f),
        None => f(),
    }
}

/// Layer counters of one replay pass.
#[derive(Default)]
struct Counters {
    shards: u64,
    tiles: u64,
    preload_bytes: u64,
    events: u64,
    retire_cycles: u64,
    est_ratios: Vec<f64>,
    admit_errors: u64,
}

/// The replayed program: one simulator farm (or native engine) and its
/// duration table, kept across passes as the server keeps them.
struct Replayer {
    sim: SimulatorBackend,
    /// A cluster of the farm's configuration for `Tiler::plan`, which
    /// only reads configuration from it.
    reference: ntx::sim::Cluster,
    table: DurationTable,
    native: NativeBackend,
    clusters: usize,
    native_path: bool,
    window: usize,
    next_id: u64,
}

struct PassOut {
    outputs: Vec<Option<Vec<f32>>>,
    wall: Duration,
    counters: Counters,
    /// Virtual cycles from the earliest cluster clock at the pass's
    /// start to the latest at its end.
    span_cycles: u64,
}

impl Replayer {
    /// Replays one pass: DAG edges release dependents on completion;
    /// without edges at most `window` jobs are in flight, like the
    /// closed-loop clients.
    fn pass(&mut self, items: &[Item], tr: &mut Option<Tracer>) -> PassOut {
        let n = items.len();
        let base = self.next_id;
        self.next_id += n as u64;
        let mut c = Counters::default();
        let mut outputs: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut waiting: Vec<usize> = items.iter().map(|it| it.deps.len()).collect();
        let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, it) in items.iter().enumerate() {
            for &d in &it.deps {
                users[d].push(i);
            }
        }
        let mut ready: VecDeque<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();
        let window = if items.iter().any(|it| !it.deps.is_empty()) {
            usize::MAX
        } else {
            self.window
        };
        let start_cycle = self.sim.virtual_now();
        let t0 = Instant::now();
        let mut inflight = 0usize;
        let mut finished: Vec<usize> = Vec::new();
        loop {
            while inflight < window {
                let Some(i) = ready.pop_front() else { break };
                // Spans carry the job's index in the pass; the farm sees
                // ids unique across passes, as the server assigns them.
                let span_id = Some(i as u64);
                let mut job = Job::new(
                    base + i as u64,
                    items[i].label.clone(),
                    items[i].kind.clone(),
                );
                job.opts.home_cube = items[i].home;
                if call(tr, "job.validate", span_id, || job.validate()).is_err() {
                    c.admit_errors += 1;
                    finished.push(i);
                    continue;
                }
                if self.native_path {
                    let out = call(tr, "backend.native", span_id, || {
                        native_run(&self.native, &job.kind)
                    });
                    outputs[i] = Some(out);
                    finished.push(i);
                    continue;
                }
                let (sim, table) = (&mut self.sim, &self.table);
                match call(tr, "backend.admit", span_id, || {
                    sim.admit_continuous(&job, table)
                }) {
                    Ok(placement) => {
                        let reference = &self.reference;
                        let plans = call(tr, "tiler.plan", span_id, || {
                            Tiler::new(placement.planned_shards).plan(&job, reference)
                        });
                        for p in plans.iter().flatten().filter(|p| !p.is_empty()) {
                            c.shards += 1;
                            c.tiles += p.tiles.len() as u64;
                            let floats: usize =
                                p.ext_writes.iter().map(|w| w.1.len()).sum::<usize>()
                                    + p.tcdm_writes.iter().map(|w| w.1.len()).sum::<usize>();
                            c.preload_bytes += 4 * floats as u64;
                        }
                        inflight += 1;
                    }
                    Err(e) => {
                        eprintln!("replay admission of {} failed: {e}", items[i].label);
                        c.admit_errors += 1;
                        finished.push(i);
                    }
                }
            }
            for i in finished.drain(..) {
                for &u in &users[i] {
                    waiting[u] -= 1;
                    if waiting[u] == 0 {
                        ready.push_back(u);
                    }
                }
            }
            if !ready.is_empty() && inflight < window {
                continue;
            }
            if inflight == 0 {
                break;
            }
            let sim = &mut self.sim;
            let Some(r) = call(tr, "farm.step", None, || sim.step_farm()) else {
                eprintln!("replay farm went idle with {inflight} jobs in flight");
                break;
            };
            if let Some(span) = tr.as_mut().and_then(|t| t.spans.last_mut()) {
                span.job = Some(r.job_id - base);
            }
            self.table.observe(r.class, r.est_cycles, r.cycles);
            c.events += 1;
            c.retire_cycles += r.cycles;
            if r.est_cycles > 0 {
                c.est_ratios.push(r.cycles as f64 / r.est_cycles as f64);
            }
            if let Some(res) = r.result {
                let i = (res.job_id - base) as usize;
                outputs[i] = Some(res.output);
                inflight -= 1;
                finished.push(i);
            }
        }
        PassOut {
            outputs,
            wall: t0.elapsed(),
            counters: c,
            span_cycles: self.sim.farm_makespan() - start_cycle,
        }
    }
}

/// A GEMM or raw dot computed directly on the wide accumulator:
/// `(output, MACs)`.
fn kulisch_run(kind: &JobKind) -> Option<(Vec<f32>, u64)> {
    match kind {
        JobKind::Gemm { dims, a, b } => {
            let (m, k, n) = (dims.m as usize, dims.k as usize, dims.n as usize);
            let mut out = Vec::with_capacity(m * n);
            let mut acc = ntx::fpu::WideAccumulator::new();
            for i in 0..m {
                for j in 0..n {
                    acc.clear();
                    for p in 0..k {
                        acc.add_product(a[i * k + p], b[p * n + j]);
                    }
                    out.push(acc.round());
                }
            }
            Some((out, (m * k * n) as u64))
        }
        JobKind::Raw(_) => {
            let (x, y) = oracle::raw_dot_operands(kind)?;
            Some((vec![oracle::kulisch_dot(x, y)], x.len() as u64))
        }
        _ => None,
    }
}

/// `num / den`, or 0 where nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the untraced `Session` passes measured.
struct SessionRun {
    walls_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// The last pass, outputs kept.
    done: Vec<Done>,
    /// Generator lag of the open loop (`chaos_open` only).
    lag_ms: Vec<f64>,
    /// Roofline cycles of every op from estimate-backend submissions
    /// (training workloads only).
    estimates: Vec<u64>,
}

// The repository's workspace allows this lint too.
#[allow(clippy::too_many_arguments)]
fn session_run(
    w: Workload,
    seed: u64,
    threads: usize,
    inputs: &Inputs,
    pass: &[Item],
    oracle: &[Vec<f32>],
    pool_oracle: &[Vec<f32>],
    tally: &mut Tally,
) -> SessionRun {
    let (server, _, warm) = live::start(w, seed, threads, pass, oracle);
    tally.add(&warm);
    let session = server.session();
    let mut run = SessionRun {
        walls_ms: Vec::with_capacity(REPS),
        submit_us: Vec::new(),
        done: Vec::new(),
        lag_ms: Vec::new(),
        estimates: Vec::new(),
    };
    for _ in 0..REPS {
        let t = Instant::now();
        let (done, submit) = if w.is_training() {
            let step = live::train_step(&session, pass, oracle, w.backend(), true);
            (step.done, step.submit)
        } else {
            live::serve_pass(&session, pass, pass.len(), oracle, true)
        };
        run.walls_ms.push(ms(t.elapsed()));
        run.submit_us.extend(submit.iter().map(|&d| us(d)));
        tally.add(&done);
        run.done = done;
    }
    if w == Workload::ChaosOpen {
        let ol = live::open_loop(
            &session,
            &inputs.items,
            &inputs.arrivals,
            pool_oracle,
            false,
        );
        run.lag_ms = ol.lag.iter().map(|&d| ms(d)).collect();
        tally.add(&ol.done);
    }
    if w.is_training() {
        run.estimates = pass
            .iter()
            .map(|it| {
                session
                    .job(it.label.clone())
                    .kind(it.kind.clone())
                    .estimate()
                    .submit()
                    .and_then(|h| h.wait())
                    .ok()
                    .and_then(|c| c.result.ok())
                    .and_then(|r| r.estimate)
                    .map_or(0, |e| e.cycles)
            })
            .collect();
    }
    let _ = server.shutdown();
    run
}

/// Outputs of a replay pass differing from the `Session` run's.
fn mismatches(o: &PassOut, session: &[Done]) -> u64 {
    o.outputs
        .iter()
        .zip(session)
        .filter(|(r, s)| match (r, &s.output) {
            (Some(r), Some(s)) => !bits_equal(r, s),
            _ => true,
        })
        .count() as u64
}

/// The kernel layers on the pass's jobs: native exact and fast, and
/// the wide accumulator directly, each checked against the `Session`
/// output. Returns the checks, the failures and the MACs the wide
/// accumulator did.
fn kernels(tr: &mut Tracer, pass: &[Item], session: &[Done], threads: usize) -> (u64, u64, u64) {
    let exact = NativeBackend::new(NativeMode::Exact).with_threads(threads);
    let fast = NativeBackend::new(NativeMode::Fast).with_threads(threads);
    let (mut checked, mut bad, mut macs) = (0u64, 0u64, 0u64);
    let root = tr.begin("kernels", None);
    for (i, it) in pass.iter().enumerate() {
        let id = Some(i as u64);
        let Some(want) = session.get(i).and_then(|d| d.output.as_ref()) else {
            continue;
        };
        if !matches!(it.kind, JobKind::Raw(_)) {
            let e = tr.span("cpu.exact", id, || native_run(&exact, &it.kind));
            tr.span("cpu.fast", id, || {
                std::hint::black_box(native_run(&fast, &it.kind))
            });
            checked += 1;
            bad += u64::from(!bits_equal(&e, want));
        }
        if let Some((k, n)) = tr.span("fpu.kulisch", id, || kulisch_run(&it.kind)) {
            macs += n;
            checked += 1;
            bad += u64::from(!bits_equal(&k, want));
        }
    }
    tr.end(root);
    (checked, bad, macs)
}

/// Writes `ops.tsv`, one row per op of a training step, and returns the
/// DAG critical path (busy cycles along the longest chain of edges)
/// and the total work in cluster-cycles.
fn op_rows(pass: &[Item], session: &[Done], estimates: &[u64], out: &Path) -> (u64, u64) {
    let mut finish = vec![0u64; pass.len()];
    let (mut crit, mut work) = (0u64, 0u64);
    let mut rows = String::from(
        "op\tm\tk\tn\tstart_cycle\tfinish_cycle\tbusy_cycles\twork_cycles\test_cycles\tmeasured_over_est\n",
    );
    for (i, it) in pass.iter().enumerate() {
        let d = &session[i];
        finish[i] = it.deps.iter().map(|&p| finish[p]).max().unwrap_or(0) + d.busy_cycles;
        crit = crit.max(finish[i]);
        work += d.work_cycles;
        let JobKind::Gemm { dims, .. } = &it.kind else {
            continue;
        };
        let est = estimates.get(i).copied().unwrap_or(0);
        writeln!(
            rows,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{est}\t{:.4}",
            it.label,
            dims.m,
            dims.k,
            dims.n,
            d.start_cycle,
            d.finish_cycle,
            d.busy_cycles,
            d.work_cycles,
            ratio(d.busy_cycles as f64, est as f64)
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(
        rows,
        "# critical path {crit} cycles, total work {work} cluster-cycles"
    )
    .expect("writing to a String cannot fail");
    write_file(&out.join("ops.tsv"), &rows);
    print!("{rows}");
    (crit, work)
}

/// The traced run of workload `w`: returns `(attempted, failed,
/// per-layer metrics)` and writes the spans, the self-time table, the
/// per-op rows (training workloads) and the metrics to `out`.
pub fn run(w: Workload, seed: u64, threads: usize, out: &Path) -> (u64, u64, Metrics) {
    let compile_us: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(crate::gen::compile_step());
            us(t.elapsed())
        })
        .collect();
    // The pass the traced run measures: the step, the serving pass, or
    // one walk of the chaos schedule (each pool job once, in arrival
    // order).
    let mut inputs = w.inputs(seed, 2.0 * CHAOS_POOL_JOBS as f64 / CHAOS_RATE_PER_S);
    inputs.arrivals.truncate(CHAOS_POOL_JOBS);
    let pool_oracle = oracle::references(&inputs.items);
    let (pass, oracle): (Vec<Item>, Vec<Vec<f32>>) = if w == Workload::ChaosOpen {
        inputs
            .arrivals
            .iter()
            .map(|a| (inputs.items[a.job].clone(), pool_oracle[a.job].clone()))
            .unzip()
    } else {
        (inputs.items.clone(), pool_oracle.clone())
    };
    let mut tally = Tally::default();
    let session = session_run(
        w,
        seed,
        threads,
        &inputs,
        &pass,
        &oracle,
        &pool_oracle,
        &mut tally,
    );

    // The replays: one warm-up pass, REPS untraced, one traced.
    let scale_out = w.server_config(seed, threads).scale_out;
    let mut rp = Replayer {
        sim: SimulatorBackend::new(scale_out),
        reference: ntx::sim::Cluster::new(scale_out.cluster),
        table: DurationTable::new(),
        native: NativeBackend::new(NativeMode::Exact).with_threads(threads),
        clusters: scale_out.clusters,
        native_path: w == Workload::TrainExact,
        window: SERVE_CLIENTS * SERVE_WINDOW,
        next_id: 0,
    };
    let mut replay_bad = 0u64;
    let mut replay_walls = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let o = rp.pass(&pass, &mut None);
        tally.attempted += o.outputs.len() as u64;
        replay_bad += mismatches(&o, &session.done);
        if rep > 0 {
            replay_walls.push(ms(o.wall));
        }
    }
    let perf0 = rp.sim.perf_totals();
    let pool0 = rp.sim.pool_stats();
    let mut tr = Some(Tracer::new());
    let root = tr.as_mut().expect("tracing").begin("replay", None);
    let traced = rp.pass(&pass, &mut tr);
    let mut tr = tr.expect("tracing");
    tr.end(root);
    tally.attempted += traced.outputs.len() as u64;
    replay_bad += mismatches(&traced, &session.done) + traced.counters.admit_errors;
    let perf = rp.sim.perf_totals().since(&perf0);
    let pool = rp.sim.pool_stats();
    let faults = rp.sim.fault_stats();
    let c = &traced.counters;

    let (checked, kernel_bad, macs) = kernels(&mut tr, &pass, &session.done, threads);
    tally.attempted += checked;
    tally.failed += replay_bad + kernel_bad;
    if replay_bad + kernel_bad > 0 {
        eprintln!(
            "replay outputs differing from the Session run: {replay_bad}; \
             kernel outputs differing: {kernel_bad}"
        );
    }
    let (crit, work) = if w.is_training() {
        op_rows(&pass, &session.done, &session.estimates, out)
    } else {
        (0, 0)
    };

    let per_call = |name: &str| {
        let (calls, t) = tr.total(name);
        ratio(us(t), calls as f64)
    };
    let total_s = |name: &str| tr.total(name).1.as_secs_f64();
    let replay_wall = median(&replay_walls);
    let mb = |b: u64| b as f64 / 1e6;

    let mut m = Metrics::default();
    m.put("server.submit_us_p50", median(&session.submit_us), "us");
    m.put(
        "server.front_end_ms",
        median(&session.walls_ms) - replay_wall,
        "ms",
    );
    m.put("job.validate_us", per_call("job.validate"), "us");
    m.put("tiler.plan_us", per_call("tiler.plan"), "us");
    m.put("tiler.shards", c.shards as f64, "count");
    m.put("tiler.tiles", c.tiles as f64, "count");
    m.put("tiler.preload_mb", mb(c.preload_bytes), "MB");
    m.put("backend.admit_us", per_call("backend.admit"), "us");
    m.put("backend.est_ratio_p50", median(&c.est_ratios), "ratio");
    m.put(
        "backend.est_ratio_max",
        quantile(&c.est_ratios, 1.0),
        "ratio",
    );
    m.put("farm.step_ms", total_s("farm.step") * 1e3, "ms");
    m.put("farm.events", c.events as f64, "count");
    m.put(
        "farm.occupancy",
        ratio(
            c.retire_cycles as f64,
            (rp.clusters as u64 * traced.span_cycles) as f64,
        ),
        "ratio",
    );
    m.put("farm.critical_path_cycles", crit as f64, "cycles");
    m.put("farm.work_cycles", work as f64, "cycles");
    m.put(
        "farm.pool_merged",
        (pool.shards_merged - pool0.shards_merged) as f64,
        "count",
    );
    m.put("farm.shards_retried", faults.shards_retried as f64, "count");
    m.put("farm.faults", faults.faults_injected as f64, "count");
    m.put("sim.cluster_cycles", perf.cycles as f64, "cycles");
    m.put(
        "sim.ns_per_cycle",
        ratio(total_s("farm.step") * 1e9, perf.cycles as f64),
        "ns",
    );
    m.put("sim.flops_per_cycle", perf.flops_per_cycle(), "flop/cycle");
    m.put("sim.stall_frac", perf.stall_fraction(), "ratio");
    m.put(
        "sim.tcdm_conflict_frac",
        perf.conflict_probability(),
        "ratio",
    );
    m.put(
        "sim.dma_busy_frac",
        ratio(perf.dma_busy_cycles as f64, perf.cycles as f64),
        "ratio",
    );
    m.put(
        "mem.ext_mb",
        mb(perf.ext_bytes_read + perf.ext_bytes_written),
        "MB",
    );
    m.put("mem.ext_wait_cycles", perf.ext_wait_cycles as f64, "cycles");
    m.put("mem.remote_mb", mb(perf.ext_remote_bytes), "MB");
    m.put(
        "mem.remote_wait_cycles",
        perf.ext_remote_wait_cycles as f64,
        "cycles",
    );
    m.put(
        "mem.fault_stall_cycles",
        perf.fault_stall_cycles as f64,
        "cycles",
    );
    m.put(
        "fpu.kulisch_ns_per_mac",
        ratio(total_s("fpu.kulisch") * 1e9, macs as f64),
        "ns",
    );
    m.put("cpu.exact_ms", total_s("cpu.exact") * 1e3, "ms");
    m.put("cpu.fast_ms", total_s("cpu.fast") * 1e3, "ms");
    m.put(
        "cpu.exact_over_fast",
        ratio(total_s("cpu.exact"), total_s("cpu.fast")),
        "ratio",
    );
    let compile = if w.is_training() {
        median(&compile_us)
    } else {
        0.0
    };
    m.put("dnn.compile_us", compile, "us");
    m.put("gen.lag_ms_max", quantile(&session.lag_ms, 1.0), "ms");
    m.put("gen.lag_ms_p99", quantile(&session.lag_ms, 0.99), "ms");
    m.put(
        "trace.overhead",
        ratio(ms(traced.wall), replay_wall),
        "ratio",
    );

    write_spans(&tr, out);
    println!(
        "session pass {:.3} ms over {} cycles; replay {replay_wall:.3} ms untraced, {:.3} ms \
         traced over {} cycles; {} spans",
        median(&session.walls_ms),
        live::pass_cycles(&session.done, w.backend()),
        ms(traced.wall),
        traced.span_cycles,
        tr.spans.len()
    );
    m.print();
    write_file(
        &out.join("layers.json"),
        &(crate::stats::result_line(tally.attempted, tally.failed, &m) + "\n"),
    );
    (tally.attempted, tally.failed, m)
}

/// `spans.tsv` (every span) and `self_time.tsv` (per span name).
fn write_spans(tr: &Tracer, out: &Path) {
    let mut s = String::from("id\tparent\tname\tjob\tstart_ns\tend_ns\n");
    for (i, sp) in tr.spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        writeln!(
            s,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            opt(sp.parent.map(|p| p as u64)),
            sp.name,
            opt(sp.job),
            sp.start.as_nanos(),
            sp.end.as_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    write_file(&out.join("spans.tsv"), &s);
    let mut t = String::from("name\tcalls\ttotal_ms\tself_ms\n");
    for (name, calls, total, own) in tr.self_times() {
        writeln!(t, "{name}\t{calls}\t{:.6}\t{:.6}", ms(total), ms(own))
            .expect("writing to a String cannot fail");
    }
    write_file(&out.join("self_time.tsv"), &t);
    print!("{t}");
}
