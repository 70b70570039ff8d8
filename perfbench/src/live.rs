//! Runs through the public `Session` API with tracing off: set-up with
//! warm-up, and the closed- and open-loop clients of each workload.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ntx::sched::{BackendKind, JobResult, ReadyJob, SchedError, Server, Session};

use crate::gen::{Arrival, Item};
use crate::oracle::bits_equal;
use crate::workload::{
    Workload, CHAOS_WARMUP_JOBS, SERVE_CLIENTS, SERVE_WARMUP_JOBS, SERVE_WINDOW,
};

/// What one submitted job told the benchmark.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index of the job in its pass.
    pub item: usize,
    /// Submission to delivery (closed loops) or due time to delivery
    /// (open loop).
    pub latency: Duration,
    pub start_cycle: u64,
    pub finish_cycle: u64,
    /// Cycles the backend booked for the job: its slowest shard on the
    /// farm, the measured host time at the cluster clock on native.
    pub busy_cycles: u64,
    /// Cluster-cycles summed over all its shards (the booked host
    /// time on native).
    pub work_cycles: u64,
    /// Completed with exactly the reference output.
    pub ok: bool,
    /// The output, when the caller asked to keep it.
    pub output: Option<Vec<f32>>,
}

/// Jobs checked and jobs failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, done: &[Done]) {
        self.attempted += done.len() as u64;
        self.failed += done.iter().filter(|d| !d.ok).count() as u64;
    }
}

fn judge(
    item: usize,
    latency: Duration,
    result: Result<JobResult, SchedError>,
    oracle: &[Vec<f32>],
    keep: bool,
) -> Done {
    match result {
        Ok(r) => Done {
            item,
            latency,
            start_cycle: r.start_cycle,
            finish_cycle: r.finish_cycle,
            busy_cycles: r.report.makespan_cycles,
            work_cycles: if r.backend == BackendKind::Simulate {
                r.report.per_cluster.iter().map(|p| p.cycles).sum()
            } else {
                r.report.makespan_cycles
            },
            ok: bits_equal(&r.output, &oracle[item]),
            output: keep.then_some(r.output),
        },
        Err(e) => {
            eprintln!("job {item} failed: {e}");
            lost(item)
        }
    }
}

/// A job that never delivered a result.
fn lost(item: usize) -> Done {
    Done {
        item,
        latency: Duration::ZERO,
        start_cycle: 0,
        finish_cycle: 0,
        busy_cycles: 0,
        work_cycles: 0,
        ok: false,
        output: None,
    }
}

/// Virtual cycles one pass took: the span from its first shard start
/// to its last retirement on the farm; on the native backend, which
/// has no farm, the host time it booked.
pub fn pass_cycles(done: &[Done], backend: BackendKind) -> u64 {
    if backend == BackendKind::Simulate {
        let start = done.iter().map(|d| d.start_cycle).min().unwrap_or(0);
        let finish = done.iter().map(|d| d.finish_cycle).max().unwrap_or(0);
        finish - start
    } else {
        done.iter().map(|d| d.busy_cycles).sum()
    }
}

/// The submission of one generated job, before edges and backend.
fn job<'a>(session: &'a Session, it: &Item) -> ReadyJob<&'a Session> {
    let job = session.job(it.label.clone()).kind(it.kind.clone());
    match it.home {
        Some(cube) => job.home_cube(cube),
        None => job,
    }
}

/// One training step as a job DAG: every op submitted at once with
/// its `after_id` edges, then every op awaited.
pub struct Step {
    pub wall: Duration,
    pub done: Vec<Done>,
    /// Wall time of each `submit` call.
    pub submit: Vec<Duration>,
}

pub fn train_step(
    session: &Session,
    items: &[Item],
    oracle: &[Vec<f32>],
    backend: BackendKind,
    keep: bool,
) -> Step {
    let t0 = Instant::now();
    let mut ids: Vec<u64> = Vec::with_capacity(items.len());
    let mut handles = Vec::with_capacity(items.len());
    let mut submit = Vec::with_capacity(items.len());
    for it in items {
        let ts = Instant::now();
        let mut ready = job(session, it).backend(backend);
        for &d in &it.deps {
            ready = ready.after_id(ids[d]);
        }
        let handle = ready.submit().expect("server is running");
        submit.push(ts.elapsed());
        ids.push(handle.id);
        handles.push(handle);
    }
    let completions: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let wall = t0.elapsed();
    let done = completions
        .into_iter()
        .enumerate()
        .map(|(i, c)| match c {
            Ok(c) => judge(i, c.latency, c.result, oracle, keep),
            Err(_) => lost(i),
        })
        .collect();
    Step { wall, done, submit }
}

/// One closed-loop client: keeps `window` of its jobs outstanding,
/// sending the next only when the oldest completes.
fn client(
    session: &Session,
    items: &[Item],
    mine: impl Iterator<Item = usize>,
    window: usize,
    oracle: &[Vec<f32>],
    keep: bool,
    submit: &mut Vec<Duration>,
) -> Vec<Done> {
    let mut done = Vec::new();
    let mut inflight = std::collections::VecDeque::with_capacity(window);
    let reap = |(i, h): (usize, ntx::sched::JobHandle), done: &mut Vec<Done>| {
        done.push(match h.wait() {
            Ok(c) => judge(i, c.latency, c.result, oracle, keep),
            Err(_) => lost(i),
        });
    };
    for i in mine {
        if inflight.len() == window {
            reap(inflight.pop_front().expect("window is full"), &mut done);
        }
        let ts = Instant::now();
        let handle = job(session, &items[i]).submit().expect("server is running");
        submit.push(ts.elapsed());
        inflight.push_back((i, handle));
    }
    while let Some(entry) = inflight.pop_front() {
        reap(entry, &mut done);
    }
    done
}

/// A `serve_mix` pass over `items[..n]`: the clients take alternate
/// jobs and each keeps [`SERVE_WINDOW`] outstanding.
pub fn serve_pass(
    session: &Session,
    items: &[Item],
    n: usize,
    oracle: &[Vec<f32>],
    keep: bool,
) -> (Vec<Done>, Vec<Duration>) {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut submit = Vec::new();
                    let mine = (c..n).step_by(SERVE_CLIENTS);
                    let done = client(
                        session,
                        items,
                        mine,
                        SERVE_WINDOW,
                        oracle,
                        keep,
                        &mut submit,
                    );
                    (done, submit)
                })
            })
            .collect();
        let mut all = (Vec::new(), Vec::new());
        for c in clients {
            let (done, submit) = c.join().expect("client thread panicked");
            all.0.extend(done);
            all.1.extend(submit);
        }
        all.0.sort_by_key(|d| d.item);
        all
    })
}

/// The open loop: each arrival is sent when due whatever is still
/// outstanding, and its latency runs from when it was due.
pub struct OpenLoop {
    pub done: Vec<Done>,
    /// How late the generator sent each arrival.
    pub lag: Vec<Duration>,
    /// Schedule start to the last delivery.
    pub wall: Duration,
}

pub fn open_loop(
    session: &Session,
    pool: &[Item],
    arrivals: &[Arrival],
    oracle: &[Vec<f32>],
    keep: bool,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<JobResult, SchedError>)>();
    let t0 = Instant::now();
    let due = |k: usize| t0 + Duration::from_secs_f64(arrivals[k].due_s);
    std::thread::scope(|s| {
        // Delivery runs on the server's thread; outputs are checked
        // here, off the program's critical path.
        let collector = s.spawn(move || {
            let mut done = Vec::with_capacity(arrivals.len());
            let mut last = t0;
            while let Ok((k, at, result)) = rx.recv() {
                last = last.max(at);
                let mut d = judge(
                    arrivals[k].job,
                    at.saturating_duration_since(due(k)),
                    result,
                    oracle,
                    keep,
                );
                d.item = k;
                done.push(d);
            }
            (done, last)
        });
        let mut lag = Vec::with_capacity(arrivals.len());
        let mut rejected = Vec::new();
        for (k, a) in arrivals.iter().enumerate() {
            let when = due(k);
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            let ts = Instant::now();
            lag.push(ts.saturating_duration_since(when));
            let tx = tx.clone();
            let sent = job(session, &pool[a.job]).submit_callback(move |c| {
                // The collector outlives every callback.
                let _ = tx.send((k, Instant::now(), c.result));
            });
            if let Err(e) = sent {
                eprintln!("arrival {k} rejected: {e}");
                rejected.push(k);
            }
        }
        drop(tx);
        let (mut done, last) = collector.join().expect("collector thread panicked");
        done.extend(rejected.into_iter().map(lost));
        done.sort_by_key(|d| d.item);
        OpenLoop {
            done,
            lag,
            wall: last - t0,
        }
    })
}

/// Brings the program up: `ntx-dnn` compile (training workloads),
/// `Server::start`, and a warm-up that spawns the worker pool and runs
/// the cold first step or jobs. Returns the server, the set-up time and
/// the warm-up's checked jobs.
pub fn start(
    w: Workload,
    seed: u64,
    threads: usize,
    items: &[Item],
    oracle: &[Vec<f32>],
) -> (Server, Duration, Vec<Done>) {
    let t0 = Instant::now();
    if w.is_training() {
        std::hint::black_box(crate::gen::compile_step());
    }
    let server = Server::start(w.server_config(seed, threads));
    let session = server.session();
    let warm = match w {
        Workload::TrainSim | Workload::TrainExact => {
            train_step(&session, items, oracle, w.backend(), false).done
        }
        Workload::ServeMix => serve_pass(&session, items, SERVE_WARMUP_JOBS, oracle, false).0,
        Workload::ChaosOpen => {
            let n = CHAOS_WARMUP_JOBS;
            client(&session, items, 0..n, n, oracle, false, &mut Vec::new())
        }
    };
    (server, t0.elapsed(), warm)
}
