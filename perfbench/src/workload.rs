//! The four workloads: what each sends, to which system, and how.
//! Why each was chosen is recorded in `BENCHMARK.json` and the
//! benchmark's README.

use ntx::sched::{BackendKind, FaultPlan, MeshConfig, ServerConfig};

use crate::gen::{self, Arrival, Item};

/// Closed-loop client threads of `serve_mix`.
pub const SERVE_CLIENTS: usize = 2;
/// Jobs each `serve_mix` client keeps outstanding.
pub const SERVE_WINDOW: usize = 8;
/// Jobs of the `serve_mix` warm-up (a prefix of the pass).
pub const SERVE_WARMUP_JOBS: usize = 256;

/// Offered rate of the `chaos_open` open loop, jobs per wall second.
/// A fixed constant: never calibrated at run time, so a faster program
/// sees the same offered load and shows it as lower latency. Low
/// enough that most jobs find a free worker, so the median measures
/// service rather than how often a job queues behind a large one.
pub const CHAOS_RATE_PER_S: f64 = 100.0;
/// Jobs of the `chaos_open` warm-up burst (a prefix of the pool).
pub const CHAOS_WARMUP_JOBS: usize = 64;
/// The cluster the chaos plan kills, and the virtual cycle at which it
/// dies: after the warm-up burst, early in the timed schedule. Fixed,
/// so every seed loses the same cube's capacity.
pub const CHAOS_KILL_CLUSTER: u32 = 5;
pub const CHAOS_KILL_CYCLE: u64 = 750_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSim,
    TrainExact,
    ServeMix,
    ChaosOpen,
}

pub const ALL: [Workload; 4] = [
    Workload::TrainSim,
    Workload::TrainExact,
    Workload::ServeMix,
    Workload::ChaosOpen,
];

/// A workload's generated inputs.
pub struct Inputs {
    /// One pass: a training step (with DAG edges), a serving pass, or
    /// the chaos job pool.
    pub items: Vec<Item>,
    /// The open-loop schedule over `items` (`chaos_open` only).
    pub arrivals: Vec<Arrival>,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSim => "train_sim",
            Workload::TrainExact => "train_exact",
            Workload::ServeMix => "serve_mix",
            Workload::ChaosOpen => "chaos_open",
        }
    }

    pub fn is_training(self) -> bool {
        matches!(self, Workload::TrainSim | Workload::TrainExact)
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::TrainExact => BackendKind::NativeExact,
            _ => BackendKind::Simulate,
        }
    }

    /// Worker-pool width (native threads on `train_exact`). The closed
    /// loops on the simulator run the serial merge loop: with two pool
    /// workers beside the client and merge threads on a two-core host,
    /// their wall-clock figures spread several times wider from run to
    /// run (a `train_sim` step took about 100 ms or 135 ms). The pool
    /// itself is exercised by `chaos_open`.
    pub fn pool_threads(self) -> usize {
        match self {
            Workload::TrainSim | Workload::ServeMix => 1,
            Workload::TrainExact | Workload::ChaosOpen => 2,
        }
    }

    /// The served system. The worker-pool width is always explicit, so
    /// no environment variable can change it.
    pub fn server_config(self, seed: u64, threads: usize) -> ServerConfig {
        let config = match self {
            Workload::TrainSim | Workload::TrainExact => ServerConfig::with_clusters(4),
            Workload::ServeMix => ServerConfig::with_clusters(8),
            Workload::ChaosOpen => ServerConfig::with_clusters(16)
                .with_hmc_mesh(MeshConfig::default().with_cubes(2))
                .with_faults(
                    FaultPlan::NONE
                        .with_seed(seed)
                        .with_kill(CHAOS_KILL_CLUSTER, CHAOS_KILL_CYCLE)
                        .with_stalls(256, 1 << 13, 64),
                ),
        };
        config.with_worker_threads(threads)
    }

    /// Generates the inputs from `seed`; `seconds` sizes the open-loop
    /// schedule.
    pub fn inputs(self, seed: u64, seconds: f64) -> Inputs {
        match self {
            Workload::TrainSim | Workload::TrainExact => Inputs {
                items: gen::training_step(&gen::compile_step(), seed),
                arrivals: Vec::new(),
            },
            Workload::ServeMix => Inputs {
                items: gen::serve_mix(seed),
                arrivals: Vec::new(),
            },
            Workload::ChaosOpen => Inputs {
                items: gen::chaos_pool(seed),
                arrivals: gen::arrivals(seed, CHAOS_RATE_PER_S, seconds),
            },
        }
    }
}
