//! Seeded input generators. Every workload's jobs, operands and
//! arrival times are a pure function of `--seed`; the program under
//! test only ever sees the generated inputs.

use ntx::isa::{AguConfig, Command, LoopNest, NtxConfig, OperandSelect};
use ntx::kernels::blas::GemmKernel;
use ntx::kernels::conv::Conv2dKernel;
use ntx::sched::{JobKind, RawJob};

/// Every dimension of the full-size AlexNet training step is divided
/// by this factor, rounded up: 23 distinct GEMM shapes, 3.2 MMAC per
/// step, small enough for the cycle simulator and large enough that
/// the biggest ops overflow the TCDM and stream in tiles.
pub const STEP_DIM_DIVISOR: u32 = 16;

/// Minibatch the full-size step is compiled for (the `ntx-dnn`
/// training model's default).
pub const STEP_BATCH: u32 = 64;

/// Jobs in one `serve_mix` pass.
pub const SERVE_PASS_JOBS: usize = 1200;

/// Distinct jobs the `chaos_open` arrival schedule draws from.
pub const CHAOS_POOL_JOBS: usize = 400;

/// One job of a workload pass.
#[derive(Debug, Clone)]
pub struct Item {
    pub label: String,
    pub kind: JobKind,
    /// Indices of predecessor items in the same pass.
    pub deps: Vec<usize>,
    /// HMC mesh cube the job's data lives on (mesh workloads only).
    pub home: Option<u32>,
}

/// xorshift64 stream; a zero seed is remapped so every seed works.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let s =
            (seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Self(s | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Operand data in `[-1, 1)` with 20 significant bits, so exact
    /// and fast accumulation differ and bit compares mean something.
    pub fn data(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() >> 44) as f32 / (1u32 << 19) as f32 - 1.0)
            .collect()
    }
}

/// The full-size AlexNet forward+backward step, compiled by the
/// program's own `ntx-dnn` compiler.
pub fn compile_step() -> ntx::dnn::TrainingStep {
    ntx::dnn::compile::training_step(&ntx::dnn::networks::alexnet(), STEP_BATCH)
}

/// The proportionally scaled training step: every op of `step` keeps
/// its name and edges, every GEMM dim is divided by
/// [`STEP_DIM_DIVISOR`] (rounded up), and operands are drawn from
/// `seed`.
pub fn training_step(step: &ntx::dnn::TrainingStep, seed: u64) -> Vec<Item> {
    let d = STEP_DIM_DIVISOR;
    step.ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let dims = GemmKernel {
                m: op.dims.m.div_ceil(d),
                k: op.dims.k.div_ceil(d),
                n: op.dims.n.div_ceil(d),
            };
            let mut rng = Rng::new(seed, 0x7a11 + i as u64);
            let a = rng.data((dims.m * dims.k) as usize);
            let b = rng.data((dims.k * dims.n) as usize);
            Item {
                label: op.name.clone(),
                kind: JobKind::Gemm { dims, a, b },
                deps: op.deps.clone(),
                home: None,
            }
        })
        .collect()
}

/// A raw NTX dot product of `n` elements: not tileable, lands whole on
/// one cluster.
fn raw_dot(rng: &mut Rng, n: u32) -> JobKind {
    let cfg = NtxConfig::builder()
        .command(Command::Mac {
            operand: OperandSelect::Memory,
        })
        .loops(LoopNest::vector(n))
        .agu(0, AguConfig::stream(0x000, 4))
        .agu(1, AguConfig::stream(4 * n, 4))
        .agu(2, AguConfig::fixed(8 * n))
        .build()
        .expect("valid raw dot product");
    JobKind::Raw(RawJob {
        config: cfg,
        tcdm: vec![(0x000, rng.data(n as usize)), (4 * n, rng.data(n as usize))],
        result_addr: 8 * n,
        result_len: 1,
    })
}

/// One job of the five families at size level `class` (0 to 4, each
/// level several times the work of the one below). At levels 2 and 4
/// the first four families take about the same time to simulate.
fn mixed_job(rng: &mut Rng, family: usize, class: usize) -> JobKind {
    match family {
        0 => {
            let n = [300, 2400, 14_000, 28_000, 56_000][class] + rng.below(64) as usize;
            JobKind::Axpy {
                a: 1.25,
                x: rng.data(n),
                y: rng.data(n),
            }
        }
        1 => {
            let (m, k, n) = [
                (8, 8, 8),
                (20, 12, 12),
                (40, 32, 16),
                (64, 32, 32),
                (64, 64, 64),
            ][class];
            JobKind::Gemm {
                dims: GemmKernel { m, k, n },
                a: rng.data((m * k) as usize),
                b: rng.data((k * n) as usize),
            }
        }
        2 => {
            let (h, w, f) = [
                (12, 9, 1),
                (20, 15, 1),
                (40, 30, 2),
                (48, 40, 4),
                (64, 60, 6),
            ][class];
            JobKind::Conv2d {
                kernel: Conv2dKernel {
                    height: h,
                    width: w,
                    k: 3,
                    filters: f,
                },
                image: rng.data((h * w) as usize),
                weights: rng.data((9 * f) as usize),
            }
        }
        3 => {
            let (h, w) = [(12, 9), (30, 17), (64, 40), (128, 80), (160, 128)][class];
            JobKind::Stencil2d {
                height: h,
                width: w,
                grid: rng.data((h * w) as usize),
            }
        }
        _ => {
            let n = [16, 48, 96, 192, 384][class] + rng.below(32) as u32;
            raw_dot(rng, n)
        }
    }
}

/// `n` jobs whose family and size class follow a fixed pattern, so
/// every seed gets exactly the same mix: job `i` is of family `i % 5`
/// and size level `classes[(i / 5) % classes.len()]`. Only operand data
/// and small size jitter depend on the seed.
fn stratified(seed: u64, stream: u64, n: usize, classes: &[usize], label: &str) -> Vec<Item> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| Item {
            label: format!("{label}-{i}"),
            kind: mixed_job(&mut rng, i % 5, classes[(i / 5) % classes.len()]),
            deps: Vec::new(),
            home: None,
        })
        .collect()
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `serve_mix`: [`SERVE_PASS_JOBS`] small jobs, all five families in
/// equal shares, 85% at size level 0 and 15% at level 1, in seeded
/// order.
pub fn serve_mix(seed: u64) -> Vec<Item> {
    let classes: Vec<usize> = (0..20).map(|c| usize::from(c >= 17)).collect();
    let mut items = stratified(seed, 0x5e7e, SERVE_PASS_JOBS, &classes, "serve");
    shuffle(&mut Rng::new(seed, 0x5e7f), &mut items);
    items
}

/// Size levels of `chaos_open` in one block of 20 arrivals: 70% small
/// (level 2), 25% medium (level 3), 5% large (level 4). A small job other
/// than a raw dot takes about a millisecond to simulate, so its latency
/// is mostly work rather than thread wake-ups, which on a shared host
/// vary from run to run.
const CHAOS_BLOCK: [usize; 20] = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4];

/// Families and size levels of [`mixed_job`].
const FAMILIES: usize = 5;
const LEVELS: usize = 5;

/// Size level of `chaos_pool` job `j`.
fn chaos_level(j: usize) -> usize {
    CHAOS_BLOCK[(j / FAMILIES) % CHAOS_BLOCK.len()]
}

/// `chaos_open`'s job pool: the heavy-tailed mix over all five
/// families, with each size level's jobs homed alternately on the two
/// mesh cubes, so both cubes hold the same work for every seed.
pub fn chaos_pool(seed: u64) -> Vec<Item> {
    let mut items = stratified(seed, 0xc4a0, CHAOS_POOL_JOBS, &CHAOS_BLOCK, "chaos");
    let mut seen = [0u32; LEVELS];
    for (i, it) in items.iter_mut().enumerate() {
        let level = chaos_level(i);
        it.home = Some(seen[level] % 2);
        seen[level] += 1;
    }
    items
}

/// One open-loop arrival: when it is due (seconds from the start of
/// the schedule) and which pool job it sends.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_s: f64,
    pub job: usize,
}

/// The `chaos_open` schedule: one arrival every `1 / rate` seconds for
/// `seconds`. Arrivals walk the pool in passes that send every pool job
/// once; within a pass every block of 20 consecutive arrivals holds the
/// mix of [`CHAOS_BLOCK`], so large jobs are spread evenly instead of
/// clumping by chance. The order of (size level, family) slots is the
/// same for every seed; the seed picks which pool job fills each slot.
/// So every seed offers the same shape of load, and queueing behind a
/// large job happens at the same places in every run.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut pick = Rng::new(seed, 0xa771);
    let mut shape = Rng::new(0, 0xa772);
    let count = (seconds * rate).floor() as usize;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        // Pool jobs by (level, family), in seeded order.
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); LEVELS * FAMILIES];
        for j in 0..CHAOS_POOL_JOBS {
            slots[chaos_level(j) * FAMILIES + j % FAMILIES].push(j);
        }
        for group in &mut slots {
            shuffle(&mut pick, group);
        }
        // Each level's family order over the pass, fixed.
        let mut families: Vec<Vec<usize>> = (0..LEVELS)
            .map(|level| {
                let n = slots[level * FAMILIES..(level + 1) * FAMILIES]
                    .iter()
                    .map(Vec::len)
                    .sum();
                let mut f: Vec<usize> = (0..n).map(|i| i % FAMILIES).collect();
                shuffle(&mut shape, &mut f);
                f
            })
            .collect();
        for _ in 0..CHAOS_POOL_JOBS / CHAOS_BLOCK.len() {
            let mut block = CHAOS_BLOCK;
            shuffle(&mut shape, &mut block);
            for level in block {
                let family = families[level].pop().expect("the pool holds whole blocks");
                let job = slots[level * FAMILIES + family]
                    .pop()
                    .expect("every family has the same share of each level");
                let due_s = out.len() as f64 / rate;
                out.push(Arrival { due_s, job });
            }
        }
    }
    out.truncate(count);
    out
}
