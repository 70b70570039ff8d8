//! The multi-cluster executor: a thin composition of the layered
//! serving stack.
//!
//! [`ScaleOutExecutor`] wires a [`SimulatorBackend`] (the tiler, the
//! placement heuristic and the [`ClusterFarm`](crate::ClusterFarm)),
//! an [`AnalyticalBackend`] (roofline estimates) and a pair of
//! [`NativeHost`]s (wire-speed host-CPU execution, fast and
//! bit-exact) behind the [`Backend`] trait and dispatches each job to
//! the backend its [`JobOpts`](crate::JobOpts) select. The async,
//! multi-client entry point on top of this is
//! [`Server`](crate::Server); the executor itself is the synchronous
//! core both paths share.

use ntx_mem::{MemoryModel, MeshConfig};
use ntx_sim::{Cluster, ClusterConfig};

use crate::backend::{
    AdmittedJob, AnalyticalBackend, Backend, BackendKind, JobEstimate, NativeHost, SimulatorBackend,
};
use crate::farm::JobMeta;
use crate::job::{Job, JobQueue};
use crate::report::ScaleOutReport;
use crate::SchedError;

/// Static configuration of the scale-out system.
#[derive(Debug, Clone, Copy)]
pub struct ScaleOutConfig {
    /// Number of clusters (the paper's companion work scales 1..128
    /// per HMC; Table II goes to 512 across cubes).
    pub clusters: usize,
    /// Configuration of every cluster.
    pub cluster: ClusterConfig,
    /// Overlap jobs across clusters (the pipelined farm). With `false`
    /// every job barriers on its predecessor — the differential oracle
    /// for the farm, mirroring the simulator's `fast_path: false`.
    pub pipelined: bool,
    /// Let small jobs occupy disjoint cluster subsets (cluster-level
    /// space sharing) instead of spanning the whole farm.
    pub space_share: bool,
    /// Estimated cycles of work one shard should carry before the
    /// space-sharing heuristic adds another cluster to a job.
    pub target_shard_cycles: u64,
    /// External-memory model: ideal private memories (the default), or
    /// an HMC mesh ([`MemoryModel::HmcMesh`]) whose per-cube vault/LoB
    /// bandwidth the attached clusters' DMA draws from, with
    /// serial-link hop costs for off-cube traffic. One shared HMC is
    /// the 1-cube mesh. Data outputs are bit-identical either way;
    /// only timing changes.
    pub memory: MemoryModel,
    /// On a mesh, prefer clusters attached to a job's home cube over
    /// less-loaded remote ones (data-affine placement, the default).
    /// With `false` placement is purely load-ordered — the control
    /// arm of the affinity experiment. Meaningless without
    /// [`MemoryModel::HmcMesh`].
    pub affinity: bool,
    /// Deterministic chaos schedule injected into continuous-mode
    /// farms: cluster kills, transient stalls, serial-link
    /// degradation. The empty plan (the default) injects nothing;
    /// batch (oracle) runs always ignore it.
    pub faults: ntx_sim::FaultPlan,
    /// Worker threads for the continuous farm's cluster pool. `0`
    /// (the default) resolves via the `NTX_WORKER_THREADS` env
    /// variable, falling back to serial; `1` forces serial; `> 1`
    /// steps clusters speculatively on that many threads while the
    /// merge front keeps retire order — and every output and counter —
    /// bit-identical to the serial farm. Batch (oracle) runs always
    /// execute serially.
    pub worker_threads: usize,
}

impl Default for ScaleOutConfig {
    fn default() -> Self {
        Self {
            clusters: 8,
            cluster: ClusterConfig::default(),
            pipelined: true,
            space_share: true,
            target_shard_cycles: 4096,
            memory: MemoryModel::Ideal,
            affinity: true,
            faults: ntx_sim::FaultPlan::NONE,
            worker_threads: 0,
        }
    }
}

impl ScaleOutConfig {
    /// `clusters` default-configured clusters.
    #[must_use]
    pub fn with_clusters(clusters: usize) -> Self {
        Self {
            clusters,
            ..Self::default()
        }
    }

    /// The barriered reference configuration: same placement, no
    /// inter-job overlap.
    #[must_use]
    pub fn barriered(mut self) -> Self {
        self.pipelined = false;
        self
    }

    /// Runs the farm on an HMC mesh: clusters are block-partitioned
    /// over the cubes, jobs carry a home cube, and remote shards pay
    /// serial-link bandwidth and hop latency. A 1-cube mesh runs every
    /// cluster against one shared HMC.
    #[must_use]
    pub fn with_hmc_mesh(mut self, mesh: MeshConfig) -> Self {
        self.memory = MemoryModel::HmcMesh(mesh);
        self
    }

    /// Disables data-affine placement (mesh farms only): clusters are
    /// picked purely by load, so shards land remote whenever the home
    /// cube's ports happen to be busier.
    #[must_use]
    pub fn without_affinity(mut self) -> Self {
        self.affinity = false;
        self
    }

    /// Arms a deterministic chaos schedule (continuous-mode farms
    /// only; the batch oracle stays fault-free).
    #[must_use]
    pub fn with_faults(mut self, faults: ntx_sim::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the worker-pool width for continuous farms (`0` = resolve
    /// from the `NTX_WORKER_THREADS` env variable, `1` = serial).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }
}

/// Result of one job: the assembled output plus the measurement window.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Id the queue assigned at submission.
    pub job_id: u64,
    /// Submission label.
    pub label: String,
    /// The job's output, assembled from all cluster shards exactly as
    /// a single cluster would have produced it. Empty for analytical
    /// estimates, which produce no data.
    pub output: Vec<f32>,
    /// Counters of this job's window: per-cluster deltas of the
    /// clusters its shards ran on, makespan of the slowest shard.
    pub report: ScaleOutReport,
    /// Virtual farm cycle at which the job's first shard started.
    pub start_cycle: u64,
    /// Virtual farm cycle at which the job's last shard retired
    /// (`finish_cycle - start_cycle` includes any wait for a busy
    /// cluster, unlike `report.makespan_cycles`).
    pub finish_cycle: u64,
    /// The analytical answer, when the job ran on the estimate backend,
    /// or the (calibrated) admission estimate for native jobs.
    pub estimate: Option<JobEstimate>,
    /// Which backend produced this result.
    pub backend: BackendKind,
}

/// Result of draining a whole queue.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job results in submission order.
    pub results: Vec<JobResult>,
    /// The batch window: all simulated shard deltas, and the makespan
    /// under the configured accounting (overlapped when pipelined,
    /// back-to-back when barriered).
    pub report: ScaleOutReport,
}

/// The multi-cluster scheduler/executor.
#[derive(Debug)]
pub struct ScaleOutExecutor {
    config: ScaleOutConfig,
    sim: SimulatorBackend,
    model: AnalyticalBackend,
    native_fast: NativeHost,
    native_exact: NativeHost,
}

impl ScaleOutExecutor {
    /// Builds `config.clusters` independent clusters plus the
    /// analytical model and the native host backends of the same
    /// system.
    ///
    /// # Panics
    ///
    /// Panics when `config.clusters` is zero.
    #[must_use]
    pub fn new(config: ScaleOutConfig) -> Self {
        assert!(config.clusters > 0, "need at least one cluster");
        Self {
            config,
            sim: SimulatorBackend::new(config),
            model: AnalyticalBackend::new(&config),
            native_fast: NativeHost::fast(&config),
            native_exact: NativeHost::exact(&config),
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.config.clusters
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &ScaleOutConfig {
        &self.config
    }

    /// Read-only access to cluster `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn cluster(&self, index: usize) -> &Cluster {
        self.sim.cluster(index)
    }

    /// The backend serving `kind`.
    fn backend(&mut self, kind: BackendKind) -> &mut dyn Backend {
        match kind {
            BackendKind::Simulate => &mut self.sim,
            BackendKind::Estimate => &mut self.model,
            BackendKind::NativeFast => &mut self.native_fast,
            BackendKind::NativeExact => &mut self.native_exact,
        }
    }

    /// Shards `job` across **all** clusters (the strong-scaling path;
    /// the space-sharing heuristic only applies to queued batches),
    /// runs it to completion, and assembles the output.
    ///
    /// # Errors
    ///
    /// Propagates tiler errors; the clusters are left idle (but with
    /// clobbered memories) on failure.
    pub fn run_job(&mut self, job: &Job) -> Result<JobResult, SchedError> {
        let plans = self.sim.admit_full_width(job)?;
        let meta = JobMeta {
            id: job.id,
            label: job.label.clone(),
            output_len: job.output_len(),
            class: job.kind.class(),
            home_cube: job.opts.home_cube,
        };
        Ok(self.sim.run_single(meta, plans))
    }

    /// Drains the queue. Every job is admitted (and so shape- and
    /// capacity-checked) up front, so a bad submission fails the whole
    /// batch before any simulation time is spent and with the queue
    /// intact; errors name the offending job. Jobs whose options
    /// select the analytical backend are answered from the model; the
    /// rest run on the pipelined farm (or the barriered reference,
    /// per the configuration). Results come back in submission order.
    ///
    /// # Errors
    ///
    /// [`SchedError::Job`] wrapping the first admission failure.
    pub fn run_queue(&mut self, queue: &mut JobQueue) -> Result<BatchResult, SchedError> {
        let mut work = Vec::with_capacity(queue.len());
        for job in queue.iter() {
            let admitted =
                self.backend(job.opts.backend)
                    .admit(job)
                    .map_err(|e| SchedError::Job {
                        id: job.id,
                        label: job.label.clone(),
                        source: Box::new(e),
                    })?;
            work.push(admitted);
        }
        // Split the admitted queue into one lane per backend,
        // remembering each job's submission slot.
        const LANES: [BackendKind; 4] = [
            BackendKind::Simulate,
            BackendKind::Estimate,
            BackendKind::NativeFast,
            BackendKind::NativeExact,
        ];
        let lane = |kind: BackendKind| {
            LANES
                .iter()
                .position(|&k| k == kind)
                .expect("every backend kind has a lane")
        };
        let mut batches: [Vec<AdmittedJob>; 4] = Default::default();
        let mut slots: [Vec<usize>; 4] = Default::default();
        let mut total = 0usize;
        for (slot, admitted) in work.into_iter().enumerate() {
            let job = queue.pop().expect("one queued job per admission");
            let l = lane(job.opts.backend);
            slots[l].push(slot);
            batches[l].push(AdmittedJob {
                job,
                work: admitted,
            });
            total += 1;
        }
        // Run each lane's batch and stitch results back into
        // submission order. The batch window is the simulated one —
        // estimates and native jobs spend no simulator time.
        let mut results: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();
        let mut window = None;
        for (l, &kind) in LANES.iter().enumerate() {
            let batch = std::mem::take(&mut batches[l]);
            let lane_result = self.backend(kind).run_batch(batch);
            for (&slot, r) in slots[l].iter().zip(lane_result.results) {
                results[slot] = Some(r);
            }
            if kind == BackendKind::Simulate {
                window = Some(lane_result.report);
            }
        }
        Ok(BatchResult {
            results: results
                .into_iter()
                .map(|r| r.expect("every slot filled"))
                .collect(),
            report: window.expect("simulator lane always runs"),
        })
    }
}

/// Convenience entry point: runs one job on an `n`-cluster system and
/// returns its result.
///
/// # Errors
///
/// Propagates [`SchedError`] from planning.
pub fn run_sharded(job: &Job, clusters: usize) -> Result<JobResult, SchedError> {
    ScaleOutExecutor::new(ScaleOutConfig::with_clusters(clusters)).run_job(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::job::RawJob;
    use ntx_isa::{AguConfig, Command, LoopNest, NtxConfig, OperandSelect};
    use ntx_kernels::blas::GemmKernel;
    use ntx_kernels::conv::Conv2dKernel;
    use ntx_kernels::reference;

    fn data(n: usize, mut seed: u32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 17;
                seed ^= seed << 5;
                ((seed % 64) as f32 - 32.0) / 16.0
            })
            .collect()
    }

    fn job(kind: JobKind) -> Job {
        Job::new(0, "test", kind)
    }

    #[test]
    fn axpy_sharded_matches_reference_and_single() {
        let n = 3000usize;
        let x = data(n, 7);
        let y = data(n, 11);
        let kind = JobKind::Axpy {
            a: 1.5,
            x: x.clone(),
            y: y.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let mut expect = y;
        reference::axpy(1.5, &x, &mut expect);
        assert_eq!(single.output, expect);
        assert_eq!(wide.output, expect);
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn gemm_sharded_matches_reference_and_single() {
        let (m, k, n) = (24u32, 12u32, 9u32);
        let a = data((m * k) as usize, 3);
        let b = data((k * n) as usize, 5);
        let kind = JobKind::Gemm {
            dims: GemmKernel { m, k, n },
            a: a.clone(),
            b: b.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 3).unwrap();
        let expect = reference::gemm(&a, &b, m as usize, k as usize, n as usize);
        assert_eq!(single.output, expect);
        assert_eq!(wide.output, expect);
    }

    #[test]
    fn conv_sharded_matches_reference_and_single() {
        let kernel = Conv2dKernel {
            height: 34,
            width: 21,
            k: 3,
            filters: 2,
        };
        let image = data((kernel.height * kernel.width) as usize, 13);
        let weights = data((kernel.k * kernel.k * kernel.filters) as usize, 17);
        let kind = JobKind::Conv2d {
            kernel,
            image: image.clone(),
            weights: weights.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let (oh, ow) = (kernel.out_height() as usize, kernel.out_width() as usize);
        for f in 0..kernel.filters as usize {
            let expect = reference::conv2d(
                &image,
                kernel.height as usize,
                kernel.width as usize,
                &weights[f * 9..(f + 1) * 9],
                3,
            );
            assert_eq!(&single.output[f * oh * ow..(f + 1) * oh * ow], &expect[..]);
            assert_eq!(&wide.output[f * oh * ow..(f + 1) * oh * ow], &expect[..]);
        }
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn stencil_sharded_matches_reference_and_single() {
        let (h, w) = (40u32, 23u32);
        let grid = data((h * w) as usize, 29);
        let kind = JobKind::Stencil2d {
            height: h,
            width: w,
            grid: grid.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 4).unwrap();
        let expect = reference::laplace2d(&grid, h as usize, w as usize);
        for (i, (g, e)) in single.output.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-3 * e.abs().max(1.0),
                "element {i}: {g} vs {e}"
            );
        }
        // Sharding must not change a single bit.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single.output), bits(&wide.output));
        assert!(wide.report.makespan_cycles < single.report.makespan_cycles);
    }

    #[test]
    fn raw_job_runs_on_one_cluster() {
        let cfg = NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Memory,
            })
            .loops(LoopNest::vector(4))
            .agu(0, AguConfig::stream(0x000, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let kind = JobKind::Raw(RawJob {
            config: cfg,
            tcdm: vec![
                (0x000, vec![1.0, 2.0, 3.0, 4.0]),
                (0x100, vec![4.0, 3.0, 2.0, 1.0]),
            ],
            result_addr: 0x200,
            result_len: 1,
        });
        let r = run_sharded(&job(kind), 4).unwrap();
        assert_eq!(r.output, vec![20.0]);
        // Exactly one cluster did work.
        let active = r.report.per_cluster.iter().filter(|p| p.flops > 0).count();
        assert_eq!(active, 1);
    }

    fn two_job_queue() -> JobQueue {
        let mut q = JobQueue::new();
        q.job("axpy").axpy(2.0, data(500, 1), data(500, 2)).submit();
        q.job("gemm")
            .gemm(GemmKernel { m: 8, k: 8, n: 8 }, data(64, 3), data(64, 4))
            .submit();
        q
    }

    #[test]
    fn queue_runs_jobs_in_order_and_pipelining_beats_the_barrier() {
        let mut barriered = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2).barriered());
        let base = barriered.run_queue(&mut two_job_queue()).unwrap();
        assert_eq!(base.results.len(), 2);
        assert_eq!(base.results[0].label, "axpy");
        assert_eq!(base.results[1].label, "gemm");
        // Barriered accounting: jobs run back to back.
        assert_eq!(
            base.report.makespan_cycles,
            base.results[0].report.makespan_cycles + base.results[1].report.makespan_cycles
        );
        assert!(base.report.total_flops() > 0);
        assert!(base.report.dma_occupancy() > 0.0);

        // The pipelined farm space-shares the two small jobs across the
        // two clusters: same per-job windows, overlapped makespan.
        let mut pipelined = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let batch = pipelined.run_queue(&mut two_job_queue()).unwrap();
        for (p, b) in batch.results.iter().zip(&base.results) {
            assert_eq!(p.output, b.output);
            assert_eq!(p.report.makespan_cycles, b.report.makespan_cycles);
            assert_eq!(p.report.per_cluster, b.report.per_cluster);
        }
        assert!(batch.report.makespan_cycles < base.report.makespan_cycles);
        assert_eq!(
            batch.report.makespan_cycles,
            batch
                .results
                .iter()
                .map(|r| r.report.makespan_cycles)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn estimate_backend_answers_without_simulating() {
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let mut q = JobQueue::new();
        q.job("axpy-estimate")
            .axpy(2.0, data(4096, 5), data(4096, 6))
            .estimate()
            .submit();
        q.job("axpy-simulated")
            .axpy(2.0, data(256, 7), data(256, 8))
            .submit();
        let batch = exec.run_queue(&mut q).unwrap();
        let est = &batch.results[0];
        assert!(est.output.is_empty());
        let e = est.estimate.expect("analytical job carries its estimate");
        assert!(e.cycles > 0 && !e.compute_bound);
        assert_eq!(est.report.makespan_cycles, e.cycles);
        // The simulated job produced data; the estimate spent no
        // simulator cycles anywhere (only job 2's shard advanced a
        // cluster, and only one cluster was touched).
        let sim = &batch.results[1];
        assert_eq!(sim.output.len(), 256);
        assert!(sim.estimate.is_none());
        let advanced = (0..exec.num_clusters())
            .filter(|&c| exec.cluster(c).cycle() > 0)
            .count();
        assert_eq!(advanced, 1);
    }

    #[test]
    fn bad_job_fails_batch_upfront_and_names_the_job() {
        let mut exec = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(2));
        let mut q = JobQueue::new();
        q.job("good").axpy(1.0, data(64, 1), data(64, 2)).submit();
        let bad_id = q
            .job("mismatched")
            .axpy(1.0, data(64, 3), data(32, 4))
            .submit();
        let err = exec.run_queue(&mut q).unwrap_err();
        match err {
            SchedError::Job { id, label, source } => {
                assert_eq!(id, bad_id);
                assert_eq!(label, "mismatched");
                assert!(matches!(*source, SchedError::Shape(_)));
            }
            other => panic!("expected SchedError::Job, got {other:?}"),
        }
        // Pre-validation failed before any job ran: the queue is intact.
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn raw_job_window_outside_tcdm_rejected() {
        // TCDM addresses wrap at capacity, so an out-of-range result
        // window must be rejected at planning time, not read aliased.
        let cfg = NtxConfig::builder()
            .command(Command::Mac {
                operand: OperandSelect::Memory,
            })
            .loops(LoopNest::vector(2))
            .agu(0, AguConfig::stream(0x000, 4))
            .agu(1, AguConfig::stream(0x100, 4))
            .agu(2, AguConfig::fixed(0x200))
            .build()
            .unwrap();
        let kind = JobKind::Raw(RawJob {
            config: cfg,
            tcdm: vec![(0x000, vec![1.0, 2.0])],
            result_addr: 0xfff0,
            result_len: 8,
        });
        // 32 B requested at 0xfff0 with 16 B left: a typed error that
        // names the sizes, not a stringly capacity failure.
        match run_sharded(&job(kind), 1) {
            Err(SchedError::PlanTooLarge {
                what,
                requested,
                available,
                suggested_passes,
            }) => {
                assert_eq!(what, "raw job result window");
                assert_eq!(requested, 32);
                assert_eq!(available, 16);
                assert_eq!(suggested_passes, 2);
            }
            other => panic!("expected PlanTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_axpy_shard_rejected_not_corrupted() {
        // A shard whose x operand would overrun the 16 MB region pitch
        // must be a Capacity error, not silent aliasing.
        let n = 5_000_000usize;
        let kind = JobKind::Axpy {
            a: 1.0,
            x: vec![0.0; n],
            y: vec![0.0; n],
        };
        assert!(matches!(
            run_sharded(&job(kind), 1),
            Err(SchedError::Capacity(_))
        ));
    }

    #[test]
    fn oversized_gemm_shard_streams_in_split_tiles() {
        // 1 cluster: A + padded B + C need ~110 kB, over the 64 kB
        // TCDM — the shard streams as M/N output tiles instead of
        // being rejected, and the result still matches exactly (the
        // data is dyadic and small, so both sums are exact).
        let (a, b) = (data(96 * 96, 1), data(96 * 96, 2));
        let kind = JobKind::Gemm {
            dims: GemmKernel {
                m: 96,
                k: 96,
                n: 96,
            },
            a: a.clone(),
            b: b.clone(),
        };
        let r = run_sharded(&job(kind), 1).unwrap();
        let expect = reference::gemm(&a, &b, 96, 96, 96);
        assert_eq!(r.output, expect);
    }

    #[test]
    fn deep_gemm_splits_k_and_matches_sharded_run() {
        // k = 6000 exceeds even a resident 8-row band of A, forcing
        // split-K accumulation passes; sharding across clusters must
        // not change a bit either.
        let (m, k, n) = (8u32, 6000u32, 4u32);
        let (a, b) = (data((m * k) as usize, 3), data((k * n) as usize, 4));
        let kind = JobKind::Gemm {
            dims: GemmKernel { m, k, n },
            a: a.clone(),
            b: b.clone(),
        };
        let single = run_sharded(&job(kind.clone()), 1).unwrap();
        let wide = run_sharded(&job(kind), 2).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single.output), bits(&wide.output));
        // The wide accumulator rounds once at the very end, so even a
        // 6000-term sum stays close to the f32 reference.
        let expect = reference::gemm(&a, &b, m as usize, k as usize, n as usize);
        for (g, e) in single.output.iter().zip(&expect) {
            assert!((g - e).abs() <= 1e-2 * e.abs().max(1.0), "{g} vs {e}");
        }
    }
}
