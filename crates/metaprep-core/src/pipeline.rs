//! Pipeline orchestration: the distributed METAPREP flow.

use crate::checkpoint::{plan_fingerprint, Checkpoint, CkptPhase, PlanCheckpoint};
use crate::config::{PipelineConfig, PipelineError};
use crate::kmergen::{expected_incoming, kmergen_pass, PipelineKmer};
use crate::localcc::{localcc_pass, thread_offsets_of, LocalCcStats};
use crate::memmodel::MemoryReport;
use crate::planner::{plan_passes, PlanInputs};
use crate::source::{ChunkSource, FileSource, MemorySource};
use crate::timings::{Step, StepTimings, TaskTimings};
use metaprep_cc::{
    absorb_parent_array, absorb_sparse_pairs, sparse_pairs, ComponentStats, ConcurrentDisjointSet,
    DisjointSet,
};
use metaprep_dist::collectives::{alltoall_obs, broadcast_obs};
use metaprep_dist::{
    run_cluster, run_cluster_faulted, run_supervised, Boundary, ClusterConfig, CommStats, Payload,
    TaskCtx,
};
use metaprep_index::{FastqPart, MerHist, RangePlan};
use metaprep_io::ReadStore;
use metaprep_kmer::{Kmer128, Kmer64};
use metaprep_norm::{HighFreqFilter, SketchParams};
use metaprep_obs::event::{CHECKPOINT, INDEX_CREATE, PASS_PLAN, TASK_RESTART};
use metaprep_obs::{CounterKind, NoopRecorder, Recorder, SpanEvent, TaskObs};
use metaprep_sort::{fused_local_sort, PassBuffers};
use std::path::Path;
use std::time::Duration;

/// Message type moved between simulated tasks.
enum Msg<T> {
    /// k-mer tuples (KmerGen-Comm).
    Tuples(Vec<T>),
    /// Component arrays (Merge-Comm and the final broadcast).
    Parents(Vec<u32>),
    /// Sparse `(vertex, root)` component pairs (Merge-Comm with the
    /// `merge_sparse` option).
    SparseParents(Vec<(u32, u32)>),
}

impl<T> Clone for Msg<T>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Msg::Tuples(v) => Msg::Tuples(v.clone()),
            Msg::Parents(v) => Msg::Parents(v.clone()),
            Msg::SparseParents(v) => Msg::SparseParents(v.clone()),
        }
    }
}

impl<T: Send + 'static> Payload for Msg<T> {
    fn size_bytes(&self) -> usize {
        match self {
            Msg::Tuples(v) => v.len() * std::mem::size_of::<T>(),
            Msg::Parents(v) => v.len() * std::mem::size_of::<u32>(),
            Msg::SparseParents(v) => v.len() * std::mem::size_of::<(u32, u32)>(),
        }
    }
}

/// Everything a METAPREP run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Component statistics of the final labeling.
    pub components: ComponentStats,
    /// Final component label per fragment (fully compressed).
    pub labels: Vec<u32>,
    /// Per-task, per-step timings plus IndexCreate.
    pub timings: StepTimings,
    /// Per-task communication volumes.
    pub comm: Vec<CommStats>,
    /// Modeled + measured per-task memory.
    pub memory: MemoryReport,
    /// Total tuples enumerated across all passes and tasks.
    pub tuples_total: u64,
    /// LocalCC counters summed over tasks and passes.
    pub localcc: LocalCcStats,
    /// Reads written to the largest-component output across tasks (CC-I/O).
    pub lc_reads_written: u64,
    /// Reads written to the "Other" output across tasks.
    pub other_reads_written: u64,
    /// K-mer occurrences dropped by the presolve filter before tuple
    /// generation (0 when the probabilistic tier is off). Conservation:
    /// `tuples_total + presolve_dropped` equals the merHist total.
    pub presolve_dropped: u64,
    /// The pass count the run actually executed — `cfg.passes`, or the
    /// planner's choice when only `memory_budget` was set.
    pub planned_passes: usize,
}

impl PipelineResult {
    /// Fraction of fragments in the largest component (Table 7's metric).
    pub fn largest_component_fraction(&self) -> f64 {
        self.components.largest_fraction()
    }
}

/// A configured METAPREP pipeline.
pub struct Pipeline {
    cfg: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline; validates the configuration eagerly.
    pub fn new(cfg: PipelineConfig) -> Self {
        // EXPECT: documented contract — `new` validates eagerly; a bad config is a construction-time programmer error, not a runtime condition.
        cfg.validate().expect("invalid pipeline configuration");
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Run the full preprocessing pipeline over in-memory reads.
    pub fn run_reads(&self, reads: &ReadStore) -> Result<PipelineResult, PipelineError> {
        self.run_reads_recorded(reads, &NoopRecorder::new())
    }

    /// [`Pipeline::run_reads`] with telemetry: every step of every task
    /// becomes a recorded span (the returned `StepTimings` are *derived*
    /// from those spans) and work/comm/memory counters flow into `rec`.
    pub fn run_reads_recorded(
        &self,
        reads: &ReadStore,
        rec: &dyn Recorder,
    ) -> Result<PipelineResult, PipelineError> {
        self.cfg
            .validate()
            .map_err(|e| PipelineError::InvalidConfig(e.to_string()))?;
        if reads.num_fragments() == u32::MAX {
            return Err(PipelineError::InvalidInput(
                "fragment count must be < u32::MAX".into(),
            ));
        }
        // ---- IndexCreate (sequential, timed; paper Table 5) ----
        let clock = rec.clock();
        let t0_ns = clock.now_ns();
        let c = self.cfg.effective_chunks();
        // With the presolve tier on, the same IndexCreate scan also feeds
        // the count-min sketch — no extra pass over the reads.
        let (merhist, sketch) = match self.cfg.presolve_threshold {
            Some(_) => {
                let (h, s) =
                    MerHist::build_sketched(reads, self.cfg.k, self.cfg.m, self.cfg.sketch);
                (h, Some(s))
            }
            None => (MerHist::build(reads, self.cfg.k, self.cfg.m), None),
        };
        let fastqpart = FastqPart::build(reads, c, self.cfg.k, self.cfg.m);
        let t1_ns = clock.now_ns();
        // Derive the duration from the span's own endpoints so a report
        // built from the exported events reproduces it exactly.
        let index_create = Duration::from_nanos(t1_ns.saturating_sub(t0_ns));
        rec.record_span(SpanEvent {
            task: 0,
            name: INDEX_CREATE,
            pass: None,
            detail: None,
            start_ns: t0_ns,
            end_ns: t1_ns,
            // Driver-side span, outside any task's causal timeline.
            lamport: 0,
        });
        let filter = sketch
            .zip(self.cfg.presolve_threshold)
            .map(|(s, t)| HighFreqFilter::new(s, t));
        let specs = fastqpart.chunks().iter().map(|r| r.spec).collect();
        let source = MemorySource::new(reads, specs);
        if self.cfg.k <= 32 {
            run_generic::<Kmer64, _>(
                &self.cfg,
                &source,
                &merhist,
                &fastqpart,
                filter.as_ref(),
                index_create,
                rec,
            )
        } else {
            run_generic::<Kmer128, _>(
                &self.cfg,
                &source,
                &merhist,
                &fastqpart,
                filter.as_ref(),
                index_create,
                rec,
            )
        }
    }

    /// Run the pipeline directly over a FASTQ *file*: IndexCreate scans the
    /// file once to build the chunk table, and every pass re-reads the
    /// chunks from disk — the paper's actual multi-pass I/O behaviour.
    /// `paired` treats the file as interleaved mate pairs.
    pub fn run_fastq_file(
        &self,
        path: impl AsRef<std::path::Path>,
        paired: bool,
    ) -> Result<PipelineResult, PipelineError> {
        self.run_fastq_file_recorded(path, paired, &NoopRecorder::new())
    }

    /// [`Pipeline::run_fastq_file`] with telemetry (see
    /// [`Pipeline::run_reads_recorded`]).
    pub fn run_fastq_file_recorded(
        &self,
        path: impl AsRef<std::path::Path>,
        paired: bool,
        rec: &dyn Recorder,
    ) -> Result<PipelineResult, PipelineError> {
        self.cfg
            .validate()
            .map_err(|e| PipelineError::InvalidConfig(e.to_string()))?;
        let path = path.as_ref();

        // ---- IndexCreate from the file (streaming, thread-parallel) ----
        let clock = rec.clock();
        let t0_ns = clock.now_ns();
        let (merhist, fastqpart, total_seqs, sketch) = index_fastq_file(
            path,
            paired,
            self.cfg.effective_chunks(),
            self.cfg.k,
            self.cfg.m,
            self.cfg.index_window,
            self.cfg.tasks * self.cfg.threads,
            self.cfg.presolve_threshold.map(|_| self.cfg.sketch),
            rec,
        )?;
        let t1_ns = clock.now_ns();
        let index_create = Duration::from_nanos(t1_ns.saturating_sub(t0_ns));
        rec.record_span(SpanEvent {
            task: 0,
            name: INDEX_CREATE,
            pass: None,
            detail: None,
            start_ns: t0_ns,
            end_ns: t1_ns,
            // Driver-side span, outside any task's causal timeline.
            lamport: 0,
        });

        let filter = sketch
            .zip(self.cfg.presolve_threshold)
            .map(|(s, t)| HighFreqFilter::new(s, t));
        let specs = fastqpart.chunks().iter().map(|r| r.spec).collect();
        let source = FileSource::new(path.to_path_buf(), specs, paired, total_seqs);
        if self.cfg.k <= 32 {
            run_generic::<Kmer64, _>(
                &self.cfg,
                &source,
                &merhist,
                &fastqpart,
                filter.as_ref(),
                index_create,
                rec,
            )
        } else {
            run_generic::<Kmer128, _>(
                &self.cfg,
                &source,
                &merhist,
                &fastqpart,
                filter.as_ref(),
                index_create,
                rec,
            )
        }
    }
}

/// Build the index tables by scanning a FASTQ file once with the streaming
/// chunker: boundaries are located through bounded probe windows, chunks
/// are histogrammed thread-parallel from byte-range reads, and the file is
/// never materialized whole (`metaprep_index::index_fastq_file_streaming`).
/// The sequence count is range-checked into the pipeline's 32-bit id space.
#[allow(clippy::too_many_arguments)]
fn index_fastq_file(
    path: &std::path::Path,
    paired: bool,
    c: usize,
    k: usize,
    m: usize,
    window: usize,
    threads: usize,
    sketch: Option<SketchParams>,
    rec: &dyn Recorder,
) -> Result<
    (
        MerHist,
        FastqPart,
        u32,
        Option<metaprep_norm::CountMinSketch>,
    ),
    PipelineError,
> {
    use metaprep_index::{index_fastq_file_streaming_sketched_recorded, StreamingOptions};
    let (merhist, fastqpart, total_seqs, cms) = index_fastq_file_streaming_sketched_recorded(
        path,
        paired,
        c,
        k,
        m,
        StreamingOptions { window, threads },
        sketch,
        rec,
    )
    .map_err(|e| PipelineError::InvalidInput(format!("index {path:?}: {e}")))?;
    let total_seqs = guard_total_seqs(total_seqs, paired)?;
    Ok((merhist, fastqpart, total_seqs, cms))
}

/// Checked conversion of a streamed sequence count into the pipeline's
/// 32-bit id space, mirroring `run_reads`' `u32::MAX` fragment guard. The
/// old code accumulated `total_seqs += store.len() as u32`, which silently
/// wrapped in release builds on >4Gi-read inputs.
fn guard_total_seqs(total_seqs: u64, paired: bool) -> Result<u32, PipelineError> {
    let fragments = if paired { total_seqs / 2 } else { total_seqs };
    if total_seqs > u32::MAX as u64 || fragments >= u32::MAX as u64 {
        return Err(PipelineError::InvalidInput(format!(
            "input has {total_seqs} sequences ({fragments} fragments); \
             fragment count must be < u32::MAX"
        )));
    }
    Ok(total_seqs as u32)
}

/// Per-task return value from the cluster run.
struct TaskOutput {
    timings: TaskTimings,
    labels: Option<Vec<u32>>,
    tuples_emitted: u64,
    peak_tuples: u64,
    presolve_dropped: u64,
    localcc: LocalCcStats,
    lc_reads: u64,
    other_reads: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_generic<K: PipelineKmer, S: ChunkSource>(
    cfg: &PipelineConfig,
    source: &S,
    merhist: &MerHist,
    fastqpart: &FastqPart,
    filter: Option<&HighFreqFilter>,
    index_create: std::time::Duration,
    rec: &dyn Recorder,
) -> Result<PipelineResult, PipelineError> {
    let r = source.num_fragments() as usize;
    let avg_chunk_bytes = if fastqpart.is_empty() {
        0
    } else {
        fastqpart
            .chunks()
            .iter()
            .map(|ch| ch.spec.bytes)
            .sum::<u64>()
            / fastqpart.len() as u64
    };

    // ---- Pass planning: invert the §3.7 memory model for the budget ----
    let clock = rec.clock();
    let plan_t0_ns = clock.now_ns();
    let passes = match cfg.memory_budget {
        Some(budget) => {
            let inputs = PlanInputs {
                m: cfg.m,
                chunks: fastqpart.len(),
                threads: cfg.threads,
                avg_chunk_bytes,
                total_tuples: merhist.total(),
                packed_tuple_bytes: K::PACKED_TUPLE_BYTES,
                tasks: cfg.tasks,
                reads: r as u64,
            };
            if cfg.passes_explicit {
                // An explicit --passes wins over the planner, but it still
                // has to fit the budget it was paired with.
                let modeled = inputs.modeled_at(cfg.passes);
                if modeled > budget {
                    return Err(PipelineError::InvalidConfig(format!(
                        "explicit passes={} models {modeled} B/task, over the {budget} B \
                         memory budget; drop --passes to let the planner choose, or \
                         raise the budget",
                        cfg.passes
                    )));
                }
                cfg.passes
            } else {
                plan_passes(&inputs, budget)?.passes
            }
        }
        None => cfg.passes,
    };
    let plan = RangePlan::build(merhist, passes, cfg.tasks, cfg.threads);
    // Persist (or verify) the plan artifact so a crash-restarted run
    // provably replays the same pass geometry.
    if let Some(dir) = cfg.checkpoint_dir.as_deref() {
        verify_or_store_plan(dir, cfg, merhist, &plan, passes)?;
    }
    let plan_t1_ns = clock.now_ns();
    rec.record_span(SpanEvent {
        task: 0,
        name: PASS_PLAN,
        pass: None,
        detail: None,
        start_ns: plan_t0_ns,
        end_ns: plan_t1_ns,
        // Driver-side span, outside any task's causal timeline.
        lamport: 0,
    });
    let bin_owner = plan.bin_owner_table();

    // Chunk ownership: round-robin over tasks (chunks are size-balanced by
    // construction, so this is the paper's static assignment).
    let owner_of_chunk: Vec<usize> = (0..fastqpart.len()).map(|i| i % cfg.tasks).collect();

    let mut cluster = ClusterConfig::new(cfg.tasks, cfg.threads);
    if let Some(ms) = cfg.watchdog_timeout_ms {
        cluster = cluster.with_watchdog_timeout(Duration::from_millis(ms));
    }
    let body = |ctx: &mut TaskCtx<Msg<K::Tuple>>| {
        task_body::<K, S>(
            ctx,
            cfg,
            source,
            fastqpart,
            &plan,
            &bin_owner,
            &owner_of_chunk,
            filter,
            r,
            rec,
        )
    };
    let run = match &cfg.fault_plan {
        Some(fault_plan) => {
            let mut fault_plan = fault_plan.clone();
            if let Some(n) = cfg.max_retries {
                fault_plan.delivery.max_retries = n;
            }
            run_cluster_faulted::<Msg<K::Tuple>, TaskOutput, _>(cluster, &fault_plan, body)
        }
        None => run_cluster::<Msg<K::Tuple>, TaskOutput, _>(cluster, body),
    };

    // ---- assemble the result ----
    // The exchange's global ledger must balance whether or not the
    // presolve filter shrank the traffic — drops happen before sends.
    debug_assert_eq!(metaprep_dist::check_conservation(&run.stats), Ok(()));
    let mut labels = None;
    let mut per_task = Vec::with_capacity(cfg.tasks);
    let mut tuples_total = 0u64;
    let mut presolve_dropped = 0u64;
    let mut localcc = LocalCcStats::default();
    let mut peak_tuples = 0u64;
    let (mut lc_reads_written, mut other_reads_written) = (0u64, 0u64);
    for out in run.results {
        per_task.push(out.timings);
        tuples_total += out.tuples_emitted;
        presolve_dropped += out.presolve_dropped;
        localcc.merge(out.localcc);
        peak_tuples = peak_tuples.max(out.peak_tuples);
        lc_reads_written += out.lc_reads;
        other_reads_written += out.other_reads;
        if let Some(l) = out.labels {
            labels = Some(l);
        }
    }
    // EXPECT: the CC phase gathers component labels to rank 0, so exactly one task output carries `Some`.
    let labels = labels.expect("rank 0 must produce labels");
    let components = ComponentStats::from_component_array(&labels);

    // The differential guarantee of the presolve tier: every enumerated
    // k-mer occurrence was either shipped as a tuple or explicitly dropped
    // by the filter — never silently lost. Promoted to a release assert
    // like the receive-count check.
    assert_eq!(
        tuples_total + presolve_dropped,
        merhist.total(),
        "presolve conservation: emitted + dropped must equal the merHist total"
    );

    let mut memory = MemoryReport::model(
        cfg.m,
        fastqpart.len(),
        cfg.threads,
        avg_chunk_bytes,
        merhist.total(),
        K::PACKED_TUPLE_BYTES,
        passes,
        cfg.tasks,
        r as u64,
    );
    memory.record_peak(peak_tuples, std::mem::size_of::<K::Tuple>());

    // Driver-side counters: communication volume comes from the cluster's
    // own byte/message accounting (the single source of truth — the
    // collectives record stage *spans* only), and the memory model's
    // totals ride along so a report can show modeled vs measured.
    if rec.enabled() {
        for (task, s) in run.stats.iter().enumerate() {
            let task = task as u32;
            rec.record_counter(task, CounterKind::BytesSent, s.bytes_sent);
            rec.record_counter(task, CounterKind::MessagesSent, s.messages_sent);
            rec.record_counter(task, CounterKind::BytesReceived, s.bytes_received);
            rec.record_counter(task, CounterKind::MessagesReceived, s.messages_received);
        }
        rec.record_counter(0, CounterKind::MemModeledBytes, memory.total_modeled());
        rec.record_counter(
            0,
            CounterKind::MemPeakTupleBytes,
            memory.measured_peak_tuple_bytes,
        );
        rec.record_counter(0, CounterKind::PlannedPasses, passes as u64);
        if let Some(budget) = cfg.memory_budget {
            rec.record_counter(0, CounterKind::MemBudgetBytes, budget);
        }
        if let Some(f) = filter {
            rec.record_counter(
                0,
                CounterKind::SketchFillPermille,
                f.sketch().fill_ratio_permille(),
            );
        }
    }

    Ok(PipelineResult {
        components,
        labels,
        timings: StepTimings {
            index_create,
            per_task,
        },
        comm: run.stats,
        memory,
        tuples_total,
        localcc,
        lc_reads_written,
        other_reads_written,
        presolve_dropped,
        planned_passes: passes,
    })
}

/// Persist the adaptive pass plan under `dir`, or — when an artifact with
/// the same input fingerprint already exists (a restarted run) — verify
/// the recomputed plan matches it byte for byte. A same-fingerprint
/// mismatch means planning was not a pure function of its inputs, which
/// would silently break checkpoint replay; fail loudly instead. A
/// different fingerprint is just a stale artifact from another run and is
/// overwritten.
fn verify_or_store_plan(
    dir: &Path,
    cfg: &PipelineConfig,
    merhist: &MerHist,
    plan: &RangePlan,
    passes: usize,
) -> Result<(), PipelineError> {
    let fingerprint = plan_fingerprint(
        merhist.counts(),
        cfg.k,
        cfg.m,
        cfg.tasks,
        cfg.threads,
        cfg.memory_budget,
    );
    let mut bounds: Vec<u128> = (0..passes).map(|s| plan.pass_range(s).0).collect();
    bounds.push(plan.pass_range(passes - 1).1);
    let ck = PlanCheckpoint {
        passes: passes as u32,
        tasks: cfg.tasks as u32,
        threads: cfg.threads as u32,
        fingerprint,
        bounds,
    };
    let to_err =
        |e: crate::checkpoint::CkptError| PipelineError::InvalidInput(format!("plan.ckpt: {e}"));
    match PlanCheckpoint::load(dir).map_err(to_err)? {
        Some(prev) if prev.fingerprint == fingerprint => {
            if prev != ck {
                return Err(PipelineError::InvalidInput(format!(
                    "plan.ckpt disagrees with the recomputed plan for the same inputs \
                     (stored {} passes, recomputed {})",
                    prev.passes, ck.passes
                )));
            }
            Ok(())
        }
        _ => ck.store(dir).map_err(to_err),
    }
}

/// What one (possibly restarted) attempt of a task's body produces —
/// [`TaskOutput`] minus the span-derived timings, which are computed
/// once after the supervisor loop settles.
struct AttemptOutput {
    labels: Option<Vec<u32>>,
    tuples_emitted: u64,
    peak_tuples: u64,
    presolve_dropped: u64,
    localcc: LocalCcStats,
    lc_reads: u64,
    other_reads: u64,
}

/// Persist `ck` under `dir`, recording the write as a [`CHECKPOINT`]
/// span (`pass`/`detail` name the boundary) and bumping the counter.
fn write_checkpoint(obs: &mut TaskObs<'_>, dir: &Path, ck: &Checkpoint, detail: Option<u32>) {
    let t0 = obs.open();
    // EXPECT: a checkpoint that cannot be persisted would leave a later restart silently unprotected — abort the run instead.
    ck.store(dir).expect("checkpoint write failed");
    obs.close_detail(t0, CHECKPOINT, None, detail);
    obs.add(CounterKind::CheckpointWrites, 1);
}

#[allow(clippy::too_many_arguments)]
fn task_body<K: PipelineKmer, S: ChunkSource>(
    ctx: &mut TaskCtx<Msg<K::Tuple>>,
    cfg: &PipelineConfig,
    source: &S,
    fastqpart: &FastqPart,
    plan: &RangePlan,
    bin_owner: &[u32],
    owner_of_chunk: &[usize],
    filter: Option<&HighFreqFilter>,
    r: usize,
    rec: &dyn Recorder,
) -> TaskOutput {
    let rank = ctx.rank();
    // Every step is recorded as a span; `TaskTimings` is derived from the
    // spans at the end so the exported trace and the in-process timings
    // can never disagree. The observer lives OUTSIDE the supervised
    // restart loop: spans and counters from work completed before a crash
    // really happened and stay in the trace, and the task's Lamport clock
    // keeps its continuity across restarts.
    let mut obs = TaskObs::new(rec, rank as u32);
    let my_chunks: Vec<usize> = (0..fastqpart.len())
        .filter(|&i| owner_of_chunk[i] == rank)
        .collect();

    // Each planned crash fires at most once (the context remembers), so
    // the crash count bounds the restarts a task can ever need.
    let max_restarts = cfg
        .fault_plan
        .as_ref()
        .map(|fp| fp.crashes.len() as u32)
        .unwrap_or(0);
    let (out, restarts) = run_supervised(max_restarts, |restart_no| {
        attempt_body::<K, S>(
            ctx, cfg, source, fastqpart, plan, bin_owner, &my_chunks, filter, r, &mut obs,
            restart_no,
        )
    });

    if restarts > 0 {
        obs.add(CounterKind::TaskRestarts, restarts as u64);
    }
    if let Some(tally) = ctx.fault_tally() {
        if tally.injected > 0 {
            obs.add(CounterKind::FaultsInjected, tally.injected);
        }
        if tally.retries > 0 {
            obs.add(CounterKind::RetryAttempts, tally.retries);
        }
    }

    let tm = TaskTimings::from_spans(obs.spans());
    obs.finish();

    TaskOutput {
        timings: tm,
        labels: out.labels,
        tuples_emitted: out.tuples_emitted,
        peak_tuples: out.peak_tuples,
        presolve_dropped: out.presolve_dropped,
        localcc: out.localcc,
        lc_reads: out.lc_reads,
        other_reads: out.other_reads,
    }
}

/// One attempt at the task's pipeline work. On a fresh start
/// (`restart_no == 0`) this is the whole METAPREP flow; after a
/// supervised restart it reloads the last checkpoint and resumes at the
/// boundary the crash interrupted. Crashes only ever fire at boundary
/// tops — quiescent points where this task owes no in-flight message —
/// so resuming from the matching checkpoint re-sends nothing and the
/// replay is exact.
#[allow(clippy::too_many_arguments)]
fn attempt_body<K: PipelineKmer, S: ChunkSource>(
    ctx: &mut TaskCtx<Msg<K::Tuple>>,
    cfg: &PipelineConfig,
    source: &S,
    fastqpart: &FastqPart,
    plan: &RangePlan,
    bin_owner: &[u32],
    my_chunks: &[usize],
    filter: Option<&HighFreqFilter>,
    r: usize,
    obs: &mut TaskObs<'_>,
    restart_no: u32,
) -> AttemptOutput {
    let rank = ctx.rank();
    let p = ctx.size();
    let ckpt_dir = cfg.checkpoint_dir.as_deref();

    let mut ds = ConcurrentDisjointSet::new(r);
    let mut start_pass = 0usize;
    // `Some(next_round)` when the checkpoint says every pass is folded in
    // and the merge tree should resume at `next_round`.
    let mut resume_merge: Option<(u32, Vec<u32>)> = None;
    let mut tuples_emitted = 0u64;
    let mut peak_tuples = 0u64;
    let mut presolve_dropped = 0u64;
    let mut cc_stats = LocalCcStats::default();

    if restart_no > 0 {
        let t0 = obs.open();
        let loaded = match ckpt_dir {
            Some(dir) => {
                // EXPECT: an unreadable/corrupt checkpoint after a crash cannot be replayed safely (a from-scratch rerun would re-send consumed messages) — abort.
                Checkpoint::load(dir, rank as u32).expect("checkpoint load after restart")
            }
            None => None,
        };
        // No checkpoint on disk means the crash hit the very first
        // boundary, before any work or sends — a fresh start IS the
        // exact replay.
        if let Some(ck) = loaded {
            tuples_emitted = ck.tuples_emitted;
            peak_tuples = ck.peak_tuples;
            presolve_dropped = ck.presolve_dropped;
            cc_stats = ck.localcc;
            match ck.phase {
                CkptPhase::Pass { next_pass } => {
                    start_pass = next_pass as usize;
                    ds = ConcurrentDisjointSet::from_parent_array(ck.parents);
                }
                CkptPhase::Merge { next_round } => {
                    resume_merge = Some((next_round, ck.parents));
                }
            }
        }
        obs.close(t0, TASK_RESTART, None);
    }

    let key_bits = 2 * cfg.k as u32;
    // Pooled LocalSort buffers: destination, range ids, per-thread bucket
    // scratch and the debug-build scatter tracker are allocated on the
    // first pass and recycled across all passes. They grow exactly to the
    // largest pass, freeing the smaller allocation first, so a later,
    // slightly larger pass neither doubles them nor holds two copies.
    let mut sort_bufs: PassBuffers<K::Tuple> = PassBuffers::new();

    let pass_range = if resume_merge.is_some() {
        // All passes are folded into the checkpointed parent array.
        0..0
    } else {
        // The plan's pass count, not `cfg.passes` — they differ when the
        // adaptive planner solved `--memory-budget` for the pass count.
        start_pass..plan.passes()
    };
    for pass in pass_range {
        let pass_u32 = pass as u32;
        ctx.maybe_crash(Boundary::Pass(pass_u32));
        // ---- KmerGen (+ simulated I/O) ----
        // I/O and generation time are CPU-nanos summed across the pool's
        // threads, not one wall interval — anchor them back-to-back at the
        // pass start so the trace still shows where the pass's time went.
        let pass_start = obs.open();
        let use_opt = cfg.cc_opt && pass > 0;
        let gen = kmergen_pass::<K, S>(
            ctx.pool(),
            source,
            fastqpart,
            plan,
            my_chunks,
            bin_owner,
            pass,
            cfg.use_x4_kmergen,
            filter,
            |frag| if use_opt { ds.find(frag) } else { frag },
        );
        let after_io = obs.span_with_dur(
            pass_start,
            gen.io_nanos,
            Step::KmerGenIo.name(),
            Some(pass_u32),
        );
        obs.span_with_dur(
            after_io,
            gen.gen_nanos,
            Step::KmerGen.name(),
            Some(pass_u32),
        );
        let out_tuples: u64 = gen.outgoing.iter().map(|v| v.len() as u64).sum();
        tuples_emitted += out_tuples;
        presolve_dropped += gen.dropped;
        obs.add(CounterKind::TuplesEmitted, out_tuples);
        if gen.dropped > 0 {
            obs.add(CounterKind::PresolveDroppedKmers, gen.dropped);
        }

        // ---- KmerGen-Comm: the P-stage all-to-all ----
        let t0 = obs.open();
        let outgoing: Vec<Msg<K::Tuple>> = gen.outgoing.into_iter().map(Msg::Tuples).collect();
        let incoming = alltoall_obs(ctx, outgoing, obs, Some(pass_u32), Step::KmerGenComm.name());
        let expected = expected_incoming(fastqpart, plan, pass, rank);
        // Checked conversion: a u64 receive count that doesn't fit the
        // address space must fail loudly, not silently truncate a buffer
        // size on 32-bit targets.
        let Ok(expected_len) = usize::try_from(expected) else {
            panic!("receive count {expected} overflows usize on this target")
        };
        // Keep the per-sender buffers as-is: the fused LocalSort scatters
        // straight out of them, so the old concat copy never happens.
        let parts: Vec<Vec<K::Tuple>> = incoming
            .into_iter()
            .map(|msg| match msg {
                Msg::Tuples(v) => v,
                _ => unreachable!("no parent arrays during KmerGen-Comm"),
            })
            .collect();
        let received: usize = parts.iter().map(Vec::len).sum();
        // Release-mode check (promoted from a debug assert, in the spirit
        // of the cluster's message-conservation accounting): the FASTQPart
        // receive-count precomputation is what lets buffers be sized and
        // scatter offsets trusted, so a mismatch must abort the run. With
        // the presolve filter active the bin-granular precomputation is an
        // upper bound (drops are value-granular), so the check relaxes to
        // `<=` — the exact balance is enforced globally by the driver's
        // `emitted + dropped == enumerated` conservation assert.
        if filter.is_some() {
            assert!(
                received <= expected_len,
                "receive-count precomputation: task {rank} pass {pass} got {received} \
                 tuples but FASTQPart bounds {expected_len}"
            );
        } else {
            assert_eq!(
                received, expected_len,
                "receive-count precomputation: task {rank} pass {pass} got {received} \
                 tuples but FASTQPart predicts {expected_len}"
            );
        }
        obs.close(t0, Step::KmerGenComm.name(), Some(pass_u32));
        obs.add(CounterKind::TuplesReceived, received as u64);
        // Per-pass tuple residency peaks twice: during the all-to-all the
        // outgoing send buffers coexist with the received parts (out + in
        // — the old `2 * in` accounting missed the send side and under-
        // reported), and during the fused LocalSort's scatter the received
        // parts coexist with the bucketed destination (2 * in; the unfused
        // third concat copy is gone). The radix phase that follows holds
        // only the destination plus one bucket-sized scratch per thread,
        // so the scatter sets the sort's peak. Capacity the pooled buffers
        // carry between passes is deliberately not modeled — the measured
        // allocator peak covers it.
        peak_tuples = peak_tuples.max(out_tuples + received as u64);
        peak_tuples = peak_tuples.max(2 * received as u64);

        // ---- LocalSort (fused: bucketed scatter + in-cache radix) ----
        let t0 = obs.open();
        let boundaries: Vec<<K as metaprep_kmer::Kmer>::Repr> = plan
            .thread_boundaries(pass, rank)
            .into_iter()
            .map(K::repr_from_u128)
            .collect();
        let res = ctx.pool().install(|| {
            fused_local_sort(
                parts,
                &mut sort_bufs,
                &boundaries,
                cfg.sort_digit_bits,
                key_bits,
            )
        });
        let tuples = sort_bufs.sorted();
        obs.close(t0, Step::LocalSort.name(), Some(pass_u32));
        obs.add(CounterKind::SortElements, received as u64);
        obs.add(CounterKind::RadixPassesRun, res.stats.passes_run);
        obs.add(CounterKind::RadixPassesPruned, res.stats.passes_pruned);
        obs.add(
            CounterKind::ScatterBytes,
            (received * std::mem::size_of::<K::Tuple>()) as u64,
        );

        // ---- LocalCC ----
        let t0 = obs.open();
        // The fused scatter already knows the per-thread sub-range offsets;
        // debug-check them against the binary-search derivation they
        // replace.
        debug_assert_eq!(res.offsets, thread_offsets_of::<K>(tuples, &boundaries));
        let stats = localcc_pass::<K>(ctx.pool(), &ds, tuples, &res.offsets, cfg.kf_filter);
        obs.close(t0, Step::LocalCc.name(), Some(pass_u32));
        obs.add(CounterKind::UfFinds, stats.uf.finds);
        obs.add(CounterKind::UfUnions, stats.uf.unions);
        obs.add(CounterKind::UfPathSplits, stats.uf.path_splits);
        cc_stats.merge(stats);

        if let Some(dir) = ckpt_dir {
            let ck = Checkpoint {
                rank: rank as u32,
                phase: CkptPhase::Pass {
                    next_pass: pass_u32 + 1,
                },
                tuples_emitted,
                peak_tuples,
                presolve_dropped,
                localcc: cc_stats,
                // RAW parents (no compression): restoring this exact tree
                // is what makes the replay byte-identical.
                parents: ds.parent_snapshot(),
            };
            write_checkpoint(obs, dir, &ck, Some(pass_u32));
        }
    }

    // ---- MergeCC: ceil(log2 P) pairwise rounds (Figure 4) ----
    let (mut local, mut stride, mut round) = match resume_merge {
        Some((next_round, parents)) => (
            DisjointSet::from_parent_array(parents),
            1usize << next_round,
            next_round,
        ),
        None => (ds.into_disjoint_set(), 1usize, 0u32),
    };
    while stride < p {
        ctx.maybe_crash(Boundary::MergeRound(round));
        if rank % (2 * stride) == stride {
            // Send the compressed component information downhill, then
            // retire from the merge.
            let t0 = obs.open();
            let msg = if cfg.merge_sparse {
                Msg::SparseParents(sparse_pairs(&mut local))
            } else {
                Msg::Parents(local.component_array().to_vec())
            };
            obs.add(CounterKind::MergeBytes, msg.size_bytes() as u64);
            ctx.send_traced(rank - stride, msg, obs, Step::MergeComm.name(), Some(round));
            obs.close_detail(t0, Step::MergeComm.name(), None, Some(round));
            break;
        } else if rank % (2 * stride) == 0 && rank + stride < p {
            let t0 = obs.open();
            let msg = ctx.recv_from_traced(rank + stride, obs, Step::MergeComm.name(), Some(round));
            obs.close_detail(t0, Step::MergeComm.name(), None, Some(round));
            obs.add(CounterKind::MergeBytes, msg.size_bytes() as u64);
            let t0 = obs.open();
            match msg {
                Msg::Parents(arr) => absorb_parent_array(&mut local, &arr),
                Msg::SparseParents(pairs) => absorb_sparse_pairs(&mut local, &pairs),
                Msg::Tuples(_) => unreachable!("no tuples during MergeCC"),
            }
            obs.close_detail(t0, Step::MergeCc.name(), None, Some(round));

            if let Some(dir) = ckpt_dir {
                let ck = Checkpoint {
                    rank: rank as u32,
                    phase: CkptPhase::Merge {
                        next_round: round + 1,
                    },
                    tuples_emitted,
                    peak_tuples,
                    presolve_dropped,
                    localcc: cc_stats,
                    parents: local.raw_parents().to_vec(),
                };
                write_checkpoint(obs, dir, &ck, Some(round));
            }
        }
        stride *= 2;
        round += 1;
    }

    // ---- CC-I/O: broadcast final labels; partition own chunks' reads ----
    let t0 = obs.open();
    let final_labels = if rank == 0 {
        let arr = local.component_array().to_vec();
        broadcast_obs(ctx, 0, Some(Msg::Parents(arr)), obs, Step::CcIo.name())
    } else {
        broadcast_obs(ctx, 0, None, obs, Step::CcIo.name())
    };
    let final_labels = match final_labels {
        Msg::Parents(arr) => arr,
        _ => unreachable!("broadcast carries parent arrays"),
    };
    // Simulate the parallel FASTQ write: each task walks the reads of its
    // own chunks and buckets them by component (the actual file write is
    // `output::write_partitions`, outside the timed region in the paper's
    // harness too — CC-I/O covers the broadcast + extraction).
    let largest_root = largest_root_of(&final_labels);
    let mut lc_reads = 0u64;
    let mut other_reads = 0u64;
    for &c in my_chunks {
        let spec = fastqpart.chunks()[c].spec;
        let lo = spec.first_seq as usize;
        for i in lo..lo + spec.seqs as usize {
            if final_labels[source.frag_of_seq(i) as usize] == largest_root {
                lc_reads += 1;
            } else {
                other_reads += 1;
            }
        }
    }
    obs.close(t0, Step::CcIo.name(), None);

    AttemptOutput {
        labels: (rank == 0).then_some(final_labels),
        tuples_emitted,
        peak_tuples,
        presolve_dropped,
        localcc: cc_stats,
        lc_reads,
        other_reads,
    }
}

/// Root label of the largest component in a compressed label array.
fn largest_root_of(labels: &[u32]) -> u32 {
    let mut counts = std::collections::HashMap::new();
    for &l in labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(r, s)| (s, std::cmp::Reverse(r)))
        .map(|(r, _)| r)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, PipelineConfigBuilder};
    use metaprep_cc::DisjointSet;
    use metaprep_kmer::{for_each_canonical_kmer, Kmer64 as K64};
    use metaprep_synth::{simulate_community, CommunityProfile};
    use std::collections::HashMap;

    /// Brute-force reference: hash k-mers to read lists, union.
    fn reference_labels(reads: &ReadStore, k: usize, kf: Option<(u32, u32)>) -> Vec<u32> {
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for (seq, frag) in reads.iter() {
            for_each_canonical_kmer::<K64>(seq, k, |v, _| {
                groups.entry(v).or_default().push(frag);
            });
        }
        let mut ds = DisjointSet::new(reads.num_fragments() as usize);
        for (_, rs) in groups {
            let freq = rs.len() as u32;
            if let Some((lo, hi)) = kf {
                if freq < lo || freq > hi {
                    continue;
                }
            }
            for w in rs.windows(2) {
                ds.union(w[0], w[1]);
            }
        }
        ds.into_component_array()
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        let mut fwd = HashMap::new();
        let mut bwd = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    fn small_reads() -> ReadStore {
        let mut p = CommunityProfile::quickstart();
        p.read_pairs = 400;
        p.species = 8;
        simulate_community(&p, 17).reads
    }

    #[test]
    fn matches_reference_single_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference_labels(&reads, 21, None);
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn matches_reference_across_configs() {
        let reads = small_reads();
        let want = reference_labels(&reads, 21, None);
        for (s, p, t) in [(1, 2, 2), (2, 1, 2), (2, 3, 1), (4, 2, 2), (1, 4, 1)] {
            let cfg = PipelineConfig::builder()
                .k(21)
                .m(6)
                .passes(s)
                .tasks(p)
                .threads(t)
                .build();
            let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
            assert!(
                same_partition(&res.labels, &want),
                "S={s} P={p} T={t} disagrees with reference"
            );
        }
    }

    #[test]
    fn cc_opt_does_not_change_the_partition() {
        let reads = small_reads();
        let mk = |opt: bool| {
            let cfg = PipelineConfig::builder()
                .k(21)
                .m(6)
                .passes(3)
                .tasks(2)
                .threads(2)
                .cc_opt(opt)
                .build();
            Pipeline::new(cfg).run_reads(&reads).unwrap().labels
        };
        assert!(same_partition(&mk(true), &mk(false)));
    }

    #[test]
    fn sort_digit_bits_do_not_change_labels() {
        // The fused LocalSort's output is the unique stable sorted order,
        // so the digit width must not change anything downstream — not
        // just the partition, the exact label array.
        let reads = small_reads();
        let mk = |bits: u32| {
            let cfg = PipelineConfig::builder()
                .k(21)
                .m(6)
                .passes(2)
                .tasks(2)
                .threads(2)
                .sort_digit_bits(bits)
                .build();
            Pipeline::new(cfg).run_reads(&reads).unwrap().labels
        };
        let want = mk(8);
        for bits in [11u32, 16] {
            assert_eq!(mk(bits), want, "digit width {bits} changed the labels");
        }
    }

    #[test]
    fn kf_filter_matches_reference() {
        let reads = small_reads();
        let kf = (2, 10);
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(2)
            .threads(2)
            .kf_filter(kf.0, kf.1)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference_labels(&reads, 21, Some(kf));
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn x4_kmergen_matches_scalar() {
        let reads = small_reads();
        let mk = |x4: bool| {
            let cfg = PipelineConfig::builder()
                .k(21)
                .m(6)
                .tasks(2)
                .threads(2)
                .x4_kmergen(x4)
                .build();
            Pipeline::new(cfg).run_reads(&reads).unwrap().labels
        };
        assert!(same_partition(&mk(true), &mk(false)));
    }

    #[test]
    fn wide_kmers_run_and_reduce_connectivity() {
        let reads = small_reads();
        let frac = |k: usize| {
            let cfg = PipelineConfig::builder()
                .k(k)
                .m(6)
                .tasks(2)
                .threads(2)
                .build();
            Pipeline::new(cfg)
                .run_reads(&reads)
                .unwrap()
                .largest_component_fraction()
        };
        let f27 = frac(27);
        let f63 = frac(63);
        // Larger k can only remove edges (fewer shared k-mers).
        assert!(f63 <= f27 + 1e-9, "f27={f27} f63={f63}");
    }

    #[test]
    fn tuples_total_matches_kmer_count() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(2)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let mut count = 0u64;
        for (seq, _) in reads.iter() {
            for_each_canonical_kmer::<K64>(seq, 21, |_, _| count += 1);
        }
        assert_eq!(res.tuples_total, count);
    }

    #[test]
    fn memory_peak_decreases_with_passes() {
        let reads = small_reads();
        let peak = |s: usize| {
            let cfg = PipelineConfig::builder().k(21).m(6).passes(s).build();
            Pipeline::new(cfg)
                .run_reads(&reads)
                .unwrap()
                .memory
                .measured_peak_tuples
        };
        let p1 = peak(1);
        let p4 = peak(4);
        assert!(p4 < p1, "p1={p1} p4={p4}");
    }

    #[test]
    fn comm_bytes_zero_for_single_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.comm[0].bytes_sent, 0);
    }

    #[test]
    fn comm_bytes_positive_for_multi_task() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(4).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert!(res.comm.iter().any(|s| s.bytes_sent > 0));
        // Every task participates in the merge or all-to-all.
        assert!(res.comm.iter().all(|s| s.messages_sent > 0));
    }

    #[test]
    fn sparse_merge_same_partition_fewer_bytes() {
        // Sparse Merge-Comm pays off when each task's local forest touches
        // a minority of the reads: short reads (few k-mers each) spread
        // over many tasks. Build such a store explicitly.
        let mut reads = ReadStore::new();
        let mut x = 5u64;
        for _ in 0..3000 {
            let seq: Vec<u8> = (0..26)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    b"ACGT"[(x >> 61) as usize & 3]
                })
                .collect();
            reads.push_single(&seq);
        }
        let mk = |sparse: bool| {
            let cfg = PipelineConfig::builder()
                .k(21)
                .m(6)
                .tasks(16)
                .merge_sparse(sparse)
                .build();
            Pipeline::new(cfg).run_reads(&reads).unwrap()
        };
        let dense = mk(false);
        let sparse = mk(true);
        assert!(same_partition(&dense.labels, &sparse.labels));
        let bytes = |r: &PipelineResult| r.comm.iter().map(|s| s.bytes_sent).sum::<u64>();
        assert!(
            bytes(&sparse) < bytes(&dense),
            "sparse {} >= dense {}",
            bytes(&sparse),
            bytes(&dense)
        );
    }

    #[test]
    fn file_pipeline_matches_memory_pipeline() {
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();

        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(3)
            .threads(2)
            .passes(2)
            .build();
        let mem = Pipeline::new(cfg.clone()).run_reads(&reads).unwrap();
        let file = Pipeline::new(cfg).run_fastq_file(&path, true).unwrap();
        assert_eq!(file.labels.len(), mem.labels.len());
        assert!(same_partition(&file.labels, &mem.labels));
        assert_eq!(file.tuples_total, mem.tuples_total);
        // File path measures real chunk reads.
        assert!(file.timings.max_of(Step::KmerGenIo) > std::time::Duration::ZERO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pipeline_unpaired() {
        let reads = small_reads();
        let mut single = ReadStore::new();
        for (seq, _) in reads.iter().take(201) {
            single.push_single(seq);
        }
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_unpaired");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &single).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let mem = Pipeline::new(cfg.clone()).run_reads(&single).unwrap();
        let file = Pipeline::new(cfg).run_fastq_file(&path, false).unwrap();
        assert!(same_partition(&file.labels, &mem.labels));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pipeline_missing_file_errors() {
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        assert!(Pipeline::new(cfg)
            .run_fastq_file("/nonexistent/reads.fastq", true)
            .is_err());
    }

    #[test]
    fn timings_populated() {
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.timings.per_task.len(), 2);
        assert!(res.timings.index_create > std::time::Duration::ZERO);
        assert!(res.timings.max_of(Step::KmerGen) > std::time::Duration::ZERO);
        assert!(res.timings.max_of(Step::LocalSort) > std::time::Duration::ZERO);
    }

    #[test]
    fn span_derived_report_reproduces_timings_exactly() {
        // The acceptance bar for the telemetry layer: a report rebuilt
        // from the exported event stream must agree with the in-process
        // `StepTimings` to the nanosecond — both are derived from the
        // same spans, so any drift is a wiring bug.
        use metaprep_obs::{MemRecorder, RunSummary};
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(3)
            .threads(2)
            .passes(2)
            .build();
        let rec = MemRecorder::new(3);
        let res = Pipeline::new(cfg).run_reads_recorded(&reads, &rec).unwrap();
        let events = rec.into_events();
        let s = RunSummary::from_events(&events);

        assert_eq!(s.tasks, 3);
        assert_eq!(
            s.index_create_ns,
            res.timings.index_create.as_nanos() as u64
        );
        for step in Step::all() {
            let per_task = s.step_task_ns(step.name()).unwrap_or(&[]);
            for (task, tt) in res.timings.per_task.iter().enumerate() {
                let want = tt.get(step).as_nanos() as u64;
                let got = per_task.get(task).copied().unwrap_or(0);
                assert_eq!(got, want, "step {} task {task}", step.name());
            }
        }
        // Communication counters mirror the cluster's own accounting.
        for (task, cs) in res.comm.iter().enumerate() {
            let task = task as u32;
            assert_eq!(s.counter(task, CounterKind::BytesSent), cs.bytes_sent);
            assert_eq!(
                s.counter(task, CounterKind::BytesReceived),
                cs.bytes_received
            );
            assert_eq!(s.counter(task, CounterKind::MessagesSent), cs.messages_sent);
            assert_eq!(
                s.counter(task, CounterKind::MessagesReceived),
                cs.messages_received
            );
        }
        // Work and memory counters match the run's own totals.
        assert_eq!(
            s.counter_total(CounterKind::TuplesEmitted),
            res.tuples_total
        );
        assert_eq!(
            s.counter_total(CounterKind::TuplesReceived),
            res.tuples_total
        );
        assert_eq!(
            s.counter_total(CounterKind::UfUnions),
            res.localcc.uf.unions
        );
        assert_eq!(
            s.counter_total(CounterKind::MemModeledBytes),
            res.memory.total_modeled()
        );
        assert_eq!(
            s.counter_total(CounterKind::MemPeakTupleBytes),
            res.memory.measured_peak_tuple_bytes
        );
        // Per-pass breakdown covers both passes, and the rendered report
        // mentions every paper step.
        assert_eq!(s.passes(), vec![0, 1]);
        let text = s.render();
        for step in Step::all() {
            assert!(text.contains(step.name()), "report missing {}", step.name());
        }
    }

    #[test]
    fn critical_path_tiles_recorded_run_makespan_exactly() {
        // Acceptance bar for the causal-tracing layer: on a real recorded
        // partition run, the analyzer's critical path must tile the run
        // interval exactly (segment durations sum to the makespan to the
        // nanosecond), every send must pair with a recv in Lamport order,
        // and the Chrome export (now with flow events) must still pass
        // the schema validator.
        use metaprep_obs::export::{validate_chrome, write_chrome};
        use metaprep_obs::{Event, MemRecorder, TraceAnalysis};
        let reads = small_reads();
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(4)
            .threads(2)
            .passes(2)
            .build();
        let rec = MemRecorder::new(4);
        let res = Pipeline::new(cfg).run_reads_recorded(&reads, &rec).unwrap();
        let events = rec.into_events();

        let a = TraceAnalysis::from_events(&events);
        a.check_conservation()
            .expect("every send matches exactly one recv");
        a.check_causality()
            .expect("lamport order along every channel");
        assert!(a.events_dropped() == 0 && a.warnings().is_empty());
        // Real messages moved: P-stage all-to-all × 2 passes + merge tree
        // + broadcast.
        assert!(a.pairs().len() >= 4 * 3 * 2);

        let path = a.critical_path();
        assert!(!path.is_empty());
        let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(sum, a.makespan_ns(), "critical path must tile the run");
        // The analyzer's makespan is the span-derived run interval — the
        // same spans `StepTimings`/`RunSummary` are built from. IndexCreate
        // starts at the run clock's origin on task 0.
        let span_end = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { end_ns, .. } => Some(*end_ns),
                _ => None,
            })
            .max()
            .unwrap();
        let span_start = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { start_ns, .. } => Some(*start_ns),
                _ => None,
            })
            .min()
            .unwrap();
        assert_eq!(a.makespan_ns(), span_end - span_start);
        assert!(a.makespan_ns() >= res.timings.index_create.as_nanos() as u64);

        // The path is causally contiguous: each segment hands off exactly
        // where the next begins.
        for w in path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }

        // Imbalance stats exist for the paper steps that ran everywhere.
        let imb = a.stage_imbalance();
        assert!(imb.iter().any(|s| s.stage == "KmerGen"));
        for s in &imb {
            assert!(s.factor >= 1.0, "max/mean is at least 1");
        }

        // Chrome export with flow arrows still validates.
        let chrome = write_chrome(&events);
        validate_chrome(&chrome).expect("flow events must pass the schema validator");
        let report = a.render_report(5);
        assert!(report.contains("critical path"));
    }

    #[test]
    fn file_pipeline_records_streaming_index_spans() {
        use metaprep_obs::{Event, MemRecorder};
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let rec = MemRecorder::new(2);
        Pipeline::new(cfg)
            .run_fastq_file_recorded(&path, true, &rec)
            .unwrap();
        let events = rec.into_events();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"IndexCreate"));
        assert!(names.contains(&"index-chunking"));
        assert!(names.contains(&"index-histogram"));
        let streamed = events.iter().any(|e| {
            matches!(e, Event::Counter { kind, value, .. }
                if *kind == CounterKind::ChunkRecordsStreamed && *value > 0)
        });
        assert!(streamed, "ChunkRecordsStreamed counter missing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Deterministic single-thread baseline for byte-identical replay
    /// assertions: with `threads(1)` the whole run (union order, path
    /// compression, labels) is a pure function of the input.
    fn chaos_cfg() -> PipelineConfigBuilder {
        PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(2)
            .tasks(4)
            .threads(1)
    }

    #[test]
    fn faulted_runs_are_byte_identical_to_fault_free() {
        // Differential gate over three generated plans combining all four
        // message-fault kinds: drop (+ retry), delay, duplicate (+ dedup),
        // and reorder (+ stash). Delivery must stay exactly-once in-order,
        // so the labels must match the fault-free run BYTE for byte.
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        for seed in [7u64, 1234, 0xC0FFEE] {
            let plan = metaprep_dist::FaultPlan::parse_spec(&format!(
                "seed={seed},drop=0.05,delay=0.05,dup=0.05,reorder=0.05"
            ))
            .unwrap();
            let res = Pipeline::new(chaos_cfg().fault_plan(plan).build())
                .run_reads(&reads)
                .unwrap();
            assert_eq!(res.labels, want, "seed {seed} changed the labels");
        }
    }

    #[test]
    fn crashed_tasks_replay_byte_identically_from_checkpoints() {
        // Mid-run crashes at a pass boundary and at two merge-round
        // boundaries (one before the rank's first absorb — restoring a
        // Pass checkpoint — and one after — restoring a Merge checkpoint),
        // plus message faults on top. The supervised restarts must replay
        // from the checkpoints to the exact same labels.
        use metaprep_dist::{Boundary, FaultPlan};
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        let dir = std::env::temp_dir().join("metaprep_core_chaos_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::parse_spec("seed=42,drop=0.03,dup=0.03,reorder=0.03")
            .unwrap()
            .with_crash(1, Boundary::Pass(1))
            .with_crash(2, Boundary::MergeRound(0))
            .with_crash(2, Boundary::MergeRound(1));
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want, "restarted run changed the labels");
        // Checkpoints were actually written for every rank.
        for rank in 0..4 {
            assert!(
                crate::checkpoint::Checkpoint::path_for(&dir, rank).exists(),
                "rank {rank} left no checkpoint"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_the_first_boundary_replays_from_scratch() {
        // A crash at Pass(0) fires before anything is sent or
        // checkpointed; the restart finds no checkpoint and a fresh start
        // is the exact replay.
        use metaprep_dist::{Boundary, FaultPlan};
        let reads = small_reads();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        let dir = std::env::temp_dir().join("metaprep_core_chaos_p0");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new(9).with_crash(3, Boundary::Pass(0));
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_trace_passes_strict_analysis_with_recovery_visible() {
        // The recorded trace of a faulted run must still satisfy the
        // strict analyzer invariants (conservation + causality + no
        // drops): retries re-offer the SAME logical message, so each
        // traced send still pairs with exactly one traced recv. The
        // recovery machinery must be visible in the counters.
        use metaprep_dist::{Boundary, FaultPlan};
        use metaprep_obs::{MemRecorder, RunSummary, TraceAnalysis};
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_chaos_trace");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::parse_spec("seed=5,drop=0.08,delay=0.05,dup=0.08,reorder=0.05")
            .unwrap()
            .with_crash(1, Boundary::Pass(1));
        let rec = MemRecorder::new(4);
        let res = Pipeline::new(chaos_cfg().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads_recorded(&reads, &rec)
            .unwrap();
        let want = Pipeline::new(chaos_cfg().build())
            .run_reads(&reads)
            .unwrap()
            .labels;
        assert_eq!(res.labels, want);

        let events = rec.into_events();
        let a = TraceAnalysis::from_events(&events);
        a.check_conservation()
            .expect("faulted trace conserves messages after dedup");
        a.check_causality()
            .expect("lamport order survives recovery");
        assert_eq!(a.events_dropped(), 0);

        let s = RunSummary::from_events(&events);
        assert!(
            s.counter_total(CounterKind::FaultsInjected) > 0,
            "no faults visible in the trace"
        );
        assert!(
            s.counter_total(CounterKind::RetryAttempts) > 0,
            "no retries visible in the trace"
        );
        assert!(
            s.counter_total(CounterKind::CheckpointWrites) > 0,
            "no checkpoint writes visible in the trace"
        );
        assert_eq!(
            s.counter(1, CounterKind::TaskRestarts),
            1,
            "rank 1's restart must be visible"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact [`PlanInputs`] `run_generic` will derive for `cfg` over
    /// `reads` — so tests can compute budgets that force a chosen pass
    /// count.
    fn plan_inputs_for(reads: &ReadStore, cfg: &PipelineConfig) -> PlanInputs {
        let c = cfg.effective_chunks();
        let mh = MerHist::build(reads, cfg.k, cfg.m);
        let fp = FastqPart::build(reads, c, cfg.k, cfg.m);
        let avg = if fp.is_empty() {
            0
        } else {
            fp.chunks().iter().map(|ch| ch.spec.bytes).sum::<u64>() / fp.len() as u64
        };
        PlanInputs {
            m: cfg.m,
            chunks: fp.len(),
            threads: cfg.threads,
            avg_chunk_bytes: avg,
            total_tuples: mh.total(),
            packed_tuple_bytes: K64::PACKED_TUPLE_BYTES,
            tasks: cfg.tasks,
            reads: reads.num_fragments() as u64,
        }
    }

    #[test]
    fn memory_budget_engages_the_planner() {
        let reads = small_reads();
        let probe = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .build();
        let inputs = plan_inputs_for(&reads, &probe);
        // A budget exactly at the 2-pass model: 1 pass must not fit, so the
        // planner has a real decision to make.
        let budget = inputs.modeled_at(2);
        assert!(inputs.modeled_at(1) > budget, "budget must discriminate");

        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .threads(2)
            .memory_budget(budget)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert_eq!(res.planned_passes, 2, "planner should have chosen 2 passes");
        assert!(res.memory.total_modeled() <= budget);
        // An adaptively planned run is still a correct run.
        let want = reference_labels(&reads, 21, None);
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn explicit_passes_over_budget_is_a_runtime_config_error() {
        let reads = small_reads();
        // --passes wins over the planner, but 1 pass can never fit a 1-byte
        // budget; the combination must be rejected, not silently ignored.
        let cfg = PipelineConfig::builder()
            .k(21)
            .m(6)
            .passes(1)
            .memory_budget(1)
            .build();
        match Pipeline::new(cfg).run_reads(&reads) {
            Err(PipelineError::InvalidConfig(msg)) => {
                assert!(msg.contains("memory budget"), "{msg}");
            }
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.labels.len())
            ),
        }
    }

    #[test]
    fn presolve_filter_matches_exact_counting_oracle() {
        // The tentpole differential guarantee: a presolve run (sketch-based
        // drops BEFORE tuples exist) must produce byte-identical labels to
        // a kf-filter run (exact counting AFTER the sort) with the same
        // upper threshold, provided the sketch makes no frequency
        // false-positives at this scale — which the test verifies against
        // exact counts first, so a failure points at the right layer.
        let reads = small_reads();
        let threshold = 3u32;

        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (seq, _) in reads.iter() {
            for_each_canonical_kmer::<K64>(seq, 21, |v, _| {
                *truth.entry(v).or_insert(0) += 1;
            });
        }
        let (_, sketch) = MerHist::build_sketched(&reads, 21, 6, SketchParams::default());
        for (&v, &n) in &truth {
            assert_eq!(
                sketch.estimate(v) > u64::from(threshold),
                n > u64::from(threshold),
                "sketch misclassifies a k-mer at this scale; enlarge the default sketch"
            );
        }

        let mk = |presolve: bool| {
            let mut b = PipelineConfig::builder()
                .k(21)
                .m(6)
                .passes(2)
                .tasks(2)
                .threads(1);
            b = if presolve {
                b.presolve_threshold(threshold)
            } else {
                b.kf_filter(1, threshold)
            };
            Pipeline::new(b.build()).run_reads(&reads).unwrap()
        };
        let pre = mk(true);
        let oracle = mk(false);
        assert!(pre.presolve_dropped > 0, "nothing was presolved away");
        assert!(
            pre.tuples_total < oracle.tuples_total,
            "presolve must shrink tuple volume ({} vs {})",
            pre.tuples_total,
            oracle.tuples_total
        );
        let total: u64 = truth.values().sum();
        assert_eq!(
            pre.tuples_total + pre.presolve_dropped,
            total,
            "conservation"
        );
        assert_eq!(pre.labels, oracle.labels, "presolve changed the labels");
        // The comm ledger still balances under a filtered exchange.
        metaprep_dist::check_conservation(&pre.comm).unwrap();
    }

    #[test]
    fn adaptive_plan_crash_restart_replays_byte_identically() {
        // Chaos satellite: a crash mid-pass under a planner-chosen pass
        // count must restart from the checkpoints and reproduce the
        // fault-free adaptive run's labels byte for byte, with the plan
        // artifact on disk guarding the geometry.
        use metaprep_dist::{Boundary, FaultPlan};
        let reads = small_reads();
        let probe = chaos_cfg().build();
        let inputs = plan_inputs_for(&reads, &probe);
        let budget = inputs.modeled_at(2);
        let mk = || {
            PipelineConfig::builder()
                .k(21)
                .m(6)
                .tasks(4)
                .threads(1)
                .memory_budget(budget)
                .presolve_threshold(3)
        };
        let want = Pipeline::new(mk().build()).run_reads(&reads).unwrap();
        assert_eq!(
            want.planned_passes, 2,
            "budget should have planned 2 passes"
        );

        let dir = std::env::temp_dir().join("metaprep_core_adaptive_chaos");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new(11).with_crash(1, Boundary::Pass(1));
        let res = Pipeline::new(mk().fault_plan(plan).checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(res.labels, want.labels, "restarted adaptive run drifted");
        assert_eq!(res.planned_passes, want.planned_passes);
        assert_eq!(res.presolve_dropped, want.presolve_dropped);
        assert!(
            PlanCheckpoint::path_for(&dir).exists(),
            "plan artifact missing"
        );
        // A re-run over the same checkpoint dir re-derives the same plan
        // and passes the stored-artifact verification.
        let again = Pipeline::new(mk().checkpoint_dir(&dir).build())
            .run_reads(&reads)
            .unwrap();
        assert_eq!(again.labels, want.labels);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_input() {
        let cfg = PipelineConfig::builder().k(21).m(6).build();
        let res = Pipeline::new(cfg).run_reads(&ReadStore::new()).unwrap();
        assert_eq!(res.labels.len(), 0);
        assert_eq!(res.components.components, 0);
        assert_eq!(res.tuples_total, 0);
    }

    #[test]
    fn guard_total_seqs_accepts_in_range_counts() {
        assert_eq!(guard_total_seqs(0, false).unwrap(), 0);
        assert_eq!(guard_total_seqs(0, true).unwrap(), 0);
        assert_eq!(guard_total_seqs(1_000_000, false).unwrap(), 1_000_000);
        // Largest even paired count that fits the 32-bit sequence-id space.
        let max_paired = u32::MAX as u64 - 1;
        assert_eq!(
            guard_total_seqs(max_paired, true).unwrap(),
            max_paired as u32
        );
        // Largest unpaired count: u32::MAX sequences would be u32::MAX
        // fragments, which collides with the sentinel — must be rejected,
        // one below must pass.
        assert_eq!(
            guard_total_seqs(u32::MAX as u64 - 1, false).unwrap(),
            u32::MAX - 1
        );
    }

    #[test]
    fn guard_total_seqs_rejects_overflowing_counts() {
        // Sequence count itself over u32::MAX: the old `as u32` accumulation
        // silently wrapped here.
        assert!(matches!(
            guard_total_seqs(u32::MAX as u64 + 1, true),
            Err(PipelineError::InvalidInput(_))
        ));
        assert!(matches!(
            guard_total_seqs(u64::MAX, false),
            Err(PipelineError::InvalidInput(_))
        ));
        // Fragment count hitting u32::MAX exactly is also out of id space
        // (unpaired: fragments == sequences).
        assert!(guard_total_seqs(u32::MAX as u64, false).is_err());
        // Paired inputs overflow via the sequence-count check: two
        // sequences per fragment means any fragment overflow implies
        // total_seqs > u32::MAX first.
        assert!(guard_total_seqs(2 * u32::MAX as u64, true).is_err());
    }

    #[test]
    fn measured_peak_covers_outgoing_and_incoming_tuples() {
        // Regression for the peak-accounting bug: with a single task the
        // KmerGen outgoing buffers hold every tuple of the pass at the
        // moment the (local) exchange delivers them, so the true peak per
        // pass is `out + in = 2 * pass_tuples`. The old accounting only
        // tracked the received side (`pass_tuples`).
        let reads = small_reads();
        let cfg = PipelineConfig::builder().k(21).m(6).passes(2).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        assert!(res.tuples_total > 0);

        // Pigeonhole: the heaviest of the 2 passes carries at least
        // ceil(total / 2) tuples, so the fixed peak (2 * heaviest pass) is
        // at least tuples_total. The buggy accounting reported roughly
        // tuples_total / 2 on this evenly-distributed input.
        assert!(
            res.memory.measured_peak_tuples >= res.tuples_total,
            "peak {} < total {}",
            res.memory.measured_peak_tuples,
            res.tuples_total
        );

        // And the measured peak must dominate the modeled per-pass tuple
        // footprint (send + receive buffers) from the memory report.
        let modeled = res.memory.kmer_out_bytes + res.memory.kmer_in_bytes;
        assert!(
            res.memory.measured_peak_tuple_bytes >= modeled,
            "measured {} < modeled {}",
            res.memory.measured_peak_tuple_bytes,
            modeled
        );
    }

    #[test]
    fn file_pipeline_with_tiny_index_window() {
        // A window far smaller than any chunk forces the streaming probe to
        // take its doubling path; the partition must not change.
        let reads = small_reads();
        let dir = std::env::temp_dir().join("metaprep_core_filepipe_window");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        metaprep_io::write_fastq_path(&path, &reads).unwrap();
        let cfg = PipelineConfig::builder().k(21).m(6).tasks(2).build();
        let mem = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let cfg_small_window = PipelineConfig::builder()
            .k(21)
            .m(6)
            .tasks(2)
            .index_window(64)
            .build();
        let file = Pipeline::new(cfg_small_window)
            .run_fastq_file(&path, true)
            .unwrap();
        assert!(same_partition(&file.labels, &mem.labels));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
