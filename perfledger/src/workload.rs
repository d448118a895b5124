//! The three benchmark workloads, their inputs, and one timed operation.

use crate::oracle;
use metaprep_core::{partition_reads, write_partitions, Pipeline, PipelineConfig, PipelineResult};
use metaprep_io::{write_fastq_path, ReadStore};
use metaprep_kmer::{Kmer128, Kmer64};
use metaprep_obs::Recorder;
use metaprep_synth::{scaled_profile, simulate_community, DatasetId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Simulated tasks per run (`P`).
pub const TASKS: usize = 2;
/// Threads per task (`T`). One thread keeps every exact count repeatable.
pub const THREADS: usize = 1;
/// Minimizer length (the pipeline default).
pub const M: usize = 8;
/// Radix digit width (the pipeline default).
pub const DIGIT_BITS: u32 = 8;

/// One benchmark workload: a synthetic read set plus a pipeline mode.
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetId,
    pub scale: f64,
    pub k: usize,
    pub passes: usize,
    /// Run through `run_fastq_file` with a checkpoint directory instead of
    /// `run_reads` on in-memory reads.
    pub from_file: bool,
}

const WORKLOADS: [Workload; 3] = [
    // All tuples resident in one pass: LocalSort and the allocator peak
    // dominate; no disk I/O, no checkpoints.
    Workload {
        name: "is27_1pass",
        dataset: DatasetId::Is,
        scale: 0.25,
        k: 27,
        passes: 1,
        from_file: false,
    },
    // The same reads, memory-bounded and restartable: chunks re-read from
    // disk and re-enumerated on each of 8 passes, checkpoint every pass.
    Workload {
        name: "is27_8pass_file",
        dataset: DatasetId::Is,
        scale: 0.25,
        k: 27,
        passes: 8,
        from_file: true,
    },
    // 126-bit keys on the Kmer128 path over a fragmented read graph.
    Workload {
        name: "ll63_2pass",
        dataset: DatasetId::Ll,
        scale: 1.0,
        k: 63,
        passes: 2,
        from_file: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The pipeline configuration of one operation. `ckpt` is the
    /// checkpoint directory of the file workload.
    pub fn config(&self, ckpt: Option<&Path>) -> PipelineConfig {
        let mut b = PipelineConfig::builder()
            .k(self.k)
            .m(M)
            .passes(self.passes)
            .tasks(TASKS)
            .threads(THREADS)
            .sort_digit_bits(DIGIT_BITS);
        if let Some(dir) = ckpt {
            b = b.checkpoint_dir(dir);
        }
        b.build()
    }
}

/// Independent read sets of one untraced run. Each end-to-end metric is
/// the mean over the sets of the per-set median, so one unusual community
/// draw moves a run's figures less.
pub const READ_SETS: usize = 4;

/// Seed of read set `i` of a run seeded with `seed`.
fn set_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Everything set-up produces: the reads, their FASTQ image on disk and
/// the oracle partition.
pub struct Inputs {
    pub reads: ReadStore,
    pub fastq: PathBuf,
    /// Brute-force partition in canonical form (see [`oracle::canonical`]).
    pub oracle: Vec<u32>,
}

impl Inputs {
    /// Synthesise read set `i` of the workload from `seed`, write it as
    /// FASTQ under `dir`, and build its oracle partition.
    pub fn build(w: &Workload, seed: u64, i: usize, dir: &Path) -> Result<Inputs, String> {
        let profile = scaled_profile(w.dataset, w.scale);
        let reads = simulate_community(&profile, set_seed(seed, i)).reads;
        let fastq = dir.join(format!("reads{i}.fastq"));
        write_fastq_path(&fastq, &reads).map_err(|e| format!("write {fastq:?}: {e}"))?;
        let labels = if w.k <= 32 {
            oracle::read_graph_labels::<Kmer64>(&reads, w.k)
        } else {
            oracle::read_graph_labels::<Kmer128>(&reads, w.k)
        };
        let oracle = oracle::canonical(&labels).ok_or("oracle produced an invalid label")?;
        Ok(Inputs {
            reads,
            fastq,
            oracle,
        })
    }

    /// Megabases of input.
    pub fn mbp(&self) -> f64 {
        self.reads.total_bases() as f64 / 1e6
    }
}

/// Checkpoint directory of the file workload's operations under `dir`.
pub fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

/// What one operation returned, with its wall time and the time of its
/// `write_partitions` call.
pub struct OpOutput {
    pub result: PipelineResult,
    pub wall_s: f64,
    pub write_s: f64,
}

/// One operation, as a `metaprep partition` user waits for it: run the
/// pipeline, split the reads by the largest component, write both FASTQ
/// files into `dir/out`. The file workload starts from an empty
/// checkpoint directory. Panics inside the pipeline come back as errors.
pub fn run_op(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    rec: &dyn Recorder,
) -> Result<OpOutput, String> {
    let out_dir = dir.join("out");
    let ckpt = ckpt_dir(dir);
    if w.from_file {
        let _ = std::fs::remove_dir_all(&ckpt);
        std::fs::create_dir_all(&ckpt).map_err(|e| format!("create {ckpt:?}: {e}"))?;
    }
    let cfg = w.config(w.from_file.then_some(ckpt.as_path()));
    let body = || -> Result<OpOutput, String> {
        let t0 = Instant::now();
        let pipe = Pipeline::new(cfg);
        let result = if w.from_file {
            pipe.run_fastq_file_recorded(&inputs.fastq, true, rec)
        } else {
            pipe.run_reads_recorded(&inputs.reads, rec)
        }
        .map_err(|e| format!("pipeline: {e}"))?;
        let parts = partition_reads(
            &inputs.reads,
            &result.labels,
            result.components.largest_root,
        );
        let tw = Instant::now();
        write_partitions(&out_dir, &parts).map_err(|e| format!("write_partitions: {e}"))?;
        let write_s = tw.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();
        if parts.lc.len() + parts.other.len() != inputs.reads.len() {
            return Err("partitioned outputs do not cover the input".into());
        }
        Ok(OpOutput {
            result,
            wall_s,
            write_s,
        })
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        .unwrap_or_else(|_| Err("pipeline panicked".into()))
}

/// The counts a run must repeat exactly with one thread per task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactCounts {
    pub tuples: u64,
    pub comm_bytes: u64,
    pub messages_sent: u64,
    pub edges: u64,
    pub union_edges: u64,
    pub uf_finds: u64,
    pub uf_unions: u64,
    pub components: u64,
    pub passes: u64,
}

impl ExactCounts {
    pub fn of(r: &PipelineResult) -> ExactCounts {
        ExactCounts {
            tuples: r.tuples_total,
            comm_bytes: r.comm.iter().map(|s| s.bytes_sent).sum(),
            messages_sent: r.comm.iter().map(|s| s.messages_sent).sum(),
            edges: r.localcc.edges,
            union_edges: r.localcc.union_edges,
            uf_finds: r.localcc.uf.finds,
            uf_unions: r.localcc.uf.unions,
            components: r.components.components as u64,
            passes: r.planned_passes as u64,
        }
    }
}

/// Check one operation's output against the oracle and the reference
/// counts. `Err` names what went wrong.
pub fn verify(
    inputs: &Inputs,
    reference: &ExactCounts,
    result: &PipelineResult,
) -> Result<(), String> {
    match oracle::canonical(&result.labels) {
        Some(c) if c == inputs.oracle => {}
        _ => return Err("partition differs from the oracle".into()),
    }
    let got = ExactCounts::of(result);
    if got != *reference {
        return Err(format!("exact counts drifted: {got:?} vs {reference:?}"));
    }
    Ok(())
}
