//! Isolated rates: the benchmark times calls into each layer's public
//! functions on the workload's own inputs, outside the pipeline.

use crate::stats::median;
use crate::workload::{Inputs, Workload, DIGIT_BITS, M, TASKS, THREADS};
use metaprep_core::kmergen::{kmergen_pass, PipelineKmer};
use metaprep_core::{ChunkSource, FileSource, MemorySource};
use metaprep_index::{index_fastq_file_streaming, FastqPart, MerHist, RangePlan, StreamingOptions};
use metaprep_io::parse_fastq;
use metaprep_kmer::{Kmer, Kmer128, Kmer64};
use metaprep_sort::{fused_local_sort, PassBuffers};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per kernel; each rate is the median repetition.
const REPS: usize = 5;

/// Isolated kernel rates of one workload.
pub struct Isolated {
    pub index_mbp_per_s: f64,
    pub parse_mb_per_s: f64,
    pub kmergen_kmers_per_s: f64,
    pub sort_tuples_per_s: f64,
}

fn median_secs(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

pub fn measure(w: &Workload, inputs: &Inputs) -> Result<Isolated, String> {
    if w.k <= 32 {
        measure_k::<Kmer64>(w, inputs)
    } else {
        measure_k::<Kmer128>(w, inputs)
    }
}

fn measure_k<K: PipelineKmer>(w: &Workload, inputs: &Inputs) -> Result<Isolated, String> {
    let reads = &inputs.reads;
    let chunks = w.config(None).effective_chunks();
    let fastq =
        std::fs::read(&inputs.fastq).map_err(|e| format!("read {:?}: {e}", inputs.fastq))?;

    // IndexCreate as the workload's pipeline entry point runs it.
    let stream_opts = StreamingOptions {
        window: 0,
        threads: TASKS * THREADS,
    };
    let index = || -> Result<(MerHist, FastqPart, u64), String> {
        if w.from_file {
            index_fastq_file_streaming(&inputs.fastq, true, chunks, w.k, M, stream_opts)
                .map_err(|e| format!("index {:?}: {e}", inputs.fastq))
        } else {
            Ok((
                MerHist::build(reads, w.k, M),
                FastqPart::build(reads, chunks, w.k, M),
                reads.len() as u64,
            ))
        }
    };
    let (merhist, fastqpart, total_seqs) = index()?;
    let index_s = median_secs(|| {
        black_box(index().ok());
    });
    let parse_s = median_secs(|| {
        black_box(parse_fastq(&fastq[..], true).ok());
    });

    let specs = fastqpart.chunks().iter().map(|r| r.spec).collect();
    let (kmergen_rate, sort_rate) = if w.from_file {
        let seqs = u32::try_from(total_seqs).map_err(|_| "too many sequences")?;
        let source = FileSource::new(inputs.fastq.clone(), specs, true, seqs);
        kmergen_and_sort::<K, _>(w, &source, &merhist, &fastqpart)
    } else {
        let source = MemorySource::new(reads, specs);
        kmergen_and_sort::<K, _>(w, &source, &merhist, &fastqpart)
    };
    Ok(Isolated {
        index_mbp_per_s: reads.total_bases() as f64 / 1e6 / index_s,
        parse_mb_per_s: fastq.len() as f64 / 1e6 / parse_s,
        kmergen_kmers_per_s: kmergen_rate,
        sort_tuples_per_s: sort_rate,
    })
}

/// KmerGen over task 0's chunks for every pass, then LocalSort of what
/// task 0 receives in each pass (the per-sender buffers of all tasks),
/// both with the pipeline's plan. Returns (k-mers/s, tuples/s).
fn kmergen_and_sort<K: PipelineKmer, S: ChunkSource>(
    w: &Workload,
    source: &S,
    merhist: &MerHist,
    fastqpart: &FastqPart,
) -> (f64, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("the thread pool builder never fails");
    let plan = RangePlan::build(merhist, w.passes, TASKS, THREADS);
    let bin_owner = plan.bin_owner_table();
    let chunks_of = |rank: usize| -> Vec<usize> {
        (0..fastqpart.len()).filter(|c| c % TASKS == rank).collect()
    };
    let gen = |rank: usize, pass: usize| {
        kmergen_pass::<K, S>(
            &pool,
            source,
            fastqpart,
            &plan,
            &chunks_of(rank),
            &bin_owner,
            pass,
            false,
            None,
            |frag| frag,
        )
    };

    let mut kmers = 0u64;
    let kmergen_s = median_secs(|| {
        kmers = 0;
        for pass in 0..w.passes {
            let out = black_box(gen(0, pass));
            kmers += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
        }
    });

    // parts[pass][sender]: what task 0 receives.
    let parts: Vec<Vec<Vec<K::Tuple>>> = (0..w.passes)
        .map(|pass| {
            (0..TASKS)
                .map(|rank| gen(rank, pass).outgoing.swap_remove(0))
                .collect()
        })
        .collect();
    let tuples: usize = parts.iter().flatten().map(Vec::len).sum();
    let boundaries: Vec<Vec<<K as Kmer>::Repr>> = (0..w.passes)
        .map(|pass| {
            plan.thread_boundaries(pass, 0)
                .into_iter()
                .map(K::repr_from_u128)
                .collect()
        })
        .collect();
    let key_bits = 2 * w.k as u32;
    let sort_secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let inputs = parts.clone();
            let mut bufs: PassBuffers<K::Tuple> = PassBuffers::new();
            let t0 = Instant::now();
            for (pass_parts, b) in inputs.into_iter().zip(&boundaries) {
                let res = pool
                    .install(|| fused_local_sort(pass_parts, &mut bufs, b, DIGIT_BITS, key_bits));
                black_box((res.offsets, bufs.sorted().len()));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    (kmers as f64 / kmergen_s, tuples as f64 / median(&sort_secs))
}
