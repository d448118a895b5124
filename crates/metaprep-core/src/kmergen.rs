//! KmerGen: per-task tuple enumeration (paper §3.2).

use crate::source::ChunkSource;
use metaprep_index::{FastqPart, RangePlan};
use metaprep_kmer::{
    fold_kmer_key, for_each_canonical_kmer, lanes::for_each_canonical_kmer_x4, Kmer, Kmer128,
    Kmer64, KmerReadTuple, KmerReadTuple128,
};
use metaprep_norm::HighFreqFilter;
use metaprep_sort::Keyed;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Glue between a k-mer width and its pipeline tuple type.
pub trait PipelineKmer: Kmer {
    /// The `(k-mer, read id)` tuple carried through comm/sort/CC.
    type Tuple: Keyed<Key = <Self as Kmer>::Repr> + Default + Copy + Send + Sync + 'static;
    /// Packed tuple size in the paper's representation (12 or 20 bytes).
    const PACKED_TUPLE_BYTES: usize;

    /// Build a tuple.
    fn make_tuple(v: <Self as Kmer>::Repr, read: u32) -> Self::Tuple;
    /// Read id of a tuple.
    fn tuple_read(t: &Self::Tuple) -> u32;
    /// Convert a `u128` plan boundary into this width's key type.
    fn repr_from_u128(v: u128) -> <Self as Kmer>::Repr;
    /// The presolve-sketch key of a packed canonical value — the same
    /// derivation the IndexCreate sketch builder used, so filter probes
    /// hit the cells the scan populated.
    fn sketch_key(v: <Self as Kmer>::Repr) -> u64;
}

impl PipelineKmer for Kmer64 {
    type Tuple = KmerReadTuple;
    const PACKED_TUPLE_BYTES: usize = KmerReadTuple::PACKED_BYTES;

    #[inline(always)]
    fn make_tuple(v: u64, read: u32) -> KmerReadTuple {
        KmerReadTuple::new(v, read)
    }

    #[inline(always)]
    fn tuple_read(t: &KmerReadTuple) -> u32 {
        t.read
    }

    #[inline(always)]
    fn repr_from_u128(v: u128) -> u64 {
        v as u64
    }

    #[inline(always)]
    fn sketch_key(v: u64) -> u64 {
        v
    }
}

impl PipelineKmer for Kmer128 {
    type Tuple = KmerReadTuple128;
    const PACKED_TUPLE_BYTES: usize = KmerReadTuple128::PACKED_BYTES;

    #[inline(always)]
    fn make_tuple(v: u128, read: u32) -> KmerReadTuple128 {
        KmerReadTuple128::new(v, read)
    }

    #[inline(always)]
    fn tuple_read(t: &KmerReadTuple128) -> u32 {
        t.read
    }

    #[inline(always)]
    fn repr_from_u128(v: u128) -> u128 {
        v
    }

    #[inline(always)]
    fn sketch_key(v: u128) -> u64 {
        fold_kmer_key(v)
    }
}

/// Output of one task's KmerGen for one pass.
pub struct KmerGenOutput<T> {
    /// `outgoing[q]` — tuples destined for task `q`, in chunk order.
    pub outgoing: Vec<Vec<T>>,
    /// Simulated FASTQ-chunk load time ("KmerGen-I/O"): the time spent
    /// copying chunk bytes into thread-local buffers, CPU-time summed
    /// across threads.
    pub io_nanos: u64,
    /// Enumeration time, CPU-time summed across threads.
    pub gen_nanos: u64,
    /// K-mer occurrences dropped by the presolve filter before any tuple
    /// was materialized (0 without a filter). Conservation:
    /// `sum(outgoing) + dropped == enumerated`.
    pub dropped: u64,
}

/// Enumerate this task's tuples for `pass`.
///
/// * `my_chunks` — chunk indices this task owns;
/// * `bin_owner` — the plan's m-mer-bin → `pass * P + task` table;
/// * `read_label` — identity for plain LocalCC; the task's current
///   `Find(read)` for LocalCC-Opt passes (paper §3.5.1).
///
/// Each `outgoing[q]` is allocated once, at the total the `FASTQPart`
/// chunk histograms give for destination `q`, and carved into one slot
/// per owned chunk at the prefix sum of `chunk_count_in_bins` (the paper's
/// offset precomputation, §3.2.2). Every chunk writes its tuples in place
/// into its own slots, so no tuple is copied between enumeration and the
/// send. A release-mode check holds `written + dropped == slot size` for
/// every (chunk, destination). With a presolve filter the slots are upper
/// bounds; the gaps drops leave are closed afterwards by stable
/// `copy_within`, so the output order — chunk order, then enumeration
/// order — is the same either way.
#[allow(clippy::too_many_arguments)]
pub fn kmergen_pass<K: PipelineKmer, S: ChunkSource>(
    pool: &rayon::ThreadPool,
    source: &S,
    fastqpart: &FastqPart,
    plan: &RangePlan,
    my_chunks: &[usize],
    bin_owner: &[u32],
    pass: usize,
    use_x4: bool,
    filter: Option<&HighFreqFilter>,
    read_label: impl Fn(u32) -> u32 + Sync,
) -> KmerGenOutput<K::Tuple> {
    use rayon::prelude::*;

    let tasks = plan.tasks();
    let k = plan.k();
    let space = fastqpart.space();
    debug_assert_eq!(space.k(), k);
    let io_nanos = AtomicU64::new(0);
    let gen_nanos = AtomicU64::new(0);

    // slot_lens[i][q]: tuples chunk `my_chunks[i]` generates for task `q`.
    let slot_lens: Vec<Vec<usize>> = my_chunks
        .iter()
        .map(|&c| {
            (0..tasks)
                .map(|q| {
                    let (blo, bhi) = plan.task_bin_range(pass, q);
                    fastqpart.chunk_count_in_bins(c, blo, bhi) as usize
                })
                .collect()
        })
        .collect();
    let mut outgoing: Vec<Vec<K::Tuple>> = (0..tasks)
        .map(|q| vec![K::Tuple::default(); slot_lens.iter().map(|l| l[q]).sum()])
        .collect();
    // Carve every destination buffer into per-chunk slots, transposed to
    // one row of `tasks` slots per chunk.
    let mut slots: Vec<Vec<&mut [K::Tuple]>> = my_chunks
        .iter()
        .map(|_| Vec::with_capacity(tasks))
        .collect();
    for (q, out) in outgoing.iter_mut().enumerate() {
        let mut rest = out.as_mut_slice();
        for (row, lens) in slots.iter_mut().zip(&slot_lens) {
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(lens[q]);
            row.push(slot);
            rest = tail;
        }
    }

    // Per chunk: tuples written and filter-dropped, per destination.
    let filled: Vec<(Vec<usize>, Vec<usize>)> = pool.install(|| {
        my_chunks
            .par_iter()
            .zip(slots.into_par_iter())
            .map(|(&c, mut row)| {
                // Chunk load (KmerGen-I/O): a copy from the in-memory store
                // (MemorySource) or a real seek+read+parse from the FASTQ
                // file (FileSource) — either way, into this thread's
                // FASTQBuffer.
                let t_io = Instant::now();
                let buffer = source.load_chunk(c);
                // ORDERING: Relaxed — profiling counter, summed after join.
                io_nanos.fetch_add(t_io.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t_gen = Instant::now();
                let mut written = vec![0usize; tasks];
                let mut dropped = vec![0usize; tasks];
                for (seq, frag) in &buffer {
                    let label = read_label(*frag);
                    emit_kmers::<K>(seq, k, use_x4, |v| {
                        let bin = space.bin_of(K::repr_to_u128(v));
                        let owner = bin_owner[bin as usize] as usize;
                        if owner / tasks == pass {
                            let dest = owner % tasks;
                            if let Some(f) = filter {
                                if f.drops(K::sketch_key(v)) {
                                    dropped[dest] += 1;
                                    return;
                                }
                            }
                            // A write past the slot is counted, not
                            // performed; the check below reports it.
                            if let Some(t) = row[dest].get_mut(written[dest]) {
                                *t = K::make_tuple(v, label);
                            }
                            written[dest] += 1;
                        }
                    });
                }
                // ORDERING: Relaxed — profiling counter, summed after join.
                gen_nanos.fetch_add(t_gen.elapsed().as_nanos() as u64, Ordering::Relaxed);

                // The index-table arithmetic must match the enumeration:
                // every histogram-counted k-mer was either written or
                // filter-dropped, never lost. Checked in release builds —
                // a short slot would otherwise ship default tuples.
                for (q, slot) in row.iter().enumerate() {
                    assert_eq!(
                        written[q] + dropped[q],
                        slot.len(),
                        "KmerGen conservation: chunk {c} dest {q} wrote {} and dropped {} \
                         tuples, but FASTQPart sized its slot for {}",
                        written[q],
                        dropped[q],
                        slot.len()
                    );
                }
                (written, dropped)
            })
            .collect()
    });

    // Close the gaps filter drops left at the end of each slot: stable,
    // in chunk order, a no-op without drops. The shrink returns the
    // dropped tail, so what is sent holds exactly the surviving tuples.
    for (q, out) in outgoing.iter_mut().enumerate() {
        let (mut src, mut dst) = (0, 0);
        for ((written, _), lens) in filled.iter().zip(&slot_lens) {
            if src != dst {
                out.copy_within(src..src + written[q], dst);
            }
            dst += written[q];
            src += lens[q];
        }
        out.truncate(dst);
        out.shrink_to_fit();
    }

    KmerGenOutput {
        outgoing,
        io_nanos: io_nanos.into_inner(),
        gen_nanos: gen_nanos.into_inner(),
        dropped: filled.iter().flat_map(|(_, d)| d).map(|&d| d as u64).sum(),
    }
}

/// Dispatch between the scalar and 4-lane generators.
#[inline]
fn emit_kmers<K: PipelineKmer>(seq: &[u8], k: usize, use_x4: bool, mut f: impl FnMut(K::Repr)) {
    if use_x4 {
        for_each_canonical_kmer_x4::<K>(seq, k, |v, _| f(v));
    } else {
        for_each_canonical_kmer::<K>(seq, k, |v, _| f(v));
    }
}

/// Expected tuples task `rank` receives from all chunks in `pass` —
/// the receive-count precomputation of paper §3.3. With a presolve
/// filter active this is an **upper bound** (drops are value-granular,
/// the histogram is bin-granular); exact otherwise.
pub fn expected_incoming(fastqpart: &FastqPart, plan: &RangePlan, pass: usize, rank: usize) -> u64 {
    let (blo, bhi) = plan.task_bin_range(pass, rank);
    (0..fastqpart.len())
        .map(|c| fastqpart.chunk_count_in_bins(c, blo, bhi))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use metaprep_index::MerHist;
    use metaprep_io::ReadStore;

    fn mem_source<'a>(s: &'a ReadStore, fp: &FastqPart) -> MemorySource<'a> {
        MemorySource::new(s, fp.chunks().iter().map(|r| r.spec).collect())
    }

    fn store() -> ReadStore {
        let mut s = ReadStore::new();
        let mut x = 7u64;
        for _ in 0..40 {
            let seq: Vec<u8> = (0..60)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b"ACGT"[(x >> 61) as usize & 3]
                })
                .collect();
            s.push_pair(&seq[..30], &seq[30..]);
        }
        s
    }

    fn setup(k: usize, passes: usize, tasks: usize) -> (ReadStore, FastqPart, RangePlan) {
        let s = store();
        let mh = MerHist::build(&s, k, 4);
        let fp = FastqPart::build(&s, 6, k, 4);
        let plan = RangePlan::build(&mh, passes, tasks, 2);
        (s, fp, plan)
    }

    #[test]
    fn all_tuples_emitted_across_passes_and_tasks() {
        let (s, fp, plan) = setup(11, 2, 3);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        let mut total = 0u64;
        for pass in 0..2 {
            let src = mem_source(&s, &fp);
            let out = kmergen_pass::<Kmer64, _>(
                &pool,
                &src,
                &fp,
                &plan,
                &all_chunks,
                &table,
                pass,
                false,
                None,
                |r| r,
            );
            total += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
        }
        assert_eq!(total, fp.total());
    }

    #[test]
    fn tuples_land_in_owner_range() {
        let (s, fp, plan) = setup(11, 1, 4);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        let src = mem_source(&s, &fp);
        let out = kmergen_pass::<Kmer64, _>(
            &pool,
            &src,
            &fp,
            &plan,
            &all_chunks,
            &table,
            0,
            false,
            None,
            |r| r,
        );
        for (q, buf) in out.outgoing.iter().enumerate() {
            let (lo, hi) = plan.task_range(0, q);
            for t in buf {
                let v = t.kmer as u128;
                assert!(v >= lo && v < hi, "task {q}: kmer out of range");
            }
        }
    }

    #[test]
    fn expected_incoming_matches_actual() {
        let (s, fp, plan) = setup(11, 2, 3);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        for pass in 0..2 {
            let src = mem_source(&s, &fp);
            let out = kmergen_pass::<Kmer64, _>(
                &pool,
                &src,
                &fp,
                &plan,
                &all_chunks,
                &table,
                pass,
                false,
                None,
                |r| r,
            );
            for q in 0..3 {
                assert_eq!(
                    out.outgoing[q].len() as u64,
                    expected_incoming(&fp, &plan, pass, q),
                    "pass {pass} task {q}"
                );
            }
        }
    }

    #[test]
    fn x4_matches_scalar_multiset() {
        let (s, fp, plan) = setup(11, 1, 2);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        let src = mem_source(&s, &fp);
        let a = kmergen_pass::<Kmer64, _>(
            &pool,
            &src,
            &fp,
            &plan,
            &all_chunks,
            &table,
            0,
            false,
            None,
            |r| r,
        );
        let b = kmergen_pass::<Kmer64, _>(
            &pool,
            &src,
            &fp,
            &plan,
            &all_chunks,
            &table,
            0,
            true,
            None,
            |r| r,
        );
        for q in 0..2 {
            let mut x: Vec<_> = a.outgoing[q].iter().map(|t| (t.kmer, t.read)).collect();
            let mut y: Vec<_> = b.outgoing[q].iter().map(|t| (t.kmer, t.read)).collect();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "task {q}");
        }
    }

    #[test]
    fn read_label_substitution_applies() {
        let (s, fp, plan) = setup(11, 1, 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        // Map every read to label 0 (as an extreme LocalCC-Opt would).
        let src = mem_source(&s, &fp);
        let out = kmergen_pass::<Kmer64, _>(
            &pool,
            &src,
            &fp,
            &plan,
            &all_chunks,
            &table,
            0,
            false,
            None,
            |_| 0,
        );
        assert!(out.outgoing[0].iter().all(|t| t.read == 0));
    }

    #[test]
    fn filter_drops_frequent_kmers_and_conserves_counts() {
        use metaprep_norm::SketchParams;
        use std::collections::HashMap;

        // The random store plus a handful of duplicated reads, so some
        // k-mers are genuinely frequent and a threshold of 2 has teeth.
        let mut s = store();
        let hot: Vec<u8> = b"ACGT".iter().cycle().take(60).copied().collect();
        for _ in 0..5 {
            s.push_pair(&hot[..30], &hot[30..]);
        }
        let mh = MerHist::build(&s, 11, 4);
        let fp = FastqPart::build(&s, 6, 11, 4);
        let plan = RangePlan::build(&mh, 2, 3, 2);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();

        // Exact truth and a generous sketch over the same enumeration.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut sketch = SketchParams::default().build();
        for (seq, _) in s.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, 11, |v, _| {
                *truth.entry(v).or_insert(0) += 1;
                sketch.add(v);
            });
        }
        let threshold = 2u32;
        let filter = HighFreqFilter::new(sketch, threshold);
        assert!(
            truth.values().any(|&c| c > u64::from(threshold)),
            "test input must contain a frequent k-mer"
        );

        let mut emitted = 0u64;
        let mut dropped = 0u64;
        for pass in 0..2 {
            let src = mem_source(&s, &fp);
            let out = kmergen_pass::<Kmer64, _>(
                &pool,
                &src,
                &fp,
                &plan,
                &all_chunks,
                &table,
                pass,
                false,
                Some(&filter),
                |r| r,
            );
            emitted += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
            dropped += out.dropped;
            // No surviving tuple's k-mer may be truly frequent: estimates
            // never under-count, so a frequent value always drops.
            for buf in &out.outgoing {
                for t in buf {
                    assert!(
                        truth[&t.kmer] <= u64::from(threshold),
                        "frequent kmer survived"
                    );
                }
            }
        }
        assert!(dropped > 0, "filter should have dropped something");
        assert_eq!(emitted + dropped, fp.total(), "conservation");
    }

    #[test]
    fn kmer128_path_works() {
        let (s, fp, plan) = {
            let s = store();
            let mh = MerHist::build(&s, 35, 4);
            let fp = FastqPart::build(&s, 4, 35, 4);
            let plan = RangePlan::build(&mh, 1, 2, 2);
            (s, fp, plan)
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let table = plan.bin_owner_table();
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        let src = mem_source(&s, &fp);
        let out = kmergen_pass::<Kmer128, _>(
            &pool,
            &src,
            &fp,
            &plan,
            &all_chunks,
            &table,
            0,
            false,
            None,
            |r| r,
        );
        let total: u64 = out.outgoing.iter().map(|v| v.len() as u64).sum();
        assert_eq!(total, fp.total());
    }

    /// Reference for the in-place KmerGen: enumerate chunk by chunk into
    /// per-destination vectors, so the output is the concatenation of the
    /// chunks' outputs. Also reports whether a filter drop left a gap in a
    /// slot that a later chunk's tuples had to be moved over.
    #[allow(clippy::too_many_arguments)]
    fn chunkwise_reference<K: PipelineKmer>(
        source: &MemorySource<'_>,
        space: metaprep_kmer::MmerSpace,
        tasks: usize,
        my_chunks: &[usize],
        bin_owner: &[u32],
        pass: usize,
        filter: Option<&HighFreqFilter>,
        read_label: impl Fn(u32) -> u32,
    ) -> (Vec<Vec<K::Tuple>>, u64, bool) {
        let mut out: Vec<Vec<K::Tuple>> = vec![Vec::new(); tasks];
        let mut dropped = 0u64;
        let mut gap_before = vec![false; tasks];
        let mut moved = false;
        for &c in my_chunks {
            let mut gap_here = vec![false; tasks];
            for (seq, frag) in source.load_chunk(c) {
                for_each_canonical_kmer::<K>(&seq, space.k(), |v, _| {
                    let owner = bin_owner[space.bin_of(K::repr_to_u128(v)) as usize] as usize;
                    if owner / tasks != pass {
                        return;
                    }
                    let dest = owner % tasks;
                    if filter.is_some_and(|f| f.drops(K::sketch_key(v))) {
                        dropped += 1;
                        gap_here[dest] = true;
                        return;
                    }
                    moved |= gap_before[dest];
                    out[dest].push(K::make_tuple(v, read_label(frag)));
                });
            }
            for (before, here) in gap_before.iter_mut().zip(gap_here) {
                *before |= here;
            }
        }
        (out, dropped, moved)
    }

    /// One random case of the in-place differential; returns whether the
    /// gap-closing moved tuples.
    #[allow(clippy::too_many_arguments)]
    fn in_place_matches_reference<K: PipelineKmer>(
        store: &ReadStore,
        k: usize,
        chunks: usize,
        tasks: usize,
        passes: usize,
        owned: u32,
        threads: usize,
        relabel: bool,
        threshold: Option<u32>,
    ) -> bool
    where
        K::Tuple: PartialEq + std::fmt::Debug,
    {
        let fp = FastqPart::build(store, chunks, k, 4);
        let mh = MerHist::from_fastqpart(&fp).unwrap();
        let plan = RangePlan::build(&mh, passes, tasks, 2);
        let table = plan.bin_owner_table();
        let my_chunks: Vec<usize> = (0..fp.len()).filter(|c| owned >> c & 1 == 1).collect();
        let filter = threshold.map(|t| {
            let mut sketch = metaprep_norm::SketchParams {
                width: 1 << 12,
                depth: 3,
                seed: 5,
            }
            .build();
            for (seq, _) in store.iter() {
                for_each_canonical_kmer::<K>(seq, k, |v, _| sketch.add(K::sketch_key(v)));
            }
            HighFreqFilter::new(sketch, t)
        });
        let label = move |r: u32| if relabel { r / 3 } else { r };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let src = mem_source(store, &fp);
        let mut moved = false;
        for pass in 0..passes {
            let got = kmergen_pass::<K, _>(
                &pool,
                &src,
                &fp,
                &plan,
                &my_chunks,
                &table,
                pass,
                false,
                filter.as_ref(),
                label,
            );
            let (want, dropped, pass_moved) = chunkwise_reference::<K>(
                &src,
                fp.space(),
                tasks,
                &my_chunks,
                &table,
                pass,
                filter.as_ref(),
                label,
            );
            assert_eq!(got.outgoing, want, "pass {pass}");
            assert_eq!(got.dropped, dropped, "pass {pass}");
            moved |= pass_moved;
        }
        moved
    }

    #[test]
    fn prop_in_place_kmergen_matches_chunkwise_concat() {
        use proptest::prelude::*;
        let base = proptest::sample::select(vec![b'A', b'C', b'G', b'T', b'N']);
        let reads_strategy =
            proptest::collection::vec(proptest::collection::vec(base, 1..70), 1..30);
        let mut moved_cases = 0;
        proptest::run_property(
            &ProptestConfig::default(),
            "prop_in_place_kmergen_matches_chunkwise_concat",
            |rng| {
                let reads = reads_strategy.generate(rng);
                let tasks = (1usize..5).generate(rng);
                let passes = (1usize..4).generate(rng);
                let chunks = (1usize..9).generate(rng);
                // The chunks whose bit is clear belong to another task.
                let owned = any::<u32>().generate(rng);
                let threads = (1usize..4).generate(rng);
                let wide = proptest::bool::ANY.generate(rng);
                let relabel = proptest::bool::ANY.generate(rng);
                let filtered = proptest::bool::ANY.generate(rng);
                // Even-indexed reads get an identical mate, so a threshold
                // of 1 drops their k-mers and keeps most of the others.
                let mut store = ReadStore::new();
                for (i, r) in reads.iter().enumerate() {
                    if i % 2 == 0 {
                        store.push_pair(r, r);
                    } else {
                        store.push_single(r);
                    }
                }
                let threshold = filtered.then_some(1);
                let moved = if wide {
                    in_place_matches_reference::<Kmer128>(
                        &store, 35, chunks, tasks, passes, owned, threads, relabel, threshold,
                    )
                } else {
                    in_place_matches_reference::<Kmer64>(
                        &store, 11, chunks, tasks, passes, owned, threads, relabel, threshold,
                    )
                };
                moved_cases += usize::from(moved);
            },
        );
        assert!(
            moved_cases > 0,
            "no case closed a filter gap by moving tuples"
        );
    }
}
