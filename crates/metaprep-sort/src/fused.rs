//! Fused receive-side LocalSort: a bucketed scatter-on-receive, then an
//! in-cache radix sort of every bucket.
//!
//! The reference path (concat the per-sender message buffers,
//! range-partition them with [`crate::partition_by_ranges`], radix-sort
//! each sub-range) copies every received tuple twice before sorting, then
//! streams each whole sub-range through DRAM once per digit: with one
//! sub-range per task, 7 full passes over the task's tuples for 54-bit
//! keys and 16 for 126-bit keys, each with its own counting scan.
//! [`fused_local_sort`] is a two-level sort instead:
//!
//! 1. **Bucketed scatter.** [`scatter_from_parts`] reads the per-sender
//!    buffers *in place* (the concat never materializes) and writes each
//!    tuple straight to its final slot in one pooled buffer, grouped into
//!    `(sub-range, MSD digit)` buckets. The MSD digit is the top
//!    [`MSD_BITS`] bits of the sub-range's *varying window*: every key bit
//!    above the sub-range's highest varying bit is the same in all of its
//!    keys, so bucket order is key order.
//! 2. **In-cache sort.** A bucket holds about `1/256` of a sub-range of
//!    uniform keys — ~27 K tuples (~430 KB) on average on `is27_1pass`,
//!    inside a 2 MB L2 — and is sorted by
//!    [`lsb_radix_sort_pruned`](crate::lsb_radix_sort_pruned) against a
//!    pooled per-thread scratch the size of the largest bucket. Every digit
//!    pass after the scatter re-reads cache, not DRAM. The buckets are
//!    spread over the pool threads.
//!
//! The scatter makes three sweeps over the parts, each parallel over
//! part-major chunks:
//!
//! * **classify** — each tuple's sub-range comes from a [`BoundaryTable`]
//!   lookup (branchless, exact, and chosen by measurement; see the type
//!   docs) and is recorded in a pooled `u16` id buffer, while OR / AND
//!   accumulators per sub-range build its varying-bits mask
//!   (`OR(keys) ^ AND(keys)`, set exactly where two keys disagree);
//! * **histogram** — per-bucket counts plus one varying mask per bucket;
//! * **scatter** — stream tuples and their recorded ids and write; the
//!   digit is a shift and a mask, so nothing is classified twice (recording
//!   ids measured ~2.5x faster than recomputing the range per tuple).
//!
//! Each bucket's varying mask drives pass pruning: the digit windows above
//! the MSD digit hold no varying bit and prune themselves, as does any
//! window where the bucket's keys all agree. `RadixPassesRun` and
//! `RadixPassesPruned` therefore count per bucket.
//!
//! **Stability / byte-identity.** Work units are ordered part-major
//! (sender 0's tuples first, in order, then sender 1's, …) — exactly the
//! order the old concat visited tuples — and the per-(unit, bucket) write
//! cursors preserve that order within every bucket. The scatter is
//! therefore stable in concat order, the per-bucket radix sort is stable,
//! and a stable sort's output is unique, so the fused result is
//! byte-identical to the reference concat → partition → full-radix path.
//! LocalCC's union anchor (first tuple of each equal-k-mer group) depends
//! on this and proptests pin it.
//!
//! **Measured** with the repository benchmark (`perfledger`, 2-vCPU VM,
//! two tasks of one thread each): the LocalSort span fell from 0.65 s to
//! ~0.3 s on `is27_1pass` (one sub-range of ~4.5 M tuples per task, ~27 K
//! tuples per sorted bucket) and from 0.42 s to 0.16 s on `ll63_2pass`
//! (126-bit keys), and the partition wall time of `is27_1pass` by ~30%
//! (median 1.16 s to 0.81 s over 10 seeds).

use crate::partition::{ScatterTracker, SharedSlice};
use crate::radix::{lsb_radix_sort_pruned, Keyed, RadixStats, SortKey};
use rayon::prelude::*;

/// Max table index width; 2^11 u32 entries = 8 KiB, comfortably L1-resident.
const TABLE_BITS: u32 = 11;

/// Below this boundary count the table is skipped entirely and `range_of`
/// is a branchless sum of comparisons over all boundaries. Measured on the
/// skewed receive-side workload (8 sub-ranges, single thread): branchless
/// sum ~318 Mt/s vs `partition_point` ~231 Mt/s vs prefix table with a
/// data-dependent advance loop ~83 Mt/s — the advance loop's unpredictable
/// branches dominate whenever mass-balanced boundaries cluster inside a
/// few table buckets, which is exactly what abundance-skewed k-mer data
/// produces.
const BRANCHLESS_MAX_BOUNDARIES: usize = 16;

/// Precomputed range classifier replacing the per-tuple `partition_point`
/// binary search over sub-range boundaries.
///
/// For sorted exclusive-upper `boundaries` (range `r` holds keys
/// `< boundaries[r]`), the range index of `key` is the number of
/// boundaries `<= key`. Two exact strategies, both with branch-free
/// per-boundary work (a comparison summed as 0/1 — no data-dependent
/// branches for the predictor to miss on skewed keys):
///
/// * **few boundaries** (`<= 16`, the common `T - 1` case): sum
///   `boundary <= key` over all boundaries — one or two unrolled SIMD-able
///   compare rows;
/// * **many boundaries**: a prefix-indexed table narrows first. `lo[d]`
///   counts the boundaries whose top `TABLE_BITS`-of-`key_bits` prefix is
///   `< d`; every such boundary is `<= key` for a key with prefix `d`, and
///   every boundary with prefix `> d` is `> key`, so only the window
///   `lo[d]..lo[d + 1]` of same-prefix boundaries needs the comparison
///   sum.
///
/// Precondition (same as the radix sort's): every key and boundary is
/// `< 2^key_bits`.
pub struct BoundaryTable<'b, K: SortKey> {
    boundaries: &'b [K],
    shift: u32,
    mask: u64,
    /// Prefix-count table; empty when the branchless small path is active.
    lo: Vec<u32>,
}

impl<'b, K: SortKey> BoundaryTable<'b, K> {
    /// Build the table for `boundaries` over keys of `key_bits` bits.
    pub fn new(boundaries: &'b [K], key_bits: u32) -> Self {
        assert!(
            (1..=K::BITS).contains(&key_bits),
            "key_bits {key_bits} not in 1..={}",
            K::BITS
        );
        assert!(
            u32::try_from(boundaries.len()).is_ok(),
            "boundary count overflows the table's u32 entries"
        );
        if boundaries.len() <= BRANCHLESS_MAX_BOUNDARIES {
            return Self {
                boundaries,
                shift: 0,
                mask: 0,
                lo: Vec::new(),
            };
        }
        let tb = TABLE_BITS.min(key_bits);
        let shift = key_bits - tb;
        let size = 1usize << tb;
        let mask = (size - 1) as u64;
        let mut lo = vec![0u32; size + 1];
        for b in boundaries {
            lo[b.digit(shift, mask) + 1] += 1;
        }
        for d in 0..size {
            lo[d + 1] += lo[d];
        }
        Self {
            boundaries,
            shift,
            mask,
            lo,
        }
    }

    /// Index of the range `key` falls into (boundaries are exclusive
    /// uppers; `boundaries.len() + 1` ranges).
    #[inline(always)]
    pub fn range_of(&self, key: K) -> usize {
        let (base, window) = if self.lo.is_empty() {
            (0, self.boundaries)
        } else {
            let d = key.digit(self.shift, self.mask);
            let (s, e) = (self.lo[d] as usize, self.lo[d + 1] as usize);
            (s, &self.boundaries[s..e])
        };
        let mut r = base;
        for b in window {
            r += usize::from(*b <= key);
        }
        r
    }
}

/// Width of the most-significant digit [`scatter_from_parts`] buckets by:
/// `2^8` buckets per sub-range cut a sub-range of millions of tuples into
/// buckets of thousands, small enough to radix-sort inside L2.
pub const MSD_BITS: u32 = 8;
const MSD_BUCKETS: usize = 1 << MSD_BITS;
const MSD_MASK: u64 = (MSD_BUCKETS - 1) as u64;

/// Per-chunk slot counts plus the OR / AND of each slot's keys. A bit
/// varies within a slot iff it is 1 in some key (OR) but not in all (AND),
/// so `or ^ and` is exactly the slot's varying mask, and both fold across
/// chunks bit-parallel and branch-free.
struct SlotStats<K> {
    hist: Vec<usize>,
    or: Vec<K>,
    and: Vec<K>,
}

impl<K: SortKey> SlotStats<K> {
    fn new(slots: usize) -> Self {
        Self {
            hist: vec![0; slots],
            or: vec![K::ZERO; slots],
            and: vec![K::ONES; slots],
        }
    }

    #[inline(always)]
    fn add(&mut self, slot: usize, key: K) {
        self.hist[slot] += 1;
        self.or[slot] = self.or[slot] | key;
        self.and[slot] = self.and[slot] & key;
    }

    /// Fold per-chunk stats into the `slots + 1` slot offsets (exclusive
    /// prefix sums of the totals) and every slot's varying mask (all-zero
    /// for an empty slot).
    fn fold(stats: &[Self], slots: usize) -> (Vec<usize>, Vec<K>) {
        let mut offsets = vec![0usize; slots + 1];
        let mut varying = vec![K::ZERO; slots];
        for s in 0..slots {
            let (mut n, mut or_acc, mut and_acc) = (0, K::ZERO, K::ONES);
            for st in stats.iter().filter(|st| st.hist[s] > 0) {
                n += st.hist[s];
                or_acc = or_acc | st.or[s];
                and_acc = and_acc & st.and[s];
            }
            offsets[s + 1] = offsets[s] + n;
            if n > 0 {
                varying[s] = or_acc ^ and_acc;
            }
        }
        (offsets, varying)
    }
}

/// What [`scatter_from_parts`] learned while scattering.
pub struct ScatterResult<K> {
    /// The `ranges + 1` sub-range offsets within the destination buffer —
    /// the same offsets LocalCC's per-thread walk needs, so the pipeline
    /// skips its post-sort binary-search derivation.
    pub offsets: Vec<usize>,
    /// The `ranges * 2^MSD_BITS + 1` bucket offsets, range-major: bucket
    /// `r * 2^MSD_BITS + d` holds the tuples of sub-range `r` whose MSD
    /// digit is `d`, so `buckets[r * 2^MSD_BITS] == offsets[r]`.
    pub buckets: Vec<usize>,
    /// Per-bucket varying-bits mask: bit `i` is set iff two keys in the
    /// bucket differ in bit `i`. Feed to
    /// [`lsb_radix_sort_pruned`](crate::lsb_radix_sort_pruned).
    pub varying: Vec<K>,
}

/// Scatter the per-sender message buffers straight into `dst`, grouped by
/// key range and, within each range, by its [`MSD_BITS`]-bit most
/// significant digit — the fused replacement for concat +
/// [`crate::partition_by_ranges`], plus the first level of the sort.
///
/// A range's MSD digit is the top [`MSD_BITS`] bits of its varying window:
/// key bits above the range's highest varying bit are equal in all of its
/// keys, so the range's buckets in digit order are in key order.
/// `dst.len()` must equal the total part length. Tuple order within each
/// bucket is part-major input order (sender 0 first) — the order the
/// concat-then-partition path visits tuples.
///
/// `ids` is pooled per-tuple scratch (one `u16` range index each, recorded
/// by the classify sweep and read by the two later sweeps, so the range
/// classification runs once per tuple); pass the same `Vec` every call to
/// recycle its allocation, or an empty one for a one-off. At most
/// `u16::MAX + 1` ranges are supported — far above the per-task thread
/// counts that set the range count in the pipeline.
pub fn scatter_from_parts<T: Keyed>(
    parts: &[Vec<T>],
    dst: &mut [T],
    boundaries: &[T::Key],
    key_bits: u32,
    tracker: &mut ScatterTracker,
    ids: &mut Vec<u16>,
) -> ScatterResult<T::Key> {
    let total: usize = parts.iter().map(Vec::len).sum();
    assert_eq!(total, dst.len(), "dst must hold every part tuple");
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be sorted"
    );
    let ranges = boundaries.len() + 1;
    assert!(ranges <= usize::from(u16::MAX) + 1, "too many sub-ranges");
    let table = BoundaryTable::new(boundaries, key_bits);

    // Work units: each part sub-chunked so threads stay busy even when
    // sender volumes are skewed. Units are ordered part-major (and
    // offset-minor within a part) — the order the old concat visited
    // tuples — which is what makes the stable scatter byte-identical to
    // concat + partition_by_ranges.
    let chunk_size = total.div_ceil(rayon::current_num_threads().max(1)).max(1);
    let chunks: Vec<&[T]> = parts.iter().flat_map(|p| p.chunks(chunk_size)).collect();

    // Carve the pooled id buffer into per-chunk windows (same flat order
    // as `chunks`). The classify sweep writes every id slot before the
    // later sweeps read it, so recycled contents never leak through.
    resize_pooled(ids, total, 0);
    let mut id_windows: Vec<&mut [u16]> = Vec::with_capacity(chunks.len());
    let mut rem_ids: &mut [u16] = ids;
    for chunk in &chunks {
        let (w, rest) = rem_ids.split_at_mut(chunk.len());
        id_windows.push(w);
        rem_ids = rest;
    }

    // Sweep 1, classify: each tuple's range id, and each range's varying
    // window, whose top MSD_BITS bits become the range's bucket digit.
    let range_stats: Vec<SlotStats<T::Key>> = chunks
        .par_iter()
        .zip(id_windows.into_par_iter())
        .map(|(chunk, id_window)| {
            let mut st = SlotStats::new(ranges);
            for (t, id) in chunk.iter().zip(id_window.iter_mut()) {
                let k = t.key();
                let r = table.range_of(k);
                *id = r as u16;
                st.add(r, k);
            }
            st
        })
        .collect();
    let (offsets, range_varying) = SlotStats::fold(&range_stats, ranges);
    let shifts: Vec<u32> = range_varying
        .iter()
        .map(|v| v.significant_bits().saturating_sub(MSD_BITS))
        .collect();
    let bucket_of = |key: T::Key, id: u16| {
        let r = usize::from(id);
        r * MSD_BUCKETS + key.digit(shifts[r], MSD_MASK)
    };

    let mut read_windows: Vec<&[u16]> = Vec::with_capacity(chunks.len());
    let mut rem_ids: &[u16] = ids;
    for chunk in &chunks {
        let (w, rest) = rem_ids.split_at(chunk.len());
        read_windows.push(w);
        rem_ids = rest;
    }

    // Sweep 2, histogram: per-chunk bucket counts and varying masks.
    let slots = ranges * MSD_BUCKETS;
    let bucket_stats: Vec<SlotStats<T::Key>> = chunks
        .par_iter()
        .zip(read_windows.par_iter())
        .map(|(chunk, id_window)| {
            let mut st = SlotStats::new(slots);
            for (t, &id) in chunk.iter().zip(id_window.iter()) {
                let k = t.key();
                st.add(bucket_of(k, id), k);
            }
            st
        })
        .collect();
    let (buckets, varying) = SlotStats::fold(&bucket_stats, slots);

    // Per-(chunk, bucket) write cursors, chunk-major prefix sums.
    let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
    let mut running = buckets[..slots].to_vec();
    for st in &bucket_stats {
        cursors.push(running.clone());
        for (c, h) in running.iter_mut().zip(&st.hist) {
            *c += h;
        }
    }

    // Sweep 3, scatter: stream tuples and their recorded range ids; the
    // digit is a shift and a mask, so only the permuting writes are left.
    let shared = SharedSlice::new(dst, tracker);
    chunks
        .par_iter()
        .zip(read_windows.into_par_iter())
        .zip(cursors.into_par_iter())
        .for_each(|((chunk, id_window), mut cur)| {
            for (t, &id) in chunk.iter().zip(id_window.iter()) {
                let b = bucket_of(t.key(), id);
                // SAFETY: cursor windows are disjoint by construction.
                unsafe { shared.write(cur[b], *t) };
                cur[b] += 1;
            }
        });

    ScatterResult {
        offsets,
        buckets,
        varying,
    }
}

/// Set `v.len()` to `n` for a pooled buffer whose contents are dead. When
/// the allocation must grow, the old one is freed first and the new one
/// holds exactly `n`: `Vec::resize` alone would round the capacity up
/// (amortized doubling wastes up to a pass of bytes) and copy the dead
/// contents while the old and new allocations coexist.
fn resize_pooled<X: Clone>(v: &mut Vec<X>, n: usize, fill: X) {
    if n > v.capacity() {
        *v = Vec::new();
        v.reserve_exact(n);
    }
    v.resize(n, fill);
}

/// One pool thread's in-cache radix scratch: tuples as long as the largest
/// bucket the thread has sorted, and the digit counts.
#[derive(Default)]
struct BucketScratch<T> {
    tuples: Vec<T>,
    counts: Vec<usize>,
}

/// Pooled per-task buffers for the fused LocalSort: the bucketed
/// destination, the per-tuple range-id buffer, one in-cache radix scratch
/// per pool thread, and the debug-build scatter tracker are allocated once
/// and recycled across passes (on a cold pool, first-touch page faults cost
/// as much as the scatter itself). Each grows exactly to the largest pass
/// it has seen.
///
/// Reuse without re-zeroing is sound because the scatter writes every
/// destination slot before anything reads it, each radix pass writes every
/// scratch slot and count it later reads, and the classify sweep writes
/// every range id the later sweeps read.
#[derive(Default)]
pub struct PassBuffers<T> {
    dst: Vec<T>,
    ids: Vec<u16>,
    scratch: Vec<BucketScratch<T>>,
    tracker: ScatterTracker,
}

impl<T: Keyed + Default> PassBuffers<T> {
    /// Empty pool; buffers grow, exactly, to the largest pass seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted tuples after [`fused_local_sort`] (valid until the next
    /// call mutates the pool).
    pub fn sorted(&self) -> &[T] {
        &self.dst
    }
}

/// What [`fused_local_sort`] did.
pub struct FusedSortResult {
    /// Sub-range offsets within [`PassBuffers::sorted`].
    pub offsets: Vec<usize>,
    /// Radix passes run vs pruned, summed over the `(sub-range, MSD digit)`
    /// buckets of two or more tuples.
    pub stats: RadixStats,
}

/// The fused LocalSort: scatter the per-sender buffers straight into the
/// pooled destination, bucketed by `(sub-range, MSD digit)`, then sort
/// every bucket in cache with the bit-pruned radix sort, the buckets spread
/// over the pool threads. Consumes `parts` so the received message buffers
/// are freed before the radix phase.
///
/// The sorted tuples land in `bufs.sorted()[..total]`; the result is
/// byte-identical to concat → [`crate::partition_by_ranges`] → per-range
/// [`crate::lsb_radix_sort`] (see the module docs for the argument).
pub fn fused_local_sort<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    boundaries: &[T::Key],
    bits: u32,
    key_bits: u32,
) -> FusedSortResult {
    let total: usize = parts.iter().map(Vec::len).sum();
    resize_pooled(&mut bufs.dst, total, T::default());
    let sc = scatter_from_parts(
        &parts,
        &mut bufs.dst,
        boundaries,
        key_bits,
        &mut bufs.tracker,
        &mut bufs.ids,
    );
    // The received buffers are dead the moment the scatter lands.
    drop(parts);

    // A bucket of equal keys is already sorted: every digit window prunes,
    // so count it as pruned without claiming scratch for it.
    let windows = u64::from(key_bits.div_ceil(bits));
    let mut stats = RadixStats::default();
    let mut work: Vec<(&mut [T], T::Key)> = Vec::new();
    let mut rem: &mut [T] = &mut bufs.dst;
    for (w, &v) in sc.buckets.windows(2).zip(&sc.varying) {
        let (bucket, rest) = rem.split_at_mut(w[1] - w[0]);
        rem = rest;
        if v != T::Key::ZERO {
            work.push((bucket, v));
        } else if bucket.len() > 1 {
            stats.passes_pruned += windows;
        }
    }

    // One contiguous run of buckets per pool thread, of about equal tuple
    // mass, each sorted with that thread's pooled scratch.
    let threads = rayon::current_num_threads().max(1);
    let unsorted: usize = work.iter().map(|(b, _)| b.len()).sum();
    let per_run = unsorted.div_ceil(threads).max(1);
    let mut runs: Vec<Vec<(&mut [T], T::Key)>> = (0..threads).map(|_| Vec::new()).collect();
    let mut mass = 0;
    for (bucket, v) in work {
        let run = (mass / per_run).min(threads - 1);
        mass += bucket.len();
        runs[run].push((bucket, v));
    }
    bufs.scratch.resize_with(threads, BucketScratch::default);
    let jobs: Vec<_> = runs.into_iter().zip(bufs.scratch.iter_mut()).collect();
    let sorted = jobs
        .into_par_iter()
        .map(|(run, scratch)| {
            let need = run.iter().map(|(b, _)| b.len()).max().unwrap_or(0);
            if need > scratch.tuples.len() {
                resize_pooled(&mut scratch.tuples, need, T::default());
            }
            run.into_iter()
                .map(|(bucket, v)| {
                    let s = &mut scratch.tuples[..bucket.len()];
                    lsb_radix_sort_pruned(bucket, s, &mut scratch.counts, bits, key_bits, v)
                })
                .fold(RadixStats::default(), RadixStats::merged)
        })
        .reduce(RadixStats::default, RadixStats::merged);

    FusedSortResult {
        offsets: sc.offsets,
        stats: stats.merged(sorted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_by_ranges;
    use crate::radix::lsb_radix_sort;
    use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The unfused pipeline path: concat -> partition_by_ranges -> full
    /// per-range lsb_radix_sort. Returns the sorted tuples.
    fn reference_path<T: Keyed + Default>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) -> (Vec<usize>, Vec<T>) {
        let mut tuples: Vec<T> = Vec::new();
        for p in parts {
            tuples.extend_from_slice(p);
        }
        let mut dst = vec![T::default(); tuples.len()];
        let offsets = partition_by_ranges(&tuples, &mut dst, boundaries);
        for w in offsets.windows(2) {
            let (d, s) = (&mut dst[w[0]..w[1]], &mut tuples[w[0]..w[1]]);
            lsb_radix_sort(d, s, bits, key_bits);
        }
        (offsets, dst)
    }

    /// The fused path on a fresh pool. Returns the result and the sorted
    /// tuples.
    fn fused_path<T: Keyed + Default>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) -> (FusedSortResult, Vec<T>) {
        let mut bufs = PassBuffers::new();
        let res = fused_local_sort(parts.to_vec(), &mut bufs, boundaries, bits, key_bits);
        (res, bufs.sorted().to_vec())
    }

    /// Split `tuples` into parts at the (sorted, clamped) `cuts`, then
    /// check the fused path against the reference: same offsets, same
    /// bytes, and every sorted bucket accounts for all its digit windows.
    fn check_against_reference<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        tuples: &[T],
        cuts: Vec<usize>,
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(tuples.len())).collect();
        cuts.sort_unstable();
        let mut parts: Vec<Vec<T>> = Vec::new();
        let mut prev = 0;
        for c in cuts {
            parts.push(tuples[prev..c].to_vec());
            prev = c;
        }
        parts.push(tuples[prev..].to_vec());
        let (ref_offs, ref_sorted) = reference_path(&parts, boundaries, bits, key_bits);
        let (res, sorted) = fused_path(&parts, boundaries, bits, key_bits);
        prop_assert_eq!(res.offsets, ref_offs);
        prop_assert_eq!(sorted, ref_sorted);
        prop_assert_eq!(
            (res.stats.passes_run + res.stats.passes_pruned) % u64::from(key_bits.div_ceil(bits)),
            0
        );
    }

    #[test]
    fn boundary_table_matches_partition_point() {
        let mut rng = SmallRng::seed_from_u64(11);
        // 7 boundaries exercise the branchless small path, 17 the
        // prefix-table path (see BRANCHLESS_MAX_BOUNDARIES).
        for nb in [7usize, 17] {
            for key_bits in [8u32, 16, 54, 64] {
                let cap = |x: u64| {
                    if key_bits >= 64 {
                        x
                    } else {
                        x & ((1u64 << key_bits) - 1)
                    }
                };
                let mut boundaries: Vec<u64> = (0..nb).map(|_| cap(rng.gen())).collect();
                boundaries.sort_unstable();
                // Include duplicates.
                boundaries[3] = boundaries[4];
                boundaries.sort_unstable();
                let table = BoundaryTable::new(&boundaries, key_bits);
                for _ in 0..5_000 {
                    let k = cap(rng.gen());
                    assert_eq!(
                        table.range_of(k),
                        boundaries.partition_point(|b| *b <= k),
                        "key {k:#x} key_bits {key_bits} nb {nb}"
                    );
                }
                // Boundary keys themselves and the extremes.
                for &b in &boundaries {
                    for k in [b, b.wrapping_sub(1) & cap(u64::MAX), cap(u64::MAX), 0] {
                        assert_eq!(table.range_of(k), boundaries.partition_point(|b| *b <= k));
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_buckets_by_range_msd_digit() {
        let parts: Vec<Vec<u64>> = vec![
            vec![0x103, 0x003, 40_000],
            vec![0x002, 0x100, 0x001, 40_001],
        ];
        let boundaries = [0x1000u64];
        let mut dst = vec![0u64; 7];
        let mut tracker = ScatterTracker::new();
        let mut ids = Vec::new();
        let sc = scatter_from_parts(&parts, &mut dst, &boundaries, 64, &mut tracker, &mut ids);
        assert_eq!(sc.offsets, vec![0, 5, 7]);
        assert_eq!(sc.buckets.len(), 2 * MSD_BUCKETS + 1);
        assert_eq!(sc.buckets[MSD_BUCKETS], 5);
        // Range 0 varies in bits 0..=8, so its digit is bits 1..=8:
        // 0x001 -> 0, {0x003, 0x002} -> 1, 0x100 -> 0x80, 0x103 -> 0x81.
        // Within bucket 1 the order is part-major (0x003 came first).
        assert_eq!(&sc.buckets[..3], &[0, 1, 3]);
        assert_eq!(sc.varying[1], 0b1);
        assert_eq!(sc.varying[0x81], 0);
        // Range 1 = {40_000, 40_001} varies in bit 0 only: digit = low byte.
        assert_eq!(sc.varying[MSD_BUCKETS + 0x40], 0);
        assert_eq!(dst, vec![0x001, 0x003, 0x002, 0x100, 0x103, 40_000, 40_001]);
    }

    #[test]
    fn fused_sorts_and_prunes_narrow_ranges() {
        // Four ranges of 1024 keys each (bits 0..=9 vary), every key sent
        // once by each of 4 senders in a scrambled order. The MSD digit is
        // bits 2..=9, so every range splits into 256 buckets of 16 tuples
        // varying only in bits 0..=1: of ceil(54/8) = 7 digit windows, one
        // runs and six prune — counted per bucket.
        let base = 0x2ABC_DEF0_0000u64;
        let parts: Vec<Vec<KmerReadTuple>> = (0..4u32)
            .map(|p| {
                (0..4096u32)
                    .map(|j| {
                        let key = base + ((u64::from(j) * 7919 + u64::from(p)) & 0xFFF);
                        KmerReadTuple::new(key, p * 4096 + j)
                    })
                    .collect()
            })
            .collect();
        let boundaries = [base + 0x400, base + 0x800, base + 0xC00];
        let (res, sorted) = fused_path(&parts, &boundaries, 8, 54);
        assert!(crate::is_sorted_by_key(&sorted));
        assert_eq!(res.stats.passes_run, 4 * 256);
        assert_eq!(res.stats.passes_pruned, 4 * 256 * 6);
        let (ref_offs, ref_sorted) = reference_path(&parts, &boundaries, 8, 54);
        assert_eq!(res.offsets, ref_offs);
        assert_eq!(sorted, ref_sorted);
    }

    #[test]
    fn pass_buffers_recycle_across_calls() {
        let mut bufs = PassBuffers::new();
        let boundaries = [1u64 << 32];
        for round in 0..5u64 {
            let parts: Vec<Vec<u64>> = vec![
                (0..1000).map(|i| i * 7 + round).collect(),
                (0..500).map(|i| (i * 13 + round) << 30).collect(),
            ];
            let (_, want) = reference_path(&parts, &boundaries, 8, 64);
            fused_local_sort(parts, &mut bufs, &boundaries, 8, 64);
            assert_eq!(bufs.sorted(), &want[..], "round {round}");
        }
    }

    #[test]
    fn pass_buffers_grow_exactly_to_the_largest_pass() {
        // Passes a little larger each time: amortized growth would double
        // the capacity on the second pass; exact growth stops at the
        // largest pass.
        let pass = |n: u64| {
            vec![(0..n)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect::<Vec<u64>>()]
        };
        let sizes = [1000u64, 1100, 1210, 1331];
        let mut bufs = PassBuffers::new();
        for &n in &sizes {
            fused_local_sort(pass(n), &mut bufs, &[], 8, 64);
        }
        assert_eq!(bufs.dst.capacity(), 1331);
        assert_eq!(bufs.ids.capacity(), 1331);
        // A smaller pass after the largest reuses the pool as it is.
        fused_local_sort(pass(500), &mut bufs, &[], 8, 64);
        assert_eq!(bufs.sorted().len(), 500);
        assert_eq!(bufs.dst.capacity(), 1331);
    }

    #[test]
    fn equal_kmer_tuples_keep_sender_order() {
        // Stability regression: tuples with equal k-mers must come out in
        // sender (part-major) order — LocalCC's union anchor is the first
        // tuple of each equal-k-mer group.
        let parts: Vec<Vec<KmerReadTuple>> = vec![
            vec![KmerReadTuple::new(7, 0), KmerReadTuple::new(3, 1)],
            vec![KmerReadTuple::new(7, 2), KmerReadTuple::new(7, 3)],
            vec![],
            vec![KmerReadTuple::new(3, 4), KmerReadTuple::new(7, 5)],
        ];
        let (_, sorted) = fused_path(&parts, &[5u64], 8, 54);
        let order: Vec<(u64, u32)> = sorted.iter().map(|t| (t.kmer, t.read)).collect();
        assert_eq!(order, vec![(3, 1), (3, 4), (7, 0), (7, 2), (7, 3), (7, 5)]);
    }

    #[test]
    fn empty_parts_and_empty_input() {
        let (res, sorted) = fused_path::<u64>(&[vec![], vec![], vec![]], &[10u64], 8, 64);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0, 0]);
        assert_eq!(res.stats, RadixStats::default());
        let (res, sorted) = fused_path::<u64>(&[], &[], 8, 64);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0]);
        assert_eq!(res.stats, RadixStats::default());
    }

    proptest! {
        /// The tentpole invariant: fused scatter + pruned radix is
        /// byte-identical to the reference path over random tuple sets,
        /// random part splits, boundary counts (including empty sub-ranges
        /// and duplicate boundaries), and digit widths 8/11/16.
        #[test]
        fn prop_fused_byte_identical_to_reference(
            keys in proptest::collection::vec(0u64..(1 << 54), 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..6),
            mut bvals in proptest::collection::vec(0u64..(1 << 54), 0..7),
            dup in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let bits = [8u32, 11, 16][bits_idx];
            // Tuples tagged with their global index so stability differences
            // are visible as value differences.
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(k, i as u32))
                .collect();
            // Split into parts at the (sorted, clamped) cut points.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(tuples.len())).collect();
            cuts.sort_unstable();
            let mut parts: Vec<Vec<KmerReadTuple>> = Vec::new();
            let mut prev = 0;
            for c in cuts {
                parts.push(tuples[prev..c].to_vec());
                prev = c;
            }
            parts.push(tuples[prev..].to_vec());
            // Sorted boundaries, optionally with a forced duplicate
            // (an empty sub-range).
            bvals.sort_unstable();
            if dup && bvals.len() >= 2 {
                bvals[0] = bvals[1];
            }
            let (ref_offs, ref_sorted) = reference_path(&parts, &bvals, bits, 54);
            let (res, sorted) = fused_path(&parts, &bvals, bits, 54);
            prop_assert_eq!(res.offsets, ref_offs);
            prop_assert_eq!(sorted, ref_sorted);
            prop_assert_eq!(
                (res.stats.passes_run + res.stats.passes_pruned) % u64::from(54u32.div_ceil(bits)),
                0
            );
        }

        /// 126-bit keys in `KmerReadTuple128` — the k = 63 path.
        #[test]
        fn prop_fused_matches_reference_kmer128(
            halves in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..1200),
            cuts in proptest::collection::vec(0usize..1200, 0..5),
            bhalves in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..5),
            narrow in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let mask = (1u128 << 126) - 1;
            // Optionally confine keys to a narrow window, as a deep plan
            // range does.
            let window = if narrow { (1u128 << 20) - 1 } else { mask };
            let key = |(hi, lo): (u64, u64)| ((u128::from(hi) << 64) | u128::from(lo)) & window;
            let tuples: Vec<KmerReadTuple128> = halves
                .iter()
                .enumerate()
                .map(|(i, &h)| KmerReadTuple128::new(key(h), i as u32))
                .collect();
            let mut bvals: Vec<u128> = bhalves.into_iter().map(key).collect();
            bvals.sort_unstable();
            check_against_reference(&tuples, cuts, &bvals, [8u32, 11, 16][bits_idx], 126);
        }

        /// Full 64-bit keys whose top bit varies.
        #[test]
        fn prop_fused_matches_reference_full_u64(
            keys in proptest::collection::vec(any::<u64>(), 1..1200),
            cuts in proptest::collection::vec(0usize..1200, 0..5),
            mut bvals in proptest::collection::vec(any::<u64>(), 0..5),
            bits_idx in 0usize..3,
        ) {
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(k ^ ((i as u64 & 1) << 63), i as u32))
                .collect();
            bvals.sort_unstable();
            check_against_reference(&tuples, cuts, &bvals, [8u32, 11, 16][bits_idx], 64);
        }

        /// No boundaries: one sub-range per task, the shape the pipeline
        /// runs with one thread per task.
        #[test]
        fn prop_fused_matches_reference_single_range(
            keys in proptest::collection::vec(0u64..(1 << 54), 0..2000),
            cuts in proptest::collection::vec(0usize..2000, 0..5),
            bits_idx in 0usize..3,
        ) {
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(k, i as u32))
                .collect();
            check_against_reference(&tuples, cuts, &[], [8u32, 11, 16][bits_idx], 54);
        }

        /// Duplicate-heavy inputs — keys drawn from a handful of values —
        /// and single-key inputs, where whole buckets hold equal keys.
        #[test]
        fn prop_fused_matches_reference_duplicate_heavy(
            pool in proptest::collection::vec(0u64..(1 << 54), 1..5),
            picks in proptest::collection::vec(0usize..5, 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..5),
            single in any::<bool>(),
            split in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let tuples: Vec<KmerReadTuple> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let k = if single { pool[0] } else { pool[p % pool.len()] };
                    KmerReadTuple::new(k, i as u32)
                })
                .collect();
            let boundaries: Vec<u64> = if split { vec![pool[pool.len() / 2]] } else { Vec::new() };
            check_against_reference(&tuples, cuts, &boundaries, [8u32, 11, 16][bits_idx], 54);
        }
    }
}
