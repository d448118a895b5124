//! The `FASTQPart` chunk table (paper §3.1.2, Figure 2).

use metaprep_io::{chunk_store, ChunkSpec, ReadStore};
use metaprep_kmer::{fold_kmer_key, for_each_canonical_kmer, Kmer128, Kmer64, MmerSpace};
use metaprep_norm::CountMinSketch;
use rayon::prelude::*;

/// One row of the `FASTQPart` table: a logical chunk plus its own m-mer
/// histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Chunk location, size, first read and read count.
    pub spec: ChunkSpec,
    /// m-mer prefix histogram of the canonical k-mers in this chunk.
    /// Counts saturate at `u32::MAX`, which therefore means "at least
    /// `u32::MAX`"; [`crate::MerHist::from_fastqpart`] rejects such a bin.
    pub hist: Vec<u32>,
}

/// The full chunk table for one dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqPart {
    space: MmerSpace,
    chunks: Vec<ChunkRecord>,
}

/// Histogram the canonical k-mers of `seqs` into `space`'s m-mer bins —
/// the one IndexCreate scan behind both the in-memory and the file-backed
/// chunk tables. An optional count-min sketch rides the same enumeration,
/// keyed by the packed canonical value for `k <= 32` and by
/// [`fold_kmer_key`] above that (the derivation KmerGen's `HighFreqFilter`
/// probes with).
///
/// `for_each_canonical_kmer` is the runtime-dispatched hot path: on
/// AVX2/NEON hosts each read is classified and 2-bit-packed by the
/// vectorized kernels in `metaprep_kmer::simd` (`METAPREP_SIMD=scalar`
/// pins the scalar reference).
pub(crate) fn histogram_seqs<'a>(
    seqs: impl Iterator<Item = &'a [u8]>,
    space: MmerSpace,
    mut sketch: Option<&mut CountMinSketch>,
) -> Vec<u32> {
    let k = space.k();
    let mut hist = vec![0u32; space.bins()];
    if k <= 32 {
        for seq in seqs {
            for_each_canonical_kmer::<Kmer64>(seq, k, |v, _| {
                let h = &mut hist[space.bin_of(v as u128) as usize];
                *h = h.saturating_add(1);
                if let Some(s) = sketch.as_deref_mut() {
                    s.add(v);
                }
            });
        }
    } else {
        for seq in seqs {
            for_each_canonical_kmer::<Kmer128>(seq, k, |v, _| {
                let h = &mut hist[space.bin_of(v) as usize];
                *h = h.saturating_add(1);
                if let Some(s) = sketch.as_deref_mut() {
                    s.add(fold_kmer_key(v));
                }
            });
        }
    }
    hist
}

impl FastqPart {
    /// Build by logically splitting `store` into `c` chunks and histogram-
    /// ming each chunk's canonical k-mers. Chunks are histogrammed in
    /// parallel over the current rayon pool — install a one-thread pool
    /// for the paper's sequential IndexCreate; the table is the same for
    /// any thread count. Derive the global merHist from it with
    /// [`crate::MerHist::from_fastqpart`] instead of scanning again.
    pub fn build(store: &ReadStore, c: usize, k: usize, m: usize) -> Self {
        let space = MmerSpace::new(k, m);
        let chunks = chunk_store(store, c)
            .into_par_iter()
            .map(|spec| {
                let lo = spec.first_seq as usize;
                let seqs = (lo..lo + spec.seqs as usize).map(|i| store.seq(i));
                ChunkRecord {
                    spec,
                    hist: histogram_seqs(seqs, space, None),
                }
            })
            .collect();
        Self { space, chunks }
    }

    /// Construct from raw parts (deserialization, tests).
    pub fn from_parts(space: MmerSpace, chunks: Vec<ChunkRecord>) -> Self {
        assert!(chunks.iter().all(|c| c.hist.len() == space.bins()));
        Self { space, chunks }
    }

    /// The `(k, m)` configuration.
    pub fn space(&self) -> MmerSpace {
        self.space
    }

    /// Chunk rows.
    pub fn chunks(&self) -> &[ChunkRecord] {
        &self.chunks
    }

    /// Number of chunks (`C`).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True if the table has no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Tuples chunk `c` will generate for the m-mer bin range `[lo, hi)` —
    /// the quantity summed to precompute send counts and thread offsets
    /// (paper §3.2.2 / §3.3).
    pub fn chunk_count_in_bins(&self, c: usize, lo: usize, hi: usize) -> u64 {
        self.chunks[c].hist[lo..hi].iter().map(|&x| x as u64).sum()
    }

    /// Total tuples across all chunks (equals the merHist total).
    pub fn total(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.hist.iter().map(|&x| x as u64).sum::<u64>())
            .sum()
    }

    /// Table size in bytes (the paper's `4^{m+1} * C` term plus the fixed
    /// per-chunk fields).
    pub fn table_bytes(&self) -> usize {
        self.chunks.len()
            * (std::mem::size_of::<ChunkSpec>() + self.space.bins() * std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merhist::MerHist;

    fn store_n(n: usize) -> ReadStore {
        let mut s = ReadStore::new();
        for i in 0..n {
            let seq: Vec<u8> = b"ACGTTGCA"
                .iter()
                .cycle()
                .skip(i % 8)
                .take(40)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        s
    }

    #[test]
    fn chunk_histograms_sum_to_global() {
        let store = store_n(30);
        let fp = FastqPart::build(&store, 4, 6, 3);
        let mh = MerHist::build(&store, 6, 3);
        assert_eq!(fp.total(), mh.total());
        // Bin-wise: sum of chunk hists equals global hist.
        for b in 0..mh.space().bins() {
            let sum: u64 = (0..fp.len()).map(|c| fp.chunks()[c].hist[b] as u64).sum();
            assert_eq!(sum, mh.counts()[b] as u64, "bin {b}");
        }
    }

    #[test]
    fn chunk_specs_cover_all_reads() {
        let store = store_n(25);
        let fp = FastqPart::build(&store, 3, 6, 2);
        let total: u32 = fp.chunks().iter().map(|c| c.spec.seqs).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn count_in_bins_full_range_is_chunk_total() {
        let store = store_n(10);
        let fp = FastqPart::build(&store, 2, 6, 2);
        for c in 0..fp.len() {
            let full = fp.chunk_count_in_bins(c, 0, fp.space().bins());
            let direct: u64 = fp.chunks()[c].hist.iter().map(|&x| x as u64).sum();
            assert_eq!(full, direct);
        }
    }

    #[test]
    fn single_chunk_table() {
        let store = store_n(5);
        let fp = FastqPart::build(&store, 1, 6, 2);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp.chunks()[0].spec.first_seq, 0);
    }

    #[test]
    fn empty_store_empty_table() {
        let fp = FastqPart::build(&ReadStore::new(), 4, 6, 2);
        assert!(fp.is_empty());
        assert_eq!(fp.total(), 0);
    }

    #[test]
    fn table_bytes_scale_with_chunks() {
        let store = store_n(40);
        let a = FastqPart::build(&store, 2, 6, 3);
        let b = FastqPart::build(&store, 4, 6, 3);
        assert!(b.table_bytes() >= 2 * a.table_bytes() - 1);
    }
}
