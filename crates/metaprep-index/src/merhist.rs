//! The global m-mer prefix histogram (`merHist`, paper §3.1.1).

use crate::fastqpart::histogram_seqs;
use crate::FastqPart;
use metaprep_io::ReadStore;
use metaprep_kmer::MmerSpace;
use metaprep_norm::{CountMinSketch, SketchParams};

/// Histogram of the length-`m` prefixes of all canonical k-mers of a
/// dataset. `4^m` bins, `u32` counts (the paper stores 32-bit counts; we
/// additionally keep the total as `u64` so overflow of the sum is not a
/// concern).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerHist {
    space: MmerSpace,
    counts: Vec<u32>,
    total: u64,
}

/// An m-mer bin whose k-mer count does not fit the table's `u32` cells:
/// the range plan built from it would be silently wrong, so deriving the
/// merHist fails instead. A larger `m` spreads the k-mers over more bins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinOverflow {
    /// The overflowing bin.
    pub bin: usize,
    /// Its count summed over the chunks (chunk cells saturate, so this is
    /// a lower bound).
    pub count: u64,
}

impl std::fmt::Display for BinOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "m-mer bin {} counts at least {} k-mers, over the {} a merHist cell holds; \
             use a larger m",
            self.bin,
            self.count,
            u32::MAX - 1
        )
    }
}

impl std::error::Error for BinOverflow {}

impl MerHist {
    /// Build from every read in `store` with k-mer length `k` and prefix
    /// length `m` in one sequential scan — the reference the pipeline's
    /// [`MerHist::from_fastqpart`] derivation is tested against. Uses the
    /// 64-bit k-mer path for `k <= 32`, 128-bit above.
    pub fn build(store: &ReadStore, k: usize, m: usize) -> Self {
        let space = MmerSpace::new(k, m);
        Self::from_parts(
            space,
            histogram_seqs(store.iter().map(|(s, _)| s), space, None),
        )
    }

    /// [`MerHist::build`] fused with a count-min frequency sketch over the
    /// same canonical k-mer enumeration. The sketch is keyed by the packed
    /// canonical value for `k <= 32` and by `fold_kmer_key` above that.
    /// Sequential like `build`, hence deterministic for any thread count.
    pub fn build_sketched(
        store: &ReadStore,
        k: usize,
        m: usize,
        params: SketchParams,
    ) -> (Self, CountMinSketch) {
        let space = MmerSpace::new(k, m);
        let mut sketch = params.build();
        let counts = histogram_seqs(store.iter().map(|(s, _)| s), space, Some(&mut sketch));
        (Self::from_parts(space, counts), sketch)
    }

    /// Derive the global merHist as the bin-wise sum of `fp`'s chunk
    /// histograms, so the two tables agree by construction and IndexCreate
    /// scans the reads once. This is the one derivation both pipeline entry
    /// points use (in-memory `FastqPart::build` and the streaming file
    /// indexer). Sums are exact in `u64`; a bin that reaches `u32::MAX` —
    /// which is also what a saturated chunk cell holds — fails with
    /// [`BinOverflow`] naming the bin.
    pub fn from_fastqpart(fp: &FastqPart) -> Result<Self, BinOverflow> {
        let space = fp.space();
        let mut sums = vec![0u64; space.bins()];
        for chunk in fp.chunks() {
            for (s, &h) in sums.iter_mut().zip(&chunk.hist) {
                *s += u64::from(h);
            }
        }
        let counts = sums
            .iter()
            .enumerate()
            .map(|(bin, &count)| match u32::try_from(count) {
                Ok(c) if c < u32::MAX => Ok(c),
                _ => Err(BinOverflow { bin, count }),
            })
            .collect::<Result<Vec<u32>, _>>()?;
        Ok(Self {
            space,
            counts,
            total: sums.iter().sum(),
        })
    }

    /// Construct from raw parts (deserialization, tests).
    pub fn from_parts(space: MmerSpace, counts: Vec<u32>) -> Self {
        assert_eq!(counts.len(), space.bins());
        let total = counts.iter().map(|&c| c as u64).sum();
        Self {
            space,
            counts,
            total,
        }
    }

    /// The `(k, m)` configuration.
    pub fn space(&self) -> MmerSpace {
        self.space
    }

    /// Bin counts (length `4^m`).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of k-mers counted (= number of tuples the KmerGen step
    /// will enumerate, the paper's upper bound `M`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint of the table in bytes (the paper's `4^{m+1}` term).
    pub fn table_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }

    /// Sum of counts over the bin range `[lo, hi)`.
    pub fn count_in_bins(&self, lo: usize, hi: usize) -> u64 {
        self.counts[lo..hi].iter().map(|&c| c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(seqs: &[&[u8]]) -> ReadStore {
        let mut s = ReadStore::new();
        for q in seqs {
            s.push_single(q);
        }
        s
    }

    #[test]
    fn total_counts_all_kmers() {
        let s = store_of(&[b"ACGTACGT", b"TTTTT"]);
        let h = MerHist::build(&s, 4, 2);
        // 5 + 2 windows.
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts().iter().map(|&c| c as u64).sum::<u64>(), 7);
    }

    #[test]
    fn bins_receive_canonical_prefixes() {
        // Read "AAAA": canonical of AAAA is AAAA (vs TTTT) -> bin AA = 0.
        let s = store_of(&[b"AAAA"]);
        let h = MerHist::build(&s, 4, 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.total(), 1);

        // Read "TTTT": canonical is AAAA again -> same bin.
        let s = store_of(&[b"TTTT"]);
        let h = MerHist::build(&s, 4, 2);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn n_windows_are_not_counted() {
        let s = store_of(&[b"ACGNACG"]);
        let h = MerHist::build(&s, 3, 1);
        // Runs ACG and ACG -> 1 + 1 windows.
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn k_above_32_uses_wide_path() {
        let seq: Vec<u8> = b"ACGT".iter().cycle().take(80).copied().collect();
        let mut s = ReadStore::new();
        s.push_single(&seq);
        let h = MerHist::build(&s, 63, 4);
        assert_eq!(h.total(), (80 - 63 + 1) as u64);
    }

    #[test]
    fn table_bytes_matches_paper_formula() {
        let s = store_of(&[b"ACGT"]);
        let h = MerHist::build(&s, 4, 3);
        // 4^{m+1} bytes = 4^m bins * 4 bytes.
        assert_eq!(h.table_bytes(), 4usize.pow(3 + 1));
    }

    #[test]
    fn count_in_bins_partial_sums() {
        let space = MmerSpace::new(4, 1);
        let h = MerHist::from_parts(space, vec![1, 2, 3, 4]);
        assert_eq!(h.count_in_bins(0, 4), 10);
        assert_eq!(h.count_in_bins(1, 3), 5);
        assert_eq!(h.count_in_bins(2, 2), 0);
    }

    #[test]
    fn empty_store() {
        let h = MerHist::build(&ReadStore::new(), 4, 2);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn sketched_build_matches_plain_and_counts_kmers() {
        let s = store_of(&[b"ACGTACGTACGT", b"ACGTACGTACGT", b"TTTTTTTT"]);
        // Small enough that a handful of distinct k-mers registers as a
        // non-zero permille fill ratio.
        let params = SketchParams {
            width: 16,
            depth: 4,
            seed: 3,
        };
        for (k, m) in [(5, 2), (35, 2)] {
            let seq: Vec<u8> = b"ACGT".iter().cycle().take(80).copied().collect();
            let mut wide = ReadStore::new();
            wide.push_single(&seq);
            wide.push_single(&seq);
            let store = if k <= 32 {
                store_of(&[b"ACGTACGTACGT", b"ACGTACGTACGT", b"TTTTTTTT"])
            } else {
                wide
            };
            let plain = MerHist::build(&store, k, m);
            let (sketched, sketch) = MerHist::build_sketched(&store, k, m, params);
            assert_eq!(plain, sketched, "k={k}");
            // Every enumerated k-mer was added to the sketch: its estimate
            // of any repeated canonical k-mer is at least the repeat count.
            assert!(sketch.fill_ratio_permille() > 0, "k={k}");
        }
        // Narrow path keys by the raw packed value: a k-mer seen twice
        // estimates at least 2.
        let (_, sketch) = MerHist::build_sketched(&s, 5, 2, params);
        use metaprep_kmer::Kmer;
        let km = metaprep_kmer::Kmer64::from_codes(&[0, 1, 2, 3, 0]); // ACGTA
        assert!(sketch.estimate(km.canonical_value()) >= 2);
    }

    fn table_of(space: MmerSpace, hists: Vec<Vec<u32>>) -> FastqPart {
        let spec = metaprep_io::ChunkSpec {
            offset: 0,
            bytes: 0,
            first_seq: 0,
            seqs: 0,
        };
        let chunks = hists
            .into_iter()
            .map(|hist| crate::ChunkRecord { spec, hist })
            .collect();
        FastqPart::from_parts(space, chunks)
    }

    #[test]
    fn derivation_sums_chunk_histograms() {
        let space = MmerSpace::new(4, 1);
        let fp = table_of(space, vec![vec![1, 0, 2, 3], vec![4, 5, 0, 6]]);
        let h = MerHist::from_fastqpart(&fp).unwrap();
        assert_eq!(h, MerHist::from_parts(space, vec![5, 5, 2, 9]));
        assert_eq!(h.total(), 21);
        let empty = MerHist::from_fastqpart(&table_of(space, vec![])).unwrap();
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn derivation_names_the_overflowing_bin() {
        let space = MmerSpace::new(4, 1);
        // Two chunks whose bin-2 counts each fit but whose sum does not.
        let big = u32::MAX / 2 + 1;
        let fp = table_of(space, vec![vec![0, 0, big, 1], vec![7, 0, big, 0]]);
        let err = MerHist::from_fastqpart(&fp).unwrap_err();
        assert_eq!(
            err,
            BinOverflow {
                bin: 2,
                count: 2 * u64::from(big)
            }
        );
        assert!(err.to_string().contains("m-mer bin 2"), "{err}");
        // A saturated chunk cell alone is already an overflow.
        let fp = table_of(space, vec![vec![0, u32::MAX, 0, 0]]);
        assert_eq!(MerHist::from_fastqpart(&fp).unwrap_err().bin, 1);
    }
}
