//! Radix sorts for k-mer tuples (LocalSort, paper §3.4).
//!
//! METAPREP sorts `(k-mer, read id)` tuples with the k-mer as key in two
//! stages:
//!
//! 1. **Parallel partitioning** — tuples are scattered into `T` disjoint
//!    k-mer sub-ranges so each can be sorted concurrently
//!    ([`partition::partition_by_ranges`]);
//! 2. **Serial radix sort** — each sub-range is sorted by a serial
//!    out-of-place LSB radix sort, 8 bits per pass; the paper found 8-bit
//!    digits faster than 16-bit because 256 bucket counters stay resident
//!    in L1 ([`radix::lsb_radix_sort`] — digit width is a parameter here so
//!    the ablation bench can reproduce that finding).
//!
//! [`parallel::parallel_lsb_sort`] is the fully-parallel stable LSB radix
//! sort standing in for the NUMA-aware sort of Polychroniou & Ross that the
//! paper benchmarks against (§4.2.2).
//!
//! The pipeline itself uses the **fused receive-side path**
//! ([`fused::fused_local_sort`]): the per-sender all-to-all buffers are
//! scattered straight into `(sub-range, most-significant digit)` buckets
//! of one buffer (no concat copy), and each cache-sized bucket is sorted
//! with [`radix::lsb_radix_sort_pruned`], which skips identity passes via
//! a varying-bits mask accumulated during the scatter — byte-identical
//! output to the two-stage path above.

pub mod fused;
pub mod parallel;
pub mod partition;
pub mod radix;
pub mod sync;

pub use fused::{
    fused_local_sort, scatter_from_parts, BoundaryTable, FusedSortResult, PassBuffers,
    ScatterResult,
};
pub use parallel::{local_sort, local_sort_with_boundaries, parallel_lsb_sort};
pub use partition::{equal_boundaries_by_sample, partition_by_ranges, ScatterTracker, SharedSlice};
pub use radix::{
    is_sorted_by_key, lsb_radix_sort, lsb_radix_sort_pruned, Keyed, RadixStats, SortKey,
};
