//! §4.2.2 — LocalSort throughput: fused receive-side path vs the unfused
//! reference, plus the paper's comparison against a state-of-the-art
//! parallel radix sort.
//!
//! Two measurements:
//!
//! 1. **Fused vs reference LocalSort** on three receive-side workloads:
//!    per-sender message buffers as they come out of the all-to-all.
//!    * *skewed*: keys with metagenome-like abundance skew (a few dominant
//!      genomes concentrate most tuples in narrow key windows) and
//!      mass-balanced sub-range boundaries like the plan's;
//!    * *single range*: uniform 54-bit keys and no boundaries — the shape
//!      every pass takes with one thread per task;
//!    * *kmer128*: the same shape with 126-bit keys in `KmerReadTuple128`,
//!      the k = 63 path.
//!
//!    The fused path ([`metaprep_sort::fused_local_sort`]) scatters
//!    straight from the parts into `(sub-range, MSD digit)` buckets and
//!    radix-sorts each bucket in cache; the reference path is the old
//!    pipeline: concat → partition → full per-range radix. Both results
//!    are asserted byte-identical every round, and the numbers go to
//!    `BENCH_sort.json` (or `METAPREP_BENCH_OUT`) for the perf trajectory;
//!    the skewed row keeps the top-level keys the gates read.
//! 2. The paper's §4.2.2 table: LocalSort vs our fully-parallel stable
//!    LSB radix sort (the NUMA-aware-sort stand-in) vs `sort_unstable`.
//!
//! Peak memory is the [`crate::allocpeak`] high-water delta per timed
//! region when the experiment binary installs the tracking allocator
//! (`exp_sort_throughput` does; `exp_all` does not, and the JSON then
//! marks allocator numbers absent).

use crate::allocpeak;
use crate::harness::print_table;
use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};
use metaprep_sort::{
    equal_boundaries_by_sample, fused_local_sort, local_sort, local_sort_with_boundaries,
    parallel_lsb_sort, Keyed, PassBuffers, RadixStats,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Simulated all-to-all senders (`P`).
const SENDERS: usize = 8;
/// Sub-ranges per task (`T`).
const RANGES: usize = 8;
/// Radix digit width (the paper's 8).
const DIGIT_BITS: u32 = 8;
/// Meaningful key bits (27-mers: 2k = 54).
const KEY_BITS: u32 = 54;
/// Meaningful key bits of the `KmerReadTuple128` row (63-mers: 2k = 126).
const KEY_BITS_128: u32 = 126;
/// Timed rounds per path — several, so the pooled buffers' recycling
/// (allocate once, reuse every pass) shows up the way it does across the
/// pipeline's passes.
const ROUNDS: usize = 4;
/// Abundance clusters ("dominant genomes") and their share of the tuples.
const CLUSTERS: usize = 2;
const CLUSTER_SHARE_PCT: u64 = 85;
/// Width of each abundant cluster's k-mer window, in bits.
const CLUSTER_WINDOW_BITS: u32 = 16;

/// The receive side of one task-pass: per-sender tuple buffers with
/// metagenome-like skew. One task deep in an `S·P·T` hierarchy sees a
/// window of the k-mer space dominated by the abundant genomes' repeated
/// k-mers — most tuple mass sits in a couple of narrow key clusters, the
/// rest is uniform background. Mass-balanced sub-range boundaries then
/// subdivide the clusters, making the hot sub-ranges numerically narrow —
/// the regime where per-sub-range bit pruning pays.
fn receive_side_parts(n: usize, seed: u64) -> Vec<Vec<KmerReadTuple>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mask54 = (1u64 << KEY_BITS) - 1;
    let centers: Vec<u64> = (0..CLUSTERS)
        .map(|_| rng.gen::<u64>() & mask54 & !((1u64 << CLUSTER_WINDOW_BITS) - 1))
        .collect();
    let per_sender = n / SENDERS;
    (0..SENDERS)
        .map(|s| {
            (0..per_sender)
                .map(|i| {
                    let key = if rng.gen_range(0..100u64) < CLUSTER_SHARE_PCT {
                        let c = centers[rng.gen_range(0..CLUSTERS)];
                        c | (rng.gen::<u64>() & ((1u64 << CLUSTER_WINDOW_BITS) - 1))
                    } else {
                        rng.gen::<u64>() & mask54
                    };
                    KmerReadTuple::new(key, (s * per_sender + i) as u32)
                })
                .collect()
        })
        .collect()
}

struct PathResult {
    secs: f64,
    mtuples_per_s: f64,
    peak_alloc: Option<usize>,
    stats: RadixStats,
}

/// Fused vs reference LocalSort on one receive side.
struct Comparison {
    fused: PathResult,
    reference: PathResult,
}

impl Comparison {
    fn ratio(&self) -> f64 {
        self.fused.mtuples_per_s / self.reference.mtuples_per_s
    }
}

/// Time [`ROUNDS`] rounds of the reference path (concat → partition → full
/// per-range radix) and of the fused path over `parts`, asserting the two
/// byte-identical every round.
///
/// Both paths get one untimed warm-up round: the pipeline runs S passes
/// per task with pooled buffers, so steady-state per-pass cost is the
/// quantity of interest — not the one-time first-touch page faults of a
/// cold allocator, which can cost as much as the scatter itself.
/// The reference warm-up warms the allocator's free lists the same way
/// its per-pass reallocations do mid-pipeline.
fn compare<T: Keyed + Default + PartialEq + std::fmt::Debug>(
    parts: &[Vec<T>],
    boundaries: &[T::Key],
    key_bits: u32,
) -> Comparison {
    let n: usize = parts.iter().map(Vec::len).sum();
    let concat = || {
        let mut tuples: Vec<T> = Vec::with_capacity(n);
        for p in parts {
            tuples.extend_from_slice(p);
        }
        tuples
    };
    {
        let mut tuples = concat();
        let mut scratch = vec![T::default(); n];
        local_sort_with_boundaries(&mut tuples, &mut scratch, boundaries, DIGIT_BITS, key_bits);
    }

    // --- reference: concat -> partition -> full per-range radix ---------
    let mut ref_secs = 0.0;
    let mut ref_peak: Option<usize> = allocpeak::installed().then_some(0);
    let mut ref_sorted: Vec<T> = Vec::new();
    for _ in 0..ROUNDS {
        allocpeak::reset_peak();
        let before = allocpeak::peak_bytes();
        let t0 = Instant::now();
        let mut tuples = concat();
        let mut scratch = vec![T::default(); tuples.len()];
        local_sort_with_boundaries(&mut tuples, &mut scratch, boundaries, DIGIT_BITS, key_bits);
        drop(scratch);
        ref_secs += t0.elapsed().as_secs_f64();
        if let Some(p) = ref_peak.as_mut() {
            *p = (*p).max(allocpeak::peak_bytes() - before);
        }
        ref_sorted = tuples;
    }
    // Every sub-range of two or more tuples pays ceil(key_bits / bits)
    // passes (a full counting scan each; identity passes skip only the
    // scatter half).
    let nonempty = {
        let mut dst = vec![T::default(); n];
        let offs = metaprep_sort::partition_by_ranges(&ref_sorted, &mut dst, boundaries);
        offs.windows(2).filter(|w| w[1] - w[0] > 1).count()
    };
    let reference = PathResult {
        secs: ref_secs,
        mtuples_per_s: (n * ROUNDS) as f64 / ref_secs / 1e6,
        peak_alloc: ref_peak,
        stats: RadixStats {
            passes_run: (ROUNDS * nonempty) as u64 * u64::from(key_bits.div_ceil(DIGIT_BITS)),
            passes_pruned: 0,
        },
    };

    // --- fused: bucketed scatter + in-cache radix, pooled buffers -------
    let mut bufs: PassBuffers<T> = PassBuffers::new();
    // Untimed warm-up round: populates the pooled buffers once, as the
    // pipeline's first pass does.
    fused_local_sort(parts.to_vec(), &mut bufs, boundaries, DIGIT_BITS, key_bits);
    let mut fused_secs = 0.0;
    let mut fused_peak: Option<usize> = allocpeak::installed().then_some(0);
    let mut fused_stats = RadixStats::default();
    for round in 0..ROUNDS {
        // The pipeline gets the parts from the all-to-all for free; the
        // clone standing in for them stays outside the timed region.
        let round_parts = parts.to_vec();
        allocpeak::reset_peak();
        let before = allocpeak::peak_bytes();
        let t0 = Instant::now();
        let res = fused_local_sort(round_parts, &mut bufs, boundaries, DIGIT_BITS, key_bits);
        fused_secs += t0.elapsed().as_secs_f64();
        if let Some(p) = fused_peak.as_mut() {
            *p = (*p).max(allocpeak::peak_bytes() - before);
        }
        fused_stats = fused_stats.merged(res.stats);
        assert_eq!(
            bufs.sorted(),
            &ref_sorted[..],
            "fused LocalSort diverged from the reference path (round {round})"
        );
    }
    let fused = PathResult {
        secs: fused_secs,
        mtuples_per_s: (n * ROUNDS) as f64 / fused_secs / 1e6,
        peak_alloc: fused_peak,
        stats: fused_stats,
    };
    Comparison { fused, reference }
}

/// `n` tuples with uniform keys below `2^key_bits`, split evenly over the
/// senders — the receive side of a one-thread-per-task pipeline pass.
fn uniform_parts<T>(
    n: usize,
    seed: u64,
    key_bits: u32,
    make: impl Fn(u128, u32) -> T,
) -> Vec<Vec<T>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mask = (1u128 << key_bits) - 1;
    let per_sender = n / SENDERS;
    (0..SENDERS)
        .map(|s| {
            (0..per_sender)
                .map(|i| {
                    let key = ((u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>()))
                        & mask;
                    make(key, (s * per_sender + i) as u32)
                })
                .collect()
        })
        .collect()
}

/// Run the experiment; writes `BENCH_sort.json` and returns its path.
pub fn run(scale: f64) -> std::path::PathBuf {
    let n = (((1usize << 22) as f64 * scale) as usize).max(SENDERS * RANGES);
    let parts = receive_side_parts(n, 42);
    let n = parts.iter().map(Vec::len).sum::<usize>();
    let all: Vec<KmerReadTuple> = parts.iter().flatten().copied().collect();
    let boundaries = equal_boundaries_by_sample(&all, RANGES, 64 * RANGES);

    let skewed = compare(&parts, &boundaries, KEY_BITS);
    assert!(
        skewed.fused.stats.passes_pruned > 0,
        "skewed receive-side workload must prune radix passes"
    );
    // The shapes the pipeline runs with one thread per task: a single
    // sub-range of uniform 54-bit keys (k = 27), and of 126-bit keys in
    // `KmerReadTuple128` (k = 63).
    let single = compare(
        &uniform_parts(n, 43, KEY_BITS, |k, r| KmerReadTuple::new(k as u64, r)),
        &[],
        KEY_BITS,
    );
    let wide = compare(
        &uniform_parts(n, 44, KEY_BITS_128, KmerReadTuple128::new),
        &[],
        KEY_BITS_128,
    );

    let fmt_peak = |p: Option<usize>| {
        p.map(|b| format!("{:.1}", b as f64 / 1e6))
            .unwrap_or_else(|| "n/a".into())
    };
    let row = |name: &str, p: &PathResult| {
        vec![
            name.to_string(),
            format!("{:.3}", p.secs),
            format!("{:.1}", p.mtuples_per_s),
            p.stats.passes_run.to_string(),
            p.stats.passes_pruned.to_string(),
            fmt_peak(p.peak_alloc),
        ]
    };
    for (title, c) in [
        (
            format!("{SENDERS} senders, {RANGES} skewed sub-ranges, {KEY_BITS}-bit keys"),
            &skewed,
        ),
        (
            format!("{SENDERS} senders, one uniform sub-range, {KEY_BITS}-bit keys"),
            &single,
        ),
        (
            format!("{SENDERS} senders, one uniform sub-range, {KEY_BITS_128}-bit keys"),
            &wide,
        ),
    ] {
        print_table(
            &format!("fused vs reference LocalSort, {n} tuples x {ROUNDS} rounds, {title}"),
            &[
                "Path",
                "Time (s)",
                "Mtuples/s",
                "Passes run",
                "Pruned",
                "Peak MB",
            ],
            &[
                row("fused (bucketed scatter)", &c.fused),
                row("reference (concat+partition)", &c.reference),
            ],
        );
        println!("  fused is {:.2}x the reference throughput", c.ratio());
    }

    // --- paper §4.2.2: LocalSort vs parallel radix vs std ---------------
    comparator_table(&all);

    // --- JSON report (hand-rolled: numbers/bools/fixed labels only) -----
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let path_json = |p: &PathResult| {
        format!(
            "{{\"secs\": {:.6}, \"mtuples_per_s\": {:.3}, \"peak_alloc_bytes\": {}, \
             \"radix_passes_run\": {}, \"radix_passes_pruned\": {}}}",
            p.secs,
            p.mtuples_per_s,
            p.peak_alloc
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
            p.stats.passes_run,
            p.stats.passes_pruned,
        )
    };
    let mut json = String::from("{\n  \"experiment\": \"sort_throughput\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"tuples\": {n},\n"));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str("  \"warmup_rounds\": 1,\n");
    json.push_str(&format!("  \"senders\": {SENDERS},\n"));
    json.push_str(&format!("  \"sub_ranges\": {RANGES},\n"));
    json.push_str(&format!("  \"digit_bits\": {DIGIT_BITS},\n"));
    json.push_str(&format!("  \"key_bits\": {KEY_BITS},\n"));
    json.push_str(&format!("  \"available_parallelism\": {threads},\n"));
    json.push_str(&format!(
        "  \"alloc_tracking\": {},\n",
        allocpeak::installed()
    ));
    json.push_str(&format!(
        "  \"scatter_bytes\": {},\n",
        (n * ROUNDS) as u64 * std::mem::size_of::<KmerReadTuple>() as u64
    ));
    json.push_str(&format!("  \"fused\": {},\n", path_json(&skewed.fused)));
    json.push_str(&format!(
        "  \"reference\": {},\n",
        path_json(&skewed.reference)
    ));
    // The extra rows come after the skewed row, under their own key names,
    // so the first `"fused"`, `"radix_passes_pruned"` and
    // `"fused_over_reference"` the gates look up stay the skewed row's.
    for (name, c) in [("single_range", &single), ("kmer128", &wide)] {
        json.push_str(&format!(
            "  \"{name}\": {{\"fused\": {}, \"reference\": {}}},\n",
            path_json(&c.fused),
            path_json(&c.reference)
        ));
        json.push_str(&format!(
            "  \"{name}_fused_over_reference\": {:.3},\n",
            c.ratio()
        ));
    }
    json.push_str(&format!(
        "  \"fused_over_reference\": {:.3}\n}}\n",
        skewed.ratio()
    ));

    let out = std::env::var("METAPREP_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH_sort.json"));
    std::fs::write(&out, json).expect("write BENCH_sort.json");
    println!("wrote {}", out.display());
    out
}

/// The original §4.2.2 comparison: LocalSort vs the fully-parallel LSB
/// radix comparator vs `sort_unstable`, on uniform random keys.
fn comparator_table(input: &[KmerReadTuple]) {
    let n = input.len();
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    let mut measure = |name: &str, f: &mut dyn FnMut(&mut Vec<KmerReadTuple>)| {
        let mut data = input.to_vec();
        let t0 = Instant::now();
        f(&mut data);
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            data.windows(2).all(|w| w[0].kmer <= w[1].kmer),
            "{name} failed to sort"
        );
        rows.push(vec![
            name.to_string(),
            format!("{dt:.3}"),
            format!("{:.1}", n as f64 / dt / 1e6),
        ]);
        n as f64 / dt / 1e6
    };

    let local = measure("LocalSort (partition + serial radix)", &mut |data| {
        let mut scratch = vec![KmerReadTuple::default(); data.len()];
        local_sort(data, &mut scratch, threads.max(2), DIGIT_BITS, KEY_BITS);
    });
    let plsb = measure("Parallel LSB radix (comparator)", &mut |data| {
        let mut scratch = vec![KmerReadTuple::default(); data.len()];
        parallel_lsb_sort(data, &mut scratch, DIGIT_BITS, KEY_BITS);
    });
    measure("std sort_unstable (yardstick)", &mut |data| {
        data.sort_unstable_by_key(|t| t.kmer);
    });

    print_table(
        &format!("§4.2.2: sort throughput, {n} 16-byte tuples, {threads} thread(s)"),
        &["Sort", "Time (s)", "Mtuples/s"],
        &rows,
    );
    println!(
        "  LocalSort reaches {:.0}% of the comparator (paper: 78%)",
        100.0 * local / plsb
    );
}
