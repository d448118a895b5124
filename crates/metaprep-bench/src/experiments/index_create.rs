//! `index_create` — streaming vs in-memory IndexCreate: wall time and
//! peak allocation versus thread count.
//!
//! This experiment tracks the repo's IndexCreate paths: it writes
//! `BENCH_index.json` (or the path in `METAPREP_BENCH_OUT`) with the
//! in-memory slurp baseline, the streaming indexer at 1/2/4 threads on a
//! file at least 10× larger than the probe window, and the in-memory
//! one-scan `FastqPart::build` (merHist derived from its chunk
//! histograms) at 1/2/4 pool threads. Every row runs [`REPS`] times and
//! reports the median, min and spread (max − min) of its wall time. Along
//! the way it asserts that every configuration produces the same index
//! tables: the streaming rows equal the slurp baseline exactly; the
//! in-memory rows equal each other and give the same merHist. (Their chunk
//! table can differ from the file's: `chunk_store` cuts at modeled record
//! bytes, the paired file chunker at even record indices.)
//!
//! Peak memory is the [`crate::allocpeak`] high-water delta around each
//! repetition, the largest over a row's repetitions, when the experiment
//! binary installs [`crate::allocpeak::PeakAlloc`] (`exp_index_create`
//! does; `exp_all` does not, and the JSON then marks the allocator
//! numbers absent). `VmHWM` from the kernel is recorded as a coarse,
//! monotone cross-check.

use crate::allocpeak;
use crate::harness::{dataset, fmt_dur, fmt_mb, print_table};
use metaprep_index::{
    index_fastq_bytes, index_fastq_file_streaming, FastqPart, MerHist, StreamingOptions,
};
use metaprep_synth::DatasetId;
use std::time::Instant;

const K: usize = 27;
const M: usize = 8;
const CHUNKS: usize = 64;
/// Timed repetitions per row.
const REPS: usize = 5;

struct Measurement {
    label: String,
    /// Wall time of every repetition, sorted ascending.
    secs: Vec<f64>,
    peak_alloc: Option<usize>,
}

impl Measurement {
    fn median(&self) -> f64 {
        self.secs[self.secs.len() / 2]
    }

    fn min(&self) -> f64 {
        self.secs[0]
    }

    fn spread(&self) -> f64 {
        self.secs[self.secs.len() - 1] - self.secs[0]
    }
}

/// Run `f` [`REPS`] times; returns the last output and the timings.
fn measure<T>(label: &str, mut f: impl FnMut() -> T) -> (T, Measurement) {
    let mut secs = Vec::with_capacity(REPS);
    let mut peak_alloc: Option<usize> = None;
    let mut out = None;
    for _ in 0..REPS {
        // Free the previous repetition's tables so they do not count
        // towards this repetition's peak.
        drop(out.take());
        allocpeak::reset_peak();
        let before = allocpeak::peak_bytes();
        let t0 = Instant::now();
        out = Some(f());
        secs.push(t0.elapsed().as_secs_f64());
        if allocpeak::installed() {
            let peak = allocpeak::peak_bytes() - before;
            peak_alloc = Some(peak_alloc.map_or(peak, |p| p.max(peak)));
        }
    }
    secs.sort_by(f64::total_cmp);
    (
        out.expect("REPS is positive"),
        Measurement {
            label: label.to_string(),
            secs,
            peak_alloc,
        },
    )
}

/// Run the experiment and write the JSON report; returns the report path.
pub fn run(scale: f64) -> std::path::PathBuf {
    let data = dataset(DatasetId::Hg, scale);
    let dir = std::env::temp_dir().join(format!("metaprep_bench_index_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("reads.fastq");
    metaprep_io::write_fastq_path(&path, &data.reads).expect("write bench FASTQ");
    let file_bytes = std::fs::metadata(&path).expect("stat bench FASTQ").len();

    // A window of len/16 keeps the file >= 10x the window (the streaming
    // guarantee under test) at every scale; 64 is the floor so tiny smoke
    // files still exercise multi-probe chunking.
    let window = ((file_bytes / 16).max(64)) as usize;

    let (baseline_tables, baseline) = measure("slurp", || {
        let bytes = std::fs::read(&path).expect("read bench FASTQ");
        index_fastq_bytes(&bytes, true, CHUNKS, K, M).expect("in-memory indexing")
    });

    let mut measurements = vec![baseline];
    for threads in [1usize, 2, 4] {
        let opts = StreamingOptions { window, threads };
        let (tables, m) = measure(&format!("stream-t{threads}"), || {
            index_fastq_file_streaming(&path, true, CHUNKS, K, M, opts).expect("streaming indexing")
        });
        assert_eq!(
            tables, baseline_tables,
            "streaming tables diverge at {threads} threads"
        );
        measurements.push(m);
    }
    std::fs::remove_dir_all(&dir).ok();

    // The in-memory pipeline's IndexCreate: one parallel scan for the chunk
    // table, merHist derived from it.
    let mut inmem_reference: Option<FastqPart> = None;
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build bench thread pool");
        let ((merhist, fastqpart), m) = measure(&format!("inmem-t{threads}"), || {
            let fp = pool.install(|| FastqPart::build(&data.reads, CHUNKS, K, M));
            (
                MerHist::from_fastqpart(&fp).expect("merHist bins fit u32"),
                fp,
            )
        });
        assert_eq!(
            merhist, baseline_tables.0,
            "in-memory merHist diverges from the streaming rows at {threads} threads"
        );
        assert_eq!(fastqpart.total(), baseline_tables.1.total());
        let reference = inmem_reference.get_or_insert_with(|| fastqpart.clone());
        assert_eq!(
            &fastqpart, reference,
            "in-memory FastqPart diverges from one thread at {threads} threads"
        );
        measurements.push(m);
    }

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                fmt_dur(std::time::Duration::from_secs_f64(m.median())),
                fmt_dur(std::time::Duration::from_secs_f64(m.min())),
                fmt_dur(std::time::Duration::from_secs_f64(m.spread())),
                m.peak_alloc
                    .map(|b| fmt_mb(b as u64))
                    .unwrap_or_else(|| "n/a".into()),
            ]
        })
        .collect();
    print_table(
        "index_create: streaming IndexCreate wall time and peak allocation",
        &[
            "Config",
            "Median (s)",
            "Min (s)",
            "Spread (s)",
            "Peak alloc MB",
        ],
        &rows,
    );

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Median of the one-thread row of the same family (`stream`, `inmem`).
    let t1_of = |label: &str| -> Option<f64> {
        let family = label.trim_end_matches(|c: char| c.is_ascii_digit());
        let t1 = measurements
            .iter()
            .find(|m| m.label == format!("{family}1"));
        (family != label).then_some(t1?.median())
    };

    // Hand-rolled JSON: every field is a number, bool, or fixed label, so
    // no escaping is needed and the workspace stays dependency-free.
    let mut json = String::from("{\n  \"experiment\": \"index_create\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"file_bytes\": {file_bytes},\n"));
    json.push_str(&format!("  \"window_bytes\": {window},\n"));
    json.push_str(&format!(
        "  \"file_to_window_ratio\": {:.2},\n",
        file_bytes as f64 / window as f64
    ));
    json.push_str(&format!("  \"records\": {},\n", data.reads.len()));
    json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    json.push_str(&format!(
        "  \"alloc_tracking\": {},\n",
        allocpeak::installed()
    ));
    json.push_str(&format!(
        "  \"vm_hwm_bytes\": {},\n",
        allocpeak::vm_hwm_bytes()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into())
    ));
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let speedup = match t1_of(&m.label) {
            Some(t1) if m.median() > 0.0 => format!("{:.3}", t1 / m.median()),
            _ => "null".into(),
        };
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"reps\": {}, \"secs\": {:.6}, \"min_secs\": {:.6}, \
             \"spread_secs\": {:.6}, \"peak_alloc_bytes\": {}, \"speedup_vs_1_thread\": {}}}{}\n",
            m.label,
            m.secs.len(),
            m.median(),
            m.min(),
            m.spread(),
            m.peak_alloc
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
            speedup,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("METAPREP_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH_index.json"));
    std::fs::write(&out, json).expect("write BENCH_index.json");
    println!("wrote {}", out.display());
    out
}
