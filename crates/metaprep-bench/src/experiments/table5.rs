//! Table 5 — index creation time (sequential, once per dataset).

use crate::harness::{dataset, fmt_dur, print_table};
use metaprep_index::serial::{fastqpart_to_bytes, merhist_to_bytes};
use metaprep_index::{FastqPart, MerHist};
use metaprep_synth::DatasetId;
use std::time::Instant;

/// Time merHist and FASTQPart construction for every dataset.
///
/// `FastqPart::build` histograms its chunks over the current rayon pool;
/// a one-thread pool keeps this the paper's sequential IndexCreate.
pub fn run(scale: f64) {
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build one-thread pool");
    let mut rows = Vec::new();
    for id in DatasetId::all() {
        let data = dataset(id, scale);
        let chunks = if id == DatasetId::Is { 96 } else { 24 };

        let t0 = Instant::now();
        let mh = MerHist::build(&data.reads, 27, 8);
        let t_mh = t0.elapsed();

        let t0 = Instant::now();
        let fp = sequential.install(|| FastqPart::build(&data.reads, chunks, 27, 8));
        let t_fp = t0.elapsed();

        rows.push(vec![
            id.name().to_string(),
            chunks.to_string(),
            fmt_dur(t_fp),
            fmt_dur(t_mh),
            format!("{:.2}", merhist_to_bytes(&mh).len() as f64 / 1e6),
            format!("{:.2}", fastqpart_to_bytes(&fp).len() as f64 / 1e6),
        ]);
    }
    print_table(
        "Table 5: index creation time (sequential)",
        &[
            "Dataset",
            "Chunks",
            "FASTQPart (s)",
            "merHist (s)",
            "merHist MB",
            "FASTQPart MB",
        ],
        &rows,
    );
}
