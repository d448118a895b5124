//! Per-layer numbers of one traced operation, read from its event stream
//! through `TraceAnalysis`, plus the checks that the trace reconciles with
//! the operation it describes.

use crate::workload::{OpOutput, TASKS};
use metaprep_core::{Checkpoint, PlanCheckpoint};
use metaprep_obs::event::{CHECKPOINT, INDEX_CREATE};
use metaprep_obs::{CounterKind, Event, TraceAnalysis};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer metrics of the traced run, in report order, with units.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("index.span_s", "s"),
    ("index.isolated_mbp_per_s", "Mbp/s"),
    ("io.chunk_read_s", "s"),
    ("io.write_partitions_s", "s"),
    ("io.isolated_parse_mb_per_s", "MB/s"),
    ("kmergen.span_s", "s"),
    ("kmergen.tuples", "count"),
    ("kmergen.in_pipeline_kmers_per_s", "kmers/s"),
    ("kmergen.isolated_kmers_per_s", "kmers/s"),
    ("kmergen.gap_x", "x"),
    ("dist.alltoall_s", "s"),
    ("dist.merge_comm_s", "s"),
    ("dist.messages_sent", "count"),
    ("dist.wait_frac", "frac"),
    ("sort.span_s", "s"),
    ("sort.in_pipeline_tuples_per_s", "tuples/s"),
    ("sort.isolated_tuples_per_s", "tuples/s"),
    ("sort.gap_x", "x"),
    ("sort.radix_passes_run", "count"),
    ("sort.radix_passes_pruned", "count"),
    ("sort.scatter_bytes", "bytes"),
    ("cc.localcc_s", "s"),
    ("cc.mergecc_s", "s"),
    ("cc.edges", "count"),
    ("cc.union_hit_ratio", "frac"),
    ("cc.uf_finds", "count"),
    ("cc.uf_unions", "count"),
    ("cc.components", "count"),
    ("cc.largest_frac", "frac"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.span_s", "s"),
    ("mem.modeled_bytes_per_task", "bytes"),
    ("mem.peak_tuple_bytes", "bytes"),
    ("mem.alloc_over_modeled_x", "x"),
    ("plan.passes", "count"),
    ("cp.local_sort_frac", "frac"),
    ("cp.kmergen_frac", "frac"),
    ("cp.kmergen_io_frac", "frac"),
    ("cp.local_cc_frac", "frac"),
    ("cp.index_create_frac", "frac"),
    ("cp.cc_io_frac", "frac"),
    ("cp.startup_frac", "frac"),
    ("cp.idle_frac", "frac"),
    ("cp.transfer_frac", "frac"),
    ("cp.other_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.events_dropped", "count"),
];

/// Metrics that must read the same on every traced operation of a run.
const EXACT: [&str; 14] = [
    "kmergen.tuples",
    "dist.messages_sent",
    "sort.radix_passes_run",
    "sort.radix_passes_pruned",
    "sort.scatter_bytes",
    "cc.edges",
    "cc.uf_finds",
    "cc.uf_unions",
    "cc.components",
    "ckpt.writes",
    "ckpt.bytes",
    "mem.modeled_bytes_per_task",
    "mem.peak_tuple_bytes",
    "plan.passes",
];

/// Fail when a traced operation's exact counts differ from the first one's.
pub fn check_exact(
    first: &BTreeMap<&'static str, f64>,
    sample: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    match EXACT.iter().find(|name| first[*name] != sample[*name]) {
        Some(name) => Err(format!("{name} drifted across traced operations")),
        None => Ok(()),
    }
}

/// Critical-path labels reported on their own; every other label is
/// folded into `cp.other_frac`.
const CP_ROWS: [(&str, &str); 6] = [
    ("LocalSort", "cp.local_sort_frac"),
    ("KmerGen", "cp.kmergen_frac"),
    ("KmerGen-I/O", "cp.kmergen_io_frac"),
    ("LocalCC-Opt", "cp.local_cc_frac"),
    ("IndexCreate", "cp.index_create_frac"),
    ("CC-I/O", "cp.cc_io_frac"),
];

/// Nanoseconds per task spent in spans named `name`.
fn per_task_ns(events: &[Event], name: &str) -> Vec<u64> {
    let mut ns = vec![0u64; TASKS];
    for ev in events {
        if let Event::Span {
            task,
            name: n,
            start_ns,
            end_ns,
            ..
        } = ev
        {
            if n == name {
                ns[*task as usize] += end_ns.saturating_sub(*start_ns);
            }
        }
    }
    ns
}

/// A step's time as the paper tables report it: the slowest task's total.
fn step_s(events: &[Event], name: &str) -> f64 {
    per_task_ns(events, name).into_iter().max().unwrap_or(0) as f64 / 1e9
}

/// A step's time summed over tasks.
fn step_sum_s(events: &[Event], name: &str) -> f64 {
    per_task_ns(events, name).into_iter().sum::<u64>() as f64 / 1e9
}

/// A counter summed over tasks.
fn counter(events: &[Event], kind: CounterKind) -> u64 {
    per_task_counter(events, kind).into_iter().sum()
}

fn per_task_counter(events: &[Event], kind: CounterKind) -> Vec<u64> {
    let mut out = vec![0u64; TASKS];
    for ev in events {
        if let Event::Counter {
            task,
            kind: k,
            value,
        } = ev
        {
            if *k == kind {
                out[*task as usize] += value;
            }
        }
    }
    out
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Check that the trace reconciles and derive the per-layer numbers of one
/// traced operation. `ckpt` is the operation's checkpoint directory, if it
/// had one. Rates and gaps that need the isolated kernels are added later.
pub fn analyze(
    op: &OpOutput,
    events: &[Event],
    alloc_peak: u64,
    ckpt: Option<&Path>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ta = TraceAnalysis::from_events(events);
    if ta.events_dropped() != 0 {
        return Err(format!("trace dropped {} events", ta.events_dropped()));
    }
    let (start, end) = ta.run_interval().ok_or("trace has no spans")?;
    let makespan = ta.makespan_ns();
    if makespan as f64 / 1e9 > op.wall_s {
        return Err("trace makespan exceeds the operation's wall time".into());
    }
    let path = ta.critical_path();
    let mut at = start;
    for seg in &path {
        if seg.start_ns != at {
            return Err(format!("critical path has a gap or overlap at {at} ns"));
        }
        at = seg.end_ns;
    }
    if at != end {
        return Err("critical path does not reach the end of the run".into());
    }
    let frac = |ns: u64| ns as f64 / makespan.max(1) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut startup, mut idle, mut transfer, mut other, mut total) = (0u64, 0, 0, 0, 0.0);
    for c in CP_ROWS {
        m.insert(c.1, 0.0);
    }
    for (label, ns) in TraceAnalysis::critical_path_summary(&path) {
        total += frac(ns);
        match CP_ROWS.iter().find(|c| c.0 == label) {
            Some(c) => {
                m.insert(c.1, frac(ns));
            }
            None if label == "(startup)" => startup += ns,
            None if label == "(idle)" => idle += ns,
            None if label.starts_with("(transfer)") => transfer += ns,
            None => other += ns,
        }
    }
    if (total - 1.0).abs() > 1e-9 {
        return Err(format!("critical-path shares sum to {total}, not 1"));
    }
    m.insert("cp.startup_frac", frac(startup));
    m.insert("cp.idle_frac", frac(idle));
    m.insert("cp.transfer_frac", frac(transfer));
    m.insert("cp.other_frac", frac(other));
    m.insert("dist.wait_frac", frac(idle + transfer));
    m.insert("obs.events_dropped", 0.0);

    let r = &op.result;
    m.insert("index.span_s", step_s(events, INDEX_CREATE));
    m.insert("io.chunk_read_s", step_s(events, "KmerGen-I/O"));
    m.insert("io.write_partitions_s", op.write_s);
    m.insert("kmergen.span_s", step_s(events, "KmerGen"));
    m.insert("kmergen.tuples", r.tuples_total as f64);
    let gen_s = step_sum_s(events, "KmerGen") + step_sum_s(events, "KmerGen-I/O");
    m.insert(
        "kmergen.in_pipeline_kmers_per_s",
        r.tuples_total as f64 / gen_s,
    );
    m.insert("dist.alltoall_s", step_s(events, "KmerGen-Comm"));
    m.insert("dist.merge_comm_s", step_s(events, "Merge-Comm"));
    m.insert(
        "dist.messages_sent",
        counter(events, CounterKind::MessagesSent) as f64,
    );
    m.insert("sort.span_s", step_s(events, "LocalSort"));
    m.insert(
        "sort.in_pipeline_tuples_per_s",
        counter(events, CounterKind::SortElements) as f64 / step_sum_s(events, "LocalSort"),
    );
    m.insert(
        "sort.radix_passes_run",
        counter(events, CounterKind::RadixPassesRun) as f64,
    );
    m.insert(
        "sort.radix_passes_pruned",
        counter(events, CounterKind::RadixPassesPruned) as f64,
    );
    m.insert(
        "sort.scatter_bytes",
        counter(events, CounterKind::ScatterBytes) as f64,
    );
    m.insert("cc.localcc_s", step_s(events, "LocalCC-Opt"));
    m.insert("cc.mergecc_s", step_s(events, "MergeCC"));
    m.insert("cc.edges", r.localcc.edges as f64);
    m.insert(
        "cc.union_hit_ratio",
        r.localcc.union_edges as f64 / r.localcc.edges.max(1) as f64,
    );
    m.insert("cc.uf_finds", counter(events, CounterKind::UfFinds) as f64);
    m.insert(
        "cc.uf_unions",
        counter(events, CounterKind::UfUnions) as f64,
    );
    m.insert("cc.components", r.components.components as f64);
    m.insert("cc.largest_frac", r.largest_component_fraction());

    // Every checkpoint of a rank holds the same parent array, so each of
    // its writes is as long as the file it leaves behind.
    let writes = per_task_counter(events, CounterKind::CheckpointWrites);
    let ckpt_bytes = ckpt.map_or(0, |dir| {
        let per_rank: u64 = writes
            .iter()
            .enumerate()
            .map(|(rank, w)| w * file_len(&Checkpoint::path_for(dir, rank as u32)))
            .sum();
        per_rank + file_len(&PlanCheckpoint::path_for(dir))
    });
    m.insert("ckpt.writes", writes.iter().sum::<u64>() as f64);
    m.insert("ckpt.bytes", ckpt_bytes as f64);
    m.insert("ckpt.span_s", step_s(events, CHECKPOINT));

    let modeled = r.memory.total_modeled();
    m.insert("mem.modeled_bytes_per_task", modeled as f64);
    m.insert(
        "mem.peak_tuple_bytes",
        r.memory.measured_peak_tuple_bytes as f64,
    );
    m.insert(
        "mem.alloc_over_modeled_x",
        alloc_peak as f64 / (TASKS as u64 * modeled).max(1) as f64,
    );
    m.insert("plan.passes", r.planned_passes as f64);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let json = include_str!("../../BENCHMARK.json");
        let end_to_end = [
            ("wall_s", "s"),
            ("mbp_per_s", "Mbp/s"),
            ("alloc_peak_bytes", "bytes"),
            ("rss_peak_bytes", "bytes"),
            ("comm_bytes", "bytes"),
            ("setup_s", "s"),
            ("ok_ops_frac", "frac"),
        ];
        for (name, unit) in end_to_end.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let metrics = json.matches("\"better\"").count();
        assert_eq!(metrics, end_to_end.len() + PER_LAYER.len());
    }
}
