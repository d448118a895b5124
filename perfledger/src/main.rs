//! perfledger — the end-to-end and per-layer benchmark of the METAPREP
//! partition.
//!
//! ```text
//! perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Synthesises the workload's reads from the seed, then runs partition
//! operations one at a time (a closed loop with one operation in flight)
//! for `--seconds`, checking every partition against a brute-force oracle.
//! `--trace 0` reports the end-to-end metrics of untraced operations;
//! `--trace 1` reports the per-layer ledger of traced operations and
//! isolated kernel calls. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod kernels;
mod ledger;
mod oracle;
mod stats;
mod workload;

use metaprep_bench::allocpeak::{self, PeakAlloc};
use metaprep_obs::{MemRecorder, NoopRecorder, Recorder};
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{run_op, verify, ExactCounts, Inputs, OpOutput, Workload, READ_SETS, TASKS};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured operations per read set (untraced run) or
/// traced/untraced pairs (traced run), even if `--seconds` runs out first.
const MIN_OPS_PER_SET: usize = 2;
const MIN_PAIRS: usize = 3;
/// No operation starts after this much time in the process, so it exits
/// well inside three minutes whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(140);

const USAGE: &str = "usage: perfledger --workload <is27_1pass|is27_8pass_file|ll63_2pass> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if flags.len() != 4 {
        return Err("unknown flag".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed; the first few failures are printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one operation; keep its output if it passed.
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfledger: failed operation: {e}");
                }
                None
            }
        }
    }
}

/// One metric as printed: `None` means absent (not measurable here).
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{:<34} {v:>16.6} {}", m.name, m.unit),
                None => println!("{:<34} {:>16} {}", m.name, "absent", m.unit),
            }
        }
        let t = &self.tally;
        println!(
            "{:<34} {:>16.6} frac ({} of {} operations)",
            "failed_ops_frac",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let v = m.value.filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            t.failed == 0 && t.attempted > 0,
            t.attempted,
            t.failed,
            metrics.join(", ")
        );
    }
}

/// Whether to start another measured operation.
fn keep_going(done: usize, min: usize, deadline: Instant, started: Instant) -> bool {
    let now = Instant::now();
    now.duration_since(started) < HARD_CAP && (done < min || now < deadline)
}

/// Peaks of one operation: allocator bytes above the live set it started
/// from, and the kernel's peak RSS (`None` where VmHWM cannot be reset).
struct Peaks {
    alloc: u64,
    rss: Option<u64>,
}

/// Run one operation with both high-water marks reset first.
fn measured_op(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    rec: &dyn Recorder,
) -> (Result<OpOutput, String>, Peaks) {
    let hwm_reset = reset_vm_hwm();
    allocpeak::reset_peak();
    let base = allocpeak::current_bytes();
    let out = run_op(w, inputs, dir, rec);
    let peaks = Peaks {
        alloc: (allocpeak::peak_bytes() - base) as u64,
        rss: hwm_reset.then(allocpeak::vm_hwm_bytes).flatten(),
    };
    (out, peaks)
}

/// One read set and the measurements of its operations.
struct ReadSet {
    inputs: Inputs,
    /// Exact counts of the set's first operation; every later one must
    /// repeat them.
    reference: Option<ExactCounts>,
    walls: Vec<f64>,
    alloc_peaks: Vec<f64>,
    rss_peaks: Vec<f64>,
}

impl ReadSet {
    fn new(inputs: Inputs) -> ReadSet {
        ReadSet {
            inputs,
            reference: None,
            walls: Vec::new(),
            alloc_peaks: Vec::new(),
            rss_peaks: Vec::new(),
        }
    }

    /// Check an operation against the oracle and the set's exact counts.
    fn check(&mut self, op: OpOutput) -> Result<OpOutput, String> {
        let counts = ExactCounts::of(&op.result);
        verify(
            &self.inputs,
            self.reference.get_or_insert(counts),
            &op.result,
        )?;
        Ok(op)
    }
}

/// Set up read set 0 from scratch (synthesis, FASTQ write, oracle) and run
/// one checked warm-up operation on it. This is what `setup_s` times.
/// `reference` holds the exact counts an earlier set-up found, which the
/// warm-up must repeat.
fn setup(
    w: &Workload,
    seed: u64,
    dir: &Path,
    reference: Option<ExactCounts>,
    tally: &mut Tally,
) -> Result<ReadSet, String> {
    let mut set = ReadSet::new(Inputs::build(w, seed, 0, dir)?);
    set.reference = reference;
    let warm = run_op(w, &set.inputs, dir, &NoopRecorder::new());
    tally.record(warm.and_then(|op| set.check(op)));
    Ok(set)
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS. False
/// where the kernel does not support it; VmHWM then still holds set-up's
/// peak and is not reported.
fn reset_vm_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn untraced(args: &Args, dir: &Path, started: Instant) -> Result<Report, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut first: Option<ReadSet> = None;
    for _ in 0..SETUPS {
        // Each set-up starts from scratch and must repeat the exact counts
        // of the one before.
        let reference = first.take().and_then(|s| s.reference);
        let t0 = Instant::now();
        first = Some(setup(w, args.seed, dir, reference, &mut tally)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    // The other read sets get the same preparation, untimed.
    let mut sets = vec![first.expect("at least one set-up ran")];
    for i in 1..READ_SETS {
        sets.push(ReadSet::new(Inputs::build(w, args.seed, i, dir)?));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut done = 0;
    while keep_going(done, MIN_OPS_PER_SET * sets.len(), deadline, started) {
        let set = &mut sets[done % READ_SETS];
        done += 1;
        let (out, peaks) = measured_op(w, &set.inputs, dir, &NoopRecorder::new());
        if let Some(op) = tally.record(out.and_then(|op| set.check(op))) {
            set.walls.push(op.wall_s);
            set.alloc_peaks.push(peaks.alloc as f64);
            set.rss_peaks.extend(peaks.rss.map(|b| b as f64));
        }
    }
    println!("operations measured: {done} over {READ_SETS} read sets");
    let mean_over_sets =
        |f: &dyn Fn(&ReadSet) -> f64| sets.iter().map(f).sum::<f64>() / sets.len() as f64;
    let wall = mean_over_sets(&|s| median(&s.walls));
    let rss_measured = sets.iter().all(|s| s.rss_peaks.len() == s.walls.len());
    let rss = rss_measured.then(|| mean_over_sets(&|s| median(&s.rss_peaks)));
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        metrics: vec![
            metric("wall_s", Some(wall), "s"),
            metric(
                "mbp_per_s",
                Some(mean_over_sets(&|s| s.inputs.mbp()) / wall),
                "Mbp/s",
            ),
            metric(
                "alloc_peak_bytes",
                Some(mean_over_sets(&|s| median(&s.alloc_peaks))),
                "bytes",
            ),
            metric("rss_peak_bytes", rss, "bytes"),
            metric(
                "comm_bytes",
                Some(mean_over_sets(&|s| {
                    s.reference.map_or(f64::NAN, |r| r.comm_bytes as f64)
                })),
                "bytes",
            ),
            metric("setup_s", Some(median(&setup_s)), "s"),
            metric(
                "ok_ops_frac",
                Some((tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64),
                "frac",
            ),
        ],
        tally,
    })
}

fn traced(args: &Args, dir: &Path, started: Instant) -> Result<Report, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut set = setup(w, args.seed, dir, None, &mut tally)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);

    let iso = kernels::measure(w, &set.inputs)?;
    // The in-memory single-pass configuration must find the same partition
    // on these reads (for the file workload: is27_1pass vs is27_8pass_file).
    if w.from_file {
        let one_pass = workload::find("is27_1pass").expect("is27_1pass exists");
        let tuples = set.reference.map(|r| r.tuples);
        let same = run_op(one_pass, &set.inputs, dir, &NoopRecorder::new()).and_then(|op| {
            match oracle::canonical(&op.result.labels) {
                Some(c) if c == set.inputs.oracle && Some(op.result.tuples_total) == tuples => {
                    Ok(())
                }
                _ => Err("is27_1pass and is27_8pass_file disagree".into()),
            }
        });
        tally.record(same);
    }

    let ckpt = w.from_file.then(|| workload::ckpt_dir(dir));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut done = 0;
    while keep_going(done, MIN_PAIRS, deadline, started) {
        done += 1;
        let (out, _) = measured_op(w, &set.inputs, dir, &NoopRecorder::new());
        if let Some(op) = tally.record(out.and_then(|op| set.check(op))) {
            plain.push(op.wall_s);
        }

        let rec = MemRecorder::new(TASKS);
        let (out, peaks) = measured_op(w, &set.inputs, dir, &rec);
        let events = rec.into_events();
        let sample = out.and_then(|op| {
            let op = set.check(op)?;
            let sample = ledger::analyze(&op, &events, peaks.alloc, ckpt.as_deref())?;
            if let Some(first) = samples.first() {
                ledger::check_exact(first, &sample)?;
            }
            Ok((op.wall_s, sample))
        });
        if let Some((wall, sample)) = tally.record(sample) {
            traced.push(wall);
            samples.push(sample);
        }
    }
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = samples.first() {
        for &name in first.keys() {
            let xs: Vec<f64> = samples.iter().map(|s| s[name]).collect();
            values.insert(name, median(&xs));
        }
        values.insert("index.isolated_mbp_per_s", iso.index_mbp_per_s);
        values.insert("io.isolated_parse_mb_per_s", iso.parse_mb_per_s);
        values.insert("kmergen.isolated_kmers_per_s", iso.kmergen_kmers_per_s);
        values.insert(
            "kmergen.gap_x",
            iso.kmergen_kmers_per_s / values["kmergen.in_pipeline_kmers_per_s"],
        );
        values.insert("sort.isolated_tuples_per_s", iso.sort_tuples_per_s);
        values.insert(
            "sort.gap_x",
            iso.sort_tuples_per_s / values["sort.in_pipeline_tuples_per_s"],
        );
        values.insert(
            "obs.trace_overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
    }
    println!("traced operations analysed: {}", samples.len());
    Ok(Report {
        metrics: ledger::PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values.get(name).copied(),
                unit,
            })
            .collect(),
        tally,
    })
}

fn main() {
    let started = Instant::now();
    allocpeak::mark_installed();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch files live in the directory the benchmark is run from.
    let root: PathBuf = PathBuf::from(".perfledger_tmp");
    let dir = root.join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {dir:?}: {e}"))
        .and_then(|_| {
            if args.trace {
                traced(&args, &dir, started)
            } else {
                untraced(&args, &dir, started)
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(1);
        }
    }
}
