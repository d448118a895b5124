//! Causal trace analysis: happens-before reconstruction, critical-path
//! extraction, and load-imbalance diagnostics.
//!
//! Input is a recorded event stream (spans + message edges + counters,
//! as parsed from a JSONL trace). The analysis
//!
//! * matches `MessageSend`/`MessageRecv` endpoints into causal edges and
//!   checks conservation (every send has exactly one recv) and causality
//!   (Lamport order never decreases across an edge, and is strictly
//!   increasing along each FIFO channel);
//! * extracts the **critical path**: a chain of span / idle / transfer
//!   segments that tiles the run interval `[global_start, global_end]`
//!   exactly, so the segment durations sum to the run makespan **to the
//!   nanosecond** by construction. The walk goes backwards from the
//!   globally-last-ending span; inside a span it follows the latest
//!   message arrival back to the sending rank, otherwise it falls
//!   through to the previous span on the same rank (gaps become idle
//!   segments);
//! * computes per-stage load-imbalance statistics (max/mean per-rank
//!   time and the paper-style imbalance factor `max / mean`), straggler
//!   rankings, per-rank Gantt rows, and a bytes-over-time timeline
//!   against the modeled memory footprint.

use crate::event::{CounterKind, EdgeDir, Event, INDEX_CREATE, STEP_NAMES};
use crate::report::five_number;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span, owned form, retained for analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SpanRec {
    task: u32,
    name: String,
    pass: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    lamport: u64,
    /// Whether the span is a paper step or IndexCreate (sub-spans such
    /// as all-to-all stages are nested inside these and excluded from
    /// the critical-path tiling so attribution stays in step terms).
    top_level: bool,
}

/// A matched send/recv pair: one causal edge of the happens-before DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessagePair {
    /// Sending task.
    pub src: u32,
    /// Receiving task.
    pub dst: u32,
    /// Communication stage (`KmerGen-Comm`, `Merge-Comm`, `CC-I/O`, …).
    pub stage: String,
    /// Pass / merge-round discriminator, if any.
    pub round: Option<u32>,
    /// Payload bytes.
    pub bytes: u64,
    /// Per-(src, dst) FIFO sequence number.
    pub seq: u64,
    /// Sender's Lamport clock at the send.
    pub send_lamport: u64,
    /// Receiver's Lamport clock after the recv.
    pub recv_lamport: u64,
    /// Send timestamp (ns since run origin).
    pub send_ns: u64,
    /// Receive timestamp (ns since run origin).
    pub recv_ns: u64,
}

/// What one critical-path segment was spent on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Executing (part of) a span.
    Span {
        /// Step or phase name.
        name: String,
        /// Pass index, if any.
        pass: Option<u32>,
    },
    /// On-rank gap with no recorded span (waiting / uninstrumented).
    Idle,
    /// A message in flight: the path hops from the receiving rank back
    /// to the sending rank across this interval.
    Transfer {
        /// Sending task.
        src: u32,
        /// Stage of the message followed.
        stage: String,
        /// Bytes carried by the message followed.
        bytes: u64,
    },
}

/// One tile of the critical path: `[start_ns, end_ns]` attributed to
/// `task`. Consecutive segments share endpoints, so the whole path tiles
/// the run interval exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpSegment {
    /// Task the interval is attributed to (the *receiving* task for
    /// transfers).
    pub task: u32,
    /// Segment start (ns since run origin).
    pub start_ns: u64,
    /// Segment end (ns since run origin).
    pub end_ns: u64,
    /// What the time was spent on.
    pub kind: SegmentKind,
}

impl CpSegment {
    /// Segment duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Aggregation label for the per-stage attribution table.
    pub fn label(&self) -> String {
        match &self.kind {
            SegmentKind::Span { name, .. } => name.clone(),
            SegmentKind::Idle => "(idle)".to_string(),
            SegmentKind::Transfer { stage, .. } => format!("(transfer) {stage}"),
        }
    }
}

/// Per-stage load-imbalance statistics across ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct StageImbalance {
    /// Step name.
    pub stage: String,
    /// Per-task summed nanoseconds (index = task).
    pub per_task_ns: Vec<u64>,
    /// Max across tasks.
    pub max_ns: u64,
    /// Mean across tasks.
    pub mean_ns: f64,
    /// Paper-style imbalance factor `max / mean` (1.0 = perfectly
    /// balanced; 0 when the stage never ran).
    pub factor: f64,
    /// Task holding the max.
    pub slowest_task: u32,
}

/// One straggler observation: a `(stage, task)` cell that exceeds the
/// stage mean.
#[derive(Clone, Debug, PartialEq)]
pub struct Straggler {
    /// Step name.
    pub stage: String,
    /// The slow task.
    pub task: u32,
    /// That task's time in the stage.
    pub ns: u64,
    /// Excess over the stage mean, in nanoseconds.
    pub excess_ns: u64,
    /// `ns / mean` for the stage.
    pub over_mean: f64,
}

/// One bucket of the bytes-over-time timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Bucket start (ns since run origin).
    pub start_ns: u64,
    /// Bytes received (materialized) during the bucket.
    pub bytes_recv: u64,
    /// Cumulative bytes received up to the bucket's end.
    pub cumulative: u64,
}

/// Fault-injection and recovery totals summed across tasks
/// ([`TraceAnalysis::fault_totals`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Faults the plan injected (drops, delays, duplicates, reorders,
    /// crashes), as counted by the injecting task.
    pub faults_injected: u64,
    /// Delivery retries after injected drops.
    pub retry_attempts: u64,
    /// Checkpoints persisted at pass/merge boundaries.
    pub checkpoint_writes: u64,
    /// Supervised task restarts after injected crashes.
    pub task_restarts: u64,
}

impl FaultTotals {
    /// True when any fault-plane activity was recorded.
    pub fn any(&self) -> bool {
        self.faults_injected > 0
            || self.retry_attempts > 0
            || self.checkpoint_writes > 0
            || self.task_restarts > 0
    }
}

/// Presolve-tier and pass-planner totals
/// ([`TraceAnalysis::presolve_totals`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PresolveTotals {
    /// Pass count the run executed (planner-chosen or configured).
    pub planned_passes: u64,
    /// The `--memory-budget` the planner solved for (0 = none set).
    pub budget_bytes: u64,
    /// Occupancy of the count-min sketch, in permille of its cells.
    pub sketch_fill_permille: u64,
    /// K-mer occurrences dropped before tuple generation, all tasks.
    pub dropped_kmers: u64,
}

impl PresolveTotals {
    /// True when the probabilistic memory tier or the budget planner was
    /// actually engaged (the pass count alone says nothing — every run
    /// has one).
    pub fn any(&self) -> bool {
        self.budget_bytes > 0 || self.sketch_fill_permille > 0 || self.dropped_kmers > 0
    }
}

/// A fully-reconstructed trace, ready for querying.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Simulated task count.
    pub tasks: u32,
    spans: Vec<SpanRec>,
    pairs: Vec<MessagePair>,
    unmatched_sends: usize,
    unmatched_recvs: usize,
    counters: BTreeMap<(u32, CounterKind), u64>,
}

/// Sender-side half of an edge, keyed by `(src, dst, seq)`:
/// `(stage, round, bytes, lamport, at_ns)`.
type SendHalf = (String, Option<u32>, u64, u64, u64);

/// Receiver-side half of an edge:
/// `(src, dst, seq, stage, round, bytes, lamport, at_ns)`.
type RecvHalf = (u32, u32, u64, String, Option<u32>, u64, u64, u64);

impl TraceAnalysis {
    /// Reconstruct the happens-before structure from an event stream.
    pub fn from_events(events: &[Event]) -> TraceAnalysis {
        let mut tasks = 0u32;
        let mut spans: Vec<SpanRec> = Vec::new();
        let mut sends: BTreeMap<(u32, u32, u64), SendHalf> = BTreeMap::new();
        let mut pairs: Vec<MessagePair> = Vec::new();
        let mut recvs: Vec<RecvHalf> = Vec::new();
        let mut counters: BTreeMap<(u32, CounterKind), u64> = BTreeMap::new();

        for ev in events {
            match ev {
                Event::Meta { tasks: n } => tasks = tasks.max(*n),
                Event::Span {
                    task,
                    name,
                    pass,
                    start_ns,
                    end_ns,
                    lamport,
                    ..
                } => {
                    tasks = tasks.max(task + 1);
                    let top_level =
                        STEP_NAMES.contains(&name.as_str()) || name.as_str() == INDEX_CREATE;
                    spans.push(SpanRec {
                        task: *task,
                        name: name.clone(),
                        pass: *pass,
                        start_ns: *start_ns,
                        end_ns: *end_ns,
                        lamport: *lamport,
                        top_level,
                    });
                }
                Event::Edge {
                    dir,
                    src,
                    dst,
                    stage,
                    round,
                    bytes,
                    seq,
                    lamport,
                    at_ns,
                } => {
                    tasks = tasks.max(src.max(dst) + 1);
                    match dir {
                        EdgeDir::Send => {
                            sends.insert(
                                (*src, *dst, *seq),
                                (stage.clone(), *round, *bytes, *lamport, *at_ns),
                            );
                        }
                        EdgeDir::Recv => recvs.push((
                            *src,
                            *dst,
                            *seq,
                            stage.clone(),
                            *round,
                            *bytes,
                            *lamport,
                            *at_ns,
                        )),
                    }
                }
                Event::Counter { task, kind, value } => {
                    *counters.entry((*task, *kind)).or_insert(0) += value;
                }
            }
        }

        let mut unmatched_recvs = 0usize;
        for (src, dst, seq, stage, round, bytes, lamport, at_ns) in recvs {
            match sends.remove(&(src, dst, seq)) {
                Some((s_stage, s_round, s_bytes, s_lamport, s_at)) => {
                    // Prefer the sender's view of stage/round/bytes; the
                    // receiver's copy is checked by `check_conservation`.
                    let _ = (stage, round);
                    pairs.push(MessagePair {
                        src,
                        dst,
                        stage: s_stage,
                        round: s_round,
                        bytes: s_bytes.max(bytes),
                        seq,
                        send_lamport: s_lamport,
                        recv_lamport: lamport,
                        send_ns: s_at,
                        recv_ns: at_ns,
                    });
                }
                None => unmatched_recvs += 1,
            }
        }
        let unmatched_sends = sends.len();

        TraceAnalysis {
            tasks,
            spans,
            pairs,
            unmatched_sends,
            unmatched_recvs,
            counters,
        }
    }

    /// The matched causal edges, in `(src, dst, seq)` order.
    pub fn pairs(&self) -> &[MessagePair] {
        &self.pairs
    }

    /// Total `events_dropped` across tasks (non-zero means the recorder
    /// lost events and the trace is incomplete).
    pub fn events_dropped(&self) -> u64 {
        self.counters
            .iter()
            .filter(|((_, k), _)| *k == CounterKind::EventsDropped)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Non-fatal problems worth surfacing before any numbers.
    pub fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        let dropped = self.events_dropped();
        if dropped > 0 {
            w.push(format!(
                "trace is incomplete: {dropped} event(s) dropped by the recorder"
            ));
        }
        if self.unmatched_sends > 0 {
            w.push(format!(
                "{} send(s) without a matching recv",
                self.unmatched_sends
            ));
        }
        if self.unmatched_recvs > 0 {
            w.push(format!(
                "{} recv(s) without a matching send",
                self.unmatched_recvs
            ));
        }
        w
    }

    /// Conservation check: every send matched exactly one recv. Fails
    /// with a description when endpoints are unmatched (unless the trace
    /// is known-incomplete, in which case `warnings` covers it).
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.unmatched_sends == 0 && self.unmatched_recvs == 0 {
            return Ok(());
        }
        Err(format!(
            "message conservation violated: {} unmatched send(s), {} unmatched recv(s)",
            self.unmatched_sends, self.unmatched_recvs
        ))
    }

    /// Causality check over the matched edges: the receiver's Lamport
    /// clock never decreases across an edge (ours is strictly greater by
    /// construction), and clocks are strictly increasing along each
    /// (src, dst) FIFO channel on both endpoints.
    pub fn check_causality(&self) -> Result<(), String> {
        for p in &self.pairs {
            if p.recv_lamport < p.send_lamport {
                return Err(format!(
                    "edge {}→{} seq {} ({}): recv lamport {} < send lamport {}",
                    p.src, p.dst, p.seq, p.stage, p.recv_lamport, p.send_lamport
                ));
            }
        }
        let mut by_channel: BTreeMap<(u32, u32), Vec<&MessagePair>> = BTreeMap::new();
        for p in &self.pairs {
            by_channel.entry((p.src, p.dst)).or_default().push(p);
        }
        for ((src, dst), mut ps) in by_channel {
            ps.sort_by_key(|p| p.seq);
            for w in ps.windows(2) {
                if w[1].send_lamport <= w[0].send_lamport {
                    return Err(format!(
                        "channel {src}→{dst}: send lamport not increasing at seq {}",
                        w[1].seq
                    ));
                }
                if w[1].recv_lamport <= w[0].recv_lamport {
                    return Err(format!(
                        "channel {src}→{dst}: recv lamport not increasing at seq {}",
                        w[1].seq
                    ));
                }
            }
        }
        Ok(())
    }

    /// Spans eligible for the critical-path tiling: paper steps and
    /// IndexCreate when present, every span otherwise (so synthetic /
    /// partial traces still analyze).
    fn cp_spans(&self) -> Vec<&SpanRec> {
        let top: Vec<&SpanRec> = self.spans.iter().filter(|s| s.top_level).collect();
        if top.is_empty() {
            self.spans.iter().collect()
        } else {
            top
        }
    }

    /// `[global_start, global_end]`: the tight hull of all eligible
    /// spans. `None` for a trace with no spans.
    pub fn run_interval(&self) -> Option<(u64, u64)> {
        let spans = self.cp_spans();
        let start = spans.iter().map(|s| s.start_ns).min()?;
        let end = spans.iter().map(|s| s.end_ns).max()?;
        Some((start, end))
    }

    /// Run makespan in nanoseconds (0 for an empty trace).
    pub fn makespan_ns(&self) -> u64 {
        self.run_interval()
            .map(|(s, e)| e.saturating_sub(s))
            .unwrap_or(0)
    }

    /// Extract the critical path: a chain of segments that tiles
    /// `[global_start, global_end]` exactly, so
    /// `path.iter().map(dur_ns).sum() == makespan_ns()` always holds.
    ///
    /// Backward walk from the globally-last-ending span. At a frontier
    /// on rank `r`:
    /// * the latest span on `r` starting before the frontier is the
    ///   carrier; the gap above it (if any) becomes an idle segment;
    /// * if a matched message arrived *inside* the carrier's covered
    ///   part, the walk emits the span tail after the arrival, a
    ///   transfer segment spanning the message flight, and hops to the
    ///   sending rank at the send timestamp;
    /// * a rank with no earlier activity hands the walk to the rank of the
    ///   latest-ending span below the frontier (such as the IndexCreate
    ///   span the pipeline records on task 0 before any task starts), so
    ///   that time is named by the span that covers it rather than an
    ///   anonymous startup bucket.
    pub fn critical_path(&self) -> Vec<CpSegment> {
        let spans = self.cp_spans();
        let Some((global_start, global_end)) = self.run_interval() else {
            return Vec::new();
        };

        // Last-ending span owns the makespan's right edge; ties go to
        // the lowest task for determinism.
        let mut cur = spans
            .iter()
            .max_by(|a, b| a.end_ns.cmp(&b.end_ns).then(b.task.cmp(&a.task)))
            .map(|s| s.task)
            .unwrap_or(0);

        // Per-task span and arrival lookups.
        let mut by_task: Vec<Vec<&SpanRec>> = vec![Vec::new(); self.tasks as usize];
        for s in &spans {
            if (s.task as usize) < by_task.len() {
                by_task[s.task as usize].push(s);
            }
        }
        let mut arrivals: Vec<Vec<&MessagePair>> = vec![Vec::new(); self.tasks as usize];
        for p in &self.pairs {
            if (p.dst as usize) < arrivals.len() && p.send_ns <= p.recv_ns {
                arrivals[p.dst as usize].push(p);
            }
        }

        let mut path: Vec<CpSegment> = Vec::new();
        let mut frontier = global_end;
        // Each iteration strictly lowers the frontier (idle → span end,
        // span → span start or a send timestamp below the frontier), so
        // the walk terminates; the bound is a defensive backstop.
        let max_iters = 4 * (spans.len() + self.pairs.len()) + 8;
        for _ in 0..max_iters {
            if frontier <= global_start {
                break;
            }
            let carrier = by_task
                .get(cur as usize)
                .and_then(|v| {
                    v.iter()
                        .filter(|s| s.start_ns < frontier)
                        .max_by(|a, b| a.end_ns.cmp(&b.end_ns).then(a.start_ns.cmp(&b.start_ns)))
                })
                .copied();
            let Some(carrier) = carrier else {
                // Nothing ran on `cur` before the frontier: the time below
                // belongs to whatever ran elsewhere — in a pipeline trace,
                // the IndexCreate span on task 0. Continue the walk on the
                // rank of the latest-ending span that starts below the
                // frontier; its gap, if any, becomes idle there. One always
                // exists, because the run interval starts at the earliest
                // span.
                let Some(covering) = spans
                    .iter()
                    .filter(|s| s.start_ns < frontier)
                    .max_by(|a, b| a.end_ns.cmp(&b.end_ns).then(b.task.cmp(&a.task)))
                else {
                    break;
                };
                cur = covering.task;
                continue;
            };
            if carrier.end_ns < frontier {
                path.push(CpSegment {
                    task: cur,
                    start_ns: carrier.end_ns,
                    end_ns: frontier,
                    kind: SegmentKind::Idle,
                });
                frontier = carrier.end_ns;
                continue;
            }
            // Carrier covers the frontier. Follow the latest arrival
            // strictly inside the covered part whose send is strictly
            // below the frontier (guarantees progress).
            let seg_start = carrier.start_ns.max(global_start);
            let arrival = arrivals
                .get(cur as usize)
                .and_then(|v| {
                    v.iter()
                        .filter(|p| {
                            p.recv_ns > seg_start && p.recv_ns <= frontier && p.send_ns < frontier
                        })
                        .max_by(|a, b| a.recv_ns.cmp(&b.recv_ns).then(a.send_ns.cmp(&b.send_ns)))
                })
                .copied();
            match arrival {
                Some(p) => {
                    if p.recv_ns < frontier {
                        path.push(CpSegment {
                            task: cur,
                            start_ns: p.recv_ns,
                            end_ns: frontier,
                            kind: SegmentKind::Span {
                                name: carrier.name.clone(),
                                pass: carrier.pass,
                            },
                        });
                    }
                    let t_start = p.send_ns.max(global_start);
                    path.push(CpSegment {
                        task: p.dst,
                        start_ns: t_start,
                        end_ns: p.recv_ns,
                        kind: SegmentKind::Transfer {
                            src: p.src,
                            stage: p.stage.clone(),
                            bytes: p.bytes,
                        },
                    });
                    frontier = t_start;
                    cur = p.src;
                }
                None => {
                    path.push(CpSegment {
                        task: cur,
                        start_ns: seg_start,
                        end_ns: frontier,
                        kind: SegmentKind::Span {
                            name: carrier.name.clone(),
                            pass: carrier.pass,
                        },
                    });
                    frontier = seg_start;
                }
            }
        }
        path.reverse();
        path
    }

    /// Aggregate a critical path into `(label, total ns)` rows, largest
    /// first.
    pub fn critical_path_summary(path: &[CpSegment]) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for seg in path {
            *totals.entry(seg.label()).or_insert(0) += seg.dur_ns();
        }
        let mut rows: Vec<(String, u64)> = totals.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Per-stage imbalance statistics, in paper step order (stages that
    /// never ran are omitted).
    pub fn stage_imbalance(&self) -> Vec<StageImbalance> {
        let mut out = Vec::new();
        for name in STEP_NAMES {
            let mut per_task = vec![0u64; self.tasks as usize];
            let mut seen = false;
            for s in &self.spans {
                if s.name == name && (s.task as usize) < per_task.len() {
                    per_task[s.task as usize] += s.end_ns.saturating_sub(s.start_ns);
                    seen = true;
                }
            }
            if !seen {
                continue;
            }
            let max_ns = per_task.iter().copied().max().unwrap_or(0);
            let slowest_task = per_task
                .iter()
                .enumerate()
                .max_by_key(|(i, ns)| (**ns, std::cmp::Reverse(*i)))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
            let mean_ns = if per_task.is_empty() {
                0.0
            } else {
                per_task.iter().sum::<u64>() as f64 / per_task.len() as f64
            };
            let factor = if mean_ns > 0.0 {
                max_ns as f64 / mean_ns
            } else {
                0.0
            };
            out.push(StageImbalance {
                stage: name.to_string(),
                per_task_ns: per_task,
                max_ns,
                mean_ns,
                factor,
                slowest_task,
            });
        }
        out
    }

    /// The `k` worst `(stage, task)` cells by excess over the stage
    /// mean, worst first.
    pub fn stragglers(&self, k: usize) -> Vec<Straggler> {
        let mut out: Vec<Straggler> = Vec::new();
        for imb in self.stage_imbalance() {
            for (task, &ns) in imb.per_task_ns.iter().enumerate() {
                let excess = ns as f64 - imb.mean_ns;
                if excess > 0.0 {
                    out.push(Straggler {
                        stage: imb.stage.clone(),
                        task: task as u32,
                        ns,
                        excess_ns: excess as u64,
                        over_mean: if imb.mean_ns > 0.0 {
                            ns as f64 / imb.mean_ns
                        } else {
                            0.0
                        },
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.excess_ns
                .cmp(&a.excess_ns)
                .then(a.stage.cmp(&b.stage))
                .then(a.task.cmp(&b.task))
        });
        out.truncate(k);
        out
    }

    /// One text Gantt row per task over the run interval: each column is
    /// a time bucket labeled with the initial of the step that dominates
    /// it (`.` = no recorded span).
    pub fn gantt_rows(&self, width: usize) -> Vec<String> {
        let Some((start, end)) = self.run_interval() else {
            return Vec::new();
        };
        let width = width.max(1);
        let span_total = end.saturating_sub(start).max(1);
        let mut rows = Vec::with_capacity(self.tasks as usize);
        for t in 0..self.tasks {
            let mut occupancy: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); width];
            for s in self.spans.iter().filter(|s| s.task == t && s.top_level) {
                let lo = s.start_ns.max(start);
                let hi = s.end_ns.min(end);
                if hi <= lo {
                    continue;
                }
                let b0 = ((lo - start) as u128 * width as u128 / span_total as u128) as usize;
                let b1 =
                    (((hi - start) as u128 * width as u128).div_ceil(span_total as u128)) as usize;
                for (b, bucket) in occupancy
                    .iter_mut()
                    .enumerate()
                    .take(b1.min(width))
                    .skip(b0.min(width - 1))
                {
                    let bucket_lo = start + (b as u64 * span_total) / width as u64;
                    let bucket_hi = start + ((b as u64 + 1) * span_total) / width as u64;
                    let overlap = hi.min(bucket_hi).saturating_sub(lo.max(bucket_lo));
                    if overlap > 0 {
                        *bucket.entry(s.name.as_str()).or_insert(0) += overlap;
                    }
                }
            }
            let mut row = String::with_capacity(width + 12);
            let _ = write!(row, "task {t:<3} |");
            for bucket in &occupancy {
                let dominant = bucket
                    .iter()
                    .max_by_key(|(name, ns)| (**ns, std::cmp::Reverse(*name)))
                    .map(|(name, _)| name.chars().next().unwrap_or('?'));
                row.push(dominant.unwrap_or('.'));
            }
            row.push('|');
            rows.push(row);
        }
        rows
    }

    /// Bytes-over-time: received bytes per bucket and cumulative, from
    /// the matched message edges.
    pub fn timeline(&self, buckets: usize) -> Vec<TimelineBucket> {
        let Some((start, end)) = self.run_interval() else {
            return Vec::new();
        };
        let buckets = buckets.max(1);
        let total = end.saturating_sub(start).max(1);
        let mut per_bucket = vec![0u64; buckets];
        for p in &self.pairs {
            if p.recv_ns < start || p.recv_ns > end {
                continue;
            }
            let b = ((p.recv_ns - start) as u128 * buckets as u128 / total as u128) as usize;
            per_bucket[b.min(buckets - 1)] += p.bytes;
        }
        let mut out = Vec::with_capacity(buckets);
        let mut cumulative = 0u64;
        for (b, &bytes_recv) in per_bucket.iter().enumerate() {
            cumulative += bytes_recv;
            out.push(TimelineBucket {
                start_ns: start + (b as u64 * total) / buckets as u64,
                bytes_recv,
                cumulative,
            });
        }
        out
    }

    /// Modeled peak memory across tasks (the `mem_modeled_bytes`
    /// counter), for the timeline's reference line.
    pub fn modeled_bytes(&self) -> u64 {
        self.counters
            .iter()
            .filter(|((_, k), _)| *k == CounterKind::MemModeledBytes)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of one counter kind across all tasks.
    fn counter_sum(&self, kind: CounterKind) -> u64 {
        self.counters
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Fault-injection and recovery totals recorded in the trace. All
    /// zero for a fault-free run (the counters are only emitted when the
    /// fault plane is active).
    pub fn fault_totals(&self) -> FaultTotals {
        FaultTotals {
            faults_injected: self.counter_sum(CounterKind::FaultsInjected),
            retry_attempts: self.counter_sum(CounterKind::RetryAttempts),
            checkpoint_writes: self.counter_sum(CounterKind::CheckpointWrites),
            task_restarts: self.counter_sum(CounterKind::TaskRestarts),
        }
    }

    /// Presolve-tier and planner totals recorded in the trace. All zero
    /// when neither `--memory-budget` nor `--presolve` was used.
    pub fn presolve_totals(&self) -> PresolveTotals {
        PresolveTotals {
            planned_passes: self.counter_sum(CounterKind::PlannedPasses),
            budget_bytes: self.counter_sum(CounterKind::MemBudgetBytes),
            sketch_fill_permille: self.counter_sum(CounterKind::SketchFillPermille),
            dropped_kmers: self.counter_sum(CounterKind::PresolveDroppedKmers),
        }
    }

    /// Per-task restart counts, for naming the ranks that recovered.
    pub fn restarts_by_task(&self) -> Vec<(u32, u64)> {
        self.counters
            .iter()
            .filter(|((_, k), v)| *k == CounterKind::TaskRestarts && **v > 0)
            .map(|(&(task, _), &v)| (task, v))
            .collect()
    }

    /// Folded-stack output for flamegraph tooling: one
    /// `task N;Step[;sub-span] <ns>` line per aggregate, sub-spans
    /// nested under the smallest top-level span containing them.
    pub fn folded_stacks(&self) -> String {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        // Self time of top-level spans (duration minus nested sub-spans)
        // plus one nested level for the sub-spans themselves.
        for s in &self.spans {
            if !s.top_level {
                continue;
            }
            let mut self_ns = s.end_ns.saturating_sub(s.start_ns);
            for sub in self.spans.iter().filter(|x| {
                !x.top_level && x.task == s.task && x.start_ns >= s.start_ns && x.end_ns <= s.end_ns
            }) {
                let d = sub.end_ns.saturating_sub(sub.start_ns);
                self_ns = self_ns.saturating_sub(d);
                *totals
                    .entry(format!("task {};{};{}", s.task, s.name, sub.name))
                    .or_insert(0) += d;
            }
            *totals
                .entry(format!("task {};{}", s.task, s.name))
                .or_insert(0) += self_ns;
        }
        // Sub-spans not contained in any top-level span still show up.
        for sub in self.spans.iter().filter(|s| !s.top_level) {
            let contained = self.spans.iter().any(|s| {
                s.top_level
                    && s.task == sub.task
                    && sub.start_ns >= s.start_ns
                    && sub.end_ns <= s.end_ns
            });
            if !contained {
                *totals
                    .entry(format!("task {};{}", sub.task, sub.name))
                    .or_insert(0) += sub.end_ns.saturating_sub(sub.start_ns);
            }
        }
        let mut out = String::new();
        for (stack, ns) in totals {
            if ns > 0 {
                let _ = writeln!(out, "{stack} {ns}");
            }
        }
        out
    }

    /// Render the full plain-text analysis report.
    pub fn render_report(&self, top_k: usize) -> String {
        let sec = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "METAPREP trace analysis — {} task(s), {} message edge(s)",
            self.tasks,
            self.pairs.len()
        );
        for w in self.warnings() {
            let _ = writeln!(out, "WARNING: {w}");
        }
        let _ = writeln!(out);

        let makespan = self.makespan_ns();
        let path = self.critical_path();
        let _ = writeln!(
            out,
            "critical path — {} segment(s), sum {:.6} s == makespan {:.6} s",
            path.len(),
            sec(path.iter().map(CpSegment::dur_ns).sum::<u64>()),
            sec(makespan),
        );
        for (label, ns) in Self::critical_path_summary(&path) {
            let share = if makespan > 0 {
                ns as f64 * 100.0 / makespan as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {label:<28} {:>10.4} s {share:>6.1}%", sec(ns));
        }
        let hops = path
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Transfer { .. }))
            .count();
        let _ = writeln!(out, "  ({hops} rank hop(s) along the path)");

        let imb = self.stage_imbalance();
        if !imb.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>10} {:>8} {:>8}   five-number (s)",
                "stage", "max (s)", "mean (s)", "factor", "slowest"
            );
            for row in &imb {
                let secs: Vec<f64> = row.per_task_ns.iter().map(|&ns| sec(ns)).collect();
                let [mn, q1, med, q3, mx] = five_number(&secs);
                let _ = writeln!(
                    out,
                    "{:<14} {:>10.4} {:>10.4} {:>8.3} {:>8}   \
                     [{mn:.4} {q1:.4} {med:.4} {q3:.4} {mx:.4}]",
                    row.stage,
                    sec(row.max_ns),
                    row.mean_ns / 1e9,
                    row.factor,
                    format!("task {}", row.slowest_task),
                );
            }
        }

        let stragglers = self.stragglers(top_k);
        if !stragglers.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "top {} straggler cell(s)", stragglers.len());
            for s in &stragglers {
                let _ = writeln!(
                    out,
                    "  {:<14} task {:<4} {:>10.4} s  (+{:.4} s over mean, {:.2}x)",
                    s.stage,
                    s.task,
                    sec(s.ns),
                    sec(s.excess_ns),
                    s.over_mean,
                );
            }
        }

        let faults = self.fault_totals();
        if faults.any() {
            let _ = writeln!(out);
            let _ = writeln!(out, "fault injection & recovery");
            let _ = writeln!(out, "  faults injected   {:>8}", faults.faults_injected);
            let _ = writeln!(out, "  retry attempts    {:>8}", faults.retry_attempts);
            let _ = writeln!(out, "  checkpoint writes {:>8}", faults.checkpoint_writes);
            let _ = writeln!(out, "  task restarts     {:>8}", faults.task_restarts);
            for (task, n) in self.restarts_by_task() {
                let _ = writeln!(out, "    task {task} restarted {n} time(s)");
            }
        }

        let presolve = self.presolve_totals();
        if presolve.any() {
            let _ = writeln!(out);
            let _ = writeln!(out, "presolve & pass planning");
            let _ = writeln!(out, "  planned passes      {:>12}", presolve.planned_passes);
            if presolve.budget_bytes > 0 {
                let _ = writeln!(out, "  memory budget (B)   {:>12}", presolve.budget_bytes);
            }
            if presolve.sketch_fill_permille > 0 {
                let _ = writeln!(
                    out,
                    "  sketch fill (\u{2030})    {:>12}",
                    presolve.sketch_fill_permille
                );
            }
            let _ = writeln!(out, "  k-mers presolved    {:>12}", presolve.dropped_kmers);
        }

        let gantt = self.gantt_rows(64);
        if !gantt.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "per-rank Gantt ({} .. {} ns, 64 buckets; letter = dominant step)",
                self.run_interval().map(|(s, _)| s).unwrap_or(0),
                self.run_interval().map(|(_, e)| e).unwrap_or(0),
            );
            for row in gantt {
                let _ = writeln!(out, "  {row}");
            }
        }

        let timeline = self.timeline(16);
        let transferred: u64 = self.pairs.iter().map(|p| p.bytes).sum();
        if transferred > 0 {
            let peak_bucket = timeline.iter().map(|b| b.bytes_recv).max().unwrap_or(0);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "bytes over time ({transferred} B transferred; modeled peak {} B)",
                self.modeled_bytes()
            );
            for b in &timeline {
                let bar_len = if peak_bucket > 0 {
                    (b.bytes_recv as u128 * 40 / peak_bucket as u128) as usize
                } else {
                    0
                };
                let _ = writeln!(
                    out,
                    "  {:>12} ns {:>12} B |{}",
                    b.start_ns,
                    b.bytes_recv,
                    "#".repeat(bar_len)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EdgeEvent;

    fn span(task: u32, name: &str, start: u64, end: u64) -> Event {
        Event::Span {
            task,
            name: name.to_string(),
            pass: None,
            detail: None,
            start_ns: start,
            end_ns: end,
            lamport: 0,
        }
    }

    fn edge(dir: EdgeDir, src: u32, dst: u32, seq: u64, lamport: u64, at: u64) -> Event {
        Event::from(EdgeEvent {
            dir,
            src,
            dst,
            stage: "KmerGen-Comm",
            round: None,
            bytes: 100,
            seq,
            lamport,
            at_ns: at,
        })
    }

    fn tiling_sum(path: &[CpSegment]) -> u64 {
        path.iter().map(CpSegment::dur_ns).sum()
    }

    fn assert_tiles(path: &[CpSegment], start: u64, end: u64) {
        assert!(!path.is_empty());
        assert_eq!(path[0].start_ns, start, "path starts at global start");
        assert_eq!(path[path.len() - 1].end_ns, end, "path ends at global end");
        for w in path.windows(2) {
            assert_eq!(
                w[0].end_ns, w[1].start_ns,
                "segments must chain without gaps: {w:?}"
            );
        }
    }

    #[test]
    fn single_task_single_span_critical_path() {
        let a =
            TraceAnalysis::from_events(&[Event::Meta { tasks: 1 }, span(0, "KmerGen", 100, 500)]);
        let path = a.critical_path();
        assert_tiles(&path, 100, 500);
        assert_eq!(tiling_sum(&path), a.makespan_ns());
        assert_eq!(path.len(), 1);
        assert!(matches!(&path[0].kind, SegmentKind::Span { name, .. } if name == "KmerGen"));
    }

    #[test]
    fn idle_gap_becomes_idle_segment() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 1 },
            span(0, "KmerGen", 0, 100),
            span(0, "LocalSort", 300, 400),
        ]);
        let path = a.critical_path();
        assert_tiles(&path, 0, 400);
        assert_eq!(tiling_sum(&path), 400);
        // KmerGen [0,100], idle [100,300], LocalSort [300,400].
        assert_eq!(path.len(), 3);
        assert!(matches!(path[1].kind, SegmentKind::Idle));
        assert_eq!(path[1].dur_ns(), 200);
    }

    #[test]
    fn message_hop_crosses_ranks_with_exact_tiling() {
        // Task 0: KmerGen [0,200], sends at 150.
        // Task 1: LocalSort [100,500], recv lands at 180 inside it.
        // Expected path (reversed walk): task1 span tail [180,500],
        // transfer [150,180], task0 span [0,150] portion... the walk on
        // task 0 continues from frontier 150 inside KmerGen [0,200]:
        // carrier covers frontier, no arrivals → span [0,150].
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 200),
            span(1, "LocalSort", 100, 500),
            edge(EdgeDir::Send, 0, 1, 0, 5, 150),
            edge(EdgeDir::Recv, 0, 1, 0, 6, 180),
        ]);
        assert_eq!(a.makespan_ns(), 500);
        let path = a.critical_path();
        assert_tiles(&path, 0, 500);
        assert_eq!(tiling_sum(&path), 500);
        assert_eq!(path.len(), 3);
        assert!(matches!(&path[0].kind, SegmentKind::Span { name, .. } if name == "KmerGen"));
        assert_eq!((path[0].start_ns, path[0].end_ns), (0, 150));
        assert!(matches!(
            &path[1].kind,
            SegmentKind::Transfer { src: 0, .. }
        ));
        assert_eq!((path[1].start_ns, path[1].end_ns), (150, 180));
        assert!(matches!(&path[2].kind, SegmentKind::Span { name, .. } if name == "LocalSort"));
        assert_eq!((path[2].start_ns, path[2].end_ns), (180, 500));
    }

    #[test]
    fn zero_length_spans_and_ties_do_not_break_tiling() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 100),
            span(0, "LocalSort", 100, 100), // zero-length at the frontier
            span(1, "KmerGen", 0, 100),     // exact tie on the last end
        ]);
        assert_eq!(a.makespan_ns(), 100);
        let path = a.critical_path();
        assert_tiles(&path, 0, 100);
        assert_eq!(tiling_sum(&path), 100);
        // Tie on end_ns resolves to the lowest task.
        assert_eq!(path[path.len() - 1].task, 0);
    }

    #[test]
    fn rank_with_no_earlier_activity_hands_off_to_the_covering_span() {
        // Task 1's span starts later than global start and task 1 has
        // nothing before it, so the walk continues on task 0: the gap
        // above task 0's span is idle there, the rest is the span itself.
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(1, "MergeCC", 50, 300),
            span(0, "KmerGen", 0, 40),
        ]);
        let path = a.critical_path();
        assert_tiles(&path, 0, 300);
        assert_eq!(tiling_sum(&path), 300);
        let labels: Vec<(String, u32, u64)> = path
            .iter()
            .map(|s| (s.label(), s.task, s.dur_ns()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("KmerGen".to_string(), 0, 40),
                ("(idle)".to_string(), 0, 10),
                ("MergeCC".to_string(), 1, 250),
            ]
        );
    }

    #[test]
    fn index_create_is_named_when_the_path_ends_on_another_task() {
        // The pipeline records IndexCreate on task 0; task 1 finishes last
        // and has no span before its first step, so the backward walk
        // ends on task 1. The time below that step is IndexCreate's, not
        // an anonymous startup bucket, and the tiling stays exact.
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "IndexCreate", 0, 100),
            span(0, "KmerGen", 100, 250),
            span(1, "KmerGen", 100, 400),
        ]);
        let path = a.critical_path();
        assert_tiles(&path, 0, 400);
        assert_eq!(tiling_sum(&path), a.makespan_ns());
        let summary = TraceAnalysis::critical_path_summary(&path);
        assert_eq!(
            summary,
            vec![
                ("KmerGen".to_string(), 300),
                ("IndexCreate".to_string(), 100)
            ]
        );
        assert_eq!(path[0].task, 0);
        assert_eq!(path[path.len() - 1].task, 1);
    }

    #[test]
    fn conservation_and_causality_checks() {
        let ok = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            edge(EdgeDir::Send, 0, 1, 0, 3, 10),
            edge(EdgeDir::Recv, 0, 1, 0, 4, 20),
            edge(EdgeDir::Send, 0, 1, 1, 5, 30),
            edge(EdgeDir::Recv, 0, 1, 1, 6, 40),
        ]);
        assert!(ok.check_conservation().is_ok());
        assert!(ok.check_causality().is_ok());
        assert_eq!(ok.pairs().len(), 2);

        let unmatched = TraceAnalysis::from_events(&[edge(EdgeDir::Send, 0, 1, 0, 3, 10)]);
        assert!(unmatched.check_conservation().is_err());
        assert_eq!(unmatched.warnings().len(), 1);

        let backwards = TraceAnalysis::from_events(&[
            edge(EdgeDir::Send, 0, 1, 0, 9, 10),
            edge(EdgeDir::Recv, 0, 1, 0, 4, 20), // recv lamport < send
        ]);
        assert!(backwards.check_causality().is_err());
    }

    #[test]
    fn imbalance_factor_and_stragglers() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 4 },
            span(0, "KmerGen", 0, 100),
            span(1, "KmerGen", 0, 100),
            span(2, "KmerGen", 0, 100),
            span(3, "KmerGen", 0, 500), // straggler
        ]);
        let imb = a.stage_imbalance();
        assert_eq!(imb.len(), 1);
        assert_eq!(imb[0].max_ns, 500);
        assert_eq!(imb[0].mean_ns, 200.0);
        assert!((imb[0].factor - 2.5).abs() < 1e-12);
        assert_eq!(imb[0].slowest_task, 3);
        let st = a.stragglers(5);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].task, 3);
        assert_eq!(st[0].excess_ns, 300);
    }

    #[test]
    fn dropped_events_warn() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 1 },
            Event::Counter {
                task: 0,
                kind: CounterKind::EventsDropped,
                value: 7,
            },
        ]);
        assert_eq!(a.events_dropped(), 7);
        assert!(a.warnings().iter().any(|w| w.contains("incomplete")));
    }

    #[test]
    fn fault_totals_sum_across_tasks_and_render() {
        let counter = |task, kind, value| Event::Counter { task, kind, value };
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 3 },
            span(0, "KmerGen", 0, 100),
            counter(0, CounterKind::FaultsInjected, 4),
            counter(1, CounterKind::FaultsInjected, 2),
            counter(1, CounterKind::RetryAttempts, 3),
            counter(2, CounterKind::CheckpointWrites, 5),
            counter(1, CounterKind::TaskRestarts, 1),
        ]);
        let f = a.fault_totals();
        assert_eq!(
            f,
            FaultTotals {
                faults_injected: 6,
                retry_attempts: 3,
                checkpoint_writes: 5,
                task_restarts: 1,
            }
        );
        assert!(f.any());
        assert_eq!(a.restarts_by_task(), vec![(1, 1)]);
        let report = a.render_report(3);
        assert!(report.contains("fault injection & recovery"));
        assert!(report.contains("task 1 restarted 1 time(s)"));
    }

    #[test]
    fn presolve_totals_sum_and_render() {
        let counter = |task, kind, value| Event::Counter { task, kind, value };
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 100),
            counter(0, CounterKind::PlannedPasses, 3),
            counter(0, CounterKind::MemBudgetBytes, 1 << 20),
            counter(0, CounterKind::SketchFillPermille, 17),
            counter(0, CounterKind::PresolveDroppedKmers, 40),
            counter(1, CounterKind::PresolveDroppedKmers, 2),
        ]);
        let p = a.presolve_totals();
        assert_eq!(
            p,
            PresolveTotals {
                planned_passes: 3,
                budget_bytes: 1 << 20,
                sketch_fill_permille: 17,
                dropped_kmers: 42,
            }
        );
        assert!(p.any());
        let report = a.render_report(3);
        assert!(report.contains("presolve & pass planning"));
        assert!(report.contains("42"));
        // A run without the tier renders no presolve section even though
        // it still reports a pass count.
        let plain = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 1 },
            span(0, "KmerGen", 0, 100),
            counter(0, CounterKind::PlannedPasses, 2),
        ]);
        assert!(!plain.presolve_totals().any());
        assert!(!plain.render_report(3).contains("presolve & pass planning"));
    }

    #[test]
    fn fault_free_traces_render_no_fault_section() {
        let a = TraceAnalysis::from_events(&[Event::Meta { tasks: 1 }, span(0, "KmerGen", 0, 100)]);
        assert!(!a.fault_totals().any());
        assert!(!a.render_report(3).contains("fault injection"));
    }

    #[test]
    fn folded_stacks_nest_sub_spans() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 1 },
            span(0, "KmerGen-Comm", 0, 100),
            span(0, "alltoall-stage", 10, 30),
        ]);
        let folded = a.folded_stacks();
        assert!(folded.contains("task 0;KmerGen-Comm;alltoall-stage 20"));
        assert!(folded.contains("task 0;KmerGen-Comm 80"));
    }

    #[test]
    fn timeline_accumulates_received_bytes() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 100),
            span(1, "KmerGen", 0, 100),
            edge(EdgeDir::Send, 0, 1, 0, 1, 10),
            edge(EdgeDir::Recv, 0, 1, 0, 2, 20),
        ]);
        let tl = a.timeline(4);
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.iter().map(|b| b.bytes_recv).sum::<u64>(), 100);
        assert_eq!(tl[3].cumulative, 100);
    }

    #[test]
    fn report_renders_all_sections() {
        let a = TraceAnalysis::from_events(&[
            Event::Meta { tasks: 2 },
            span(0, "KmerGen", 0, 200),
            span(1, "LocalSort", 100, 500),
            edge(EdgeDir::Send, 0, 1, 0, 5, 150),
            edge(EdgeDir::Recv, 0, 1, 0, 6, 180),
        ]);
        let text = a.render_report(3);
        assert!(text.contains("critical path"));
        assert!(text.contains("stage"));
        assert!(text.contains("Gantt"));
        assert!(text.contains("bytes over time"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let a = TraceAnalysis::from_events(&[]);
        assert_eq!(a.makespan_ns(), 0);
        assert!(a.critical_path().is_empty());
        assert!(a.gantt_rows(10).is_empty());
        assert!(a.timeline(4).is_empty());
        let _ = a.render_report(3);
    }
}
