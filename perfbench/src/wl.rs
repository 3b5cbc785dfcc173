//! Workload definitions, per-attempt records and the closed-loop client.

use mvtl_common::{AbortReason, CommitInfo, Engine, EngineExt, Key, ProcessId, Timestamp, TxError};
use mvtl_workload::{execute_template, KeyDist, TxTemplate, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem::size_of;
use std::time::Duration;

use crate::trace::now_ns;

/// One named workload: a closed loop of `clients` threads in process,
/// each beginning its next transaction the moment the last one ended.
/// Everything a run does follows from these fields and the seed.
pub struct Workload {
    pub name: &'static str,
    /// Registry spec of the engine.
    pub spec: &'static str,
    pub keys: u64,
    pub dist: KeyDist,
    pub ops: usize,
    pub write_frac: f64,
    /// Longest same-kind run of operations sent as one `read_many` or
    /// `write_many` call (1 = op by op).
    pub batch: usize,
    pub clients: usize,
    /// Transactions one client runs, alone, to warm up before timing. Alone,
    /// so the set-up time does not depend on which warm-up transactions
    /// happen to contend.
    pub warmup: usize,
}

pub const WORKLOADS: [&str; 2] = ["hot-update", "sharded-scan"];

pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "hot-update" => Some(Workload {
            name: "hot-update",
            spec: "mvtil-early",
            keys: 10_000,
            dist: KeyDist::Zipf { theta: 0.99 },
            ops: 8,
            write_frac: 0.5,
            batch: 1,
            clients: 2,
            warmup: 200,
        }),
        "sharded-scan" => Some(Workload {
            name: "sharded-scan",
            spec: "sharded?shards=8&inner=mvtil-early&gc_ms=20",
            keys: 1 << 18,
            dist: KeyDist::Uniform,
            ops: 16,
            write_frac: 0.05,
            batch: 16,
            clients: 2,
            warmup: 4_000,
        }),
        _ => None,
    }
}

impl Workload {
    pub fn template_spec(&self) -> WorkloadSpec {
        WorkloadSpec::new(self.ops, self.write_frac, self.keys)
            .with_dist(self.dist)
            .with_batch(self.batch)
    }

    /// The engine spec with a group-commit write-ahead log in `dir` added.
    pub fn spec_with_wal(&self, dir: &std::path::Path) -> String {
        let sep = if self.spec.contains('?') { '&' } else { '?' };
        format!("{}{sep}wal={}&fsync=group", self.spec, dir.display())
    }
}

/// The seed of one random stream of a run: the run seed mixed with a stream
/// tag (phase, client, probe) so every stream differs.
fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, tag))
}

/// Why an attempt aborted, one bucket per `AbortReason` the engines here
/// can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    LockTimeout,
    IntervalExhausted,
    NoCommonTimestamp,
    WriteConflict,
    VersionPurged,
    PrepareTimedOut,
    Other,
}

impl Abort {
    pub const ALL: [Abort; 7] = [
        Abort::LockTimeout,
        Abort::IntervalExhausted,
        Abort::NoCommonTimestamp,
        Abort::WriteConflict,
        Abort::VersionPurged,
        Abort::PrepareTimedOut,
        Abort::Other,
    ];

    pub fn of(reason: &AbortReason) -> Abort {
        match reason {
            AbortReason::LockTimeout { .. } => Abort::LockTimeout,
            AbortReason::IntervalExhausted { .. } => Abort::IntervalExhausted,
            AbortReason::NoCommonTimestamp => Abort::NoCommonTimestamp,
            AbortReason::WriteConflict { .. } => Abort::WriteConflict,
            AbortReason::VersionPurged { .. } => Abort::VersionPurged,
            AbortReason::PrepareTimedOut { .. } => Abort::PrepareTimedOut,
            _ => Abort::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Abort::LockTimeout => "lock_timeout",
            Abort::IntervalExhausted => "interval_exhausted",
            Abort::NoCommonTimestamp => "no_common_timestamp",
            Abort::WriteConflict => "write_conflict",
            Abort::VersionPurged => "version_purged",
            Abort::PrepareTimedOut => "prepare_timed_out",
            Abort::Other => "other",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    Aborted(Abort),
    /// An open-loop arrival dropped because it had waited too long to start.
    Shed,
}

/// One transaction attempt. Times are `trace::now_ns` readings: `due` is
/// when the attempt was scheduled (closed loop: when it began), `send` when
/// it was handed to the engine or the connection, `end` when it finished.
/// `lag` is how late the open-loop generator got to an arrival it was free
/// to serve.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    pub due: u64,
    pub send: u64,
    pub end: u64,
    pub lag: u64,
    pub outcome: Outcome,
}

impl Attempt {
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.due)
    }
}

/// A committed transaction and the values it wrote, in write order.
pub struct Committed {
    pub info: CommitInfo,
    pub writes: Vec<(Key, u64)>,
}

impl Committed {
    /// Pairs the values drawn for `template`'s writes with its write keys,
    /// in operation order.
    pub fn new(info: CommitInfo, template: &TxTemplate, drawn: Vec<u64>) -> Committed {
        let writes = template.write_keys().into_iter().zip(drawn).collect();
        Committed { info, writes }
    }
}

/// What a set of clients produced.
#[derive(Default)]
pub struct Log {
    pub attempts: Vec<Attempt>,
    pub commits: Vec<Committed>,
}

impl Log {
    pub fn merge(&mut self, other: Log) {
        self.attempts.extend(other.attempts);
        self.commits.extend(other.commits);
    }

    /// Heap bytes the log holds: its share of the process's memory.
    pub fn heap_bytes(&self) -> usize {
        let commits: usize = self
            .commits
            .iter()
            .map(|c| {
                c.info.reads.capacity() * size_of::<(Key, Timestamp)>()
                    + c.info.writes.capacity() * size_of::<Key>()
                    + c.writes.capacity() * size_of::<(Key, u64)>()
            })
            .sum();
        commits
            + self.commits.capacity() * size_of::<Committed>()
            + self.attempts.capacity() * size_of::<Attempt>()
    }
}

/// Runs one transaction of `template` in process, op by op or in batched
/// runs (`execute_template`). Returns the commit or the abort; any other
/// engine error is a failure of the run.
pub fn run_txn(
    engine: &dyn Engine<u64>,
    process: ProcessId,
    template: &TxTemplate,
    batch: usize,
    next_value: &mut impl FnMut() -> u64,
) -> Result<Result<Committed, Abort>, String> {
    let mut drawn = Vec::new();
    let mut tx = engine.begin(process);
    let body = execute_template(&mut tx, template, batch, || {
        let value = next_value();
        drawn.push(value);
        value
    });
    let result = match body {
        Ok(()) => tx.commit(),
        Err(err) => {
            drop(tx);
            Err(err)
        }
    };
    match result {
        Ok(info) => Ok(Ok(Committed::new(info, template, drawn))),
        Err(TxError::Aborted(reason)) => Ok(Err(Abort::of(&reason))),
        Err(err) => Err(format!("engine error: {err}")),
    }
}

/// Values no other stream of the run writes: the stream tag in the top
/// bits, a counter below.
pub fn value_stream(tag: u64) -> impl FnMut() -> u64 {
    let mut counter = 0u64;
    let top = (tag + 1) << 40;
    move || {
        counter += 1;
        top | counter
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many attempts per client.
    Count(usize),
    /// At the first attempt that would start after this `now_ns` reading.
    At(u64),
}

/// Runs the closed loop: `clients` threads, each beginning its next
/// transaction the moment the last one ended. `stream` separates the random
/// streams of warm-up and timed windows.
pub fn run_closed(
    engine: &dyn Engine<u64>,
    wl: &Workload,
    clients: usize,
    seed: u64,
    stream: u64,
    stop: Stop,
) -> Result<Log, String> {
    let spec = wl.template_spec();
    let results: Vec<Result<Log, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let spec = &spec;
                scope.spawn(move || {
                    let tag = (stream << 8) | client as u64;
                    let mut rng = rng(seed, tag);
                    let sampler = spec.key_sampler();
                    let mut values = value_stream(tag);
                    let process = ProcessId(client as u32 + 1);
                    let mut log = Log::default();
                    let mut n = 0usize;
                    loop {
                        let start = now_ns();
                        match stop {
                            Stop::Count(limit) if n >= limit => break,
                            Stop::At(deadline) if start >= deadline => break,
                            _ => {}
                        }
                        n += 1;
                        let template = spec.generate_with(&sampler, &mut rng);
                        let result = run_txn(engine, process, &template, spec.batch, &mut values);
                        let end = now_ns();
                        let outcome = match result? {
                            Ok(commit) => {
                                log.commits.push(commit);
                                Outcome::Committed
                            }
                            Err(abort) => Outcome::Aborted(abort),
                        };
                        log.attempts.push(Attempt {
                            due: start,
                            send: start,
                            end,
                            lag: 0,
                            outcome,
                        });
                    }
                    crate::trace::flush_thread();
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut log = Log::default();
    for result in results {
        log.merge(result?);
    }
    Ok(log)
}

pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
