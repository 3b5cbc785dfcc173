//! Span recording at the call boundaries of the public layer APIs.
//!
//! [`TracedEngine`] wraps any `dyn Engine<u64>` from the outside and records
//! one span per call: `txn` (begin to commit/abort), `begin`, `read`
//! (`read`/`read_many`), `write` (`write`/`write_many`), `commit` and `abort`
//! (explicit or on drop). Spans stay in memory — one buffer per thread,
//! handed to a global sink when the thread ends — and are analysed (and
//! written out) after the run. Recording is off until [`set_enabled`] turns
//! it on, so set-up and warm-up leave no spans.

use mvtl_common::{CommitInfo, Engine, Key, ProcessId, Timestamp, TxError, TxHandle};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The call boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Txn,
    Begin,
    Read,
    Write,
    Commit,
    Abort,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Txn,
        Kind::Begin,
        Kind::Read,
        Kind::Write,
        Kind::Commit,
        Kind::Abort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Begin => "begin",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Commit => "commit",
            Kind::Abort => "abort",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call. Times are nanoseconds since [`now_ns`]'s epoch;
/// `parent` indexes the span list of the same lane (thread) until
/// the lanes are merged into one list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub txn: u64,
    pub lane: u32,
    pub process: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// Nanoseconds since the first call in this process: the one time base of
/// every span and arrival record.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A thread's span buffer; handed to the sink when the thread exits.
struct Lane {
    id: u32,
    spans: Vec<Span>,
}

impl Lane {
    fn new() -> Self {
        Lane {
            id: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        flush_spans(std::mem::take(&mut self.spans));
    }
}

thread_local! {
    static LANE: RefCell<Lane> = RefCell::new(Lane::new());
}

fn flush_spans(spans: Vec<Span>) {
    if !spans.is_empty() {
        SINK.lock().push(spans);
    }
}

/// Hands the calling thread's spans to the sink now (worker threads call
/// this before they return; other threads flush when they exit).
pub fn flush_thread() {
    let spans = LANE.with(|lane| std::mem::take(&mut lane.borrow_mut().spans));
    flush_spans(spans);
}

/// Appends a span to the calling thread's lane and returns its lane index.
fn push(kind: Kind, start: u64, end: u64, parent: u32, txn: u64, process: u32) -> u32 {
    LANE.with(|lane| {
        let mut lane = lane.borrow_mut();
        let id = lane.id;
        let index = u32::try_from(lane.spans.len()).unwrap_or(NO_PARENT);
        lane.spans.push(Span {
            kind,
            start,
            end,
            parent,
            txn,
            lane: id,
            process,
        });
        index
    })
}

fn close(index: u32, end: u64) {
    LANE.with(|lane| {
        if let Some(span) = lane.borrow_mut().spans.get_mut(index as usize) {
            span.end = end;
        }
    });
}

/// Takes every span flushed so far.
pub fn take_all() -> Trace {
    flush_thread();
    let lanes = std::mem::take(&mut *SINK.lock());
    Trace::merge(lanes)
}

/// The merged spans of one traced window.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Concatenates lanes, rewriting lane-local parent indices to indices
    /// into the merged list.
    fn merge(lanes: Vec<Vec<Span>>) -> Trace {
        let mut spans = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
        for lane in lanes {
            let base = u32::try_from(spans.len()).unwrap_or(0);
            for mut span in lane {
                if span.parent != NO_PARENT {
                    span.parent += base;
                }
                spans.push(span);
            }
        }
        Trace { spans }
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. A span's children run one after another on one lane, so the
    /// covered time is the sum of the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                if let Some(c) = covered.get_mut(span.parent as usize) {
                    *c += span.duration();
                }
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, c)| span.duration().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tstart_ns\tend_ns\tparent\ttxn\tlane\tprocess")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.start,
                s.end,
                parent,
                s.txn,
                s.lane,
                s.process
            )?;
        }
        out.flush()
    }
}

/// Wraps an engine and records a span per call while tracing is enabled. It
/// also remembers the newest commit timestamp, which the GC-lag sampler
/// compares with `low_watermark()`.
pub struct TracedEngine {
    inner: Arc<dyn Engine<u64>>,
    next_txn: AtomicU64,
    newest_commit: AtomicU64,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn Engine<u64>>) -> Self {
        TracedEngine {
            inner,
            next_txn: AtomicU64::new(1),
            newest_commit: AtomicU64::new(0),
        }
    }

    pub fn newest_commit(&self) -> u64 {
        self.newest_commit.load(Ordering::Relaxed)
    }
}

struct TracedHandle<'a> {
    inner: Option<Box<dyn TxHandle<u64> + 'a>>,
    engine: &'a TracedEngine,
    /// Lane index of the open `txn` span, when recording.
    txn_span: Option<u32>,
    txn: u64,
    process: u32,
}

impl TracedHandle<'_> {
    fn call<T>(&mut self, kind: Kind, f: impl FnOnce(&mut (dyn TxHandle<u64> + '_)) -> T) -> T {
        let inner = self
            .inner
            .as_deref_mut()
            .expect("handle present until commit/abort");
        match self.txn_span {
            None => f(inner),
            Some(parent) => {
                let start = now_ns();
                let out = f(inner);
                push(kind, start, now_ns(), parent, self.txn, self.process);
                out
            }
        }
    }

    fn finish(&mut self, kind: Kind, f: impl FnOnce(Box<dyn TxHandle<u64> + '_>)) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        match self.txn_span {
            None => f(inner),
            Some(parent) => {
                let start = now_ns();
                f(inner);
                let end = now_ns();
                push(kind, start, end, parent, self.txn, self.process);
                close(parent, end);
            }
        }
    }
}

impl TxHandle<u64> for TracedHandle<'_> {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        self.call(Kind::Read, |h| h.read(key))
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        self.call(Kind::Write, |h| h.write(key, value))
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<u64>>, TxError> {
        self.call(Kind::Read, |h| h.read_many(keys))
    }

    fn write_many(&mut self, entries: Vec<(Key, u64)>) -> Result<(), TxError> {
        self.call(Kind::Write, |h| h.write_many(entries))
    }

    fn commit(mut self: Box<Self>) -> Result<CommitInfo, TxError> {
        let mut result = Err(TxError::TransactionFinished);
        self.finish(Kind::Commit, |h| result = h.commit());
        if let Ok(info) = &result {
            if let Some(ts) = info.commit_ts {
                self.engine
                    .newest_commit
                    .fetch_max(ts.value, Ordering::Relaxed);
            }
        }
        result
    }

    fn abort(mut self: Box<Self>) {
        self.finish(Kind::Abort, |h| h.abort());
    }
}

impl Drop for TracedHandle<'_> {
    fn drop(&mut self) {
        // A handle dropped without commit/abort aborts, as `Transaction` does.
        self.finish(Kind::Abort, |h| h.abort());
    }
}

impl Engine<u64> for TracedEngine {
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<u64> + '_> {
        if !enabled() {
            return Box::new(TracedHandle {
                inner: Some(self.inner.begin_handle(process, pinned)),
                engine: self,
                txn_span: None,
                txn: 0,
                process: process.0,
            });
        }
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let start = now_ns();
        let inner = self.inner.begin_handle(process, pinned);
        let end = now_ns();
        let txn_span = push(Kind::Txn, start, end, NO_PARENT, txn, process.0);
        push(Kind::Begin, start, end, txn_span, txn, process.0);
        Box::new(TracedHandle {
            inner: Some(inner),
            engine: self,
            txn_span: Some(txn_span),
            txn,
            process: process.0,
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> mvtl_common::StoreStats {
        self.inner.stats()
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        self.inner.low_watermark()
    }
}
