//! The planted read-path regression of the sensitivity self-check.
//!
//! [`SpinEngine`] wraps an engine and busy-waits a fixed time per key read
//! before forwarding the call, the way a slower version fetch would. Running
//! the benchmark with `--read-spin-ns` must move `lat_p50_us` on the
//! read-heavy workload by more than its bound and leave the metrics that do
//! not depend on reads within theirs (see `selfcheck.py`).

use mvtl_common::{CommitInfo, Engine, Key, ProcessId, StoreStats, Timestamp, TxError, TxHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spins only once [`SpinEngine::arm`] is called, so set-up and warm-up
/// run at full speed and `setup_s` stays untouched.
pub struct SpinEngine {
    inner: Arc<dyn Engine<u64>>,
    per_key: Duration,
    armed: AtomicBool,
}

impl SpinEngine {
    pub fn new(inner: Arc<dyn Engine<u64>>, per_key_ns: u64) -> Self {
        SpinEngine {
            inner,
            per_key: Duration::from_nanos(per_key_ns),
            armed: AtomicBool::new(false),
        }
    }

    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

struct SpinHandle<'a> {
    inner: Box<dyn TxHandle<u64> + 'a>,
    per_key: Duration,
}

impl TxHandle<u64> for SpinHandle<'_> {
    fn read(&mut self, key: Key) -> Result<Option<u64>, TxError> {
        spin(self.per_key);
        self.inner.read(key)
    }

    fn write(&mut self, key: Key, value: u64) -> Result<(), TxError> {
        self.inner.write(key, value)
    }

    fn read_many(&mut self, keys: &[Key]) -> Result<Vec<Option<u64>>, TxError> {
        spin(self.per_key * u32::try_from(keys.len()).unwrap_or(u32::MAX));
        self.inner.read_many(keys)
    }

    fn write_many(&mut self, entries: Vec<(Key, u64)>) -> Result<(), TxError> {
        self.inner.write_many(entries)
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, TxError> {
        self.inner.commit()
    }

    fn abort(self: Box<Self>) {
        self.inner.abort();
    }
}

impl Engine<u64> for SpinEngine {
    fn begin_handle(
        &self,
        process: ProcessId,
        pinned: Option<Timestamp>,
    ) -> Box<dyn TxHandle<u64> + '_> {
        Box::new(SpinHandle {
            inner: self.inner.begin_handle(process, pinned),
            per_key: if self.armed.load(Ordering::Relaxed) {
                self.per_key
            } else {
                Duration::ZERO
            },
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn low_watermark(&self) -> Option<Timestamp> {
        self.inner.low_watermark()
    }
}
