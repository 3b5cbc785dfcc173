//! Correctness gates, all run off the clock: the preload reads back, the
//! committed history is MVSG-serializable, and every key holds the value of
//! its last acknowledged write — in the live engine, and in an engine
//! rebuilt from a write-ahead log.

use mvtl_common::{Engine, EngineExt, Key, ProcessId, Timestamp};
use mvtl_verify::{check_serializable, History};
use std::collections::HashMap;

use crate::wl::Committed;

/// Keys per preload or read-back transaction.
const CHUNK: u64 = 1024;

pub fn preload_value(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Writes every key `0..keys` once, `CHUNK` keys per transaction.
pub fn preload(engine: &dyn Engine<u64>, keys: u64) -> Result<Vec<Committed>, String> {
    let mut commits = Vec::new();
    let mut start = 0;
    while start < keys {
        let end = (start + CHUNK).min(keys);
        let writes: Vec<(Key, u64)> = (start..end).map(|k| (Key(k), preload_value(k))).collect();
        let mut tx = engine.begin(ProcessId(0));
        tx.write_many(writes.clone())
            .map_err(|e| format!("preload write: {e}"))?;
        let info = tx.commit().map_err(|e| format!("preload commit: {e}"))?;
        commits.push(Committed { info, writes });
        start = end;
    }
    Ok(commits)
}

/// The value every key must hold after a set of commits: the write with the
/// largest commit timestamp, the preload value for keys nobody else wrote.
pub struct Expected {
    last: HashMap<Key, (Timestamp, u64)>,
    max_ts: Timestamp,
}

impl Expected {
    pub fn from<'a>(commits: impl IntoIterator<Item = &'a Committed>) -> Result<Expected, String> {
        let mut last: HashMap<Key, (Timestamp, u64)> = HashMap::new();
        let mut max_ts = Timestamp::ZERO;
        for commit in commits {
            let ts = commit
                .info
                .commit_ts
                .ok_or("a commit reported no timestamp")?;
            max_ts = max_ts.max(ts);
            // Later writes of one transaction overwrite earlier ones.
            for &(key, value) in &commit.writes {
                match last.get(&key) {
                    Some(&(seen, _)) if seen > ts => {}
                    _ => {
                        last.insert(key, (ts, value));
                    }
                }
            }
        }
        Ok(Expected { last, max_ts })
    }

    fn value(&self, key: Key) -> u64 {
        self.last
            .get(&key)
            .map_or_else(|| preload_value(key.0), |&(_, v)| v)
    }
}

/// Reads every key `0..keys` in transactions pinned above the newest commit
/// and compares each value with `expected`.
pub fn read_back(engine: &dyn Engine<u64>, keys: u64, expected: &Expected) -> Result<(), String> {
    check_keys(engine, (0..keys).map(Key).collect(), expected)
}

fn check_keys(engine: &dyn Engine<u64>, keys: Vec<Key>, expected: &Expected) -> Result<(), String> {
    let pin = Timestamp::new(expected.max_ts.value + 1, 0);
    for batch in keys.chunks(CHUNK as usize) {
        let mut tx = engine.begin_pinned(ProcessId(0), pin);
        let values = tx
            .read_many(batch)
            .map_err(|e| format!("read-back from key {}: {e}", batch[0].0))?;
        tx.commit()
            .map_err(|e| format!("read-back commit from key {}: {e}", batch[0].0))?;
        for (key, value) in batch.iter().zip(values) {
            let want = expected.value(*key);
            if value != Some(want) {
                return Err(format!(
                    "key {} holds {value:?}, the last acknowledged write was {want}",
                    key.0
                ));
            }
        }
    }
    Ok(())
}

/// MVSG acyclicity of the committed history.
pub fn serializable<'a>(commits: impl IntoIterator<Item = &'a Committed>) -> Result<(), String> {
    let history = History::from_commits(commits.into_iter().map(|c| c.info.clone()));
    check_serializable(&history).map_err(|v| format!("history is not serializable: {v}"))
}
