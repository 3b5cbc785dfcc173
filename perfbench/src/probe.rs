//! Layer probes of the traced run: short, single-client measurements of a
//! layer on the workload's own seeded template stream, for the layers the
//! per-layer table defines by comparison (WAL on versus off, served versus in
//! process) or that the workload's main window does not cross.

use mvtl_clock::GlobalClock;
use mvtl_common::{CommitInfo, Engine, EngineExt, ProcessId, Timestamp, TxId};
use mvtl_core::policy::MvtilPolicy;
use mvtl_core::MvtlConfig;
use mvtl_server::wire::{self, Request, Response};
use mvtl_server::{Server, ServerConfig};
use mvtl_shard::{IntersectionPick, ShardedStore};
use mvtl_workload::{execute_template, TxTemplate};
use std::net::TcpListener;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::{self, Expected};
use crate::open;
use crate::stat::quantile;
use crate::wl::{self, Attempt, Committed, Workload};

/// Templates each in-process probe runs.
const PROBE_TXNS: usize = 500;

fn templates(wl: &Workload, seed: u64, tag: u64, n: usize) -> Vec<TxTemplate> {
    let spec = wl.template_spec();
    let sampler = spec.key_sampler();
    let mut rng = wl::rng(seed, tag);
    (0..n)
        .map(|_| spec.generate_with(&sampler, &mut rng))
        .collect()
}

/// Runs `template` once, writing values from `values`; returns the
/// whole-transaction and commit-call times (ns) and the commit, or `None`
/// for an abort.
fn timed_txn(
    engine: &dyn Engine<u64>,
    template: &TxTemplate,
    batch: usize,
    values: &mut impl FnMut() -> u64,
) -> Option<(u64, u64, Committed)> {
    let start = Instant::now();
    let mut tx = engine.begin(ProcessId(1));
    let mut drawn = Vec::new();
    execute_template(&mut tx, template, batch, || {
        let value = values();
        drawn.push(value);
        value
    })
    .ok()?;
    let before_commit = Instant::now();
    let info = tx.commit().ok()?;
    let end = Instant::now();
    Some((
        wl::duration_ns(end - start),
        wl::duration_ns(end - before_commit),
        Committed::new(info, template, drawn),
    ))
}

/// Per-transaction medians of a single-client pass, and its commits.
struct Pass {
    txn_p50: f64,
    commit_p50: f64,
    commits: Vec<Committed>,
}

fn pass(engine: &dyn Engine<u64>, templates: &[TxTemplate], batch: usize) -> Pass {
    let mut txn = Vec::new();
    let mut commit = Vec::new();
    let mut commits = Vec::new();
    let mut values = wl::value_stream(0x5000);
    for template in templates {
        if let Some((t, c, committed)) = timed_txn(engine, template, batch, &mut values) {
            txn.push(t);
            commit.push(c);
            commits.push(committed);
        }
    }
    Pass {
        txn_p50: quantile(&mut txn, 0.5),
        commit_p50: quantile(&mut commit, 0.5),
        commits,
    }
}

pub struct WalProbe {
    /// In-process transaction p50 without the log, ns.
    pub txn_p50_plain: f64,
    pub commit_extra_ns: f64,
    pub bytes_per_commit: f64,
    pub recovery_ns_per_commit: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// An engine with the workload's keys preloaded, and the preload's commits.
type Preloaded = (Box<dyn Engine<u64>>, Vec<Committed>);

/// Builds the engine of `spec` and preloads the workload's keys, as a run's
/// set-up does, so a probe's reads find the workload's table.
fn preloaded(spec: &str, wl: &Workload) -> Result<Preloaded, String> {
    let engine = mvtl_registry::build(spec).map_err(|e| format!("build {spec}: {e}"))?;
    let commits = check::preload(&*engine, wl.keys)?;
    Ok((engine, commits))
}

/// The same template stream in process on the workload's preloaded engine
/// without and with `wal=<dir>&fsync=group`, then a rebuild from that log,
/// which must hold the preload and every write the logged pass committed.
pub fn wal(wl: &Workload, seed: u64, dir: &Path) -> Result<WalProbe, String> {
    let templates = templates(wl, seed, 0x5000, PROBE_TXNS);
    let plain = {
        let (engine, _) = preloaded(wl.spec, wl)?;
        pass(&*engine, &templates, wl.batch)
    };
    let _ = std::fs::remove_dir_all(dir);
    let wal_spec = wl.spec_with_wal(dir);
    let (mut commits, logged, pass_bytes) = {
        let (engine, commits) = preloaded(&wal_spec, wl)?;
        let before = dir_bytes(dir);
        let logged = pass(&*engine, &templates, wl.batch);
        (commits, logged, dir_bytes(dir).saturating_sub(before))
    };
    let pass_commits = logged.commits.len().max(1) as f64;
    commits.extend(logged.commits);
    let start = Instant::now();
    let rebuilt = mvtl_registry::build(&wal_spec).map_err(|e| e.to_string())?;
    let recovery = start.elapsed();
    let expected = Expected::from(&commits)?;
    check::read_back(&*rebuilt, wl.keys, &expected)
        .map_err(|e| format!("engine recovered from the WAL: {e}"))?;
    drop(rebuilt);
    let _ = std::fs::remove_dir_all(dir);
    Ok(WalProbe {
        txn_p50_plain: plain.txn_p50,
        commit_extra_ns: logged.commit_p50 - plain.commit_p50,
        bytes_per_commit: pass_bytes as f64 / pass_commits,
        recovery_ns_per_commit: recovery.as_nanos() as f64 / commits.len().max(1) as f64,
    })
}

pub struct ShardProbe {
    pub commit_single_ns: f64,
    pub commit_multi_ns: f64,
}

/// 8-way shard routing, as `sharded?shards=8` uses it.
pub fn router() -> ShardedStore<u64> {
    ShardedStore::with_policy(
        8,
        Arc::new(GlobalClock::new()),
        MvtlConfig::default(),
        IntersectionPick::Min,
        |_| MvtilPolicy::early(mvtl_registry::DEFAULT_DELTA),
    )
}

/// Commit-call time on a preloaded `sharded?shards=8&inner=mvtil-early` for the
/// workload's templates (mostly multi-shard) and for each template cut down
/// to the keys of its first key's shard (single-shard).
pub fn shard(wl: &Workload, seed: u64) -> Result<ShardProbe, String> {
    let router = router();
    let (engine, _) = preloaded("sharded?shards=8&inner=mvtil-early", wl)?;
    let mut single = Vec::new();
    let mut multi = Vec::new();
    let mut values = wl::value_stream(0x6000);
    for template in templates(wl, seed, 0x6000, PROBE_TXNS) {
        let home = router.shard_of(template.ops[0].0);
        let local = TxTemplate {
            ops: template
                .ops
                .iter()
                .copied()
                .filter(|&(k, _)| router.shard_of(k) == home)
                .collect(),
        };
        for t in [template, local] {
            let mut shards: Vec<usize> = t.ops.iter().map(|&(k, _)| router.shard_of(k)).collect();
            shards.sort_unstable();
            shards.dedup();
            if let Some((_, commit, _)) = timed_txn(&*engine, &t, wl.batch, &mut values) {
                if shards.len() > 1 {
                    multi.push(commit);
                } else {
                    single.push(commit);
                }
            }
        }
    }
    Ok(ShardProbe {
        commit_single_ns: quantile(&mut single, 0.5),
        commit_multi_ns: quantile(&mut multi, 0.5),
    })
}

/// Splits a template into maximal same-kind runs of at most `batch`
/// operations: the frames `Connection::run_template` sends.
fn groups(template: &TxTemplate, batch: usize) -> Vec<(bool, Range<usize>)> {
    let ops = &template.ops;
    let batch = batch.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < ops.len() {
        let write = ops[start].1;
        let mut end = start + 1;
        while end < ops.len() && ops[end].1 == write && end - start < batch {
            end += 1;
        }
        out.push((write, start..end));
        start = end;
    }
    out
}

/// Nanoseconds per transaction to encode every request frame and decode
/// every response frame of the workload's transactions.
pub fn codec(wl: &Workload, seed: u64) -> f64 {
    const N: usize = 2_000;
    let mut frames = Vec::with_capacity(N);
    for (i, template) in templates(wl, seed, 0x7000, N).into_iter().enumerate() {
        let txn = i as u32;
        let mut reqs = vec![Request::Begin {
            txn,
            process: ProcessId(1),
            pinned: None,
        }];
        let mut resps = vec![Response::Begun];
        for (write, run) in groups(&template, wl.batch) {
            let ops = &template.ops[run];
            match (write, ops) {
                (true, [(key, _)]) => {
                    reqs.push(Request::Write {
                        txn,
                        key: *key,
                        value: key.0,
                    });
                    resps.push(Response::Written);
                }
                (false, [(key, _)]) => {
                    reqs.push(Request::Read { txn, key: *key });
                    resps.push(Response::Value(Some(key.0)));
                }
                (true, ops) => {
                    reqs.push(Request::WriteMany {
                        txn,
                        entries: ops.iter().map(|&(k, _)| (k, k.0)).collect(),
                    });
                    resps.push(Response::Written);
                }
                (false, ops) => {
                    reqs.push(Request::ReadMany {
                        txn,
                        keys: ops.iter().map(|&(k, _)| k).collect(),
                    });
                    resps.push(Response::Values(
                        ops.iter().map(|&(k, _)| Some(k.0)).collect(),
                    ));
                }
            }
        }
        reqs.push(Request::Commit { txn });
        resps.push(Response::Committed(CommitInfo {
            tx: TxId(u64::from(txn)),
            commit_ts: Some(Timestamp::new(u64::from(txn) + 1, 1)),
            reads: template
                .ops
                .iter()
                .filter(|op| !op.1)
                .map(|&(k, _)| (k, Timestamp::new(1, 0)))
                .collect(),
            writes: template.write_keys(),
        }));
        let encoded: Vec<Vec<u8>> = resps.iter().map(wire::encode_response).collect();
        frames.push((reqs, encoded));
    }
    let start = Instant::now();
    let mut sink = 0usize;
    for (reqs, resps) in &frames {
        for req in reqs {
            sink += std::hint::black_box(wire::encode_request(req)).len();
        }
        for resp in resps {
            if std::hint::black_box(wire::decode_response(resp)).is_ok() {
                sink += 1;
            }
        }
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / N as f64
}

/// The workload's templates over TCP at a low fixed rate on one connection
/// to a server fronting the workload's preloaded engine.
pub fn served(wl: &Workload, seed: u64) -> Result<Vec<Attempt>, String> {
    let (engine, _) = preloaded(wl.spec, wl)?;
    let engine: Arc<dyn Engine<u64>> = Arc::from(engine);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let server = Server::serve(
        listener,
        engine,
        wl.spec.to_string(),
        ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    open::run(server.addr(), wl, seed, 500.0, Duration::from_secs(1))
}
