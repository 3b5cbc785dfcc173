//! The repository benchmark: one command, two named workloads.
//!
//! ```text
//! mvtl-perfbench --workload <hot-update|sharded-scan>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--run-dir <dir>] [--read-spin-ns <ns>]
//! ```
//!
//! With `--trace 0` a run sets the workload up several times (reporting the
//! median set-up time), measures one window with tracing off and prints the
//! end-to-end metrics. With `--trace 1` it measures one untraced and one
//! traced window, each on a fresh engine, runs the layer probes and prints
//! the per-layer metrics. Every window is followed, off the clock, by the
//! correctness gates of `check`; a failed gate exits 1. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` next to this crate for the workloads and the
//! metric definitions.

mod check;
mod open;
mod probe;
mod spin;
mod stat;
mod trace;
mod wl;

use mvtl_common::{Engine, StoreStats};
use parking_lot::{Condvar, Mutex};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use check::Expected;
use spin::SpinEngine;
use stat::{mean, median_f64, quantile, ratio};
use trace::{Kind, TracedEngine};
use wl::{Attempt, Committed, Log, Outcome, Stop, Workload};

/// Set-up times are medians over repeats: at least `MIN_SETUPS`, more while
/// they have taken less than `SETUP_BUDGET`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(8);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    run_dir: PathBuf,
    read_spin_ns: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        run_dir: PathBuf::from(".bench_build/perfbench-run"),
        read_spin_ns: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--run-dir" => args.run_dir = PathBuf::from(&value),
            "--read-spin-ns" => args.read_spin_ns = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The printed metrics, in order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

/// The engine a run drives, with the benchmark's own decorators in front.
struct Engines {
    base: Arc<dyn Engine<u64>>,
    front: Arc<dyn Engine<u64>>,
    traced: Option<Arc<TracedEngine>>,
    spin: Option<Arc<SpinEngine>>,
}

/// A set-up workload, ready for its timed window.
struct Live {
    engines: Engines,
    /// Preload and warm-up commits: the history before the window.
    commits: Vec<Committed>,
    setup_s: f64,
}

fn set_up(wl: &Workload, args: &Args, traced: bool) -> Result<Live, String> {
    let start = Instant::now();
    let base: Arc<dyn Engine<u64>> =
        Arc::from(mvtl_registry::build(wl.spec).map_err(|e| format!("build {}: {e}", wl.spec))?);
    let spin = (args.read_spin_ns > 0)
        .then(|| Arc::new(SpinEngine::new(Arc::clone(&base), args.read_spin_ns)));
    let below_trace: Arc<dyn Engine<u64>> = match &spin {
        Some(s) => Arc::clone(s) as Arc<dyn Engine<u64>>,
        None => Arc::clone(&base),
    };
    let traced = traced.then(|| Arc::new(TracedEngine::new(Arc::clone(&below_trace))));
    let front: Arc<dyn Engine<u64>> = match &traced {
        Some(t) => Arc::clone(t) as Arc<dyn Engine<u64>>,
        None => below_trace,
    };
    let mut commits = check::preload(&*base, wl.keys)?;
    // The read-back is a correctness gate, kept out of the set-up time.
    let gate = Instant::now();
    check::read_back(&*base, wl.keys, &Expected::from(&commits)?)
        .map_err(|e| format!("preload read-back: {e}"))?;
    let gate_time = gate.elapsed();
    let warm = wl::run_closed(&*front, wl, 1, args.seed, 1, Stop::Count(wl.warmup))?;
    commits.extend(warm.commits);
    let setup_s = start.elapsed().saturating_sub(gate_time).as_secs_f64();
    Ok(Live {
        engines: Engines {
            base,
            front,
            traced,
            spin,
        },
        commits,
        setup_s,
    })
}

/// What one timed window measured.
struct Window {
    start: u64,
    len: u64,
    log: Log,
}

impl Window {
    /// The attempts that ended inside the window.
    fn done(&self) -> Vec<&Attempt> {
        let end = self.start + self.len;
        self.log
            .attempts
            .iter()
            .filter(|a| a.end >= self.start && a.end <= end)
            .collect()
    }

    /// Commits that ended inside the window, per second of window: the
    /// transactions still in flight at its end (the drain) are left out.
    fn goodput(&self) -> f64 {
        let n = self
            .done()
            .iter()
            .filter(|a| a.outcome == Outcome::Committed)
            .count();
        n as f64 / (self.len as f64 / 1e9)
    }
}

fn run_window(engines: &Engines, wl: &Workload, args: &Args) -> Result<Window, String> {
    if let Some(spin) = &engines.spin {
        spin.arm();
    }
    let start = trace::now_ns();
    let len = wl::duration_ns(Duration::from_secs(args.seconds));
    // Stream 2 for every window, so untraced and traced windows run the same
    // templates.
    let log = wl::run_closed(
        &*engines.front,
        wl,
        wl.clients,
        args.seed,
        2,
        Stop::At(start + len),
    )?;
    Ok(Window { start, len, log })
}

/// The correctness gates after a window: every key of the live engine holds
/// the value of its last acknowledged write, and the committed history is
/// serializable.
fn gate(live: Live, window: &Window, wl: &Workload) -> Result<(), String> {
    let mut all: Vec<&Committed> = live.commits.iter().collect();
    all.extend(&window.log.commits);
    let expected = Expected::from(all.iter().copied())?;
    let t = Instant::now();
    check::read_back(&*live.engines.base, wl.keys, &expected)
        .map_err(|e| format!("final state: {e}"))?;
    eprintln!("# gate: final-state read-back {:?}", t.elapsed());
    let t = Instant::now();
    check::serializable(all.iter().copied())?;
    eprintln!(
        "# gate: MVSG check of {} commits {:?}",
        all.len(),
        t.elapsed()
    );
    Ok(())
}

fn micros(ns: f64) -> f64 {
    ns / 1e3
}

/// The end-to-end metrics of an untraced window.
fn end_to_end(m: &mut Metrics, w: &Window, setup_s: f64, rss: f64) {
    let mut lat: Vec<u64> = w.done().iter().map(|a| a.latency()).collect();
    let attempts = w.log.attempts.len();
    let committed = w
        .log
        .attempts
        .iter()
        .filter(|a| a.outcome == Outcome::Committed)
        .count();
    println!("# samples: {} attempts ended in the window", lat.len());
    println!(
        "# failed_frac (aborted / attempted) = {}",
        ratio((attempts - committed) as f64, attempts as f64)
    );
    m.put("setup_s", setup_s, "s");
    m.put("goodput_tps", w.goodput(), "1/s");
    m.put("lat_p50_us", micros(quantile(&mut lat, 0.5)), "us");
    m.put(
        "commit_frac",
        ratio(committed as f64, attempts as f64),
        "fraction",
    );
    m.put("peak_rss_mb", rss, "MiB");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = wl::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload '{}' (one of {:?})",
            args.workload,
            wl::WORKLOADS
        );
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: run dir {}: {e}", args.run_dir.display());
        std::process::exit(2);
    }
    trace::now_ns();
    let result = if args.trace {
        traced_run(&wl, &args)
    } else {
        plain_run(&wl, &args)
    };
    match result {
        Ok((metrics, attempted)) => {
            for (name, value, unit) in &metrics.0 {
                println!("{name} {value} {unit}");
            }
            println!("{}", json(true, attempted, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            println!("{}", json(false, 1, &Metrics::default()));
            std::process::exit(1);
        }
    }
}

/// The result line. `failed` is 0 whenever a result is printed as correct:
/// an engine error or a failed gate ends the run instead, and aborts are
/// the engine's verdicts, reported in `commit_frac`.
fn json(correct: bool, attempted: usize, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    let failed = usize::from(!correct);
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn plain_run(wl: &Workload, args: &Args) -> Result<(Metrics, usize), String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut live = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // Only the last set-up is kept for the window. The one before is
        // dropped first, so no two engines are ever resident together.
        drop(live.take());
        let l = set_up(wl, args, false)?;
        setups.push(l.setup_s);
        live = Some(l);
    }
    let live = live.ok_or("no set-up")?;
    // The peak is the window's own: what set-up left resident, plus what
    // the window adds.
    if let Err(e) = stat::reset_peak_rss() {
        println!("# peak_rss_mb: VmHWM not reset ({e}); it includes set-up");
    }
    let window = run_window(&live.engines, wl, args)?;
    let peak = stat::peak_rss_mb();
    // The benchmark's own record of the window grows with its commits; left
    // in, a faster engine would read as one using more memory.
    let history = window.log.heap_bytes() as f64 / f64::from(1 << 20);
    println!("# VmHWM in the window {peak:.1} MiB, of which the recorded history {history:.1} MiB");
    gate(live, &window, wl)?;
    let mut m = Metrics::default();
    println!("# setup_s of each set-up: {setups:?}");
    end_to_end(&mut m, &window, median_f64(&setups), peak - history);
    Ok((m, window.log.attempts.len()))
}

/// `Engine::stats` and the GC lag, sampled once a second during a window.
#[derive(Default)]
struct Samples {
    stats: Vec<StoreStats>,
    lag_ticks: Vec<u64>,
}

fn sample(engines: &Engines, out: &mut Samples) {
    out.stats.push(engines.front.stats());
    let newest = engines.traced.as_ref().map_or(0, |t| t.newest_commit());
    if let Some(low) = engines.front.low_watermark() {
        if newest > 0 {
            out.lag_ticks.push(newest.saturating_sub(low.value));
        }
    }
}

/// Runs a window with the stats sampler beside it.
fn sampled_window(
    engines: &Engines,
    wl: &Workload,
    args: &Args,
) -> Result<(Window, Samples), String> {
    let done = Mutex::new(false);
    let wake = Condvar::new();
    let mut samples = Samples::default();
    sample(engines, &mut samples);
    let (window, during) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut s = Samples::default();
            let mut next = Instant::now() + Duration::from_secs(1);
            let mut finished = done.lock();
            while !*finished {
                if wake.wait_until(&mut finished, next).timed_out() {
                    sample(engines, &mut s);
                    next += Duration::from_secs(1);
                }
            }
            s
        });
        let window = run_window(engines, wl, args);
        *done.lock() = true;
        wake.notify_all();
        (window, sampler.join().unwrap_or_default())
    });
    samples.stats.extend(during.stats);
    samples.lag_ticks.extend(during.lag_ticks);
    sample(engines, &mut samples);
    Ok((window?, samples))
}

fn traced_run(wl: &Workload, args: &Args) -> Result<(Metrics, usize), String> {
    // Untraced reference window, for trace.overhead_frac.
    let live = set_up(wl, args, false)?;
    let plain = run_window(&live.engines, wl, args)?;
    gate(live, &plain, wl)?;

    // The same template stream on a fresh engine, traced.
    let live = set_up(wl, args, true)?;
    trace::set_enabled(true);
    let window = sampled_window(&live.engines, wl, args);
    trace::set_enabled(false);
    let (window, samples) = window?;
    let spans = trace::take_all();
    let spans_file = args.run_dir.join(format!("spans-{}.tsv", wl.name));
    spans
        .write_tsv(&spans_file)
        .map_err(|e| format!("write {}: {e}", spans_file.display()))?;
    println!("# spans written to {}", spans_file.display());
    gate(live, &window, wl)?;

    let probe_dir = args
        .run_dir
        .join(format!("wal-probe-{}-{}", wl.name, std::process::id()));
    let wal = probe::wal(wl, args.seed, &probe_dir)?;
    let shard = probe::shard(wl, args.seed)?;
    let codec_ns = probe::codec(wl, args.seed);
    let served = probe::served(wl, args.seed)?;

    let mut m = Metrics::default();
    // The attempt-latency tail, reported here rather than gated: its
    // run-to-run spread on a shared host is as wide as any bound allowed.
    let mut lat: Vec<u64> = window.done().iter().map(|a| a.latency()).collect();
    m.put("txn.lat_p99_us", micros(quantile(&mut lat, 0.99)), "us");
    engine_layer(&mut m, &window, &spans);
    state_layers(&mut m, &samples, window.log.commits.len());
    let commits: Vec<&Committed> = window.log.commits.iter().collect();
    m.put("shard.multi_frac", multi_shard_frac(&commits), "fraction");
    m.put("shard.commit_ns.single", shard.commit_single_ns, "ns");
    m.put("shard.commit_ns.multi", shard.commit_multi_ns, "ns");
    m.put("wal.commit_extra_ns", wal.commit_extra_ns, "ns");
    m.put("wal.bytes_per_commit", wal.bytes_per_commit, "B");
    m.put(
        "wal.recovery_ns_per_commit",
        wal.recovery_ns_per_commit,
        "ns",
    );
    let sent: Vec<&Attempt> = served
        .iter()
        .filter(|a| a.outcome != Outcome::Shed)
        .collect();
    let mut rtt: Vec<u64> = sent.iter().map(|a| a.end - a.send).collect();
    let mut queue: Vec<u64> = sent.iter().map(|a| a.send - a.due).collect();
    let mut lag: Vec<u64> = sent.iter().map(|a| a.lag).collect();
    let rtt_p50 = quantile(&mut rtt, 0.5);
    m.put("server.rtt_us.p50", micros(rtt_p50), "us");
    m.put("server.rtt_us.p99", micros(quantile(&mut rtt, 0.99)), "us");
    m.put(
        "server.queue_us.p50",
        micros(quantile(&mut queue, 0.5)),
        "us",
    );
    m.put(
        "server.queue_us.p99",
        micros(quantile(&mut queue, 0.99)),
        "us",
    );
    m.put(
        "server.overhead_us",
        micros(rtt_p50 - wal.txn_p50_plain),
        "us",
    );
    m.put("wire.codec_ns_per_txn", codec_ns, "ns");
    m.put("driver.lag_us.p50", micros(quantile(&mut lag, 0.5)), "us");
    m.put("driver.lag_us.max", micros(quantile(&mut lag, 1.0)), "us");
    m.put(
        "trace.overhead_frac",
        ratio(window.goodput(), plain.goodput()),
        "ratio",
    );
    m.put("trace.spans", spans.spans.len() as f64, "count");
    // Where the time goes: each kind's summed self time over the summed
    // duration of the transactions.
    let self_times = spans.self_times();
    let mut own = vec![0u64; Kind::ALL.len()];
    let mut total = 0u64;
    for (span, t) in spans.spans.iter().zip(&self_times) {
        own[span.kind as usize] += t;
        if span.kind == Kind::Txn {
            total += span.duration();
        }
    }
    for kind in Kind::ALL {
        m.put(
            format!("self.{}_frac", kind.name()),
            ratio(own[kind as usize] as f64, total as f64),
            "fraction",
        );
    }
    Ok((m, window.log.attempts.len()))
}

/// Share of committed transactions whose keys route to more than one of 8
/// shards under `ShardedStore::shard_of`.
fn multi_shard_frac(commits: &[&Committed]) -> f64 {
    let router = probe::router();
    let multi = commits
        .iter()
        .filter(|c| {
            let mut keys = c
                .info
                .reads
                .iter()
                .map(|r| r.0)
                .chain(c.info.writes.iter().copied());
            let Some(first) = keys.next() else {
                return false;
            };
            let home = router.shard_of(first);
            keys.any(|k| router.shard_of(k) != home)
        })
        .count();
    ratio(multi as f64, commits.len() as f64)
}

/// `engine.*`: call times from the spans, outcomes from the attempts.
fn engine_layer(m: &mut Metrics, window: &Window, spans: &trace::Trace) {
    let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Kind::ALL.len()];
    for span in &spans.spans {
        durations[span.kind as usize].push(span.duration());
    }
    for kind in [Kind::Begin, Kind::Read, Kind::Write, Kind::Commit] {
        let d = &mut durations[kind as usize];
        m.put(
            format!("engine.{}_ns.p50", kind.name()),
            quantile(d, 0.5),
            "ns",
        );
        m.put(
            format!("engine.{}_ns.p99", kind.name()),
            quantile(d, 0.99),
            "ns",
        );
    }
    let calls: Vec<u64> = Kind::ALL
        .iter()
        .filter(|&&k| k != Kind::Txn)
        .flat_map(|&k| durations[k as usize].iter().copied())
        .collect();
    let waited = calls.iter().filter(|&&d| d >= 1_000_000).count();
    m.put(
        "engine.op_wait_frac",
        ratio(waited as f64, calls.len() as f64),
        "fraction",
    );
    let attempts = &window.log.attempts;
    let n = attempts.len() as f64;
    let committed = attempts
        .iter()
        .filter(|a| a.outcome == Outcome::Committed)
        .count();
    m.put("engine.commit_rate", ratio(committed as f64, n), "fraction");
    for abort in wl::Abort::ALL {
        let k = attempts
            .iter()
            .filter(|a| a.outcome == Outcome::Aborted(abort))
            .count();
        m.put(
            format!("engine.abort.{}", abort.name()),
            ratio(k as f64, n),
            "fraction",
        );
    }
    // Mean attempt latency in the last fifth of the window over the first.
    let fifth = |lo: u64, hi: u64| -> Vec<u64> {
        attempts
            .iter()
            .filter(|a| a.due >= lo && a.due < hi)
            .map(|a| a.latency())
            .collect()
    };
    let (start, len) = (window.start, window.len);
    let first = fifth(start, start + len / 5);
    let last = fifth(start + len / 5 * 4, start + len);
    m.put(
        "engine.cost_growth",
        ratio(mean(&last), mean(&first)),
        "ratio",
    );
}

/// `locks.*`, `storage.*` and `gc.*` from the once-a-second samples.
fn state_layers(m: &mut Metrics, samples: &Samples, commits: usize) {
    let none = StoreStats::default();
    let first = samples.stats.first().unwrap_or(&none);
    let mid = samples.stats.get(samples.stats.len() / 2).unwrap_or(&none);
    let last = samples.stats.last().unwrap_or(&none);
    let commits = commits as f64;
    m.put(
        "locks.entries_per_key",
        ratio(last.lock_entries as f64, last.keys as f64),
        "count",
    );
    m.put(
        "locks.frozen_frac",
        ratio(last.frozen_lock_entries as f64, last.lock_entries as f64),
        "fraction",
    );
    m.put(
        "storage.versions_per_key",
        ratio(last.versions as f64, last.keys as f64),
        "count",
    );
    m.put(
        "storage.resident_per_commit",
        ratio(last.resident() as f64 - first.resident() as f64, commits),
        "count",
    );
    m.put(
        "gc.purged_per_commit",
        ratio(
            last.purged_versions as f64 - first.purged_versions as f64,
            commits,
        ),
        "count",
    );
    m.put("gc.lag_ticks", mean(&samples.lag_ticks), "ticks");
    m.put(
        "gc.resident_growth",
        ratio(last.resident() as f64, mid.resident() as f64),
        "ratio",
    );
}
