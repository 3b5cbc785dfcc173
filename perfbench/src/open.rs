//! The open-loop generator of the served probe: Poisson arrivals at a fixed
//! absolute rate over one TCP connection, each transaction timed from its
//! due instant.
//!
//! The schedule of due instants is seeded and computed before the run
//! starts, then served in order, one pipelined transaction at a time. An
//! arrival the connection reaches late because the previous transaction was
//! still running has waited in the queue; one it reaches late although the
//! connection was free shows generator lag. The arrivals still queued when
//! the window ends are drained afterwards.

use mvtl_common::ProcessId;
use mvtl_server::{Connection, TxnOutcome};
use parking_lot::{Condvar, Mutex};
use rand::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::trace::now_ns;
use crate::wl::{self, Abort, Attempt, Outcome, Workload};

/// An arrival that has waited this long when the connection reaches it is
/// shed instead of sent, which bounds the drain of an overloaded run.
const SHED_AFTER: Duration = Duration::from_secs(1);

/// Waits until the `now_ns` reading `due`: a timed wait for all but the
/// last stretch, then yields, so the generator neither oversleeps much nor
/// burns a core the server needs.
fn wait_until(due: u64) {
    let timer = Mutex::new(());
    let idle = Condvar::new();
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 200_000 {
            let deadline = Instant::now() + Duration::from_nanos(left - 150_000);
            idle.wait_until(&mut timer.lock(), deadline);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Offers `rate` transactions per second of the workload's templates to the
/// server at `addr` for `window`. Returns when every arrival due in the
/// window has been served or shed.
pub fn run(
    addr: SocketAddr,
    wl: &Workload,
    seed: u64,
    rate: f64,
    window: Duration,
) -> Result<Vec<Attempt>, String> {
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let spec = wl.template_spec();
    let sampler = spec.key_sampler();
    let mut rng = wl::rng(seed, 0x4000);
    let mut values = wl::value_stream(0x4000);
    let start = now_ns();
    let end = start + wl::duration_ns(window);
    let mut dues = Vec::new();
    let mut t = start as f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= end as f64 {
            break;
        }
        dues.push(t as u64);
    }
    let mut attempts = Vec::with_capacity(dues.len());
    let mut free_since = start;
    for (txn, due) in (1u32..).zip(dues) {
        let template = spec.generate_with(&sampler, &mut rng);
        wait_until(due);
        let send = now_ns();
        if send - due > wl::duration_ns(SHED_AFTER) {
            attempts.push(Attempt {
                due,
                send,
                end: send,
                lag: 0,
                outcome: Outcome::Shed,
            });
            continue;
        }
        let lag = send - due.max(free_since);
        let outcome = conn
            .run_template(txn, ProcessId(1), &template, wl.batch, &mut values)
            .map_err(|e| format!("rpc: {e}"))?;
        let done = now_ns();
        free_since = done;
        attempts.push(Attempt {
            due,
            send,
            end: done,
            lag,
            outcome: match outcome {
                TxnOutcome::Committed(_) => Outcome::Committed,
                TxnOutcome::Aborted(reason) => Outcome::Aborted(Abort::of(&reason)),
            },
        });
    }
    Ok(attempts)
}
