//! Lock-order-pass positive fixture: a direct two-lock cycle, a cycle
//! closed through a callee, a cycle through element locks reached by
//! `get(i)?`, and plain and timed condvar waits holding two locks.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

pub struct Net {
    pub stats: Mutex<u64>,
    pub bcast: Mutex<u64>,
}

pub fn ab(net: &Net) {
    let _s = net.stats.lock().unwrap_or_else(PoisonError::into_inner);
    let _b = net.bcast.lock().unwrap_or_else(PoisonError::into_inner);
}

pub fn ba(net: &Net) {
    let _b = net.bcast.lock().unwrap_or_else(PoisonError::into_inner);
    let _s = net.stats.lock().unwrap_or_else(PoisonError::into_inner);
}

pub struct Shared {
    pub queue: Mutex<u64>,
    pub table: Mutex<u64>,
    pub cvar: Condvar,
}

pub fn outer(sh: &Shared) {
    let _q = sh.queue.lock().unwrap_or_else(PoisonError::into_inner);
    helper(sh);
}

fn helper(sh: &Shared) {
    let _t = sh.table.lock().unwrap_or_else(PoisonError::into_inner);
    inner(sh);
}

fn inner(sh: &Shared) {
    let _q = sh.queue.lock().unwrap_or_else(PoisonError::into_inner);
}

pub fn park(sh: &Shared) {
    let q = sh.queue.lock().unwrap_or_else(PoisonError::into_inner);
    let _t = sh.table.lock().unwrap_or_else(PoisonError::into_inner);
    let _q = sh.cvar.wait(q).unwrap_or_else(PoisonError::into_inner);
}

pub fn park_timed(sh: &Shared) {
    let q = sh.queue.lock().unwrap_or_else(PoisonError::into_inner);
    let _t = sh.table.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = sh.cvar.wait_timeout(q, Duration::from_millis(10));
}

pub struct Pool {
    pub queues: Vec<Mutex<u64>>,
    pub running: Mutex<u64>,
}

pub fn steal(p: &Pool, victim: usize) -> Option<()> {
    let _q = p.queues.get(victim)?.lock().unwrap_or_else(PoisonError::into_inner);
    let _r = p.running.lock().unwrap_or_else(PoisonError::into_inner);
    Some(())
}

pub fn confiscate(p: &Pool, w: usize) -> Option<()> {
    let _r = p.running.lock().unwrap_or_else(PoisonError::into_inner);
    let _q = p.queues.get(w)?.lock().unwrap_or_else(PoisonError::into_inner);
    Some(())
}
