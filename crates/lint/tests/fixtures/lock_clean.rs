//! Lock-order-pass clean fixture: consistent nesting order, sequential
//! re-acquisition of one lock (the double-checked cache pattern), and
//! condvar waits holding exactly their own mutex.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

pub struct Net {
    pub stats: Mutex<u64>,
    pub bcast: Mutex<u64>,
}

pub fn record(net: &Net) {
    let mut s = net.stats.lock().unwrap_or_else(PoisonError::into_inner);
    *s += 1;
}

pub fn broadcast(net: &Net) {
    let _b = net.bcast.lock().unwrap_or_else(PoisonError::into_inner);
    record(net);
}

pub struct Cache {
    pub slots: Mutex<u64>,
}

pub fn cached(c: &Cache) -> u64 {
    {
        let s = c.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if *s != 0 {
            return *s;
        }
    }
    let mut s = c.slots.lock().unwrap_or_else(PoisonError::into_inner);
    *s = 7;
    *s
}

pub struct Barrier {
    pub state: Mutex<u64>,
    pub cvar: Condvar,
}

pub fn wait(b: &Barrier) {
    let st = b.state.lock().unwrap_or_else(PoisonError::into_inner);
    let _st = b.cvar.wait_while(st, |s| *s != 0).unwrap_or_else(PoisonError::into_inner);
}

pub fn wait_deadline(b: &Barrier) {
    let st = b.state.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = b.cvar.wait_timeout_while(st, Duration::from_millis(5), |s| *s != 0);
}
