//! Deterministic fork/join parallelism for experiment sweeps.
//!
//! Every sweep in this crate is a map over independent config points: each
//! point builds its own switch, drives its own workload, and returns one row.
//! [`par_map`] runs those points on scoped threads (`std::thread::scope`, so
//! borrows of the surrounding config work without `'static` bounds) while
//! keeping the *output order* identical to the input order — results land in
//! their input slot, not in completion order. Combined with the simulator's
//! seeded RNG this makes parallel sweeps bit-identical to sequential runs,
//! which `tests/` verifies by comparing encoded JSON rows.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on scoped worker threads, preserving input order.
///
/// Spawns at most `available_parallelism` workers; items are handed out via
/// an atomic cursor so the work balances regardless of per-item cost. Panics
/// in `f` propagate to the caller (the scope re-raises them on join).
pub fn par_map<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if n <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item taken once");
                let row = f(item);
                *out[i].lock().unwrap() = Some(row);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("slot filled"))
        .collect()
}

/// [`par_map`], or with `parallel` off a plain sequential map.
///
/// Sweeps route through this so their determinism tests can run the exact
/// same point closure both ways and compare encoded rows.
pub fn map_points<T, O, F>(parallel: bool, items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    if parallel {
        par_map(items, f)
    } else {
        items.into_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let rows = par_map(items, |x| x * 3);
        assert_eq!(rows, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential() {
        let items: Vec<u64> = (0..37).collect();
        let par = par_map(items.clone(), |x| x.wrapping_mul(0x9E37_79B9).to_string());
        let seq = map_points(false, items, |x| x.wrapping_mul(0x9E37_79B9).to_string());
        assert_eq!(par, seq);
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(par_map(Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(par_map(vec![5u8], |x| x + 1), vec![6]);
    }
}
