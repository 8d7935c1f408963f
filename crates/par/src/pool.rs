//! Order-preserving parallel maps on scoped OS threads.
//!
//! Work is partitioned into one contiguous chunk per worker, so each
//! output element is computed by exactly the same code as in a serial
//! loop and results are concatenated back in input order: output is
//! bit-identical at every worker count.

use std::num::NonZeroUsize;
use std::thread;

/// Number of workers a `par_*` call will use: the machine's available
/// parallelism, `1` when it cannot be read.
pub fn num_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Falls back to a serial loop when the machine has a single core or
/// the input has fewer than two elements.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_init(items, || (), |_, t| f(t))
}

/// Like [`par_map`], but each worker thread first builds private state
/// with `init` (e.g. a scratch buffer) that is reused across all items
/// of its chunk.
///
/// `f` must not let results depend on how items share state: the same
/// state value is reused within a chunk, and chunk boundaries move with
/// the core count.
///
/// # Panics
///
/// Propagates a panic from any invocation of `init` or `f`.
pub fn par_map_init<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|t| f(&mut state, t)).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let init = &init;
    let f = &f;
    let chunks: Vec<Vec<R>> = thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut state = init();
                    chunk.iter().map(|t| f(&mut state, t)).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("p2auth-par worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

/// Maps `f` over the index range `0..n` in parallel, returning results
/// in index order.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let ys = par_map(&xs, |&x| x * 2);
        assert_eq!(ys, xs.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn init_state_is_reused_within_a_chunk() {
        // The per-worker state is an accumulator; every output must see
        // state initialized by `init` (not garbage), and the map must
        // still preserve order.
        let xs: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let ys = par_map_init(
            &xs,
            || vec![0.0_f64; 4],
            |scratch, &x| {
                scratch[0] = x;
                scratch[0] * 3.0
            },
        );
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, i as f64 * 3.0);
        }
    }

    #[test]
    fn indexed_matches_direct() {
        assert_eq!(par_map_indexed(5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn matches_serial_bitwise() {
        // Nontrivial float work: identical results regardless of
        // parallelism, because workers never re-associate reductions.
        let xs: Vec<f64> = (0..313).map(|i| (i as f64 * 0.37).sin()).collect();
        let work = |&x: &f64| {
            let mut acc = x;
            for k in 1..50 {
                acc = acc * 0.99 + (x / k as f64);
            }
            acc
        };
        let serial: Vec<f64> = xs.iter().map(work).collect();
        let parallel = par_map(&xs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
