//! Deterministic fork–join parallelism on `std::thread` (rayon is not
//! available in this build environment).
//!
//! [`parallel_map`] distributes items over a worker pool via an atomic
//! work-stealing cursor, but every result is written back into the slot of
//! its *input index* — so the output order is canonical and independent of
//! scheduling, and a `--jobs 1` run is bit-identical to a `--jobs N` run as
//! long as the mapped function is pure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
const JOBS_ENV: &str = "PRISM_JOBS";

/// Resolves the worker count: explicit override > `PRISM_JOBS` env var >
/// available hardware parallelism.
///
/// # Panics
///
/// Panics when `PRISM_JOBS` is read and is not a number — like the other
/// env knobs, a typo must not silently run at the default parallelism.
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| std::env::var(JOBS_ENV).ok().map(|v| parse_jobs(&v)))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        .max(1)
}

fn parse_jobs(v: &str) -> usize {
    v.trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad {JOBS_ENV} value `{v}`: {e}"))
}

/// Extracts a `--jobs N` (or `--jobs=N`) override from a command line.
#[must_use]
pub fn jobs_from_args<S: AsRef<str>>(args: &[S]) -> Option<usize> {
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        if arg == "--jobs" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Whether a boolean flag (e.g. `--stats`) appears in a command line.
#[must_use]
pub fn flag_from_args<S: AsRef<str>>(args: &[S], flag: &str) -> bool {
    args.iter().any(|a| a.as_ref() == flag)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in input order. `f` receives `(index, item)`.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                // A slot holds plain data; recover rather than cascade a
                // panic from another worker that died holding a lock.
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_regardless_of_jobs() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(&items, 1, |_, &x| x * x);
        for jobs in [2, 3, 8] {
            assert_eq!(parallel_map(&items, jobs, |_, &x| x * x), seq);
        }
    }

    #[test]
    fn passes_the_input_index() {
        let items = vec!["a", "b", "c"];
        let out = parallel_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn boolean_flag_detection() {
        assert!(flag_from_args(&["explore", "--stats"], "--stats"));
        assert!(!flag_from_args(&["explore", "--statsy"], "--stats"));
        assert!(!flag_from_args::<&str>(&[], "--stats"));
    }

    #[test]
    fn jobs_flag_parsing() {
        assert_eq!(jobs_from_args(&["--jobs", "4"]), Some(4));
        assert_eq!(jobs_from_args(&["x", "--jobs=2", "y"]), Some(2));
        assert_eq!(jobs_from_args(&["--jobs"]), None);
        assert_eq!(jobs_from_args(&["--jobs", "zero?"]), None);
        assert_eq!(jobs_from_args(&["-j", "4"]), None);
    }

    #[test]
    #[should_panic(expected = "bad PRISM_JOBS value `four`")]
    fn typoed_jobs_value_panics() {
        assert_eq!(parse_jobs(" 3 "), 3);
        let _ = parse_jobs("four");
    }
}
