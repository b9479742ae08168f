//! Deterministic parallel fleet runner.
//!
//! Fans independent per-app / per-config analyses across cores with
//! `std::thread::scope` — no extra dependencies — while keeping output
//! deterministic: results come back in **input order** no matter how
//! many workers ran or how work interleaved. Callers compute in
//! parallel, then print sequentially from the returned `Vec`, so the
//! bytes written are identical at 1 thread and at N.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on `threads` workers, returning results
/// in input order.
///
/// Work is distributed by an atomic cursor, so long items do not stall
/// the queue behind them. `f` must be `Sync` because all workers share
/// it; items are borrowed, letting workers read shared inputs without
/// cloning.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
///
/// # Examples
///
/// ```
/// let squares = cafa_engine::fleet::map(&[1, 2, 3, 4], 2, |&n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<I, R, F>(items: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("fleet worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

/// Deterministic key→shard assignment for long-lived sharded pools
/// (the fleet discipline applied to keyed streams): FNV-1a over the
/// key's bytes, reduced modulo `shards`. The same key always lands on
/// the same shard for a given shard count, on any machine — so a
/// multi-tenant server that routes a session id through `shard_of`
/// processes that session's bytes on one worker, in arrival order,
/// and its output is independent of how many shards exist.
///
/// # Examples
///
/// ```
/// let s = cafa_engine::fleet::shard_of("device-42", 8);
/// assert_eq!(s, cafa_engine::fleet::shard_of("device-42", 8));
/// assert!(s < 8);
/// ```
pub fn shard_of(key: &str, shards: usize) -> usize {
    (fnv1a(key.as_bytes()) % shards.max(1) as u64) as usize
}

/// FNV-1a 64-bit over `bytes` — the same pinned constants the schedule
/// explorer uses for trace fingerprints.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolves a requested thread count: `0` means "auto" — the
/// `CAFA_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
///
/// This is **the** worker-count precedence order for every pool — the
/// candidate pass, the island-partition fan-out, the per-app pools of
/// `cafa gen --format counts` and `cafa validate`, the fleet server's
/// shards, and the bench harnesses:
///
/// 1. an explicit request (`--threads N` with N > 0, or a config's
///    `threads` field);
/// 2. `CAFA_THREADS` (positive integer);
/// 3. the machine's available parallelism.
///
/// Reports are byte-identical at any resolved count; the setting
/// trades wall time only.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("CAFA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 64] {
            let out = map(&items, threads, |&n| n * 3);
            assert_eq!(out, items.iter().map(|n| n * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let idx: Vec<usize> = (0..50).collect();
        map(&idx, 8, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        for c in &counters {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(map(&none, 4, |&b| b).is_empty());
        assert_eq!(map(&[9], 4, |&b: &u8| b + 1), vec![10]);
    }

    #[test]
    fn oversubscription_is_clamped() {
        // More threads than items must not deadlock or drop results.
        let out = map(&[1, 2], 32, |&n: &i32| n - 1);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn resolved_threads_are_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        // Pinned FNV-1a values: a change here would silently re-home
        // every journaled session of a live fleet server.
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(shard_of("device-0", 1), 0);
        for shards in [1, 2, 7, 8, 64] {
            for key in ["", "a", "device-42", "anon-17", "gen:7:3"] {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "stable for {key}/{shards}");
            }
        }
    }
}
