//! Small shared helpers: seed derivation, process memory and the tally of
//! checked operations.

/// Derives an independent 64-bit seed from `(seed, tag)` (SplitMix64
/// finalisation), so every input stream of a run follows from `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `op` with parallel iterators capped at `threads` workers (used for
/// the reference checks, which run outside the timed regions).
pub fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("the rayon shim never fails to build a pool")
        .install(op)
}

/// Returns the allocator's free pages to the system (glibc `malloc_trim`),
/// so memory a torn-down server left free in the allocator's arenas does not
/// count in the peak RSS of later rounds. A no-op elsewhere.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free memory back to the system;
        // it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Operations attempted and failed, with a note per failure kind.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Human-readable descriptions of the failures (first few of each).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records `n` checked operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failed operations with a description.
    pub fn fail(&mut self, n: u64, note: impl Into<String>) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note.into());
        }
    }

    /// Records one checked operation that failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(1, note());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_seeds_are_distinct_and_repeatable() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|t| mix(7, t)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
