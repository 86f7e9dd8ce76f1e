//! Open-loop arrival schedules and generator lag accounting.
//!
//! In an open loop each item is due at a fixed time whether or not the
//! system kept up, so a stall delays every item due during it. Latency is
//! therefore measured from the **due** time, never from when the generator
//! managed to send; how late the generator itself ran is reported apart as
//! its lag.

use std::time::{Duration, Instant};

/// A fixed-rate schedule: item `k` is due `offset_ns + k · period_ns` after
/// the phase epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Time between consecutive items.
    pub period_ns: u64,
    /// Due time of item 0.
    pub offset_ns: u64,
}

impl OpenLoop {
    /// Due time of item `k`, ns after the epoch.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.offset_ns + k * self.period_ns
    }
}

/// Send order of several schedules: `(due_ns, schedule index, item)` for
/// `counts[i]` items of schedule `i`, earliest first.
pub fn merged(schedules: &[OpenLoop], counts: &[u64]) -> Vec<(u64, usize, u64)> {
    let mut order: Vec<(u64, usize, u64)> = schedules
        .iter()
        .zip(counts)
        .enumerate()
        .flat_map(|(i, (s, &n))| (0..n).map(move |k| (s.due_ns(k), i, k)))
        .collect();
    order.sort_unstable();
    order
}

/// Latency of a result from its item's due time.
pub fn latency_from_due_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// Nanoseconds from `epoch` to now.
pub fn since_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Sleeps until `due_ns` after `epoch` (returns at once if already due).
pub fn wait_until(epoch: Instant, due_ns: u64) {
    let now = since_ns(epoch);
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// How late a generator sent its items.
#[derive(Debug, Clone, Default)]
pub struct LagAccount {
    lags_ns: Vec<u64>,
}

impl LagAccount {
    /// Records one item due at `due_ns` and sent at `sent_ns`.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        self.lags_ns.push(sent_ns.saturating_sub(due_ns));
    }

    /// Folds another generator's account into this one.
    pub fn merge(&mut self, other: LagAccount) {
        self.lags_ns.extend(other.lags_ns);
    }

    /// Items sent later than `slack_ns` after they were due.
    pub fn late(&self, slack_ns: u64) -> usize {
        self.lags_ns.iter().filter(|&&lag| lag > slack_ns).count()
    }

    /// Lags in microseconds.
    pub fn lags_us(&self) -> Vec<f64> {
        self.lags_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// A generator that needs `cost` ns per send and stalls until `stall` ns
    /// past the due time of item `stall_at`: each send starts at its due
    /// time or when the previous send finished, whichever is later.
    fn simulate(schedule: OpenLoop, n: u64, cost: u64, stall_at: u64, stall: u64) -> Vec<u64> {
        let mut free = 0;
        (0..n)
            .map(|k| {
                if k == stall_at {
                    free = free.max(schedule.due_ns(k)) + stall;
                }
                let sent = schedule.due_ns(k).max(free);
                free = sent + cost;
                sent
            })
            .collect()
    }

    #[test]
    fn due_times_follow_the_rate() {
        let s = OpenLoop {
            period_ns: 320_000,
            offset_ns: 80_000,
        };
        assert_eq!(s.due_ns(0), 80_000);
        assert_eq!(s.due_ns(10), 3_280_000);
    }

    #[test]
    fn merged_order_interleaves_staggered_streams() {
        let a = OpenLoop {
            period_ns: 100,
            offset_ns: 0,
        };
        let b = OpenLoop {
            period_ns: 100,
            offset_ns: 50,
        };
        let order = merged(&[a, b], &[2, 2]);
        assert_eq!(order, vec![(0, 0, 0), (50, 1, 0), (100, 0, 1), (150, 1, 1)]);
    }

    #[test]
    fn a_stall_makes_later_items_late_and_latency_counts_it() {
        // 100 items every 100 ns, 10 ns per send, a 1 µs stall before item 50.
        let schedule = OpenLoop {
            period_ns: 100,
            offset_ns: 0,
        };
        let sent = simulate(schedule, 100, 10, 50, 1_000);
        let mut account = LagAccount::default();
        for (k, &t) in sent.iter().enumerate() {
            account.record(schedule.due_ns(k as u64), t);
        }
        assert_eq!(account.lags_us().len(), 100);
        // The stalled generator catches up at 90 ns per item: items 50..61
        // leave late (1000, 910, …, 10 ns), everything else on time.
        assert_eq!(account.late(0), 12);
        let lags = account.lags_us();
        assert_eq!(lags[50], 1.0);
        assert_eq!(lags[61], 0.01);
        assert_eq!(lags[62], 0.0);
        assert_eq!(stats::percentile(&stats::sorted(&lags), 99.0), 0.91);
        // A system answering 5 ns after each send: measured from the send
        // the stall is invisible, measured from the due time it is not.
        let done: Vec<u64> = sent.iter().map(|&t| t + 5).collect();
        let from_sent: Vec<u64> = done.iter().zip(&sent).map(|(&d, &t)| d - t).collect();
        let from_due: Vec<u64> = done
            .iter()
            .enumerate()
            .map(|(k, &d)| latency_from_due_ns(schedule.due_ns(k as u64), d))
            .collect();
        assert!(from_sent.iter().all(|&l| l == 5));
        assert_eq!(from_due[50], 1_005);
        assert_eq!(from_due.iter().filter(|&&l| l > 5).count(), 12);
    }

    #[test]
    fn accounts_merge() {
        let mut a = LagAccount::default();
        a.record(0, 10);
        let mut b = LagAccount::default();
        b.record(5, 0);
        a.merge(b);
        assert_eq!(a.lags_us(), vec![0.01, 0.0]);
    }
}
