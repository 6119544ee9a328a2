//! A counting [`Probe`] for the traced runs: it records the engine's
//! work events as exact counts (no clock), so two traced runs at one
//! seed report identical values.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mvq_obs::Probe;

#[derive(Default)]
pub struct CountingProbe {
    /// Frontier size reported by the last `level_finished`.
    pub last_frontier: AtomicU64,
    pub sharded_buckets: AtomicU64,
    /// Σ pushes staged over all sharded buckets.
    pub staged_total: AtomicU64,
    /// Σ (fullest shard's pushes × shards): the staging a bucket would
    /// need if every shard were as full as its fullest one.
    pub staged_if_max: AtomicU64,
    pub bidi_splits: AtomicU64,
    /// Σ backward cost bound over the bidi splits.
    pub backward_cb_sum: AtomicU64,
}

impl CountingProbe {
    /// Staging imbalance over every sharded bucket, in percent: how much
    /// longer the fullest shards take than an even split would.
    pub fn shard_imbalance_pct(&self) -> f64 {
        let total = self.staged_total.load(Relaxed);
        if total == 0 {
            return 0.0;
        }
        (self.staged_if_max.load(Relaxed) as f64 / total as f64 - 1.0) * 100.0
    }

    /// Mean backward levels per bidi split (0 without splits).
    pub fn backward_levels_mean(&self) -> f64 {
        let splits = self.bidi_splits.load(Relaxed);
        if splits == 0 {
            return 0.0;
        }
        self.backward_cb_sum.load(Relaxed) as f64 / splits as f64
    }
}

impl Probe for CountingProbe {
    fn level_finished(&self, _cost: u32, _nodes: u64, frontier: u64) {
        self.last_frontier.store(frontier, Relaxed);
    }

    fn bucket_sharded(&self, _min_staged: u64, max_staged: u64, total: u64, shards: u64) {
        self.sharded_buckets.fetch_add(1, Relaxed);
        self.staged_total.fetch_add(total, Relaxed);
        self.staged_if_max
            .fetch_add(max_staged.saturating_mul(shards), Relaxed);
    }

    fn bidi_split(&self, _forward_cb: u32, backward_cb: u32, _cb: u32) {
        self.bidi_splits.fetch_add(1, Relaxed);
        self.backward_cb_sum
            .fetch_add(u64::from(backward_cb), Relaxed);
    }
}
