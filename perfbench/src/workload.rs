//! The three workloads and their fixed parameters. Rates and pool sizes
//! are part of the benchmark's definition: later measurements compare
//! against them, so they are constants, not options.

use crate::inputs::Judged;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over a Zipf-skewed pool of selective patterns larger
    /// than the plan cache: per-query fixed costs dominate.
    Point,
    /// Closed loop on one connection over patterns with large results:
    /// join output writing and result delivery dominate.
    Bulk,
    /// Open-loop queries from a small recurring pool on one connection,
    /// update batches at a fixed rate on a second.
    Churn,
}

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Fixed-interval schedule shared by `connections` blocking clients;
    /// latency runs from each request's due time.
    Open { rate_qps: f64, connections: usize },
    /// One client issuing back to back.
    Closed,
}

/// Which candidate patterns enter a workload's pool.
#[derive(Debug, Clone, Copy)]
pub enum Selection {
    /// `pool` patterns of `vertices` vertices whose reference run keeps
    /// every intermediate table at or below `max_intermediate` rows, with
    /// result rows in the decades `row_decades` (decade `k` holds
    /// `10^k..10^(k+1)` rows), an equal share in each decade: answer size
    /// decides how many frames a response takes, so every seed's pool gets
    /// the same mix.
    Selective {
        pool: usize,
        vertices: (usize, usize),
        max_intermediate: u64,
        row_decades: (u32, u32),
    },
    /// `slots × per_slot` patterns of `vertices` vertices (one row width,
    /// so delivery costs the same per row) with `lo..=hi` result rows,
    /// stratified into `slots` log-spaced row bands so every seed's pool
    /// has the same size profile, and whose join does at most
    /// `max_join_work_per_row` device work units per result row (output
    /// writing, not search, dominates). `guard` caps intermediate rows
    /// and `timeout` bounds the reference run of a rejected candidate.
    Large {
        vertices: usize,
        lo: u64,
        hi: u64,
        slots: usize,
        per_slot: usize,
        max_join_work_per_row: f64,
        guard: usize,
        timeout: Duration,
    },
}

impl Selection {
    /// Pattern sizes (vertices) the selection draws.
    pub fn vertices(&self) -> std::ops::RangeInclusive<usize> {
        match *self {
            Selection::Selective {
                vertices: (lo, hi), ..
            } => lo..=hi,
            Selection::Large { vertices, .. } => vertices..=vertices,
        }
    }

    /// Slot count and patterns per slot.
    pub fn slots(&self) -> (usize, usize) {
        match *self {
            Selection::Selective {
                pool,
                row_decades: (lo, hi),
                ..
            } => {
                let bands = (hi - lo) as usize;
                (bands, pool / bands)
            }
            Selection::Large {
                slots, per_slot, ..
            } => (slots, per_slot),
        }
    }

    /// The pool slot a judged candidate belongs to, if it qualifies.
    pub fn slot(&self, j: &Judged) -> Option<usize> {
        match *self {
            Selection::Selective {
                max_intermediate,
                row_decades: (lo, hi),
                ..
            } => {
                let decade = j.rows.max(1).ilog10();
                (j.max_intermediate <= max_intermediate && (lo..hi).contains(&decade))
                    .then(|| (decade - lo) as usize)
            }
            Selection::Large {
                lo,
                hi,
                slots,
                max_join_work_per_row,
                ..
            } => {
                if j.rows < lo || j.rows > hi || j.join_work_per_row > max_join_work_per_row {
                    return None;
                }
                let band = (j.rows as f64 / lo as f64).ln() / (hi as f64 / lo as f64).ln();
                Some(((band * slots as f64) as usize).min(slots - 1))
            }
        }
    }
}

pub struct Params {
    pub selection: Selection,
    pub arrival: Arrival,
    /// Client-observed latency limit for `within_limit_pct`.
    pub limit: Duration,
    /// Update batches per second during the window (`churn` only).
    pub update_hz: f64,
    /// Update batches applied at [`PRE_UPDATE_HZ`] right after set-up,
    /// before the pool is checked and measured (`point` and `bulk`): the
    /// same fresh server state on every run, and every gated metric on
    /// every workload.
    pub pre_updates: usize,
}

/// Rate of the pre-window update batches. Sent back to back, their median
/// acknowledgement latency spread 30% across ten seeds on a 2-vCPU host;
/// at this rate, with the server idle between batches, 11-16% (60
/// batches) on the same host when other load on it was light.
pub const PRE_UPDATE_HZ: f64 = 10.0;

/// Skew of `point`'s request distribution over its pool. At 0.7 the
/// hottest ~170 patterns draw half the requests, so the median latency
/// does not hinge on the few patterns a seed happens to make hot, while
/// the least popular still miss the plan cache.
pub const ZIPF_S: f64 = 0.7;

/// Edge operations per update batch.
pub const UPDATE_OPS: usize = 8;

/// The service's default plan-cache capacity; the `point` pool exceeds
/// it so that evictions happen in steady state.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Point, Workload::Bulk, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Bulk => "bulk",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Separates the generator streams of the workloads for one seed.
    pub fn seed_salt(self) -> u64 {
        match self {
            Workload::Point => 0x5EED_0001,
            Workload::Bulk => 0x5EED_0002,
            Workload::Churn => 0x5EED_0003,
        }
    }

    pub fn params(self) -> Params {
        match self {
            // The offered rate is half of what two back-to-back
            // connections sustain on a 2-core host (about 40 q/s).
            Workload::Point => Params {
                selection: Selection::Selective {
                    pool: PLAN_CACHE_CAPACITY + 96,
                    vertices: (3, 6),
                    max_intermediate: 10_000,
                    row_decades: (0, 4),
                },
                arrival: Arrival::Open {
                    rate_qps: 20.0,
                    connections: 2,
                },
                limit: Duration::from_millis(100),
                update_hz: 0.0,
                pre_updates: 40,
            },
            // Rows within a factor of two, so the median request is of the
            // same size on every seed. Over 1e5-1.1e6 rows the median
            // latency spread 22% across seeds (its server time 37%); here
            // about 10%.
            Workload::Bulk => Params {
                selection: Selection::Large {
                    vertices: 4,
                    lo: 200_000,
                    hi: 400_000,
                    slots: 3,
                    per_slot: 5,
                    max_join_work_per_row: 12.0,
                    guard: 2_000_000,
                    timeout: Duration::from_millis(300),
                },
                arrival: Arrival::Closed,
                limit: Duration::from_millis(1000),
                update_hz: 0.0,
                pre_updates: 40,
            },
            // Half of one back-to-back connection's rate. The pool fits in
            // the plan cache and is of one kind (4 vertices, 10-99 rows),
            // so read latency moves with the write path and the server's
            // delayed-acknowledgement stalls, not with the seed's mix.
            Workload::Churn => Params {
                selection: Selection::Selective {
                    pool: 128,
                    vertices: (4, 4),
                    max_intermediate: 10_000,
                    row_decades: (1, 2),
                },
                arrival: Arrival::Open {
                    rate_qps: 10.0,
                    connections: 1,
                },
                limit: Duration::from_millis(100),
                update_hz: 4.0,
                pre_updates: 0,
            },
        }
    }
}
