//! Seeded input generation.
//!
//! Everything the server receives is generated here, up front, from the
//! `--seed`: the pattern pool of the workload (selected by untimed
//! in-process reference runs), the request order, the arrival schedule
//! and the update batches. The data graph is the enron stand-in at the
//! harness default scale; its own generator seed is fixed by the dataset
//! spec, so every seed queries the same graph.

use crate::workload::{Selection, Workload, UPDATE_OPS, ZIPF_S};
use gsi::datasets::{build, DatasetKind, DatasetSpec};
use gsi::engine::PreparedData;
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use gsi::service::canonicalize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Catalog name the benchmark registers the data graph under.
pub const GRAPH: &str = "enron";

/// An order-independent digest of a match set: two independent 64-bit
/// sums of per-row hashes plus the row count. Equal digests mean equal
/// canonical (sorted) row sets up to a 2^-128 collision chance, without
/// sorting or keeping million-row tables around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowDigest {
    pub rows: u64,
    a: u64,
    b: u64,
}

impl RowDigest {
    pub fn add(&mut self, row: &[u32]) {
        let (mut x, mut y) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
        for &v in row {
            x = mix(x ^ u64::from(v));
            y = mix(y.wrapping_add(u64::from(v)).rotate_left(17));
        }
        self.rows += 1;
        self.a = self.a.wrapping_add(mix(x ^ row.len() as u64));
        self.b = self.b.wrapping_add(mix(y));
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<u32>>) -> Self {
        let mut d = RowDigest::default();
        rows.into_iter().for_each(|r| d.add(r));
        d
    }

    pub fn of_matches(m: &Matches) -> Self {
        let mut d = RowDigest::default();
        for i in 0..m.len() {
            d.add(&m.assignment(i));
        }
        d
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pool pattern and its in-process reference result.
pub struct Pattern {
    /// The selection slot (row band) the pattern fills.
    pub slot: usize,
    pub query: Graph,
    pub digest: RowDigest,
    /// Largest intermediate table of the reference run (rows).
    pub max_intermediate: u64,
    /// Wall time of the reference run.
    pub reference: Duration,
}

/// A workload's complete, seed-determined input set.
pub struct Inputs {
    /// The graph registered at set-up.
    pub registered: Graph,
    /// The graph the pool is queried against: `registered` after the
    /// workload's pre-window updates.
    pub data: Graph,
    /// The set-up's first query: one selective pattern drawn from a
    /// stream that depends on the seed only, so every workload's set-up
    /// does the same work.
    pub probe: Pattern,
    pub pool: Vec<Pattern>,
    /// Pool index of every request, in issue order.
    pub requests: Vec<usize>,
    /// Update batches against `registered`, in application order: `point`
    /// and `bulk` send them at a fixed rate after set-up, `churn` during its
    /// window, and the traced replay applies a prefix in process.
    pub batches: Vec<UpdateBatch>,
    /// Candidate patterns the selection rejected.
    pub rejected: usize,
    /// Wall time spent generating and selecting (not part of set-up).
    pub generation: Duration,
}

/// The reference engine: the serving stack's default engine configuration
/// on the default device.
pub fn reference_engine() -> GsiEngine {
    GsiEngine::new(ServiceConfig::default().engine)
}

fn dataset() -> Graph {
    build(&DatasetSpec::bench_default(DatasetKind::Enron))
}

/// What a reference run tells the selection about a candidate.
pub struct Judged {
    pub rows: u64,
    pub max_intermediate: u64,
    /// Device work units of the join phase per result row: how much
    /// searching the join does beyond writing its output. A device
    /// counter, so selection does not depend on the host's speed.
    pub join_work_per_row: f64,
}

/// Run one candidate through the reference engine. `None` when the run
/// timed out, hit the intermediate-row guard or could not be planned.
fn judge(
    engine: &GsiEngine,
    data: &Graph,
    prepared: &PreparedData,
    query: &Graph,
    timeout: Option<Duration>,
) -> Option<(Judged, QueryOutput, Duration)> {
    let t = Instant::now();
    let out = engine.query_with_options(
        data,
        prepared,
        query,
        QueryOptions {
            timeout,
            ..QueryOptions::default()
        },
    );
    let reference = t.elapsed();
    let out = out.ok().filter(|o| !o.stats.timed_out)?;
    let rows = out.matches.len() as u64;
    let join_work = out.stats.device.work_units - out.stats.filter_device.work_units;
    let judged = Judged {
        rows,
        max_intermediate: out.stats.step_rows.iter().copied().max().unwrap_or(0) as u64,
        join_work_per_row: join_work as f64 / rows.max(1) as f64,
    };
    Some((judged, out, reference))
}

/// Draw distinct random-walk candidates of the selection's sizes until
/// every slot holds its share of accepted patterns. Returns the pool in
/// acceptance order and the number of rejected candidates. Candidates are
/// judged in pairs, one per core, each on an engine with a single-threaded
/// device (results and device counters do not depend on the device's
/// thread count), and accepted in draw order, so the pool depends on the
/// seed only.
fn select_pool(data: &Graph, rng: &mut StdRng, selection: &Selection) -> (Vec<Pattern>, usize) {
    let (guard, timeout) = match *selection {
        Selection::Selective {
            max_intermediate, ..
        } => (max_intermediate as usize, None),
        Selection::Large { guard, timeout, .. } => (guard, Some(timeout)),
    };
    let (slots, per_slot) = selection.slots();
    let want = slots * per_slot;
    let engines: Vec<GsiEngine> = (0..2)
        .map(|_| {
            let mut cfg = ServiceConfig::default();
            cfg.engine.max_intermediate_rows = guard;
            cfg.device.worker_threads = 1;
            GsiEngine::with_gpu(cfg.engine, Gpu::new(cfg.device))
        })
        .collect();
    let prepared: Vec<PreparedData> = engines.iter().map(|e| e.prepare(data)).collect();
    let mut seen = HashSet::new();
    let mut filled = vec![0usize; slots];
    let mut pool = Vec::with_capacity(want);
    let mut rejected = 0usize;
    let mut draws = 0usize;
    while pool.len() < want {
        let mut pair = Vec::with_capacity(2);
        while pair.len() < 2 {
            assert!(
                draws < want * 1000,
                "pattern selection stalled: {} of {want} after {draws} draws",
                pool.len()
            );
            draws += 1;
            let size = rng.random_range(selection.vertices());
            if let Some(q) = random_walk_query(data, size, rng) {
                if seen.insert(canonicalize(&q).key) {
                    pair.push(q);
                }
            }
        }
        let verdicts = std::thread::scope(|s| {
            let other = s.spawn(|| judge(&engines[1], data, &prepared[1], &pair[1], timeout));
            let first = judge(&engines[0], data, &prepared[0], &pair[0], timeout);
            [first, other.join().expect("reference thread panicked")]
        });
        for (q, verdict) in pair.into_iter().zip(verdicts) {
            let accepted = verdict.and_then(|(j, out, t)| {
                let slot = selection.slot(&j).filter(|&s| filled[s] < per_slot)?;
                Some((slot, j, out, t))
            });
            match accepted {
                Some((slot, j, out, reference)) => {
                    filled[slot] += 1;
                    pool.push(Pattern {
                        slot,
                        query: q,
                        digest: RowDigest::of_matches(&out.matches),
                        max_intermediate: j.max_intermediate,
                        reference,
                    });
                }
                None => rejected += 1,
            }
        }
    }
    (pool, rejected)
}

/// Fisher–Yates with the benchmark's generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// `n` draws from a Zipf(`s`) distribution over the pool. Ranks are
/// dealt round-robin across groups of patterns with the same slot (row
/// band) and vertex count, each group shuffled, so which patterns are
/// hot changes with the seed while the answer sizes and pattern sizes of
/// the hot ranks do not.
fn zipf_requests(pool: &[Pattern], n: usize, s: f64, rng: &mut StdRng) -> Vec<usize> {
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, p) in pool.iter().enumerate() {
        groups
            .entry((p.slot, p.query.n_vertices()))
            .or_default()
            .push(i);
    }
    for members in groups.values_mut() {
        shuffle(members, rng);
    }
    let longest = groups.values().map(Vec::len).max().unwrap_or(0);
    let by_rank: Vec<usize> = (0..longest)
        .flat_map(|k| groups.values().filter_map(move |m| m.get(k).copied()))
        .collect();
    let mut cdf = Vec::with_capacity(by_rank.len());
    let mut acc = 0.0;
    for r in 1..=by_rank.len() {
        acc += 1.0 / (r as f64).powf(s);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.random::<f64>() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(by_rank.len() - 1);
            by_rank[rank]
        })
        .collect()
}

/// A chain of `n` valid update batches of `ops` edge operations each,
/// half removals of existing edges and half insertions of new ones, and
/// the graph after the first `snapshot_after` of them: batch `k` is
/// drawn against the graph after batches `0..k`, so the stream applies
/// cleanly in order. Edge-only batches of one fixed mix
/// keep every update's work alike (adding a vertex would force a full
/// signature-table rebuild on some batches and not others).
fn update_batches(
    data: &Graph,
    n: usize,
    ops: usize,
    snapshot_after: usize,
    rng: &mut StdRng,
) -> (Vec<UpdateBatch>, Graph) {
    let n_elabels = data.edge_labels().iter().map(|l| l + 1).max().unwrap_or(1);
    let n_vertices = data.n_vertices() as u32;
    let mut g = data.clone();
    let mut out = Vec::with_capacity(n);
    let mut snapshot = None;
    for k in 0..n {
        if k == snapshot_after {
            snapshot = Some(g.clone());
        }
        let edges = g.edges();
        let mut batch = UpdateBatch::new();
        let mut touched = HashSet::new();
        while touched.len() < ops / 2 {
            let e = edges[rng.random_range(0..edges.len())];
            if touched.insert((e.u.min(e.v), e.u.max(e.v), e.label)) {
                batch.remove_edge(e.u, e.v, e.label);
            }
        }
        while touched.len() < ops {
            let (u, v) = (
                rng.random_range(0..n_vertices),
                rng.random_range(0..n_vertices),
            );
            let label = rng.random_range(0..n_elabels);
            if u != v && !g.has_edge(u, v, label) && touched.insert((u.min(v), u.max(v), label)) {
                batch.insert_edge(u, v, label);
            }
        }
        g = g
            .apply_updates(&batch)
            .expect("generated batches are valid against the evolving graph");
        out.push(batch);
    }
    (out, snapshot.unwrap_or(g))
}

/// Generate the inputs of `workload` for `seed`: `requests` request
/// slots and `batches` update batches.
pub fn generate(workload: Workload, seed: u64, requests: usize, batches: usize) -> Inputs {
    let t = Instant::now();
    let registered = dataset();
    // The probe answers with a single frame's worth of rows.
    let probe_selection = Selection::Selective {
        pool: 1,
        vertices: (3, 6),
        max_intermediate: 10_000,
        row_decades: (1, 2),
    };
    let mut probe_rng = StdRng::seed_from_u64(seed);
    let (mut probe, _) = select_pool(&registered, &mut probe_rng, &probe_selection);
    let probe = probe.pop().expect("one probe pattern");
    let mut rng = StdRng::seed_from_u64(seed ^ workload.seed_salt());
    let p = workload.params();
    let (batches, data) = update_batches(&registered, batches, UPDATE_OPS, p.pre_updates, &mut rng);
    let (pool, rejected) = select_pool(&data, &mut rng, &p.selection);
    let requests = match workload {
        Workload::Point => zipf_requests(&pool, requests, ZIPF_S, &mut rng),
        Workload::Bulk => {
            // Closed loop: whole shuffled passes over the pool, so every
            // run of a seed sees the same per-pattern mix.
            let mut order: Vec<usize> = (0..pool.len()).collect();
            shuffle(&mut order, &mut rng);
            order.iter().copied().cycle().take(requests).collect()
        }
        Workload::Churn => (0..requests)
            .map(|_| rng.random_range(0..pool.len()))
            .collect(),
    };
    Inputs {
        registered,
        data,
        probe,
        pool,
        requests,
        batches,
        rejected,
        generation: t.elapsed(),
    }
}
