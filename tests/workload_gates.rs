//! Deterministic gates on synthetic workloads that each stress one engine
//! mechanism: the cost-based planner (skewed labels), adaptive re-planning
//! (correlated labels under drift), the radix-hash join strategy (high
//! link-vertex multiplicity), and join-step tracing (which must observe a
//! run without changing it).
//!
//! Every gate reads device counters, match tables or join work units —
//! never a wall clock — so each one is exact and host-independent.

use gsi::datasets::{build, DatasetKind, DatasetSpec};
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use gsi::sim::StatsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 42;

fn engine(cfg: GsiConfig) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
}

/// Run `q` twice and require both runs to produce the same table and
/// charge exactly the same device counters; returns the second run and its
/// device delta.
fn run_twice(
    engine: &GsiEngine,
    data: &Graph,
    prepared: &gsi::engine::PreparedData,
    q: &Graph,
    opts: QueryOptions<'_>,
) -> (QueryOutput, StatsSnapshot) {
    let mut first: Option<(QueryOutput, StatsSnapshot)> = None;
    for _ in 0..2 {
        let snap0 = engine.gpu().stats().snapshot();
        let out = engine
            .query_with_options(data, prepared, q, opts)
            .expect("workload patterns are connected");
        let delta = engine.gpu().stats().snapshot() - snap0;
        assert!(!out.stats.timed_out, "workload must complete");
        if let Some((prev, prev_delta)) = &first {
            assert_eq!(
                prev.matches.table, out.matches.table,
                "non-deterministic table"
            );
            assert_eq!(prev_delta, &delta, "non-deterministic device counters");
        }
        first = Some((out, delta));
    }
    first.expect("ran")
}

/// Skewed-label graph: a few "anchor" vertices (label A) fan out over a
/// *dense* edge class to a large B population, while rare edge classes
/// connect B→C→D. Greedy planning (Algorithm 2) seeds at the anchor's tiny
/// candidate set and is then forced through the dense A–B class before any
/// rare edge can prune; a cost-based order enters from the rare side.
fn skewed_graph(scale: f64, seed: u64) -> Graph {
    let n_a = 8usize;
    let n_b = ((3000.0 * scale) as usize).max(60);
    let n_c = ((150.0 * scale) as usize).max(12);
    let n_d = ((30.0 * scale) as usize).max(6);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0001_5EED);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<u32> = (0..n_c).map(|_| b.add_vertex(2)).collect();
    let ds: Vec<u32> = (0..n_d).map(|_| b.add_vertex(3)).collect();
    // Dense class 0: every B touches one or two anchors.
    for &vb in &bs {
        let first = a[rng.random_range(0..n_a)];
        b.add_edge(first, vb, 0);
        if rng.random_range(0..2) == 0 {
            let second = a[(first as usize + 1 + rng.random_range(0..(n_a - 1))) % n_a];
            b.add_edge(second, vb, 0);
        }
    }
    // Rare class 1: each C reaches two distinct Bs.
    for (i, &vc) in cs.iter().enumerate() {
        b.add_edge(bs[(i * 7) % n_b], vc, 1);
        b.add_edge(bs[(i * 7 + 3) % n_b], vc, 1);
    }
    // Rare class 2: each D reaches two distinct Cs.
    for (i, &vd) in ds.iter().enumerate() {
        b.add_edge(cs[(i * 5) % n_c], vd, 2);
        b.add_edge(cs[(i * 5 + 2) % n_c], vd, 2);
    }
    b.build()
}

/// Patterns of the skewed workload; each contains an anchor vertex whose
/// tiny candidate set baits the greedy seed.
fn skewed_patterns() -> Vec<Graph> {
    // a(A) -0- b(B) -1- c(C)
    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    qb.add_edge(qa, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    let path3 = qb.build();

    // a(A) -0- b(B) -1- c(C) -2- d(D)
    let mut qb = GraphBuilder::new();
    let qa = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    let qd = qb.add_vertex(3);
    qb.add_edge(qa, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    qb.add_edge(qc, qd, 2);
    let path4 = qb.build();

    // Y-shape: two anchors off one B, which reaches a C.
    let mut qb = GraphBuilder::new();
    let qa1 = qb.add_vertex(0);
    let qa2 = qb.add_vertex(0);
    let qbv = qb.add_vertex(1);
    let qc = qb.add_vertex(2);
    qb.add_edge(qa1, qbv, 0);
    qb.add_edge(qa2, qbv, 0);
    qb.add_edge(qbv, qc, 1);
    let fork = qb.build();

    vec![path3, path4, fork]
}

/// Correlated-label graph: a small "active" subpopulation of the B class
/// carries every edge, so class-average statistics dilute its true fanouts
/// ~10x, and the Y/Z branch densities invert between the `planned` version
/// (where the cached plans are computed) and the served one (concept drift
/// that makes those plans stale).
fn correlated_graph(scale: f64, planned: bool) -> Graph {
    let n_a = 8usize;
    let n_b = ((2000.0 * scale) as usize).max(400);
    let n_s = ((160.0 * scale) as usize).max(50);
    let n_x = ((100.0 * scale) as usize).max(20);
    let n_y = ((100.0 * scale) as usize).max(20);
    let n_z = ((100.0 * scale) as usize).max(20);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    let xs: Vec<u32> = (0..n_x).map(|_| b.add_vertex(2)).collect();
    let ys: Vec<u32> = (0..n_y).map(|_| b.add_vertex(3)).collect();
    let zs: Vec<u32> = (0..n_z).map(|_| b.add_vertex(4)).collect();
    // Only the active Bs have edges; the rest drag the class averages down.
    for i in 0..n_s {
        let vb = bs[i];
        b.add_edge(a[i % n_a], vb, 0);
        for j in 0..5 {
            b.add_edge(vb, xs[(i * 3 + j) % n_x], 1);
        }
        let (y_deg, z_deg) = if planned { (10, 1) } else { (1, 10) };
        for j in 0..y_deg {
            b.add_edge(vb, ys[(i * 7 + j) % n_y], 2);
        }
        for j in 0..z_deg {
            b.add_edge(vb, zs[(i * 7 + j) % n_z], 3);
        }
    }
    b.build()
}

/// Star patterns of the correlated workload: a(A) -0- b(B) with branch
/// subsets of {x(X,1), y(Y,2), z(Z,3)}.
fn correlated_patterns() -> Vec<Graph> {
    let star = |branches: &[(u32, u32)]| {
        let mut qb = GraphBuilder::new();
        let qa = qb.add_vertex(0);
        let qbv = qb.add_vertex(1);
        qb.add_edge(qa, qbv, 0);
        for &(vlabel, elabel) in branches {
            let v = qb.add_vertex(vlabel);
            qb.add_edge(qbv, v, elabel);
        }
        qb.build()
    };
    vec![
        star(&[(2, 1), (3, 2)]),
        star(&[(4, 3), (3, 2)]),
        star(&[(4, 3), (2, 1), (3, 2)]),
    ]
}

/// High-multiplicity graph: a handful of label-0 anchors each fanning out
/// to many label-1 vertices (every B touches exactly two distinct anchors),
/// plus a sparse label-1 ring among the Bs. Join steps that link back to
/// the anchor column see the same `v'` repeated across hundreds of rows —
/// the radix-hash strategy's target shape.
fn multiplicity_graph(scale: f64, seed: u64) -> Graph {
    let n_a = 6usize;
    let n_b = ((1600.0 * scale) as usize).max(240);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00AD_17E5);
    let mut b = GraphBuilder::new();
    let a: Vec<u32> = (0..n_a).map(|_| b.add_vertex(0)).collect();
    let bs: Vec<u32> = (0..n_b).map(|_| b.add_vertex(1)).collect();
    for &vb in &bs {
        let first = rng.random_range(0..n_a);
        let second = (first + 1 + rng.random_range(0..(n_a - 1))) % n_a;
        b.add_edge(a[first], vb, 0);
        b.add_edge(a[second], vb, 0);
    }
    for i in 0..n_b {
        b.add_edge(bs[i], bs[(i + 1) % n_b], 1);
        b.add_edge(bs[i], bs[(i + 7) % n_b], 1);
    }
    b.build()
}

/// Patterns of the multiplicity workload: a fork (two Bs off one anchor —
/// the second extension re-streams the anchor's fan-out per row) and a
/// wedge (closing a triangle through the anchor — the second linking edge
/// repeats the anchor per row).
fn multiplicity_patterns() -> Vec<Graph> {
    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u0, u2, 0);
    let fork = qb.build();

    let mut qb = GraphBuilder::new();
    let u0 = qb.add_vertex(0);
    let u1 = qb.add_vertex(1);
    let u2 = qb.add_vertex(1);
    qb.add_edge(u0, u1, 0);
    qb.add_edge(u1, u2, 1);
    qb.add_edge(u0, u2, 0);
    let wedge = qb.build();

    vec![fork, wedge]
}

#[test]
fn costed_orders_cut_join_work_on_skewed_labels() {
    let data = skewed_graph(1.0, SEED);
    let engine = engine(GsiConfig::gsi_opt());
    let prepared = engine.prepare(&data);
    let (mut greedy_work, mut costed_work) = (0u64, 0u64);
    for (i, q) in skewed_patterns().iter().enumerate() {
        let planned = |planner| QueryOptions {
            planner: Some(planner),
            ..QueryOptions::default()
        };
        let (greedy, _) = run_twice(&engine, &data, &prepared, q, planned(PlannerKind::Greedy));
        let (costed, _) = run_twice(
            &engine,
            &data,
            &prepared,
            q,
            planned(PlannerKind::CostBased),
        );
        assert_eq!(greedy.planner, PlannerKind::Greedy);
        assert_eq!(costed.planner, PlannerKind::CostBased);
        assert_eq!(
            greedy.matches.canonical(),
            costed.matches.canonical(),
            "pattern {i}: planners disagree on the match set"
        );
        greedy_work += greedy.stats.join_work_units;
        costed_work += costed.stats.join_work_units;
    }
    let ratio = greedy_work as f64 / costed_work.max(1) as f64;
    assert!(
        ratio >= 1.5,
        "cost-based orders must cut join work >= 1.5x (greedy {greedy_work} vs costed \
         {costed_work}: {ratio:.2}x)"
    );
}

#[test]
fn adaptive_replanning_cuts_join_work_under_drift() {
    let planned_data = correlated_graph(1.0, true);
    let served_data = correlated_graph(1.0, false);
    let patterns = correlated_patterns();
    let costed = |plan, replan_qerror_threshold| QueryOptions {
        planner: Some(PlannerKind::CostBased),
        plan,
        replan_qerror_threshold,
        ..QueryOptions::default()
    };

    // Plan every pattern once on the pre-drift data: the plan-cache
    // contents a serving system would carry across the update.
    let planner = engine(GsiConfig::gsi_opt());
    let planned_prepared = planner.prepare(&planned_data);
    let stale_plans: Vec<JoinPlan> = patterns
        .iter()
        .map(|q| {
            planner
                .query_with_options(&planned_data, &planned_prepared, q, costed(None, None))
                .expect("patterns are connected")
                .plan
        })
        .collect();

    let engine = engine(GsiConfig::gsi_opt());
    let prepared = engine.prepare(&served_data);
    let (mut static_work, mut adaptive_work) = (0u64, 0u64);
    let mut replans = 0u32;
    for (i, (q, stale)) in patterns.iter().zip(&stale_plans).enumerate() {
        let run = |opts| run_twice(&engine, &served_data, &prepared, q, opts).0;
        let fixed = run(costed(Some(stale), None));
        let adaptive = run(costed(Some(stale), Some(2.0)));
        let fresh = run(costed(None, None));
        assert_eq!(fixed.stats.replans, 0, "pattern {i}: static arm re-planned");
        assert_eq!(
            fixed.plan.order, stale.order,
            "pattern {i}: static replays the plan"
        );
        let truth = fixed.matches.canonical();
        assert_eq!(
            truth,
            adaptive.matches.canonical(),
            "pattern {i}: adaptive run changed the match set"
        );
        assert_eq!(
            truth,
            fresh.matches.canonical(),
            "pattern {i}: fresh plan disagrees on the match set"
        );
        static_work += fixed.stats.join_work_units;
        adaptive_work += adaptive.stats.join_work_units;
        replans += adaptive.stats.replans;
    }
    assert!(replans > 0, "the drifted workload must trigger a re-plan");
    let ratio = static_work as f64 / adaptive_work.max(1) as f64;
    assert!(
        ratio >= 1.3,
        "adaptive re-planning must cut join work >= 1.3x (static {static_work} vs adaptive \
         {adaptive_work}: {ratio:.2}x)"
    );
}

#[test]
fn radix_hash_and_its_promotion_cut_gld_on_high_multiplicity() {
    let data = multiplicity_graph(0.5, SEED);
    let patterns = multiplicity_patterns();
    let cells = [
        ("prealloc", JoinScheme::PreallocCombine, None),
        ("two-step", JoinScheme::TwoStep, None),
        ("radix-hash", JoinScheme::RadixHash, None),
        ("prealloc+radix", JoinScheme::PreallocCombine, Some(8.0)),
    ];
    let mut reference: Option<Vec<Vec<u32>>> = None;
    let mut gld = Vec::new();
    for (name, join_scheme, radix_join_threshold) in cells {
        let engine = engine(
            GsiConfig {
                join_scheme,
                radix_join_threshold,
                ..GsiConfig::gsi_opt()
            }
            .with_planner(PlannerKind::CostBased),
        );
        let prepared = engine.prepare(&data);
        let mut cell_gld = 0u64;
        let mut tables = Vec::new();
        for q in &patterns {
            let (out, delta) = run_twice(&engine, &data, &prepared, q, QueryOptions::default());
            cell_gld += delta.gld_transactions;
            tables.extend(out.matches.canonical());
        }
        match &reference {
            None => reference = Some(tables),
            Some(expect) => assert_eq!(&tables, expect, "{name}: strategies disagree"),
        }
        gld.push(cell_gld);
    }
    let [prealloc, _, radix, promoted] = gld[..] else {
        unreachable!("four cells")
    };
    assert!(
        radix < prealloc,
        "radix-hash must cut GLD on the high-multiplicity workload (radix {radix} vs \
         prealloc {prealloc})"
    );
    assert!(
        promoted < prealloc,
        "cost-model promotion must fire and cut GLD (promoted {promoted} vs base {prealloc})"
    );
}

#[test]
fn tracing_changes_no_result_or_counter() {
    let enron = build(&DatasetSpec::scaled(
        DatasetKind::Enron,
        DatasetKind::Enron.default_scale() * 0.2,
    ));
    let mut rng = StdRng::seed_from_u64(SEED);
    let enron_queries: Vec<Graph> = (0..3)
        .filter_map(|_| random_walk_query(&enron, 4, &mut rng))
        .collect();
    assert!(!enron_queries.is_empty(), "walks exist on the stand-in");
    let skewed = skewed_graph(0.2, SEED);
    let engine = engine(GsiConfig::gsi_opt());

    // (canonical table, device delta, guard abort) per query and arm.
    type Fingerprint = (Vec<Vec<u32>>, StatsSnapshot, bool);
    for (data, queries) in [(&enron, enron_queries), (&skewed, skewed_patterns())] {
        let prepared = engine.prepare(data);
        let mut reference: Option<Vec<Fingerprint>> = None;
        for trace in [TraceConfig::default(), TraceConfig::Off, TraceConfig::On] {
            let mut arm = Vec::new();
            for q in &queries {
                let snap0 = engine.gpu().stats().snapshot();
                let out = engine
                    .query_with_options(
                        data,
                        &prepared,
                        q,
                        QueryOptions {
                            trace,
                            ..QueryOptions::default()
                        },
                    )
                    .expect("workload patterns are connected");
                let delta = engine.gpu().stats().snapshot() - snap0;
                if trace == TraceConfig::On {
                    // step_rows holds the seed row count plus one entry per
                    // executed iteration, however early the run stopped.
                    assert_eq!(
                        out.stats.step_times.len(),
                        out.stats.step_rows.len().saturating_sub(1),
                        "On must time every executed join step"
                    );
                } else {
                    assert!(
                        out.stats.step_times.is_empty(),
                        "{trace:?} keeps no step timers"
                    );
                }
                arm.push((out.matches.canonical(), delta, out.stats.timed_out));
            }
            match &reference {
                None => reference = Some(arm),
                Some(base) => assert_eq!(
                    base, &arm,
                    "{trace:?}: tracing changed matches, counters or guard aborts"
                ),
            }
        }
    }
}
