//! Turning a run's records, scrapes and replay into named metrics.

use crate::load::{Measured, UpdateRecord, Window};
use crate::replay::Replay;
use crate::report::{median, percentile, ratio, Json, Metric};
use crate::wire::Scrape;
use gsi::prelude::*;
use std::time::Duration;

/// Closure slack: stage sums plus outside-service time must equal the
/// client's latency within this share of it (or 1 ms, if larger).
const CLOSURE_SLACK: f64 = 0.05;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the metrics of one run are computed from.
pub struct RunRecords<'a> {
    pub untraced: &'a Measured,
    /// Whether each untraced query's answer matched the reference.
    pub correct: &'a [bool],
    pub limit: Duration,
    /// The updates whose latency the run reports, and the scrapes around
    /// them.
    pub updates: &'a [&'a UpdateRecord],
    pub update_scrapes: (&'a Scrape, &'a Scrape),
    pub setup_times: &'a [f64],
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub fn end_to_end(c: &RunRecords) -> Vec<Metric> {
    let win = &c.untraced.window;
    let elapsed = win.elapsed.as_secs_f64();
    let mut lat: Vec<f64> = win
        .queries
        .iter()
        .filter(|q| q.result.is_ok())
        .map(|q| ms(q.latency()))
        .collect();
    let n_ok = lat.len() as u64;
    let (p50, _) = percentile(&mut lat, 0.5);
    let (p90, b90) = percentile(&mut lat, 0.9);
    let (p99, b99) = percentile(&mut lat, 0.99);
    let n_q = win.queries.len() as u64;
    // A refused-then-retried query misses the limit even if it succeeded.
    let within = win
        .queries
        .iter()
        .zip(c.correct)
        .filter(|(q, &good)| good && q.busy == 0 && q.latency() <= c.limit)
        .count();
    let completed = c.correct.iter().filter(|&&g| g).count() as u64;
    let rows: u64 = win
        .queries
        .iter()
        .filter_map(|q| q.result.as_ref().ok().map(|a| a.rows))
        .sum();
    let mut upd: Vec<f64> = c
        .updates
        .iter()
        .filter(|u| u.result.is_ok())
        .map(|u| ms(u.latency()))
        .collect();
    let n_upd = upd.len() as u64;
    let (u50, _) = percentile(&mut upd, 0.5);
    let (u95, bu95) = percentile(&mut upd, 0.95);
    vec![
        Metric::new(
            "setup_s",
            median(c.setup_times),
            "s",
            c.setup_times.len() as u64,
        ),
        Metric::new("query_p50_ms", p50, "ms", n_ok),
        Metric::new("query_p90_ms", p90, "ms", n_ok).tail(b90),
        Metric::new("query_p99_ms", p99, "ms", n_ok).tail(b99),
        Metric::new(
            "within_limit_pct",
            100.0 * ratio(within as f64, n_q as f64),
            "%",
            n_q,
        ),
        Metric::new("qps", completed as f64 / elapsed, "1/s", completed),
        Metric::new("rows_per_s", rows as f64 / elapsed, "rows/s", n_ok),
        Metric::new("update_p50_ms", u50, "ms", n_upd),
        Metric::new("update_p95_ms", u95, "ms", n_upd).tail(bu95),
        Metric::new(
            "failed_pct",
            100.0 * ratio(c.failed as f64, c.attempted as f64),
            "%",
            c.attempted,
        ),
        Metric::new(
            "server_cpu_ms_per_query",
            1e3 * ratio(c.untraced.server_cpu_s, completed as f64),
            "ms",
            completed,
        ),
        Metric::new("server_peak_rss_mb", c.peak_rss_mb, "MiB", 1),
    ]
}

/// Client latency against the service's stage sums plus the time spent
/// outside the service, summed over the window's answered queries.
pub struct Closure {
    pub client_ms: f64,
    pub stage_sum_ms: f64,
    pub outside_ms: f64,
    pub residual_ms_per_query: f64,
    pub slack_ms_per_query: f64,
}

impl Closure {
    pub fn json(&self) -> Json {
        Json::obj()
            .num("client_ms", self.client_ms)
            .num("stage_sum_ms", self.stage_sum_ms)
            .num("outside_service_ms", self.outside_ms)
            .num("residual_ms_per_query", self.residual_ms_per_query)
            .num("slack_ms_per_query", self.slack_ms_per_query)
            .set(
                "within_slack",
                Json::Bool(self.residual_ms_per_query.abs() <= self.slack_ms_per_query),
            )
    }
}

/// How far sends ran behind their due time, p99 over queries and updates.
pub fn lag_p99_ms(win: &Window) -> f64 {
    let mut lags: Vec<f64> = win
        .queries
        .iter()
        .map(|q| ms(q.lag()))
        .chain(win.updates.iter().map(|u| ms(u.sent.saturating_sub(u.due))))
        .collect();
    let (p99, _) = percentile(&mut lags, 0.99);
    if p99.is_nan() {
        0.0
    } else {
        p99
    }
}

/// Per-layer metrics from the window's metrics-frame deltas and the
/// answers' server-side latencies.
pub fn per_layer(c: &RunRecords) -> (Vec<Metric>, Closure) {
    let win = &c.untraced.window;
    let (b, a) = (&c.untraced.before, &c.untraced.after);
    let d = |name: &str| a.delta(b, name);
    let du = |name: &str| c.update_scrapes.1.delta(c.update_scrapes.0, name);
    let served = d("gsi_queries_completed_total");
    let n_served = served as u64;
    let matches = d("gsi_query_matches_total");
    let per_q = |v: f64| ratio(v, served);
    let pct = |part: f64, rest: f64| 100.0 * ratio(part, part + rest);
    let stage_ms = |s: &str| d(&format!("gsi_stage_{s}_us_total")) / 1e3;

    // Chunks per answer follow from its rows and the server's default
    // chunk size; the client does not see frame boundaries.
    let chunk_rows = gsi::server::ServerConfig::default().chunk_rows.max(1) as u64;
    let (mut outside, mut client_ms, mut rows, mut chunks) = (Vec::new(), 0.0, 0u64, 0u64);
    for q in &win.queries {
        if let Ok(ans) = &q.result {
            let client = ms(q.done - q.sent);
            outside.push(client - ms(ans.server_latency));
            client_ms += client;
            rows += ans.rows;
            chunks += ans.rows.div_ceil(chunk_rows);
        }
    }
    let n_ok = outside.len() as u64;
    let outside_ms: f64 = outside.iter().sum();
    let stage_sum_ms: f64 = ["queue", "plan", "filter", "join", "respond"]
        .iter()
        .map(|s| stage_ms(s))
        .sum();
    let closure = Closure {
        client_ms,
        stage_sum_ms,
        outside_ms,
        residual_ms_per_query: ratio(client_ms - stage_sum_ms - outside_ms, n_ok as f64),
        slack_ms_per_query: (CLOSURE_SLACK * ratio(client_ms, n_ok as f64)).max(1.0),
    };
    let n_upd = c.updates.len() as u64;
    let launch_ns = ServiceConfig::default().device.kernel_launch_overhead_ns as f64;
    let launches = per_q(d("gsi_device_kernel_launches_total"));
    let metrics = vec![
        Metric::new(
            "server.outside_service_ms_p50",
            median(&outside),
            "ms",
            n_ok,
        ),
        Metric::new(
            "server.busy_refusals",
            win.queries.iter().map(|q| f64::from(q.busy)).sum(),
            "count",
            win.queries.len() as u64,
        ),
        Metric::new(
            "server.chunks_per_query",
            ratio(chunks as f64, n_ok as f64),
            "count",
            n_ok,
        ),
        Metric::new(
            "server.outside_service_ms_per_mrow",
            1e6 * ratio(outside_ms, rows as f64),
            "ms",
            n_ok,
        ),
        Metric::new(
            "service.queue_ms_per_query",
            per_q(stage_ms("queue")),
            "ms",
            n_served,
        ),
        Metric::new(
            "service.queue_depth_highwater",
            a.get("gsi_queue_depth_highwater"),
            "count",
            1,
        ),
        Metric::new(
            "service.plan_ms_per_query",
            per_q(stage_ms("plan")),
            "ms",
            n_served,
        ),
        Metric::new(
            "service.plan_cache_hit_pct",
            pct(
                d("gsi_plan_cache_hits_total"),
                d("gsi_plan_cache_misses_total"),
            ),
            "%",
            n_served,
        ),
        Metric::new(
            "service.plan_cache_evictions",
            d("gsi_plan_cache_evictions_total"),
            "count",
            n_served,
        ),
        Metric::new(
            "service.batched_pct",
            100.0 * per_q(d("gsi_batched_queries_total")),
            "%",
            n_served,
        ),
        Metric::new(
            "service.filter_reuse_pct",
            pct(
                d("gsi_filter_demands_reused_total"),
                d("gsi_filter_demands_computed_total"),
            ),
            "%",
            n_served,
        ),
        Metric::new(
            "service.respond_ms_per_query",
            per_q(stage_ms("respond")),
            "ms",
            n_served,
        ),
        Metric::new(
            "service.plans_migrated",
            du("gsi_plans_migrated_total"),
            "count",
            n_upd,
        ),
        Metric::new(
            "service.plans_recost_dropped",
            du("gsi_plans_recost_dropped_total"),
            "count",
            n_upd,
        ),
        Metric::new(
            "service.update_incremental_pct",
            pct(
                du("gsi_updates_incremental_total"),
                du("gsi_updates_rebuilt_total"),
            ),
            "%",
            n_upd,
        ),
        Metric::new(
            "core.filter_ms_per_query",
            per_q(stage_ms("filter")),
            "ms",
            n_served,
        ),
        Metric::new(
            "core.join_ms_per_query",
            per_q(stage_ms("join")),
            "ms",
            n_served,
        ),
        Metric::new(
            "core.join_ns_per_result_row",
            1e6 * ratio(stage_ms("join"), matches),
            "ns",
            n_served,
        ),
        Metric::new(
            "gpu-sim.kernel_launches_per_query",
            launches,
            "count",
            n_served,
        ),
        // Computed from the configured per-launch overhead, not measured.
        Metric::new(
            "gpu-sim.launch_spin_ms_per_query",
            launches * launch_ns / 1e6,
            "ms",
            n_served,
        ),
        Metric::new(
            "gpu-sim.gld_per_query",
            per_q(d("gsi_device_gld_transactions_total")),
            "count",
            n_served,
        ),
        Metric::new(
            "gpu-sim.gst_per_result_row",
            ratio(d("gsi_device_gst_transactions_total"), matches),
            "count",
            n_served,
        ),
        Metric::new(
            "gpu-sim.alloc_bytes_per_result_row",
            ratio(d("gsi_device_device_alloc_bytes_total"), matches),
            "B",
            n_served,
        ),
        Metric::new(
            "gpu-sim.idle_lane_pct",
            pct(
                d("gsi_device_idle_lane_work_total"),
                d("gsi_device_work_units_total"),
            ),
            "%",
            n_served,
        ),
        Metric::new(
            "obs.closure_residual_ms_per_query",
            closure.residual_ms_per_query,
            "ms",
            n_ok,
        ),
        Metric::new("loadgen.lag_p99_ms", lag_p99_ms(win), "ms", n_ok),
        Metric::new(
            "loadgen.cpu_pct",
            100.0 * c.untraced.self_cpu_s / win.elapsed.as_secs_f64(),
            "%",
            1,
        ),
    ];
    (metrics, closure)
}

/// Per-layer metrics of the traced pass: the in-process replay, and the
/// tracing overhead (median client latency of the traced window against
/// the untraced one, same schedule on the same server).
pub fn traced(r: &Replay, untraced: &Window, traced: &Window) -> Vec<Metric> {
    let p50 = |win: &Window| {
        let v: Vec<f64> = win.queries.iter().map(|q| ms(q.done - q.sent)).collect();
        median(&v)
    };
    let overhead = 100.0 * (ratio(p50(traced), p50(untraced)) - 1.0);
    let krows = r.rows as f64 / 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let per_update = |d: Duration| ratio(ms(d), r.updates as f64);
    let n = r.queries;
    vec![
        Metric::new(
            "server.frame_encode_us_per_krow",
            ratio(us(r.encode), krows),
            "us",
            n,
        ),
        Metric::new(
            "server.frame_decode_us_per_krow",
            ratio(us(r.decode), krows),
            "us",
            n,
        ),
        Metric::new(
            "server.wire_bytes_per_row",
            ratio(r.wire_bytes as f64, r.rows as f64),
            "B",
            n,
        ),
        Metric::new(
            "core.materialize_ms_per_mrow",
            1e6 * ratio(ms(r.materialize), r.rows as f64),
            "ms",
            n,
        ),
        Metric::new(
            "core.intermediate_per_result_row",
            ratio(r.intermediate_rows as f64, r.rows as f64),
            "ratio",
            n,
        ),
        Metric::new(
            "signature.filter_us_per_query_vertex",
            ratio(us(r.filter), r.query_vertices as f64),
            "us",
            n,
        ),
        Metric::new(
            "signature.candidates_per_query_vertex",
            ratio(r.candidates as f64, r.query_vertices as f64),
            "count",
            n,
        ),
        Metric::new(
            "signature.candidate_precision_pct",
            100.0 * ratio(r.useful_candidates as f64, r.candidates as f64),
            "%",
            n,
        ),
        Metric::new("signature.table_build_ms", ms(r.table_build), "ms", 1),
        Metric::new("graph.store_build_ms", ms(r.store_build), "ms", 1),
        Metric::new(
            "graph.update_apply_ms",
            per_update(r.update_apply),
            "ms",
            r.updates,
        ),
        Metric::new(
            "graph.update_splice_ms",
            per_update(r.update_splice),
            "ms",
            r.updates,
        ),
        Metric::new(
            "graph.update_reprepare_ms",
            per_update(r.update_apply.saturating_sub(r.update_splice)),
            "ms",
            r.updates,
        ),
        Metric::new(
            "obs.trace_overhead_pct",
            overhead,
            "%",
            traced.queries.len() as u64,
        ),
    ]
}
