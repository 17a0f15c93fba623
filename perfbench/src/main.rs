//! `perfbench` — the wire-level GSI benchmark.
//!
//! Spawns the shipped `gsi-server` binary (default `ServiceConfig` and
//! `ServerConfig`) as its own process and drives it through `GsiClient`
//! from this one process, with at most two threads and two connections.
//!
//! ```text
//! perfbench --workload point|bulk|churn --seed N --seconds S --trace 0|1
//!           --server PATH [--out REPORT.json]
//! ```
//!
//! One run: generate every input from the seed (pattern pools chosen by
//! untimed in-process reference runs), time set-up, apply the pre-window
//! updates (`point`, `bulk`), check every pool pattern's rows over the wire
//! (this also warms the plan cache), measure one window of `S` seconds
//! (`churn` applies its updates during it), check every timed answer
//! against the reference, and print one JSON line. With `--trace 1` the
//! run also measures a second, traced window and replays the inputs in
//! process with a span around each layer call, and the JSON line carries
//! the per-layer metrics instead of the end-to-end ones.
//!
//! The full report of a run (manifest, host, per-operation accounting,
//! every metric with its sample count, closure check, device-counter
//! repeat check, per-request latencies, per-layer self times) goes to
//! `--out`, and with `--trace 1` its spans to the same name with the
//! extension `spans.jsonl`.
//!
//! Exit codes: 0 correct and valid; 1 set-up or usage failure (nothing
//! printed on stdout); 3 invalid (the load generator ran behind its
//! schedule); 4 a wrong or failed answer.

mod inputs;
mod load;
mod metrics;
mod replay;
mod report;
mod trace;
mod wire;
mod workload;

use crate::inputs::{Inputs, RowDigest, GRAPH};
use crate::load::{measure, Cursor, Measured, Window};
use crate::metrics::ms;
use crate::report::{quantiles, Json, Metric};
use crate::trace::Recorder;
use crate::wire::{Scrape, ServerProc};
use crate::workload::{Arrival, Workload};
use gsi::api::Completion;
use gsi::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics `BENCHMARK.json` gates, on every workload.
/// The others are printed and stored with their sample counts but carry
/// no regression bound: `failed_pct` is zero on a good run; the tails
/// (`query_p90_ms`, `query_p99_ms`, `update_p95_ms`) have fewer than ten
/// samples beyond them at this run length or, on the open-loop
/// workloads, flip between the fast mode and the ~40 ms
/// delayed-acknowledgement stall that hits a share of responses varying
/// from run to run; `rows_per_s` follows the seed's answer sizes on the
/// open-loop workloads rather than the program.
const GATED: [&str; 7] = [
    "setup_s",
    "query_p50_ms",
    "within_limit_pct",
    "qps",
    "update_p50_ms",
    "server_cpu_ms_per_query",
    "server_peak_rss_mb",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A run whose sends ran later than this behind schedule (p99) is
/// invalid: the offered rate was not offered.
const LAG_P99_BOUND_MS: f64 = 100.0;
/// Distinct patterns and update batches the traced replay covers.
const REPLAY_QUERIES: usize = 48;
const REPLAY_UPDATES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("{k} is not a number"))
    };
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| "--workload must be point, bulk or churn".to_string())?;
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed is not an integer".to_string())?,
        seconds,
        trace: num("--trace")? != 0.0,
        server: PathBuf::from(get("--server")?),
        out: flags.get("--out").map(PathBuf::from),
    })
}

/// Attempted / succeeded / failed / Busy-refused counts of one operation
/// type. An operation that needed a retry after `Busy` still counts once.
#[derive(Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    succeeded: u64,
    failed: u64,
    busy: u64,
}

impl Ops {
    fn add(&mut self, ok: bool, busy: u32) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
        self.busy += u64::from(busy > 0);
    }

    fn json(&self) -> Json {
        Json::obj()
            .int("attempted", self.attempted)
            .int("succeeded", self.succeeded)
            .int("failed", self.failed)
            .int("busy_refused", self.busy)
    }
}

#[derive(Default)]
struct Accounting {
    register: Ops,
    query: Ops,
    update: Ops,
    /// Human-readable reasons for every failure, capped.
    failures: Vec<String>,
}

impl Accounting {
    fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    fn totals(&self) -> (u64, u64) {
        let all = [self.register, self.query, self.update];
        (
            all.iter().map(|o| o.attempted).sum(),
            all.iter().map(|o| o.failed).sum(),
        )
    }
}

fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::obj()
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .str("cpu_model", &cpu)
        .str("kernel", kernel.trim())
}

fn manifest(w: Workload, inputs: &Inputs, issued: usize) -> Json {
    let p = w.params();
    let mut sizes = BTreeMap::new();
    for pat in &inputs.pool {
        *sizes.entry(pat.query.n_vertices()).or_insert(0u64) += 1;
    }
    let mut hist = Json::obj();
    for (k, v) in sizes {
        hist = hist.int(&k.to_string(), v);
    }
    let rows: Vec<f64> = inputs.pool.iter().map(|p| p.digest.rows as f64).collect();
    let inter: Vec<f64> = inputs
        .pool
        .iter()
        .map(|p| p.max_intermediate as f64)
        .collect();
    let reference_ms: Vec<f64> = inputs
        .pool
        .iter()
        .map(|p| p.reference.as_secs_f64() * 1e3)
        .collect();
    let (rate, conns) = match p.arrival {
        Arrival::Open {
            rate_qps,
            connections,
        } => (Json::Num(rate_qps), connections),
        Arrival::Closed => (Json::Str("closed loop".into()), 1),
    };
    Json::obj()
        .int("pool_size", inputs.pool.len() as u64)
        .int("rejected_candidates", inputs.rejected as u64)
        .set("pattern_vertices_histogram", hist)
        .set("reference_rows", quantiles(&rows))
        .set("reference_max_intermediate_rows", quantiles(&inter))
        .set("reference_ms", quantiles(&reference_ms))
        .set("offered_query_rate_qps", rate)
        .int("query_connections", conns as u64)
        .num("update_rate_hz", p.update_hz)
        .int("update_ops_per_batch", workload::UPDATE_OPS as u64)
        .int("requests_issued", issued as u64)
        .num("generation_s", inputs.generation.as_secs_f64())
}

/// Check one answer against the reference row count at its epoch.
fn check_answer(acc: &mut Accounting, rec: &load::QueryRecord, expected_rows: Option<u64>) -> bool {
    let ok = match &rec.result {
        Ok(a) => {
            let good = a.complete && Some(a.rows) == expected_rows;
            if !good {
                acc.fail(format!(
                    "pattern {} at epoch {}: {} rows (complete: {}), reference {:?}",
                    rec.pattern, a.epoch, a.rows, a.complete, expected_rows
                ));
            }
            good
        }
        Err(e) => {
            acc.fail(format!("pattern {}: {e}", rec.pattern));
            false
        }
    };
    acc.query.add(ok, rec.busy);
    ok
}

/// Reference row counts at every epoch the churn answers report, by
/// replaying the same batch prefix in process (outside the timed window).
fn churn_reference(
    inputs: &Inputs,
    base_epoch: u64,
    update_epochs: &[(usize, u64)],
    needed: &BTreeSet<(u64, usize)>,
) -> BTreeMap<(u64, usize), u64> {
    let engine = inputs::reference_engine();
    let mut graph = inputs.registered.clone();
    let mut prepared = engine.prepare(&graph);
    let mut out = BTreeMap::new();
    let mut epoch = base_epoch;
    let mut applied = 0usize;
    let mut sorted = update_epochs.to_vec();
    sorted.sort();
    loop {
        for &(e, p) in needed.range((epoch, 0)..=(epoch, usize::MAX)) {
            let rows = engine
                .query(&graph, &prepared, &inputs.pool[p].query)
                .map_or(u64::MAX, |o| o.matches.len() as u64);
            out.insert((e, p), rows);
        }
        let Some(&(batch, next_epoch)) = sorted.get(applied) else {
            break;
        };
        if batch != applied {
            break; // A batch failed; later epochs have no reference.
        }
        match engine.apply_updates(&graph, &prepared, &inputs.batches[batch]) {
            Ok((g, p, _)) => {
                graph = g;
                prepared = p;
            }
            Err(_) => break,
        }
        epoch = next_epoch;
        applied += 1;
    }
    out
}

struct Setup {
    server: ServerProc,
    client: GsiClient,
    epoch: u64,
    times: Vec<f64>,
}

/// Spawn, register and answer the first query `SETUP_REPEATS` times;
/// keep the last server.
fn setup(args: &Args, inputs: &Inputs, acc: &mut Accounting) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let server = ServerProc::spawn(&args.server)?;
        let mut client = GsiClient::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let reg = client.register(GRAPH, &inputs.registered);
        acc.register.add(reg.is_ok(), 0);
        let reg = reg.map_err(|e| format!("register: {e}"))?;
        let first = wire::query(&mut client, &inputs.probe.query);
        times.push(t.elapsed().as_secs_f64());
        let good = matches!(&first.value,
            Ok(o) if RowDigest::of_rows(&o.assignments) == inputs.probe.digest);
        acc.query.add(good, first.busy);
        if !good {
            acc.fail("the set-up query did not match the reference".to_string());
        }
        last = Some(Setup {
            server,
            client,
            epoch: reg.epoch,
            times: Vec::new(),
        });
    }
    let mut s = last.expect("at least one set-up");
    s.times = times;
    Ok(s)
}

/// Every pool pattern once over the wire: canonical rows, completion and
/// epoch must match the reference. Returns per-pattern device counters
/// when `device` is set (single client, so no batching mixes queries).
fn exactness_pass(
    clients: &mut [GsiClient],
    inputs: &Inputs,
    epoch: u64,
    device: bool,
    acc: &mut Accounting,
) -> Vec<[f64; 4]> {
    let n = inputs.pool.len();
    let k = clients.len();
    let run = |client: &mut GsiClient, start: usize| {
        let mut results = Vec::new();
        for p in (start..n).step_by(k) {
            let before = device.then(|| Scrape::take(client).ok()).flatten();
            let op = wire::query(client, &inputs.pool[p].query);
            let after = device.then(|| Scrape::take(client).ok()).flatten();
            let verdict = match &op.value {
                Ok(o) if o.completion != Completion::Complete => Err("partial".to_string()),
                Ok(o) if o.epoch != epoch => Err(format!("epoch {}", o.epoch)),
                Ok(o) if RowDigest::of_rows(&o.assignments) != inputs.pool[p].digest => {
                    Err(format!(
                        "{} rows differ from the reference ({})",
                        o.assignments.len(),
                        inputs.pool[p].digest.rows
                    ))
                }
                Ok(_) => Ok(()),
                Err(e) => Err(e.clone()),
            };
            let counters = match (before, after) {
                (Some(b), Some(a)) => DEVICE_COUNTERS.map(|c| a.delta(&b, c)),
                _ => [0.0; 4],
            };
            results.push((p, op.busy, verdict, counters));
        }
        results
    };
    let results = {
        let (first, rest) = clients.split_first_mut().expect("a client");
        std::thread::scope(|s| {
            let h = rest.first_mut().map(|c| s.spawn(|| run(c, 1)));
            let mut r = run(first, 0);
            if let Some(h) = h {
                r.extend(h.join().expect("exactness thread panicked"));
            }
            r
        })
    };
    let mut device_by_pattern = vec![[0.0; 4]; n];
    for (p, busy, verdict, counters) in results {
        if let Err(why) = &verdict {
            acc.fail(format!("exactness, pattern {p}: {why}"));
        }
        acc.query.add(verdict.is_ok(), busy);
        device_by_pattern[p] = counters;
    }
    device_by_pattern
}

const DEVICE_COUNTERS: [&str; 4] = [
    "gsi_device_gld_transactions_total",
    "gsi_device_gst_transactions_total",
    "gsi_device_kernel_launches_total",
    "gsi_device_work_units_total",
];

/// Account every timed operation and check every answer's row count
/// against the reference at the epoch it reports. Returns, per window,
/// whether each query's answer was correct.
fn verify(
    w: Workload,
    inputs: &Inputs,
    base_epoch: u64,
    windows: &[&Window],
    pre_updates: &[load::UpdateRecord],
    acc: &mut Accounting,
) -> Vec<Vec<bool>> {
    let mut update_epochs = Vec::new();
    for u in windows.iter().flat_map(|w| &w.updates).chain(pre_updates) {
        acc.update.add(u.result.is_ok(), u.busy);
        match &u.result {
            Ok(e) => update_epochs.push((u.batch, *e)),
            Err(e) => acc.fail(format!("update batch {}: {e}", u.batch)),
        }
    }
    let churn_ref = if w == Workload::Churn {
        let needed: BTreeSet<(u64, usize)> = windows
            .iter()
            .flat_map(|win| &win.queries)
            .filter_map(|q| q.result.as_ref().ok().map(|a| (a.epoch, q.pattern)))
            .collect();
        churn_reference(inputs, base_epoch, &update_epochs, &needed)
    } else {
        BTreeMap::new()
    };
    windows
        .iter()
        .map(|win| {
            win.queries
                .iter()
                .map(|q| {
                    let expected = match &q.result {
                        Ok(a) if w == Workload::Churn => {
                            churn_ref.get(&(a.epoch, q.pattern)).copied()
                        }
                        Ok(a) if a.epoch == base_epoch => Some(inputs.pool[q.pattern].digest.rows),
                        _ => None,
                    };
                    check_answer(acc, q, expected)
                })
                .collect()
        })
        .collect()
}

/// Bulk runs one query at a time on one connection, so a pattern's
/// device counters repeat exactly: the window's ledger delta must equal
/// the sum of the exactness pass's per-pattern counts. Counts, not
/// timings.
fn device_repeat_check(
    untraced: &Measured,
    device_by_pattern: &[[f64; 4]],
    acc: &mut Accounting,
) -> Json {
    let mut out = Json::obj();
    for (i, name) in DEVICE_COUNTERS.iter().enumerate() {
        let expected: f64 = untraced
            .window
            .queries
            .iter()
            .map(|q| device_by_pattern[q.pattern][i])
            .sum();
        let seen = untraced.after.delta(&untraced.before, name);
        if expected != seen {
            acc.fail(format!(
                "{name}: window delta {seen}, per-pattern sum {expected}"
            ));
            acc.query.failed += 1;
            acc.query.attempted += 1;
        }
        let pass: f64 = device_by_pattern.iter().map(|c| c[i]).sum();
        out = out.set(
            name,
            Json::obj()
                .num("window", seen)
                .num("window_expected", expected)
                .num("exactness_pass", pass),
        );
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload point|bulk|churn --seed N \
                 --seconds S --trace 0|1 --server PATH [--out REPORT.json]"
            );
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let p = w.params();
    let windows = if args.trace { 2 } else { 1 };
    let (slots, batches) = match p.arrival {
        Arrival::Open { rate_qps, .. } => (
            (rate_qps * args.seconds).ceil() as usize * windows,
            ((p.update_hz * args.seconds).ceil() as usize * windows).max(p.pre_updates),
        ),
        Arrival::Closed => (4096, p.pre_updates),
    };
    let inputs = inputs::generate(w, args.seed, slots, batches.max(REPLAY_UPDATES));
    eprintln!(
        "perfbench: {} seed {}: {} patterns selected ({} rejected) in {:.1} s",
        w.name(),
        args.seed,
        inputs.pool.len(),
        inputs.rejected,
        inputs.generation.as_secs_f64()
    );
    let mut acc = Accounting::default();

    let Setup {
        mut server,
        client,
        epoch: registered_epoch,
        times: setup_times,
    } = setup(args, &inputs, &mut acc)?;
    // Query connections, plus one for a concurrent update stream.
    let query_connections = match p.arrival {
        Arrival::Open { connections, .. } => connections,
        Arrival::Closed => 1,
    };
    let mut clients = vec![client];
    while clients.len() < query_connections + usize::from(p.update_hz > 0.0) {
        clients.push(GsiClient::connect(&server.addr).map_err(|e| format!("connect: {e}"))?);
    }

    // The pre-window updates, against the fresh server; the pool's reference
    // is the graph after them.
    let before_pre = Scrape::take(&mut clients[0]).map_err(|e| format!("metrics: {e}"))?;
    let pre_updates = load::update_stream(
        &mut clients[0],
        &inputs,
        0,
        workload::PRE_UPDATE_HZ,
        p.pre_updates,
        Instant::now(),
        &mut None,
    );
    let after_pre = Scrape::take(&mut clients[0]).map_err(|e| format!("metrics: {e}"))?;
    let base_epoch = match pre_updates.last() {
        Some(u) => u.result.clone().unwrap_or(registered_epoch),
        None => registered_epoch,
    };

    // Untimed exactness pass; it also brings the plan cache to steady state.
    let device_by_pattern = exactness_pass(
        &mut clients,
        &inputs,
        base_epoch,
        w == Workload::Bulk,
        &mut acc,
    );

    let untraced = measure(
        w,
        &mut clients,
        server.pid(),
        &inputs,
        Cursor {
            request: 0,
            batch: 0,
        },
        args.seconds,
        false,
    )?;
    let traced = if args.trace {
        let cursor = Cursor {
            request: untraced.window.queries.len(),
            batch: untraced.window.updates.len(),
        };
        Some(measure(
            w,
            &mut clients,
            server.pid(),
            &inputs,
            cursor,
            args.seconds,
            true,
        )?)
    } else {
        None
    };

    let peak_rss = wire::peak_rss_mb(server.pid());
    drop(clients);
    server.stop();

    // ---- correctness of every timed answer ---------------------------------
    let windows: Vec<&Window> = std::iter::once(&untraced.window)
        .chain(traced.as_ref().map(|t| &t.window))
        .collect();
    let correct_flags = verify(w, &inputs, base_epoch, &windows, &pre_updates, &mut acc);
    let counter_repeat = if w == Workload::Bulk {
        device_repeat_check(&untraced, &device_by_pattern, &mut acc)
    } else {
        Json::obj()
    };

    // ---- metrics --------------------------------------------------------------
    let updates: Vec<&load::UpdateRecord> = if w == Workload::Churn {
        untraced.window.updates.iter().collect()
    } else {
        pre_updates.iter().collect()
    };
    let (attempted, failed) = acc.totals();
    let ctx = metrics::RunRecords {
        untraced: &untraced,
        correct: &correct_flags[0],
        limit: p.limit,
        updates: &updates,
        update_scrapes: if w == Workload::Churn {
            (&untraced.before, &untraced.after)
        } else {
            (&before_pre, &after_pre)
        },
        setup_times: &setup_times,
        peak_rss_mb: peak_rss,
        attempted,
        failed,
    };
    let end_to_end = metrics::end_to_end(&ctx);
    let (mut per_layer, closure) = metrics::per_layer(&ctx);
    let lag_p99 = metrics::lag_p99_ms(&untraced.window);

    // ---- traced replay --------------------------------------------------------
    let mut layers = Json::obj();
    let mut spans_out = String::new();
    if let Some(t) = &traced {
        let mut rec = Recorder::new(Instant::now(), 1 << 48);
        let requested: Vec<usize> = untraced.window.queries.iter().map(|q| q.pattern).collect();
        let r = replay::run(
            &inputs,
            &requested,
            REPLAY_QUERIES,
            REPLAY_UPDATES,
            &mut rec,
        );
        if r.mismatches > 0 {
            acc.fail(format!("traced replay: {} mismatches", r.mismatches));
            acc.query.failed += r.mismatches;
            acc.query.attempted += r.mismatches;
        }
        per_layer.extend(metrics::traced(&r, &untraced.window, &t.window));
        let mut spans = t.window.spans.clone();
        spans.extend(rec.spans);
        layers = trace::self_times_json(&spans);
        spans_out = trace::spans_jsonl(&spans);
    }

    // ---- verdict and output ----------------------------------------------------
    let (attempted, failed) = acc.totals();
    let correct = failed == 0;
    let valid = lag_p99 <= LAG_P99_BOUND_MS;
    let shown: Vec<&Metric> = if args.trace {
        per_layer.iter().collect()
    } else {
        end_to_end
            .iter()
            .filter(|m| GATED.contains(&m.name))
            .collect()
    };
    for m in if args.trace { &per_layer } else { &end_to_end } {
        let tail = m.beyond.map_or(String::new(), |b| format!(", {b} beyond"));
        eprintln!(
            "  {:<40} {:>14.4} {:<7} ({} samples{tail})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &acc.failures {
        eprintln!("  FAILED: {f}");
    }
    if !valid {
        eprintln!("  INVALID: send lag p99 {lag_p99:.1} ms exceeds {LAG_P99_BOUND_MS} ms");
    }

    if let Some(path) = &args.out {
        let to_obj = |ms: &[Metric]| {
            ms.iter()
                .fold(Json::obj(), |o, m| o.set(m.name, m.full_json()))
        };
        let report = Json::obj()
            .str("workload", w.name())
            .int("seed", args.seed)
            .num("seconds", args.seconds)
            .set("trace", Json::Bool(args.trace))
            .set("correct", Json::Bool(correct))
            .set("valid", Json::Bool(valid))
            .set("host", host_fingerprint())
            .set(
                "manifest",
                manifest(w, &inputs, untraced.window.queries.len()),
            )
            .set(
                "operations",
                Json::obj()
                    .set("register", acc.register.json())
                    .set("query", acc.query.json())
                    .set("update", acc.update.json()),
            )
            .set(
                "failures",
                Json::Arr(acc.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            )
            .set("end_to_end", to_obj(&end_to_end))
            .set("per_layer", to_obj(&per_layer))
            .set("closure", closure.json())
            .set("device_counter_repeat", counter_repeat)
            .set(
                "updates",
                Json::Arr(
                    updates
                        .iter()
                        .map(|u| {
                            Json::obj()
                                .int("batch", u.batch as u64)
                                .num("latency_ms", ms(u.latency()))
                                .set("ok", Json::Bool(u.result.is_ok()))
                        })
                        .collect(),
                ),
            )
            .set(
                "queries",
                Json::Arr(
                    untraced
                        .window
                        .queries
                        .iter()
                        .map(|q| {
                            let (rows, server) = q
                                .result
                                .as_ref()
                                .map_or((0, f64::NAN), |a| (a.rows, ms(a.server_latency)));
                            Json::obj()
                                .int("pattern", q.pattern as u64)
                                .int("rows", rows)
                                .num("latency_ms", ms(q.latency()))
                                .num("server_ms", server)
                        })
                        .collect(),
                ),
            )
            .set("layer_self_time", layers);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if args.trace {
            std::fs::write(path.with_extension("spans.jsonl"), spans_out)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let metrics = shown
        .iter()
        .fold(Json::obj(), |o, m| o.set(m.name, m.value_json()));
    let line = Json::obj()
        .set("correct", Json::Bool(correct))
        .int("attempted", attempted)
        .int("failed", failed)
        .set("metrics", metrics);
    println!("{}", line.render());
    Ok(if !correct {
        ExitCode::from(4)
    } else if !valid {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}
