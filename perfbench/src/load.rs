//! The measured window: open- and closed-loop query issue, the churn
//! update stream, and the records each operation leaves.

use crate::inputs::Inputs;
use crate::trace::{Recorder, Span};
use crate::wire::{self, Scrape};
use crate::workload::{Arrival, Workload};
use gsi::api::Completion;
use gsi::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a successful query returned.
pub struct Answer {
    pub rows: u64,
    pub epoch: u64,
    pub complete: bool,
    pub server_latency: Duration,
}

pub struct QueryRecord {
    pub pattern: usize,
    /// Offsets from the window start: when the request was due, sent and
    /// answered. In a closed loop a request is due when it is sent.
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub busy: u32,
    pub result: Result<Answer, String>,
}

impl QueryRecord {
    /// Client-observed latency, from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

pub struct UpdateRecord {
    /// Index of the batch in the update stream.
    pub batch: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub busy: u32,
    /// The epoch the update published.
    pub result: Result<u64, String>,
}

impl UpdateRecord {
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

pub struct Window {
    pub queries: Vec<QueryRecord>,
    pub updates: Vec<UpdateRecord>,
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

/// Where a window starts in the generated streams.
#[derive(Clone, Copy)]
pub struct Cursor {
    pub request: usize,
    pub batch: usize,
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

fn timed_query(
    client: &mut GsiClient,
    inputs: &Inputs,
    pattern: usize,
    t0: Instant,
    due: Duration,
    rec: &mut Option<Recorder>,
    request: u64,
) -> QueryRecord {
    let sent = t0.elapsed();
    let query = &inputs.pool[pattern].query;
    let op = match rec {
        Some(r) => r.span("client.query", request, None, |_, _| {
            wire::query(client, query)
        }),
        None => wire::query(client, query),
    };
    let done = t0.elapsed();
    QueryRecord {
        pattern,
        due,
        sent,
        done,
        busy: op.busy,
        result: op.value.map(|o| Answer {
            rows: o.assignments.len() as u64,
            epoch: o.epoch,
            complete: o.completion == Completion::Complete,
            server_latency: o.server_latency,
        }),
    }
}

/// Issue fixed-rate arrivals `0..n` from `cursor.request` on `clients`,
/// each client taking the next due arrival when it becomes free.
fn open_loop(
    clients: &mut [GsiClient],
    inputs: &Inputs,
    cursor: Cursor,
    rate: f64,
    n: usize,
    t0: Instant,
    traced: bool,
) -> (Vec<QueryRecord>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let worker = |client: &mut GsiClient, id_base: u64| {
        let mut rec = traced.then(|| Recorder::new(t0, id_base));
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let due = Duration::from_secs_f64(i as f64 / rate);
            sleep_until(t0 + due);
            let k = cursor.request + i;
            let pattern = inputs.requests[k % inputs.requests.len()];
            out.push(timed_query(
                client, inputs, pattern, t0, due, &mut rec, k as u64,
            ));
        }
        (out, rec.map(|r| r.spans).unwrap_or_default())
    };
    let (first, rest) = clients.split_first_mut().expect("at least one client");
    let (mut records, mut spans) = std::thread::scope(|s| {
        let handle = rest.first_mut().map(|c| s.spawn(|| worker(c, 1 << 40)));
        let mut mine = worker(first, 0);
        if let Some(h) = handle {
            let (r, sp) = h.join().expect("load thread panicked");
            mine.0.extend(r);
            mine.1.extend(sp);
        }
        mine
    });
    records.sort_by_key(|r| r.due);
    spans.sort_by_key(|s| s.start);
    (records, spans)
}

/// Back-to-back requests on one client until `seconds` have passed.
fn closed_loop(
    client: &mut GsiClient,
    inputs: &Inputs,
    cursor: Cursor,
    seconds: f64,
    t0: Instant,
    traced: bool,
) -> (Vec<QueryRecord>, Vec<Span>) {
    let mut rec = traced.then(|| Recorder::new(t0, 0));
    let mut out = Vec::new();
    let mut k = cursor.request;
    while t0.elapsed().as_secs_f64() < seconds {
        let pattern = inputs.requests[k % inputs.requests.len()];
        let due = t0.elapsed();
        out.push(timed_query(
            client, inputs, pattern, t0, due, &mut rec, k as u64,
        ));
        k += 1;
    }
    (out, rec.map(|r| r.spans).unwrap_or_default())
}

/// Apply `n` batches from `first_batch` on, at `hz` batches per second.
pub fn update_stream(
    client: &mut GsiClient,
    inputs: &Inputs,
    first_batch: usize,
    hz: f64,
    n: usize,
    t0: Instant,
    rec: &mut Option<Recorder>,
) -> Vec<UpdateRecord> {
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let batch = first_batch + j;
        let due = Duration::from_secs_f64(j as f64 / hz);
        sleep_until(t0 + due);
        let sent = t0.elapsed();
        let b = &inputs.batches[batch];
        let op = match rec {
            Some(r) => r.span("client.update", (1 << 32) + batch as u64, None, |_, _| {
                wire::update(client, b)
            }),
            None => wire::update(client, b),
        };
        out.push(UpdateRecord {
            batch,
            due,
            sent,
            done: t0.elapsed(),
            busy: op.busy,
            result: op.value.map(|u| u.epoch),
        });
    }
    out
}

/// Run one measured window of `workload`.
pub fn run_window(
    workload: Workload,
    clients: &mut [GsiClient],
    inputs: &Inputs,
    cursor: Cursor,
    seconds: f64,
    traced: bool,
) -> Window {
    let p = workload.params();
    let t0 = Instant::now();
    let (queries, updates, spans) = match p.arrival {
        Arrival::Open {
            rate_qps,
            connections,
        } if p.update_hz > 0.0 => {
            let n = (rate_qps * seconds).floor() as usize;
            let n_updates = (p.update_hz * seconds).floor() as usize;
            let (qc, uc) = clients.split_at_mut(connections);
            std::thread::scope(|s| {
                let h = s.spawn(|| {
                    let mut rec = traced.then(|| Recorder::new(t0, 1 << 40));
                    let u = update_stream(
                        &mut uc[0],
                        inputs,
                        cursor.batch,
                        p.update_hz,
                        n_updates,
                        t0,
                        &mut rec,
                    );
                    (u, rec.map(|r| r.spans).unwrap_or_default())
                });
                let (q, mut spans) = open_loop(qc, inputs, cursor, rate_qps, n, t0, traced);
                let (u, uspans) = h.join().expect("update thread panicked");
                spans.extend(uspans);
                (q, u, spans)
            })
        }
        Arrival::Open { rate_qps, .. } => {
            let n = (rate_qps * seconds).floor() as usize;
            let (q, s) = open_loop(clients, inputs, cursor, rate_qps, n, t0, traced);
            (q, Vec::new(), s)
        }
        Arrival::Closed => {
            let (q, s) = closed_loop(&mut clients[0], inputs, cursor, seconds, t0, traced);
            (q, Vec::new(), s)
        }
    };
    Window {
        queries,
        updates,
        elapsed: t0.elapsed(),
        spans,
    }
}

/// A window's measurements, with the scrapes and CPU samples around it.
pub struct Measured {
    pub window: Window,
    pub before: Scrape,
    pub after: Scrape,
    pub server_cpu_s: f64,
    pub self_cpu_s: f64,
}

/// Run one window between two metrics scrapes and CPU samples.
pub fn measure(
    w: Workload,
    clients: &mut [GsiClient],
    server_pid: u32,
    inputs: &Inputs,
    cursor: Cursor,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let scrape = |c: &mut GsiClient| Scrape::take(c).map_err(|e| format!("metrics: {e}"));
    let pid = server_pid.to_string();
    let before = scrape(&mut clients[0])?;
    let (cpu0, self0) = (wire::cpu_seconds(&pid), wire::cpu_seconds("self"));
    let window = run_window(w, clients, inputs, cursor, seconds, traced);
    let (cpu1, self1) = (wire::cpu_seconds(&pid), wire::cpu_seconds("self"));
    let after = scrape(&mut clients[0])?;
    Ok(Measured {
        window,
        before,
        after,
        server_cpu_s: cpu1 - cpu0,
        self_cpu_s: self1 - self0,
    })
}
