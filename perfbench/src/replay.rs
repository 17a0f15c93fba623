//! The traced in-process replay: the same generated inputs, driven
//! through each layer's public functions with a span around every call.
//! Its numbers attribute time to crates; end-to-end numbers never come
//! from it.

use crate::inputs::{reference_engine, Inputs, GRAPH};
use crate::trace::Recorder;
use gsi::api::QueryRequest;
use gsi::graph::MultiPcsr;
use gsi::prelude::*;
use gsi::server::frame::{decode_frame, encode_frame, Frame, FrameHeader};
use gsi::server::ServerConfig;
use gsi::signature::SignatureTable;
use std::collections::HashSet;
use std::time::Duration;

/// Sums over the replayed queries and updates.
#[derive(Default)]
pub struct Replay {
    pub queries: u64,
    pub rows: u64,
    pub query_vertices: u64,
    pub candidates: u64,
    /// Candidates that appear in at least one match.
    pub useful_candidates: u64,
    pub intermediate_rows: u64,
    pub filter: Duration,
    pub materialize: Duration,
    pub encode: Duration,
    pub decode: Duration,
    pub wire_bytes: u64,
    pub store_build: Duration,
    pub table_build: Duration,
    pub updates: u64,
    pub update_apply: Duration,
    pub update_splice: Duration,
    /// Replayed results whose row count differed from the reference.
    pub mismatches: u64,
}

/// Encode the response frames the server would send for `rows`, then
/// decode them again, as the client does.
fn codec_round_trip(
    rec: &mut Recorder,
    request: u64,
    parent: u64,
    rows: &[Vec<u32>],
    width: u32,
    out: &mut Replay,
) {
    let chunk_rows = ServerConfig::default().chunk_rows.max(1);
    let header = FrameHeader::new(request, "");
    let frames = rec.span("server.encode_frame", request, Some(parent), |_, _| {
        let mut frames = vec![encode_frame(
            &header,
            &Frame::ResponseHeader {
                n_matches: rows.len() as u64,
                n_query_vertices: width,
                epoch: 0,
                completion: Completion::Complete,
                plan_cache_hit: true,
                latency_us: 0,
            },
        )];
        for (c, chunk) in rows.chunks(chunk_rows).enumerate() {
            let flat: Vec<u32> = chunk.iter().flatten().copied().collect();
            frames.push(encode_frame(
                &header,
                &Frame::MatchChunk {
                    first_row: (c * chunk_rows) as u64,
                    n_query_vertices: width,
                    rows: flat,
                },
            ));
        }
        frames.push(encode_frame(&header, &Frame::ResponseDone));
        frames
    });
    let decoded = rec.span("server.decode_frame", request, Some(parent), |_, _| {
        frames.iter().filter(|f| decode_frame(f).is_ok()).count()
    });
    if decoded != frames.len() {
        out.mismatches += 1;
    }
    out.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
}

fn span_len(rec: &Recorder, name: &'static str) -> Duration {
    rec.spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(Duration::ZERO, |s| s.end - s.start)
}

/// Replay up to `max_queries` distinct patterns of `requested` and the
/// first `max_updates` update batches.
pub fn run(
    inputs: &Inputs,
    requested: &[usize],
    max_queries: usize,
    max_updates: usize,
    rec: &mut Recorder,
) -> Replay {
    let mut out = Replay::default();
    let data = &inputs.data;
    let engine = reference_engine();
    let cfg = engine.config().clone();

    // Offline builds, timed on their own (request 0).
    rec.span("graph.store_build", 0, None, |_, _| {
        std::hint::black_box(MultiPcsr::build_with_gpn(data, cfg.storage_gpn))
    });
    out.store_build = span_len(rec, "graph.store_build");
    rec.span("signature.table_build", 0, None, |_, _| {
        std::hint::black_box(SignatureTable::build(
            engine.gpu(),
            data,
            &cfg.signature,
            cfg.signature_layout,
        ))
    });
    out.table_build = span_len(rec, "signature.table_build");
    let prepared = engine.prepare(data);
    let service = GsiService::new(ServiceConfig::default());
    rec.span("service.register", 0, None, |_, _| {
        service.register(GRAPH, data.clone())
    });

    let mut seen = HashSet::new();
    let patterns: Vec<usize> = requested
        .iter()
        .copied()
        .filter(|p| seen.insert(*p))
        .take(max_queries)
        .collect();
    for (i, &p) in patterns.iter().enumerate() {
        let request = 1 + i as u64;
        let pattern = &inputs.pool[p];
        let query = &pattern.query;
        rec.span("replay.query", request, None, |rec, root| {
            let served = rec.span("service.query_blocking", request, Some(root), |_, _| {
                service.query_blocking(QueryRequest::new(GRAPH, query.clone()))
            });
            let served_rows = served
                .ok()
                .and_then(|r| r.result.ok())
                .map(|o| o.output.matches.len() as u64);
            let cands = rec.span("core.filter", request, Some(root), |_, _| {
                engine.filter(&prepared, query)
            });
            out.filter += span_len(rec, "core.filter");
            let output = rec.span("core.query_with_options", request, Some(root), |_, _| {
                engine.query_with_options(data, &prepared, query, QueryOptions::default())
            });
            let Ok(output) = output else {
                out.mismatches += 1;
                return;
            };
            // RunStats splits the call into its phases; lay them out as
            // children so the call's self time is what they leave over.
            let parent = rec.spans.last().expect("just recorded").id;
            let mut at = rec.start_of(parent);
            for (name, len) in [
                ("core.filter_phase", output.stats.filter_time),
                ("core.plan", output.stats.plan_time),
                ("core.join", output.stats.join_time),
            ] {
                rec.record(name, request, parent, at, len);
                at += len;
            }
            let matches = &output.matches;
            let rows = rec.span("core.materialize", request, Some(root), |_, _| {
                (0..matches.len())
                    .map(|r| matches.assignment(r))
                    .collect::<Vec<_>>()
            });
            out.materialize += span_len(rec, "core.materialize");
            codec_round_trip(
                rec,
                request,
                root,
                &rows,
                query.n_vertices() as u32,
                &mut out,
            );
            out.encode += span_len(rec, "server.encode_frame");
            out.decode += span_len(rec, "server.decode_frame");

            if served_rows != Some(pattern.digest.rows) || rows.len() as u64 != pattern.digest.rows
            {
                out.mismatches += 1;
            }
            out.queries += 1;
            out.rows += rows.len() as u64;
            out.query_vertices += cands.len() as u64;
            out.intermediate_rows += output
                .stats
                .step_rows
                .iter()
                .map(|&r| r as u64)
                .sum::<u64>();
            for c in &cands {
                let u = c.query_vertex as usize;
                let used: HashSet<u32> = rows.iter().map(|row| row[u]).collect();
                out.candidates += c.len() as u64;
                out.useful_candidates += c.list.iter().filter(|v| used.contains(v)).count() as u64;
            }
        });
    }

    // Updates from the registered graph: the store splice alone, then
    // the engine's full re-prepare.
    let mut graph = inputs.registered.clone();
    let mut prepared = engine.prepare(&graph);
    for (k, batch) in inputs.batches.iter().take(max_updates).enumerate() {
        let request = (1 << 32) + k as u64;
        let next = rec.span("replay.update", request, None, |rec, root| {
            let spliced = rec.span("graph.apply_updates", request, Some(root), |_, _| {
                graph.apply_updates(batch)
            });
            out.update_splice += span_len(rec, "graph.apply_updates");
            if let (Ok(updated), Some(pcsr)) = (&spliced, prepared.store().as_pcsr()) {
                rec.span("graph.pcsr_splice", request, Some(root), |_, _| {
                    pcsr.apply_updates(updated, batch)
                });
                out.update_splice += span_len(rec, "graph.pcsr_splice");
            }
            let applied = rec.span("core.apply_updates", request, Some(root), |_, _| {
                engine.apply_updates(&graph, &prepared, batch)
            });
            out.update_apply += span_len(rec, "core.apply_updates");
            applied.ok()
        });
        match next {
            Some((g, p, _)) => {
                graph = g;
                prepared = p;
                out.updates += 1;
            }
            None => {
                out.mismatches += 1;
                break;
            }
        }
    }
    service.shutdown();
    out
}
