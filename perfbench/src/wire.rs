//! The server process and the client side of the wire.

use crate::inputs::GRAPH;
use gsi::api::QueryRequest;
use gsi::prelude::*;
use gsi::server::{ClientError, RemoteOutcome, RemoteUpdate};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc` reports CPU times in `USER_HZ` ticks, which Linux fixes at 100.
const TICKS_PER_S: f64 = 100.0;

/// Busy refusals tolerated per operation before it counts as failed.
const MAX_BUSY_RETRIES: u32 = 50;

/// A `gsi-server` child process with default configuration on an
/// ephemeral loopback port. It drains and exits when its stdin closes.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open until the server exits: it prints a drain report.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    pub fn spawn(binary: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("gsi-server listening on ")
            .map(str::to_string);
        let mut server = ServerProc {
            child,
            stdin,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => {
                server.stop();
                Err(format!("gsi-server did not report its address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close stdin so the server drains, and wait for it; kill it if the
    /// drain takes longer than ten seconds.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// CPU time (user + system) of a process, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The server's metrics export, parsed from Prometheus text into
/// `name -> value` (histogram buckets and comments skipped).
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn take(client: &mut GsiClient) -> Result<Scrape, ClientError> {
        let text = client.metrics(MetricFormat::Prometheus)?;
        let map = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.trim().parse::<f64>().ok()?))
            })
            .collect();
        Ok(Scrape(map))
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Counter growth from `before` to `self`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

/// How one wire operation ended.
pub struct OpResult<T> {
    pub value: Result<T, String>,
    /// Busy refusals seen before the final answer.
    pub busy: u32,
}

fn with_busy_retries<T>(mut op: impl FnMut() -> Result<T, ClientError>) -> OpResult<T> {
    let mut busy = 0;
    loop {
        match op() {
            Ok(v) => return OpResult { value: Ok(v), busy },
            Err(ClientError::Busy { retry_after }) if busy < MAX_BUSY_RETRIES => {
                busy += 1;
                std::thread::sleep(retry_after.max(Duration::from_micros(500)));
            }
            Err(e) => {
                return OpResult {
                    value: Err(e.to_string()),
                    busy,
                }
            }
        }
    }
}

pub fn query(client: &mut GsiClient, pattern: &Graph) -> OpResult<RemoteOutcome> {
    with_busy_retries(|| client.query(QueryRequest::new(GRAPH, pattern.clone())))
}

pub fn update(client: &mut GsiClient, batch: &UpdateBatch) -> OpResult<RemoteUpdate> {
    with_busy_retries(|| client.update(GRAPH, batch))
}
