//! The I/O front end: one thread, one poll set, every connection.
//!
//! [`io_loop`] replaces the old thread-per-connection design. It owns
//! the listener, the wake pipe, and every client socket, multiplexing
//! them through [`crate::reactor::poll_fds`] so thousands of idle
//! connections cost a poll-set entry each instead of two parked
//! threads. All sockets are nonblocking with manual line assembly
//! (reads append to a per-connection buffer, writes drain a
//! per-connection queue), so a slow client never stalls anyone else.
//!
//! Routing is rendezvous hashing ([`shard_of`]) over the request's
//! FNV-1a content fingerprint: a repeat graph always lands on the same
//! replica — the one whose LRU shard is warm — and growing the replica
//! count only moves the keys that rendezvous onto the new shard.
//!
//! ## Drain choreography
//!
//! A shutdown request makes the loop drop its job senders; each replica
//! finishes its queued backlog and exits (see `replica.rs`). The loop
//! keeps running — answering late connects with `draining`, routing the
//! backlog's completions — until the completion channel reports all
//! replicas gone and every response byte is flushed.

use crate::error::ServeError;
use crate::lru::{realloc_fingerprint, request_fingerprint};
use crate::reactor::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::replica::{Completion, Job, JobKind};
use crate::server::ServeConfig;
use spg_graph::wire::{parse_request, WireRequest};
use spg_graph::ClusterSpec;
use spg_obs::TelemetrySink;
use spg_sim::inject::{Fault, Site};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{self, SyncSender, TryRecvError, TrySendError};
use std::time::{Duration, Instant};

/// Largest request line accepted before the connection is cut off —
/// large enough for any benchmark graph, small enough to bound a
/// hostile client's memory bill.
const MAX_LINE_BYTES: usize = 64 << 20;

/// How long after the replicas finish the loop keeps trying to flush
/// responses to clients that have stopped reading.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// Which replica serves `fingerprint`, by rendezvous (highest random
/// weight) hashing: deterministic for a fixed replica count, and
/// growing `replicas` by one only remaps the keys that rendezvous onto
/// the new shard (~`1/replicas` of them) — warm LRU shards stay warm.
pub fn shard_of(fingerprint: u64, replicas: u32) -> u32 {
    if replicas <= 1 {
        return 0;
    }
    let mut best = 0u32;
    let mut best_weight = 0u64;
    for r in 0..replicas {
        let salt = 0x9E3779B97F4A7C15u64.wrapping_mul(r as u64 + 1);
        let weight = splitmix64(fingerprint ^ salt);
        if r == 0 || weight > best_weight {
            best = r;
            best_weight = weight;
        }
    }
    best
}

/// SplitMix64 finalizer: a cheap, well-mixed u64 → u64 hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// What the I/O loop itself counted (replica work is reported by the
/// replicas).
#[derive(Debug, Default)]
pub(crate) struct IoStats {
    /// Requests refused at the front door: parse failures, overload,
    /// draining, unsupported versions.
    pub protocol_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet terminated by a newline.
    rbuf: Vec<u8>,
    /// Response bytes queued for this connection; `wpos` marks how far
    /// the socket has accepted them.
    wbuf: Vec<u8>,
    wpos: usize,
    read_eof: bool,
    /// Jobs in flight on some replica whose answers must come back here.
    outstanding: usize,
    dead: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Write as much of the pending buffer as the socket accepts.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }
}

/// Everything `handle_line` needs that outlives a single connection.
struct Router<'a> {
    job_txs: Vec<SyncSender<Job>>,
    depth: Vec<i64>,
    draining: bool,
    stats: IoStats,
    cfg: &'a ServeConfig,
    cluster: ClusterSpec,
    source_rate: f64,
    sink: &'a TelemetrySink,
    /// Monotone per-job sequence, the key replicas track in-flight
    /// work under (see `FlightTable`).
    next_seq: u64,
}

impl Router<'_> {
    /// Parse one request line and route it: protocol errors are
    /// answered inline, shutdown starts the drain, allocations are
    /// rendezvous-hashed onto a replica queue (or bounce with
    /// `overloaded` / `draining`).
    fn handle_line(&mut self, line: &str, conn_id: u64, conn: &mut Conn) {
        let (id, graph, devices, rate, version, deadline_ms, kind) = match parse_request(line) {
            Ok(WireRequest::Alloc(req)) => (
                req.id,
                req.graph,
                req.devices,
                req.source_rate,
                req.v.unwrap_or(1),
                req.deadline_ms,
                JobKind::Alloc,
            ),
            Ok(WireRequest::Realloc(req)) => (
                req.id,
                req.graph,
                req.devices,
                req.source_rate,
                req.v.unwrap_or(1),
                req.deadline_ms,
                JobKind::Realloc {
                    prior_placement: req.prior_placement,
                    delta: req.delta,
                },
            ),
            Ok(WireRequest::Shutdown) => {
                // Dropping the senders is the drain signal: each replica
                // finishes its backlog and exits when its queue closes.
                self.draining = true;
                self.job_txs.clear();
                return;
            }
            Err(e) => {
                self.stats.protocol_errors += 1;
                conn.queue_line(&e.response(None).to_line());
                return;
            }
        };
        let refuse = |stats: &mut IoStats, conn: &mut Conn, err: ServeError, id: String| {
            stats.protocol_errors += 1;
            conn.queue_line(&err.response(Some(id)).to_line());
        };
        if self.draining || self.job_txs.is_empty() {
            return refuse(&mut self.stats, conn, ServeError::Draining, id);
        }
        let devices = devices.unwrap_or(self.cluster.devices);
        let rate = rate.unwrap_or(self.source_rate);
        // Reallocs fingerprint over (prior, placement, delta) in a key
        // space disjoint from plain allocs, so a repeat delta replays
        // from the same warm LRU shard; int8 keys get a space of their
        // own the same way.
        let fingerprint = match &kind {
            JobKind::Alloc => request_fingerprint(&graph, devices, rate),
            JobKind::Realloc {
                prior_placement,
                delta,
            } => realloc_fingerprint(&graph, prior_placement, delta, devices, rate),
        };
        let fingerprint = self.cfg.precision.key(fingerprint);
        let shard = shard_of(fingerprint, self.job_txs.len() as u32);
        // Past the watermark the shard is already behind: mark the job
        // cache-only so the replica answers from its LRU or sheds,
        // rather than queueing more inference behind the backlog.
        let cache_only = self.cfg.shed_watermark > 0
            && self.depth[shard as usize] >= self.cfg.shed_watermark as i64;
        self.next_seq += 1;
        let job = Job {
            seq: self.next_seq,
            version,
            id,
            graph,
            devices,
            source_rate: rate,
            fingerprint,
            kind,
            deadline_ms,
            cache_only,
            conn: conn_id,
            enqueued: Instant::now(),
        };
        match self.job_txs[shard as usize].try_send(job) {
            Ok(()) => {
                conn.outstanding += 1;
                self.depth[shard as usize] += 1;
                self.sink.gauge(
                    &format!("serve.replica.{shard}.queue_depth"),
                    self.depth[shard as usize] as f64,
                );
            }
            Err(TrySendError::Full(job)) => refuse(
                &mut self.stats,
                conn,
                ServeError::Overloaded {
                    queue_capacity: self.cfg.queue_capacity,
                },
                job.id,
            ),
            Err(TrySendError::Disconnected(job)) => {
                refuse(&mut self.stats, conn, ServeError::Draining, job.id)
            }
        }
    }
}

/// Run the event loop until shutdown completes. Owns the calling
/// thread; replicas run elsewhere and talk back through `done_rx` plus
/// the wake pipe.
#[allow(clippy::too_many_arguments)]
pub(crate) fn io_loop(
    listener: &TcpListener,
    job_txs: Vec<SyncSender<Job>>,
    done_rx: &mpsc::Receiver<Completion>,
    wake: &WakePipe,
    cfg: &ServeConfig,
    cluster: ClusterSpec,
    source_rate: f64,
    sink: &TelemetrySink,
) -> IoStats {
    let replicas = job_txs.len();
    let mut router = Router {
        job_txs,
        depth: vec![0; replicas],
        draining: false,
        stats: IoStats::default(),
        cfg,
        cluster,
        source_rate,
        sink,
        next_seq: 0,
    };
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut replicas_done = false;
    let mut drain_started: Option<Instant> = None;
    let mut chunk = [0u8; 64 << 10];

    loop {
        // Poll set: wake pipe, listener, then one entry per connection
        // asking only for what it can use right now.
        let mut fds = vec![
            PollFd::new(wake.fd(), POLLIN),
            PollFd::new(listener.as_raw_fd(), POLLIN),
        ];
        let mut order: Vec<u64> = Vec::with_capacity(conns.len());
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.read_eof && conn.rbuf.len() < MAX_LINE_BYTES {
                events |= POLLIN;
            }
            if !conn.flushed() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            order.push(id);
        }
        if poll_fds(&mut fds, Some(Duration::from_millis(100))).is_err() {
            // A broken poll set cannot be served; dropping the job
            // senders (end of this function) drains the replicas.
            break;
        }
        wake.drain();

        // Route finished work back to its connection. `Disconnected`
        // means every replica has exited AND the channel buffer is
        // empty — std channels deliver all buffered messages first.
        loop {
            match done_rx.try_recv() {
                Ok(completion) => {
                    router.depth[completion.shard as usize] -= 1;
                    if let Some(conn) = conns.get_mut(&completion.conn) {
                        // A completion for a connection with nothing
                        // outstanding is a double completion — a server
                        // bug that must be counted, not absorbed (a
                        // saturating decrement here once masked them).
                        match conn.outstanding.checked_sub(1) {
                            Some(left) => conn.outstanding = left,
                            None => {
                                router.stats.protocol_errors += 1;
                                sink.counter("serve.double_completions", 1);
                                eprintln!(
                                    "serve: BUG: double completion from shard {} \
                                     for connection {}",
                                    completion.shard, completion.conn
                                );
                            }
                        }
                        conn.queue_line(&completion.line);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    replicas_done = true;
                    drain_started.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }

        // Accept everything pending — even while draining, so a late
        // connect gets a `draining` answer instead of silence.
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            sink.counter("serve.connections", 1);
            router.stats.connections += 1;
            next_conn_id += 1;
            conns.insert(
                next_conn_id,
                Conn {
                    stream,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    read_eof: false,
                    outstanding: 0,
                    dead: false,
                },
            );
        }

        // Read pass: pull every ready socket dry, then hand complete
        // lines to the router.
        for (slot, &id) in order.iter().enumerate() {
            let pfd = fds[2 + slot];
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if pfd.failed() {
                conn.dead = true;
                continue;
            }
            if !pfd.readable() || conn.read_eof {
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        if conn.rbuf.len() > MAX_LINE_BYTES {
                            router.stats.protocol_errors += 1;
                            conn.dead = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&raw);
                let line = line.trim();
                if !line.is_empty() {
                    router.handle_line(line, id, conn);
                }
            }
        }

        // Write pass: opportunistic — anything queued this iteration
        // usually leaves in the same iteration. The fault plan can tear
        // a connection here: the decision is pure in the connection id,
        // so a connection destined to fail fails at its first write.
        for (&id, conn) in conns.iter_mut() {
            if conn.dead || conn.flushed() {
                continue;
            }
            match cfg.faults.decide(Site::ConnWrite, id) {
                Some(Fault::ConnDrop) => {
                    sink.counter("serve.fault.conns_dropped", 1);
                    conn.dead = true;
                }
                Some(Fault::TornWrite) => {
                    // Half the pending bytes go out, then the socket
                    // dies: the client sees a torn line, never a hang.
                    sink.counter("serve.fault.torn_writes", 1);
                    let cut = conn.wpos + (conn.wbuf.len() - conn.wpos) / 2;
                    let _ = conn.stream.write(&conn.wbuf[conn.wpos..cut]);
                    conn.dead = true;
                }
                _ => conn.flush(),
            }
        }

        // Reap: broken sockets immediately; clean EOF once every
        // outstanding answer has come back and been flushed.
        conns.retain(|_, conn| {
            !(conn.dead || (conn.read_eof && conn.outstanding == 0 && conn.flushed()))
        });

        if replicas_done {
            let all_flushed = conns.values().all(Conn::flushed);
            let overdue = drain_started
                .map(|t| t.elapsed() > DRAIN_FLUSH_DEADLINE)
                .unwrap_or(false);
            if all_flushed || overdue {
                break;
            }
        }
    }
    router.stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for fp in [0u64, 1, 42, u64::MAX, 0xdeadbeef] {
            for n in 1..=8u32 {
                let s = shard_of(fp, n);
                assert!(s < n, "shard {s} out of range for {n} replicas");
                assert_eq!(s, shard_of(fp, n), "must be deterministic");
            }
        }
    }

    #[test]
    fn shard_of_single_replica_is_always_zero() {
        for fp in 0..1000u64 {
            assert_eq!(shard_of(fp.wrapping_mul(0x9E3779B9), 1), 0);
        }
    }

    #[test]
    fn shard_of_spreads_load_across_replicas() {
        for n in [2u32, 4, 8] {
            let mut counts = vec![0usize; n as usize];
            for i in 0..4000u64 {
                counts[shard_of(splitmix64(i), n) as usize] += 1;
            }
            let expected = 4000 / n as usize;
            for (r, &c) in counts.iter().enumerate() {
                assert!(
                    c > expected / 2 && c < expected * 2,
                    "shard {r}/{n} got {c} of 4000 (expected ~{expected})"
                );
            }
        }
    }

    #[test]
    fn shard_of_grows_with_minimal_movement() {
        // Rendezvous property: adding a replica only moves keys that
        // now rendezvous onto the NEW shard — nothing reshuffles
        // between the old ones.
        for n in 1..6u32 {
            let mut moved = 0usize;
            for i in 0..2000u64 {
                let fp = splitmix64(i ^ 0xabcdef);
                let before = shard_of(fp, n);
                let after = shard_of(fp, n + 1);
                if before != after {
                    assert_eq!(after, n, "key moved to an old shard during growth");
                    moved += 1;
                }
            }
            let expected = 2000 / (n as usize + 1);
            assert!(
                moved < expected * 2,
                "{moved} of 2000 keys moved on {n}->{} (expected ~{expected})",
                n + 1
            );
        }
    }
}
