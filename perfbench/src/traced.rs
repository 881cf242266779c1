//! The traced run: the same seeded op stream replayed in-process on the
//! `StoreSlot` of an adopted store, following the server's request path
//! (`crates/server/src/exec.rs`, `Engine::run`) stage by stage and timing
//! each public call. Spans live in memory and are summarized at the end.
//!
//! The partition latches the server takes around its exclusive store
//! section are left out: the store lock they nest inside is already
//! exclusive, so they add no wait of their own.

use crate::serve::Problems;
use crate::workload::{Class, ClientGen, Op, ReadKind, Reply, Shared};
use axs_catalog::{Catalog, StoreSlot};
use axs_client::wire::{put_str, put_u32, put_u64, read_frame, write_frame, Frame, OpCode};
use axs_core::{ReadView, XmlStore};
use axs_lock::{LockError, LockMode, Resource, TxId};
use axs_xdm::NodeId;
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const PARSE: &str = "xml.parse";
pub const CODEC: &str = "wire.codec";
pub const LOCK: &str = "lock.wait";
pub const STORE_LOCK: &str = "store.lock_wait";
pub const MUTATE: &str = "store.mutate";
pub const SEAL: &str = "store.seal";
pub const PUBLISH: &str = "mvcc.publish";
pub const FSYNC: &str = "wal.fsync_wait";
pub const PIN: &str = "mvcc.pin";
pub const FIND: &str = "view.find";
pub const PARENT: &str = "view.parent";
pub const READ: &str = "view.read";
pub const SERIALIZE: &str = "xml.serialize";
pub const XPATH: &str = "xpath.eval";
pub const XQUERY: &str = "xquery.eval";
pub const COLLECT: &str = "scrape.collect";

/// Every stage, in request-path order.
pub const STAGES: [&str; 16] = [
    CODEC, PARSE, LOCK, STORE_LOCK, MUTATE, SEAL, PUBLISH, FSYNC, PIN, FIND, PARENT, READ,
    SERIALIZE, XPATH, XQUERY, COLLECT,
];

/// In-memory spans of one replay thread: per-call durations by stage,
/// and per-class totals for the self-time budget.
#[derive(Default)]
pub struct Tracer {
    pub calls: BTreeMap<&'static str, Vec<u64>>,
    /// (class, stage) -> total ns.
    pub class_stage_ns: BTreeMap<(usize, &'static str), u64>,
    pub class_ops: [u64; 4],
    pub class_wall_ns: [u64; 4],
    pub commits: u64,
    pub snapshot_reads: u64,
    pub refused: u64,
    pub failed: u64,
    pub mismatches: Problems,
}

impl Tracer {
    fn record(&mut self, class: Class, stage: &'static str, ns: u64) {
        self.calls.entry(stage).or_default().push(ns);
        *self
            .class_stage_ns
            .entry((class.index(), stage))
            .or_default() += ns;
    }

    fn time<R>(&mut self, class: Class, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(class, stage, t.elapsed().as_nanos() as u64);
        r
    }

    fn merge(&mut self, other: Tracer) {
        for (stage, calls) in other.calls {
            self.calls.entry(stage).or_default().extend(calls);
        }
        for (key, ns) in other.class_stage_ns {
            *self.class_stage_ns.entry(key).or_default() += ns;
        }
        for c in 0..4 {
            self.class_ops[c] += other.class_ops[c];
            self.class_wall_ns[c] += other.class_wall_ns[c];
        }
        self.commits += other.commits;
        self.snapshot_reads += other.snapshot_reads;
        self.refused += other.refused;
        self.failed += other.failed;
        self.mismatches.merge(other.mismatches);
    }

    /// Timed spans per op, for the clock-cost estimate.
    pub fn spans(&self) -> u64 {
        self.calls.values().map(|v| v.len() as u64).sum()
    }
}

enum Failure {
    /// A lock-manager refusal; the server answers `Lock` and the client
    /// retries.
    Refused,
    Failed(String),
}

impl From<LockError> for Failure {
    fn from(_: LockError) -> Self {
        Failure::Refused
    }
}

fn failed(context: &str, e: impl std::fmt::Display) -> Failure {
    Failure::Failed(format!("{context}: {e}"))
}

/// Counters read from the slot before and after the replay.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub pool_reads: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub lock_waits: u64,
    pub wal_records: u64,
    pub gc_commits: u64,
    pub gc_syncs: u64,
    pub decodes: u64,
    pub ranges: u64,
}

fn counters(slot: &StoreSlot) -> Counters {
    let store = slot.store.read();
    let pool = store.data_pool_stats();
    let gc = store.group_commit_stats().unwrap_or_default();
    Counters {
        pool_reads: pool.physical_reads,
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        lock_waits: slot.locks.stats().waits,
        wal_records: store.stats().wal_records,
        gc_commits: gc.commits,
        gc_syncs: gc.syncs,
        decodes: slot.epochs.stats().lazy_materialized,
        ranges: store.range_count() as u64,
    }
}

/// What the replay measured.
pub struct Replay {
    pub tracer: Tracer,
    pub before: Counters,
    pub after: Counters,
    pub elapsed: Duration,
    pub ops: u64,
    /// Ops replayed per client.
    pub done: Vec<u64>,
}

/// Replays `ops_per_client[c]` ops of client `c`'s stream (or stops at
/// `cap`) against a store freshly built in `dir`.
pub fn replay(
    shared: &Arc<Shared>,
    store: XmlStore,
    ops_per_client: &[u64],
    cap: Duration,
) -> Result<Replay, String> {
    let cfg = crate::serve::server_config();
    let catalog = Catalog::adopt(store, crate::serve::catalog_config(&cfg));
    let slot = catalog.slot_by_id(0).map_err(|e| e.to_string())?;
    let before = counters(&slot);
    let barrier = Barrier::new(ops_per_client.len());
    let started = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = ops_per_client
            .iter()
            .enumerate()
            .map(|(c, &ops)| {
                let shared = shared.clone();
                let slot = &slot;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut gen = ClientGen::new(shared, c);
                    let mut tr = Tracer::default();
                    barrier.wait();
                    let deadline = Instant::now() + cap;
                    for _ in 0..ops {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let op = gen.next_op();
                        let class = op.class();
                        let t0 = Instant::now();
                        let outcome = loop {
                            match exec(slot, &op, &mut tr) {
                                Err(Failure::Refused) => tr.refused += 1,
                                other => break other,
                            }
                        };
                        tr.class_wall_ns[class.index()] += t0.elapsed().as_nanos() as u64;
                        tr.class_ops[class.index()] += 1;
                        match outcome {
                            Ok(reply) => {
                                if let Err(m) = gen.check(&op, &reply) {
                                    tr.mismatches.push(m);
                                }
                            }
                            Err(Failure::Failed(m)) => {
                                tr.failed += 1;
                                tr.mismatches.push(format!("{op:?}: {m}"));
                                gen.abandon();
                            }
                            Err(Failure::Refused) => unreachable!("refusals are retried"),
                        }
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let after = counters(&slot);
    let done = tracers.iter().map(|t| t.class_ops.iter().sum()).collect();
    let mut tracer = Tracer::default();
    for t in tracers {
        tracer.merge(t);
    }
    let ops = tracer.class_ops.iter().sum();
    drop(slot);
    catalog.flush_all().map_err(|e| e.to_string())?;
    Ok(Replay {
        tracer,
        before,
        after,
        elapsed,
        ops,
        done,
    })
}

/// One op through the server's stages.
fn exec(slot: &StoreSlot, op: &Op, tr: &mut Tracer) -> Result<Reply, Failure> {
    let class = op.class();
    let t = Instant::now();
    let request = codec(&request_frame(op)).map_err(|e| failed("request codec", e))?;
    let request_ns = t.elapsed().as_nanos() as u64;
    debug_assert_eq!(request.opcode, opcode_of(op) as u8);
    let reply = match op {
        Op::Read(kind, id) => read(slot, *kind, NodeId(*id), tr)?,
        Op::InsertLast(..) | Op::Replace(..) | Op::Delete(_) => write(slot, op, tr)?,
        Op::XPath(_) | Op::Flwor(_) => query(slot, op, tr)?,
        Op::Scrape => scrape(slot, tr)?,
    };
    let t = Instant::now();
    for frame in response_frames(op, &reply) {
        codec(&frame).map_err(|e| failed("response codec", e))?;
    }
    tr.record(class, CODEC, request_ns + t.elapsed().as_nanos() as u64);
    Ok(reply)
}

fn read(slot: &StoreSlot, kind: ReadKind, id: NodeId, tr: &mut Tracer) -> Result<Reply, Failure> {
    let class = Class::Read;
    let snap = tr
        .time(class, PIN, || slot.epochs.pin())
        .ok_or_else(|| Failure::Failed("no published epoch".into()))?;
    tr.snapshot_reads += 1;
    tr.time(class, FIND, || snap.view_find_begin(id))
        .map_err(|e| failed("find", e))?;
    let reply = match kind {
        ReadKind::Node => {
            let tokens = tr
                .time(class, READ, || snap.read_node(id))
                .map_err(|e| failed("read_node", e))?;
            Reply::Text(
                tr.time(class, SERIALIZE, || {
                    serialize(&tokens, &SerializeOptions::default())
                })
                .map_err(|e| failed("serialize", e))?,
            )
        }
        ReadKind::Value => Reply::Text(
            tr.time(class, READ, || snap.string_value(id))
                .map_err(|e| failed("string_value", e))?,
        ),
        ReadKind::Children => Reply::Children(
            tr.time(class, READ, || {
                snap.children_of(id)?
                    .into_iter()
                    .map(|kid| {
                        let name = snap
                            .name_of(kid)?
                            .map(|q| q.to_lexical())
                            .unwrap_or_default();
                        Ok((kid.get(), name))
                    })
                    .collect::<Result<Vec<_>, axs_core::StoreError>>()
            })
            .map_err(|e| failed("children", e))?,
        ),
        ReadKind::Parent => Reply::Parent(
            tr.time(class, PARENT, || snap.parent_of(id))
                .map_err(|e| failed("parent", e))?
                .map(NodeId::get),
        ),
    };
    Ok(reply)
}

fn write(slot: &StoreSlot, op: &Op, tr: &mut Tracer) -> Result<Reply, Failure> {
    let class = Class::Write;
    let (target, xml) = match op {
        Op::InsertLast(t, xml) | Op::Replace(t, xml) => (NodeId(*t), Some(xml)),
        Op::Delete(t) => (NodeId(*t), None),
        _ => unreachable!("not a write"),
    };
    let tokens = match xml {
        Some(xml) => Some(
            tr.time(class, PARSE, || {
                parse_fragment(xml, ParseOptions::data_centric())
            })
            .map_err(|e| failed("parse", e))?,
        ),
        None => None,
    };
    let tx = slot.locks.begin();
    let result = (|| {
        tr.time(class, LOCK, || lock_node(slot, tx, target, LockMode::X))?;
        let mut store = tr.time(class, STORE_LOCK, || slot.store.write());
        let reply = tr
            .time(class, MUTATE, || match (op, tokens) {
                (Op::InsertLast(..), Some(tokens)) => store
                    .insert_into_last(target, tokens)
                    .map(|iv| Reply::Interval(iv.start.get(), iv.end.get())),
                (Op::Replace(..), Some(tokens)) => store
                    .replace_node(target, tokens)
                    .map(|iv| Reply::Interval(iv.start.get(), iv.end.get())),
                _ => store.delete_node(target).map(|()| Reply::Unit),
            })
            .map_err(|e| failed("mutate", e))?;
        commit(slot, store, tr)?;
        Ok(reply)
    })();
    slot.locks.unlock_all(tx);
    result
}

/// The replay's only calls into the commit API: seal the batch under the
/// exclusive store lock, release the lock, publish the epoch, then wait
/// for the group fsync. The stage names stay fixed if the API changes.
fn commit(
    slot: &StoreSlot,
    mut store: impl DerefMut<Target = XmlStore>,
    tr: &mut Tracer,
) -> Result<(), Failure> {
    let class = Class::Write;
    let ticket = tr
        .time(class, SEAL, || store.commit_nopublish())
        .map_err(|e| failed("seal", e))?;
    drop(store);
    if let Some(ticket) = ticket {
        tr.time(class, PUBLISH, || {
            slot.publisher.ensure_published(ticket.lsn())
        })
        .map_err(|e| failed("publish", e))?;
        tr.time(class, FSYNC, || ticket.wait())
            .map_err(|e| failed("fsync", e))?;
        tr.commits += 1;
    }
    Ok(())
}

/// The server's lock-then-validate loop: lock the range holding `id`,
/// re-check the mapping, fall back to a store lock when it keeps moving.
fn lock_node(slot: &StoreSlot, tx: TxId, id: NodeId, mode: LockMode) -> Result<(), Failure> {
    for _ in 0..4 {
        let located = slot
            .store
            .read()
            .locate_range(id)
            .map_err(|e| failed("locate", e))?;
        let Some((block, range)) = located else {
            slot.locks.lock(tx, Resource::Store, mode)?;
            return Ok(());
        };
        slot.locks
            .lock(tx, Resource::Range { block, range }, mode)?;
        if slot
            .store
            .read()
            .locate_range(id)
            .map_err(|e| failed("locate", e))?
            == Some((block, range))
        {
            return Ok(());
        }
        slot.locks.unlock_all(tx);
    }
    slot.locks.lock(tx, Resource::Store, mode)?;
    Ok(())
}

fn query(slot: &StoreSlot, op: &Op, tr: &mut Tracer) -> Result<Reply, Failure> {
    let class = Class::Query;
    let snap = tr
        .time(class, PIN, || slot.epochs.pin())
        .ok_or_else(|| Failure::Failed("no published epoch".into()))?;
    tr.snapshot_reads += 1;
    match op {
        Op::XPath(path) => {
            let matches = tr
                .time(class, XPATH, || {
                    let compiled = axs_xpath::compile(path).map_err(|e| e.to_string())?;
                    axs_xpath::evaluate_store(&*snap, &compiled).map_err(|e| e.to_string())
                })
                .map_err(|e| failed("xpath", e))?;
            let mut out = Vec::with_capacity(matches.len());
            for (node, tokens) in &matches {
                let xml = tr
                    .time(class, SERIALIZE, || {
                        serialize(tokens, &SerializeOptions::default())
                    })
                    .map_err(|e| failed("serialize", e))?;
                out.push((node.map(NodeId::get), xml));
            }
            Ok(Reply::Matches(out))
        }
        Op::Flwor(text) => {
            let rows = tr
                .time(class, XQUERY, || {
                    let q = axs_xquery::parse_flwor(text).map_err(|e| e.to_string())?;
                    axs_xquery::evaluate_flwor(&*snap, &q).map_err(|e| e.to_string())
                })
                .map_err(|e| failed("flwor", e))?;
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                out.push(
                    tr.time(class, SERIALIZE, || {
                        serialize(row, &SerializeOptions::default())
                    })
                    .map_err(|e| failed("serialize", e))?,
                );
            }
            Ok(Reply::Rows(out))
        }
        _ => unreachable!("not a query"),
    }
}

/// `Metrics` on the locked path: a store-wide S lock, shared store
/// access, then the counters the scrape reports (the server also renders
/// them as Prometheus text, which has no public entry point).
fn scrape(slot: &StoreSlot, tr: &mut Tracer) -> Result<Reply, Failure> {
    let class = Class::Scrape;
    let tx = slot.locks.begin();
    let result = (|| {
        tr.time(class, LOCK, || {
            slot.locks.lock(tx, Resource::Store, LockMode::S)
        })?;
        let store = tr.time(class, STORE_LOCK, || slot.store.read());
        Ok(Reply::Entries(
            tr.time(class, COLLECT, || collect(&store, slot)),
        ))
    })();
    slot.locks.unlock_all(tx);
    result
}

fn collect(store: &XmlStore, slot: &StoreSlot) -> Vec<(String, u64)> {
    let s = store.stats();
    let pool = store.data_pool_stats();
    let m = slot.epochs.stats();
    let locks = slot.locks.stats();
    let gc = store.group_commit_stats().unwrap_or_default();
    let (publishes, merged) = slot.publisher.stats();
    let age = slot.epochs.age_snapshot();
    [
        ("store.inserts", s.inserts),
        ("store.deletes", s.deletes),
        ("store.wal_records", s.wal_records),
        ("store.ranges", store.range_count() as u64),
        ("pool.data.hits", pool.hits),
        ("pool.data.misses", pool.misses),
        ("wal.group_commits", gc.commits),
        ("wal.group_syncs", gc.syncs),
        ("mvcc.current_epoch", m.current_epoch),
        ("mvcc.pins_total", m.pins_total),
        ("mvcc.lazy_materialized", m.lazy_materialized),
        ("mvcc.publishes", publishes),
        ("mvcc.publishes_merged", merged),
        ("mvcc.snapshot_age_us_p99", age.percentile(0.99)),
        ("lock.acquisitions", locks.acquisitions),
        ("lock.waits", locks.waits),
        ("lock.deadlocks", locks.deadlocks),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

fn opcode_of(op: &Op) -> OpCode {
    match op {
        Op::Read(ReadKind::Node, _) => OpCode::ReadNode,
        Op::Read(ReadKind::Value, _) => OpCode::Value,
        Op::Read(ReadKind::Children, _) => OpCode::Children,
        Op::Read(ReadKind::Parent, _) => OpCode::Parent,
        Op::InsertLast(..) => OpCode::InsertLast,
        Op::Replace(..) => OpCode::Replace,
        Op::Delete(_) => OpCode::Delete,
        Op::XPath(_) => OpCode::Query,
        Op::Flwor(_) => OpCode::Flwor,
        Op::Scrape => OpCode::Metrics,
    }
}

/// The request frame the client library would send.
fn request_frame(op: &Op) -> Frame {
    let mut p = Vec::new();
    match op {
        Op::Read(_, id) | Op::Delete(id) => put_u64(&mut p, *id),
        Op::InsertLast(id, xml) | Op::Replace(id, xml) => {
            put_u64(&mut p, *id);
            put_str(&mut p, xml);
        }
        Op::XPath(text) | Op::Flwor(text) => put_str(&mut p, text),
        Op::Scrape => {}
    }
    Frame::request_on(1, opcode_of(op), 0, p)
}

/// The response frames the server would send for `reply`.
fn response_frames(op: &Op, reply: &Reply) -> Vec<Frame> {
    let code = opcode_of(op) as u8;
    let mut p = Vec::new();
    let mut frames = Vec::new();
    match reply {
        Reply::Text(s) => put_str(&mut p, s),
        Reply::Children(kids) => {
            put_u32(&mut p, kids.len() as u32);
            for (id, name) in kids {
                put_u64(&mut p, *id);
                put_str(&mut p, name);
            }
        }
        Reply::Parent(parent) => {
            p.push(u8::from(parent.is_some()));
            put_u64(&mut p, parent.unwrap_or(0));
        }
        Reply::Interval(s, e) => {
            put_u64(&mut p, *s);
            put_u64(&mut p, *e);
        }
        Reply::Unit => {}
        Reply::Matches(matches) => {
            for (id, xml) in matches {
                let mut m = vec![u8::from(id.is_some())];
                put_u64(&mut m, id.unwrap_or(0));
                put_str(&mut m, xml);
                frames.push(Frame::more(1, code, m));
            }
            put_u64(&mut p, matches.len() as u64);
        }
        Reply::Rows(rows) => {
            for row in rows {
                let mut m = Vec::new();
                put_str(&mut m, row);
                frames.push(Frame::more(1, code, m));
            }
            put_u64(&mut p, rows.len() as u64);
        }
        Reply::Entries(entries) => {
            put_u32(&mut p, entries.len() as u32);
            for (name, v) in entries {
                put_str(&mut p, name);
                put_u64(&mut p, *v);
            }
        }
    }
    frames.push(Frame::done(1, code, p));
    frames
}

/// Encodes a frame into a buffer and decodes it back.
fn codec(frame: &Frame) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame)?;
    read_frame(&mut buf.as_slice())
}

/// Median cost of one timed span (two clock reads), in nanoseconds.
pub fn clock_cost_ns() -> f64 {
    let mut samples: Vec<u64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(Instant::now().elapsed());
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1000.0
}

/// Stage names by class, in path order, for the report.
pub fn stages_of(tr: &Tracer, class: Class) -> Vec<&'static str> {
    STAGES
        .iter()
        .copied()
        .filter(|s| tr.class_stage_ns.contains_key(&(class.index(), *s)))
        .collect()
}

/// Total traced stage time per op of `class`, in microseconds.
pub fn stage_sum_per_op_us(tr: &Tracer, class: Class) -> f64 {
    let ops = tr.class_ops[class.index()];
    if ops == 0 {
        return 0.0;
    }
    let ns: u64 = tr
        .class_stage_ns
        .iter()
        .filter(|((c, _), _)| *c == class.index())
        .map(|(_, ns)| ns)
        .sum();
    ns as f64 / ops as f64 / 1000.0
}
