//! The untraced run: set-up, an in-process `axsd` driven over loopback by
//! closed-loop clients, server counter deltas, and the durability check
//! after shutdown.

use crate::workload::{
    Class, ClientGen, Op, ReadKind, Reply, Shared, Workload, BASE, CLASSES, CLIENTS,
};
use axs_client::wire::ErrorCode;
use axs_client::{Client, ClientError};
use axs_core::{StoreBuilder, XmlStore};
use axs_server::{Catalog, CatalogConfig, Server, ServerConfig, ServerHandle};
use axs_storage::StorageConfig;
use axs_xdm::NodeId;
use axs_xml::{parse_fragment, serialize, ParseOptions, SerializeOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The server configuration every run uses: two workers (= the host's
/// two cores the benchmark targets), everything else default — commit
/// window 0, MVCC on, fsync per group commit, no periodic flush.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// The catalog configuration `Server::start` would derive from it.
pub fn catalog_config(cfg: &ServerConfig) -> CatalogConfig {
    CatalogConfig {
        max_open: cfg.max_open_stores,
        commit_window: cfg.commit_window,
    }
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Builds the workload's initial store in `dir` from the generated XML,
/// flushed so the run starts from a clean, durable file.
pub fn build_store(shared: &Shared, dir: &Path) -> Result<XmlStore, String> {
    let mut store = StoreBuilder::new()
        .directory(dir)
        .build()
        .map_err(|e| err("build store", e))?;
    let tokens = parse_fragment(&shared.doc.xml, ParseOptions::data_centric())
        .map_err(|e| err("parse document", e))?;
    let iv = store.bulk_insert(tokens).map_err(|e| err("bulk load", e))?;
    if iv.start.get() != BASE || iv.len() != shared.doc.id_count() {
        return Err(format!(
            "bulk load returned {iv:?}, model expects {} ids from {BASE}",
            shared.doc.id_count()
        ));
    }
    for (k, (sub, frag)) in shared.setup_inserts.iter().enumerate() {
        let tokens = parse_fragment(&frag.xml, ParseOptions::data_centric())
            .map_err(|e| err("parse insert", e))?;
        let iv = store
            .insert_into_last(NodeId(*sub), tokens)
            .map_err(|e| err("setup insert", e))?;
        if iv.start.get() != shared.setup_insert_id(k) {
            return Err(format!(
                "setup insert {k} got {iv:?}, model expects {}",
                shared.setup_insert_id(k)
            ));
        }
    }
    store.flush().map_err(|e| err("flush", e))?;
    Ok(store)
}

/// Removes a finished store directory.
pub fn remove_store(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| err(&format!("remove {}", dir.display()), e))
}

/// Pages in the store's data file (the meta page included).
pub fn data_pages(dir: &Path) -> u64 {
    file_len(&dir.join("data.pages")) / StorageConfig::default().page_size as u64
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A started server with its clients connected.
pub struct Running {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
    pub dir: PathBuf,
}

/// One timed set-up: build the store, adopt it into a catalog, start the
/// server and connect every client.
pub fn setup(shared: &Shared, dir: PathBuf) -> Result<(Running, Duration), String> {
    let started = Instant::now();
    let store = build_store(shared, &dir)?;
    let cfg = server_config();
    let catalog = Catalog::adopt(store, catalog_config(&cfg));
    let handle = Server::start_catalog(catalog, cfg).map_err(|e| err("start server", e))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect(handle.local_addr()).map_err(|e| err("connect", e))?);
    }
    Ok((
        Running {
            handle,
            clients,
            dir,
        },
        started.elapsed(),
    ))
}

/// Disconnects, then drains and flushes the server.
pub fn stop(running: Running) -> Result<PathBuf, String> {
    drop(running.clients);
    running.handle.shutdown();
    running
        .handle
        .join()
        .map_err(|e| err("server shutdown", e))?;
    Ok(running.dir)
}

/// Sends one op and decodes its reply.
fn call(client: &mut Client, op: &Op) -> Result<Reply, ClientError> {
    Ok(match op {
        Op::Read(ReadKind::Node, id) => Reply::Text(client.read_node(*id)?),
        Op::Read(ReadKind::Value, id) => Reply::Text(client.string_value(*id)?),
        Op::Read(ReadKind::Children, id) => Reply::Children(client.children(*id)?),
        Op::Read(ReadKind::Parent, id) => Reply::Parent(client.parent(*id)?),
        Op::InsertLast(parent, xml) => {
            let (s, e) = client.insert_last(*parent, xml)?;
            Reply::Interval(s, e)
        }
        Op::Replace(target, xml) => {
            let (s, e) = client.replace(*target, xml)?;
            Reply::Interval(s, e)
        }
        Op::Delete(target) => {
            client.delete(*target)?;
            Reply::Unit
        }
        Op::XPath(path) => Reply::Matches(
            client
                .query(path)?
                .into_iter()
                .map(|m| (m.id, m.xml))
                .collect(),
        ),
        Op::Flwor(query) => Reply::Rows(client.flwor(query)?),
        Op::Scrape => Reply::Entries(
            client
                .metrics()?
                .1
                .into_iter()
                .map(|e| (e.name, e.value))
                .collect(),
        ),
    })
}

/// `Busy` and lock-conflict refusals are retried; anything else fails
/// the op.
fn refused(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Server {
            code: ErrorCode::Busy | ErrorCode::Lock,
            ..
        }
    )
}

/// Failed checks: every one is counted, the first few are kept (trimmed)
/// for the report, so a store that fails every op cannot exhaust memory.
#[derive(Clone, Default)]
pub struct Problems {
    pub count: u64,
    pub first: Vec<String>,
}

impl Problems {
    const KEPT: usize = 8;

    pub fn push(&mut self, problem: String) {
        self.count += 1;
        if self.first.len() < Self::KEPT {
            self.first.push(problem.chars().take(400).collect());
        }
    }

    pub fn merge(&mut self, other: Problems) {
        self.count += other.count;
        let room = Self::KEPT - self.first.len();
        self.first.extend(other.first.into_iter().take(room));
    }
}

/// Per-class latencies (ns) and attempt counts of one phase.
#[derive(Default)]
pub struct Tally {
    pub lat_ns: [Vec<u64>; 4],
    pub attempts: u64,
    pub refused: u64,
    pub failed: u64,
    pub mismatches: Problems,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.attempts += other.attempts;
        self.refused += other.refused;
        self.failed += other.failed;
        self.mismatches.merge(other.mismatches);
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.iter().map(|v| v.len() as u64).sum()
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// What the timed phase produced.
pub struct Phase {
    pub tally: Tally,
    pub elapsed: Duration,
    pub gens: Vec<ClientGen>,
    /// Each client's completed ops in order, as (class, latency ns): the
    /// traced replay repeats each stream and compares with its prefix.
    pub logs: Vec<Vec<(Class, u64)>>,
}

/// Drives every client in a closed loop for `seconds`.
pub fn timed_phase(shared: &Arc<Shared>, clients: &mut [Client], seconds: u64) -> Phase {
    let barrier = Barrier::new(clients.len());
    type ClientRun = (Tally, Vec<(Class, u64)>, ClientGen, Instant, Instant);
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let shared = shared.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut gen = ClientGen::new(shared, c);
                    let mut tally = Tally::default();
                    let mut log = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs(seconds);
                    while Instant::now() < deadline {
                        let op = gen.next_op();
                        let t0 = Instant::now();
                        let outcome = loop {
                            tally.attempts += 1;
                            match call(client, &op) {
                                Err(e) if refused(&e) => tally.refused += 1,
                                other => break other,
                            }
                        };
                        let ns = t0.elapsed().as_nanos() as u64;
                        match outcome {
                            Ok(reply) => {
                                tally.lat_ns[op.class().index()].push(ns);
                                log.push((op.class(), ns));
                                if let Err(m) = gen.check(&op, &reply) {
                                    tally.mismatches.push(m);
                                }
                            }
                            Err(e) => {
                                tally.failed += 1;
                                tally.mismatches.push(format!("{op:?}: {e}"));
                                gen.abandon();
                                if client.is_poisoned() {
                                    break;
                                }
                            }
                        }
                    }
                    (tally, log, gen, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // The phase runs from the first client's start to the last client's
    // final reply.
    let start = results
        .iter()
        .map(|r| r.3)
        .min()
        .expect("at least one client");
    let end = results
        .iter()
        .map(|r| r.4)
        .max()
        .expect("at least one client");
    let mut tally = Tally::default();
    let mut gens = Vec::new();
    let mut logs = Vec::new();
    for (t, log, gen, _, _) in results {
        tally.merge(t);
        logs.push(log);
        gens.push(gen);
    }
    Phase {
        tally,
        elapsed: end - start,
        gens,
        logs,
    }
}

/// Named counters from one `Metrics` scrape.
pub fn scrape(client: &mut Client) -> Result<Vec<(String, u64)>, String> {
    client
        .metrics()
        .map(|(_, entries)| entries.into_iter().map(|e| (e.name, e.value)).collect())
        .map_err(|e| err("metrics scrape", e))
}

/// Counter changes and closing percentile values, by entry name.
pub type CounterReport = (Vec<(String, i64)>, Vec<(String, u64)>);

/// Server counters over the timed phase, for the `wal.*`, `lock.*`,
/// `mvcc.*` and `path.*` families: the change of every counter, and the
/// closing value of every percentile or maximum (whose difference means
/// nothing).
pub fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> CounterReport {
    let mut deltas = Vec::new();
    let mut closing = Vec::new();
    for (name, v) in after {
        if !["wal.", "lock.", "mvcc.", "path."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            continue;
        }
        if ["p50", "p90", "p99", "max"]
            .iter()
            .any(|q| name.contains(q))
        {
            closing.push((name.clone(), *v));
        } else {
            deltas.push((name.clone(), *v as i64 - entry(before, name) as i64));
        }
    }
    (deltas, closing)
}

pub fn entry(entries: &[(String, u64)], name: &str) -> u64 {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Store files' total size after shutdown.
pub fn store_bytes(dir: &Path) -> u64 {
    ["data.pages", "index.pages", "wal.log"]
        .iter()
        .map(|f| file_len(&dir.join(f)))
        .sum()
}

/// Reopens the store directory and checks that every acknowledged write
/// survived and no acknowledged delete did.
pub fn verify_reopened(
    shared: &Shared,
    dir: &Path,
    gens: &[ClientGen],
) -> Result<Problems, String> {
    let store = StoreBuilder::new()
        .directory(dir)
        .open()
        .map_err(|e| err("reopen", e))?;
    let mut problems = Problems::default();
    let read = |id: u64| -> Result<String, String> {
        let tokens = store.read_node(NodeId(id)).map_err(|e| e.to_string())?;
        serialize(&tokens, &SerializeOptions::default()).map_err(|e| e.to_string())
    };
    for gen in gens {
        for (&id, xml) in &gen.acked {
            match read(id) {
                Ok(got) if &got == xml => {}
                other => problems.push(format!("acknowledged write {id} after reopen: {other:?}")),
            }
        }
        for &id in &gen.gone {
            if store.contains(NodeId(id)) {
                problems.push(format!("acknowledged delete {id} present after reopen"));
            }
        }
    }
    if shared.workload == Workload::PointRead {
        for id in shared.sample_targets() {
            if read(id).as_deref() != Ok(shared.expected_doc_node(id).as_str()) {
                problems.push(format!("node {id} differs after reopen"));
            }
        }
    }
    Ok(problems)
}

/// Sorted-copy percentile (nearest rank), in microseconds; 0 when empty.
pub fn percentile_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1000.0
}

pub fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1000.0
    }
}

/// Per-class latency summary of a phase, by the metric names the report
/// uses.
pub fn class_summary(tally: &Tally) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for class in CLASSES {
        let lat = &tally.lat_ns[class.index()];
        if lat.is_empty() {
            continue;
        }
        let name = class.name();
        out.push((format!("{name}_count"), lat.len() as f64));
        out.push((format!("{name}_p50_us"), percentile_us(lat, 0.50)));
        out.push((format!("{name}_p90_us"), percentile_us(lat, 0.90)));
        out.push((format!("{name}_p99_us"), percentile_us(lat, 0.99)));
        out.push((format!("{name}_mean_us"), mean_us(lat)));
    }
    out
}
