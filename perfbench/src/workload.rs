//! The three workloads: what each client sends next, and what a correct
//! store answers. The same per-client generator drives the networked run
//! and the traced in-process replay, so both see one seeded op stream.
//!
//! * `point-read` — 20 000 bulk-loaded purchase orders (about 1 M tokens,
//!   several times the 64-frame buffer pool). Reads only: Zipf(0.99)-ranked
//!   element ids scattered over the document, rotating `read_node`,
//!   `string_value`, `children` and `parent`. Exercises the snapshot read
//!   path alone; no commit stage runs.
//! * `commit-large` — 6 000 one-element inserts spread round-robin over 64
//!   subtrees, built in-process, far larger than the pool. Durable writes
//!   only, each client on its own 32 subtrees, in cycles of 5 inserts, a
//!   replace, a delete and a reinsert. Every commit walks the whole range
//!   chain, so seal, publish and pool misses dominate.
//! * `hot-mixed` — 999 bulk-loaded orders plus one hot order appended by a
//!   single insert, all inside the pool. Both clients work on the hot order: half the ops insert a `<line>` or
//!   delete the client's oldest line beyond a ring of 8, half read the
//!   client's recent lines; 1 op in 50 is a whole-document query
//!   (alternating XPath and FLWOR), 1 in 100 a `Metrics` scrape.
//!
//! Read targets are element ids recorded while the document is generated.
//! The root is never a target (its string value is the whole store), and
//! neither is any attribute: `read_node` on an attribute id fails with the
//! store error "attribute token at position 0 outside an element start",
//! which is XQuery's rule that a standalone attribute cannot be serialized.

use crate::model::{unit, Doc, Zipf};
use axs_xdm::Token;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The first node id of a freshly built store; setup asserts it.
pub const BASE: u64 = 1;
/// Closed-loop clients (one connection each).
pub const CLIENTS: usize = 2;

const POINT_READ_ORDERS: usize = 20_000;
/// Coprime to `POINT_READ_ORDERS`: consecutive ranks land far apart.
const ORDER_STRIDE: usize = 7_919;
/// Element positions cycled through within an order (an order has 7 to
/// 23 elements; shorter ones wrap).
const ROLE_CYCLE: usize = 16;
const COMMIT_LARGE_SUBTREES: usize = 64;
const COMMIT_LARGE_SETUP_INSERTS: usize = 6_000;
const HOT_MIXED_ORDERS: usize = 1_000;
/// Lines a `hot-mixed` client keeps before deleting its oldest.
const RING: usize = 8;
const CUSTOMERS: u64 = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    CommitLarge,
    HotMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point-read" => Some(Workload::PointRead),
            "commit-large" => Some(Workload::CommitLarge),
            "hot-mixed" => Some(Workload::HotMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::CommitLarge => "commit-large",
            Workload::HotMixed => "hot-mixed",
        }
    }

    /// The op class whose latency the headline `lat_*` metrics report.
    pub fn primary(self) -> Class {
        match self {
            Workload::PointRead => Class::Read,
            Workload::CommitLarge | Workload::HotMixed => Class::Write,
        }
    }

    /// Whether the store must outgrow the buffer pool (`true`) or stay
    /// inside it (`false`) for the whole run.
    pub fn outgrows_pool(self) -> bool {
        self != Workload::HotMixed
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    Read,
    Write,
    Query,
    Scrape,
}

pub const CLASSES: [Class; 4] = [Class::Read, Class::Write, Class::Query, Class::Scrape];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Query => "query",
            Class::Scrape => "scrape",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    Node,
    Value,
    Children,
    Parent,
}

const READ_KINDS: [ReadKind; 4] = [
    ReadKind::Node,
    ReadKind::Value,
    ReadKind::Children,
    ReadKind::Parent,
];

#[derive(Clone, Debug)]
pub enum Op {
    Read(ReadKind, u64),
    InsertLast(u64, String),
    Replace(u64, String),
    Delete(u64),
    XPath(String),
    Flwor(String),
    Scrape,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Read(..) => Class::Read,
            Op::InsertLast(..) | Op::Replace(..) | Op::Delete(_) => Class::Write,
            Op::XPath(_) | Op::Flwor(_) => Class::Query,
            Op::Scrape => Class::Scrape,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Text(String),
    Children(Vec<(u64, String)>),
    Parent(Option<u64>),
    Interval(u64, u64),
    Unit,
    Matches(Vec<(Option<u64>, String)>),
    Rows(Vec<String>),
    Entries(Vec<(String, u64)>),
}

/// Everything generated from the seed before any client starts: the
/// initial document and the model each workload's checks consult.
pub struct Shared {
    pub workload: Workload,
    pub seed: u64,
    /// The bulk-loaded document.
    pub doc: Doc,
    /// Inserts applied after the bulk load during set-up, as (parent id,
    /// fragment), and the first id each one receives.
    pub setup_inserts: Vec<(u64, Doc)>,
    setup_ids: Vec<u64>,
    /// `point-read`: element offsets in Zipf rank order.
    targets: Vec<u64>,
    zipf: Option<Zipf>,
    /// `commit-large`: subtree element ids.
    subtrees: Vec<u64>,
    /// `hot-mixed`: the hot purchase order's id.
    hot: u64,
    /// `hot-mixed`: customer name -> (id, XML, value) of each order's
    /// date, in document order.
    dates_by_customer: HashMap<String, Vec<(u64, String, String)>>,
}

impl Shared {
    pub fn generate(workload: Workload, seed: u64) -> Shared {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_D0C5);
        let mut shared = Shared {
            workload,
            seed,
            doc: Doc::new(Vec::new()),
            setup_inserts: Vec::new(),
            setup_ids: Vec::new(),
            targets: Vec::new(),
            zipf: None,
            subtrees: Vec::new(),
            hot: 0,
            dates_by_customer: HashMap::new(),
        };
        match workload {
            Workload::PointRead => {
                shared.doc = Doc::new(axs_workload::purchase_orders(seed, POINT_READ_ORDERS));
                // Zipf ranks are scattered over the document with a fixed
                // stride over the orders and a fixed cycle over each
                // order's elements, so every seed puts the same kinds of
                // element (and the same document positions) at the hot
                // ranks; the seed changes the data and the draws.
                let orders: Vec<Vec<u64>> = shared
                    .doc
                    .children(0)
                    .into_iter()
                    .map(|(order, _)| shared.doc.elements_in(order))
                    .collect();
                let elements: usize = orders.iter().map(Vec::len).sum();
                let targets: Vec<u64> = (0..elements)
                    .map(|r| {
                        let order = &orders[r * ORDER_STRIDE % orders.len()];
                        // Each pass over the orders shifts the cycle, so an
                        // order's later ranks reach its other elements.
                        order[(r + r / orders.len()) % ROLE_CYCLE % order.len()]
                    })
                    .collect();
                shared.zipf = Some(Zipf::new(targets.len(), 0.99));
                shared.targets = targets;
            }
            Workload::CommitLarge => {
                let mut tokens = vec![Token::begin_element("store")];
                for s in 0..COMMIT_LARGE_SUBTREES {
                    tokens.push(Token::begin_element("sub"));
                    tokens.push(Token::begin_attribute("n", s.to_string()));
                    tokens.push(Token::EndAttribute);
                    tokens.push(Token::EndElement);
                }
                tokens.push(Token::EndElement);
                shared.doc = Doc::new(tokens);
                shared.subtrees = shared
                    .doc
                    .elements_below_root()
                    .into_iter()
                    .map(|off| BASE + off)
                    .collect();
                for k in 0..COMMIT_LARGE_SETUP_INSERTS {
                    let sub = shared.subtrees[k % COMMIT_LARGE_SUBTREES];
                    shared.push_setup_insert(sub, element_fragment(&format!("s{k}"), &mut rng));
                }
            }
            Workload::HotMixed => {
                shared.doc = Doc::new(axs_workload::purchase_orders(seed, HOT_MIXED_ORDERS - 1));
                // The hot order is appended by one insert after the bulk
                // load, so it starts in a range of its own. Inside a bulk
                // range, its position decides whether its growth keeps
                // moving a full range to fresh pages, and that varied by
                // seed (35 to 54 data pages after 10 s).
                let hot = axs_workload::docgen::purchase_order(&mut rng, HOT_MIXED_ORDERS as u64);
                shared.push_setup_insert(BASE, Doc::new(hot));
                shared.hot = shared.setup_ids[0];
                let orders: Vec<(u64, &Doc, u64)> = shared
                    .doc
                    .children(0)
                    .into_iter()
                    .map(|(order, _)| (BASE, &shared.doc, order))
                    .chain([(shared.hot, &shared.setup_inserts[0].1, 0)])
                    .collect();
                let mut dates: HashMap<String, Vec<(u64, String, String)>> = HashMap::new();
                for (base, doc, order) in orders {
                    // children: customer, date, line...
                    let kids = doc.children(order);
                    let date = kids[1].0;
                    dates.entry(doc.string_value(kids[0].0)).or_default().push((
                        base + date,
                        doc.read_node(date),
                        doc.string_value(date),
                    ));
                }
                shared.dates_by_customer = dates;
            }
        }
        shared
    }

    /// Bytes of live XML the generator loaded before the run.
    pub fn loaded_bytes(&self) -> u64 {
        self.doc.xml.len() as u64
            + self
                .setup_inserts
                .iter()
                .map(|(_, d)| d.xml.len() as u64)
                .sum::<u64>()
    }

    /// Queues a set-up insert; ids are handed out in order, gap-free.
    fn push_setup_insert(&mut self, parent: u64, doc: Doc) {
        let id = match (self.setup_ids.last(), self.setup_inserts.last()) {
            (Some(id), Some((_, prev))) => id + prev.id_count(),
            _ => BASE + self.doc.id_count(),
        };
        self.setup_ids.push(id);
        self.setup_inserts.push((parent, doc));
    }

    /// First id of set-up insert `k`.
    pub fn setup_insert_id(&self, k: usize) -> u64 {
        self.setup_ids[k]
    }

    /// Ids a point-read check after reopening samples.
    pub fn sample_targets(&self) -> impl Iterator<Item = u64> + '_ {
        self.targets.iter().take(64).map(|off| BASE + off)
    }

    /// Expected `read_node` of an initial-document node.
    pub fn expected_doc_node(&self, id: u64) -> String {
        self.doc.read_node(id - BASE)
    }
}

/// A one-element insert: `<e n="tag">text</e>` (three node ids).
fn element_fragment(tag: &str, rng: &mut StdRng) -> Doc {
    Doc::new(vec![
        Token::begin_element("e"),
        Token::begin_attribute("n", tag.to_string()),
        Token::EndAttribute,
        Token::text(format!("v{}", rng.gen_range(0..1_000_000u64))),
        Token::EndElement,
    ])
}

/// A purchase-order `<line>` (eight node ids).
fn line_fragment(tag: &str, rng: &mut StdRng) -> Doc {
    Doc::new(vec![
        Token::begin_element("line"),
        Token::begin_attribute("no", tag.to_string()),
        Token::EndAttribute,
        Token::begin_element("sku"),
        Token::text(format!("SKU-{:05}", rng.gen_range(0..10_000))),
        Token::EndElement,
        Token::begin_element("qty"),
        Token::text(rng.gen_range(1..100).to_string()),
        Token::EndElement,
        Token::begin_element("price"),
        Token::text(format!(
            "{}.{:02}",
            rng.gen_range(1..500),
            rng.gen_range(0..100)
        )),
        Token::EndElement,
        Token::EndElement,
    ])
}

/// A fragment this client wrote and the server acknowledged.
struct Written {
    id: u64,
    parent: u64,
    doc: Doc,
}

/// What the op just emitted is waiting for.
enum Pending {
    Nothing,
    Insert { parent: u64, doc: Doc },
    Replace { old: Written, doc: Doc },
    Delete { old: Written },
}

/// One client's op stream and model of its own writes.
pub struct ClientGen {
    shared: Arc<Shared>,
    client: usize,
    rng: StdRng,
    i: u64,
    pending: Pending,
    /// `point-read`: expected replies, by (read kind, id).
    cache: HashMap<(u8, u64), Reply>,
    /// `commit-large`: this client's live elements (setup inserts included).
    live: Vec<Written>,
    /// `commit-large`: subtree of the last delete, for the reinsert.
    reinsert_into: Option<u64>,
    /// `hot-mixed`: this client's recent lines, oldest first.
    ring: VecDeque<Written>,
    last_start: u64,
    next_tag: u64,
    /// Acknowledged writes still live: id -> XML.
    pub acked: HashMap<u64, String>,
    /// Acknowledged deletes (and replaced-away nodes).
    pub gone: Vec<u64>,
    /// Live XML bytes added (or, if negative, removed) by this client.
    pub bytes_delta: i64,
}

impl ClientGen {
    pub fn new(shared: Arc<Shared>, client: usize) -> ClientGen {
        let rng =
            StdRng::seed_from_u64(shared.seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
        let mut live = Vec::new();
        if shared.workload == Workload::CommitLarge {
            for (k, (sub, doc)) in shared.setup_inserts.iter().enumerate() {
                if owns_subtree(&shared, client, *sub) {
                    live.push(Written {
                        id: shared.setup_insert_id(k),
                        parent: *sub,
                        doc: Doc::new(doc.tokens.clone()),
                    });
                }
            }
        }
        ClientGen {
            shared,
            client,
            rng,
            i: 0,
            pending: Pending::Nothing,
            cache: HashMap::new(),
            live,
            reinsert_into: None,
            ring: VecDeque::new(),
            last_start: 0,
            next_tag: 0,
            acked: HashMap::new(),
            gone: Vec::new(),
            bytes_delta: 0,
        }
    }

    fn tag(&mut self) -> String {
        self.next_tag += 1;
        format!("c{}-{}", self.client, self.next_tag)
    }

    /// The next op of this client's stream.
    pub fn next_op(&mut self) -> Op {
        let i = self.i;
        self.i += 1;
        match self.shared.workload {
            Workload::PointRead => {
                let zipf = self.shared.zipf.as_ref().expect("point-read has a sampler");
                let rank = zipf.rank(unit(&mut self.rng));
                Op::Read(
                    READ_KINDS[(i % 4) as usize],
                    BASE + self.shared.targets[rank],
                )
            }
            Workload::CommitLarge => self.commit_large_op(i),
            Workload::HotMixed => self.hot_mixed_op(i),
        }
    }

    fn commit_large_op(&mut self, i: u64) -> Op {
        match i % 8 {
            5 | 6 if !self.live.is_empty() => {
                let at = self.rng.gen_range(0..self.live.len());
                let old = self.live.swap_remove(at);
                if i % 8 == 5 {
                    let tag = self.tag();
                    let doc = element_fragment(&tag, &mut self.rng);
                    let op = Op::Replace(old.id, doc.xml.clone());
                    self.pending = Pending::Replace { old, doc };
                    op
                } else {
                    self.reinsert_into = Some(old.parent);
                    let op = Op::Delete(old.id);
                    self.pending = Pending::Delete { old };
                    op
                }
            }
            _ => {
                let parent = match self.reinsert_into.take() {
                    Some(parent) => parent,
                    None => {
                        let own: Vec<u64> = self
                            .shared
                            .subtrees
                            .iter()
                            .copied()
                            .filter(|&s| owns_subtree(&self.shared, self.client, s))
                            .collect();
                        own[(i as usize / 8 * 6 + (i % 8) as usize) % own.len()]
                    }
                };
                let tag = self.tag();
                let doc = element_fragment(&tag, &mut self.rng);
                let op = Op::InsertLast(parent, doc.xml.clone());
                self.pending = Pending::Insert { parent, doc };
                op
            }
        }
    }

    fn hot_mixed_op(&mut self, i: u64) -> Op {
        if i % 100 == 99 {
            return Op::Scrape;
        }
        if i % 50 == 24 {
            let customer = format!("customer-{}", self.rng.gen_range(0..CUSTOMERS));
            return if (i / 50).is_multiple_of(2) {
                Op::XPath(format!(
                    "/purchase-orders/purchase-order[customer='{customer}']/date"
                ))
            } else {
                Op::Flwor(format!(
                    "for $o in /purchase-orders/purchase-order where $o/customer = '{customer}' return <d>{{ string($o/date) }}</d>"
                ))
            };
        }
        if i.is_multiple_of(2) || self.ring.is_empty() {
            if self.ring.len() > RING {
                let old = self.ring.pop_front().expect("ring is non-empty");
                let op = Op::Delete(old.id);
                self.pending = Pending::Delete { old };
                return op;
            }
            let tag = self.tag();
            let doc = line_fragment(&tag, &mut self.rng);
            let parent = self.shared.hot;
            let op = Op::InsertLast(parent, doc.xml.clone());
            self.pending = Pending::Insert { parent, doc };
            return op;
        }
        let at = self.rng.gen_range(0..self.ring.len());
        Op::Read(READ_KINDS[((i / 2) % 4) as usize], self.ring[at].id)
    }

    /// Checks a successful reply against the model and folds the write it
    /// acknowledges into this client's state.
    pub fn check(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        let pending = std::mem::replace(&mut self.pending, Pending::Nothing);
        match (op, pending) {
            (Op::Read(kind, id), _) => {
                let expected = self.expected_read(*kind, *id);
                same(op, &expected, reply)
            }
            (Op::InsertLast(..), Pending::Insert { parent, doc }) => {
                let id = self.check_interval(op, &doc, reply)?;
                self.bytes_delta += doc.xml.len() as i64;
                self.acked.insert(id, doc.xml.clone());
                let w = Written { id, parent, doc };
                match self.shared.workload {
                    Workload::HotMixed => self.ring.push_back(w),
                    _ => self.live.push(w),
                }
                Ok(())
            }
            (Op::Replace(..), Pending::Replace { old, doc }) => {
                let id = self.check_interval(op, &doc, reply)?;
                self.bytes_delta += doc.xml.len() as i64 - old.doc.xml.len() as i64;
                self.forget(old.id);
                self.acked.insert(id, doc.xml.clone());
                self.live.push(Written {
                    id,
                    parent: old.parent,
                    doc,
                });
                Ok(())
            }
            (Op::Delete(_), Pending::Delete { old }) => {
                same(op, &Reply::Unit, reply)?;
                self.bytes_delta -= old.doc.xml.len() as i64;
                self.forget(old.id);
                Ok(())
            }
            (Op::XPath(path), _) => {
                let customer = quoted(path);
                let expected = Reply::Matches(
                    self.dates_of(customer)
                        .iter()
                        .map(|(id, xml, _)| (Some(*id), xml.clone()))
                        .collect(),
                );
                same(op, &expected, reply)
            }
            (Op::Flwor(query), _) => {
                let customer = quoted(query);
                let expected = Reply::Rows(
                    self.dates_of(customer)
                        .iter()
                        .map(|(_, _, value)| format!("<d>{value}</d>"))
                        .collect(),
                );
                same(op, &expected, reply)
            }
            (Op::Scrape, _) => match reply {
                Reply::Entries(entries)
                    if ["lock.", "mvcc.", "wal."]
                        .iter()
                        .all(|p| entries.iter().any(|(name, _)| name.starts_with(p))) =>
                {
                    Ok(())
                }
                _ => Err(format!("{op:?}: scrape lacks lock/mvcc/wal entries")),
            },
            (op, _) => Err(format!("{op:?}: no pending model state")),
        }
    }

    /// Puts back the model state of an op that failed outright, so the
    /// next op does not act on a node the store may not hold.
    pub fn abandon(&mut self) {
        match std::mem::replace(&mut self.pending, Pending::Nothing) {
            Pending::Replace { old, .. } | Pending::Delete { old } => {
                // Outcome unknown: drop the node from the stream but do not
                // claim it is gone.
                self.acked.remove(&old.id);
            }
            Pending::Insert { .. } | Pending::Nothing => {}
        }
    }

    fn forget(&mut self, id: u64) {
        self.acked.remove(&id);
        self.gone.push(id);
    }

    fn dates_of(&self, customer: &str) -> &[(u64, String, String)] {
        self.shared
            .dates_by_customer
            .get(customer)
            .map_or(&[], Vec::as_slice)
    }

    fn check_interval(&mut self, op: &Op, doc: &Doc, reply: &Reply) -> Result<u64, String> {
        match reply {
            Reply::Interval(start, end)
                if end + 1 - start == doc.id_count() && *start > self.last_start =>
            {
                self.last_start = *start;
                Ok(*start)
            }
            other => Err(format!(
                "{op:?}: expected a fresh interval of {} ids, got {other:?}",
                doc.id_count()
            )),
        }
    }

    fn expected_read(&mut self, kind: ReadKind, id: u64) -> Reply {
        if let Some(w) = self
            .ring
            .iter()
            .chain(self.live.iter())
            .find(|w| w.id == id)
        {
            return expected_from(&w.doc, w.id, Some(w.parent), kind, 0);
        }
        let shared = &self.shared;
        self.cache
            .entry((kind as u8, id))
            .or_insert_with(|| expected_from(&shared.doc, BASE, None, kind, id - BASE))
            .clone()
    }
}

/// The reply a correct store gives for `kind` on node `off` of `doc`,
/// whose offset 0 has id `base`; `top_parent` is the parent id of the
/// fragment's top-level node.
fn expected_from(doc: &Doc, base: u64, top_parent: Option<u64>, kind: ReadKind, off: u64) -> Reply {
    match kind {
        ReadKind::Node => Reply::Text(doc.read_node(off)),
        ReadKind::Value => Reply::Text(doc.string_value(off)),
        ReadKind::Children => Reply::Children(
            doc.children(off)
                .into_iter()
                .map(|(k, name)| (base + k, name))
                .collect(),
        ),
        ReadKind::Parent => Reply::Parent(match doc.parent(off) {
            Some(p) => Some(base + p),
            None => top_parent,
        }),
    }
}

fn owns_subtree(shared: &Shared, client: usize, sub: u64) -> bool {
    let index = shared.subtrees.iter().position(|&s| s == sub).unwrap_or(0);
    index % CLIENTS == client
}

/// The single-quoted literal inside a generated query.
fn quoted(text: &str) -> &str {
    text.split('\'').nth(1).unwrap_or_default()
}

fn same(op: &Op, expected: &Reply, got: &Reply) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{op:?}: expected {expected:?}, got {got:?}"))
    }
}
