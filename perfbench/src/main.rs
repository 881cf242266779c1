//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-read|commit-large|hot-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its store from seeded generated XML (five times, to
//! time set-up), starts an in-process `axsd` with `Server::start_catalog`,
//! drives it for `--seconds` with two closed-loop clients over loopback,
//! checks every reply against the generator's model, shuts the server
//! down and reopens the store to check durability. With `--trace 1` it
//! then replays the same op stream in-process, timing each layer of the
//! request path (see `traced.rs`).
//!
//! With `--trace 0` the metrics are `lat_p50_us` and `lat_p90_us` of the
//! workload's primary op class (reads on `point-read`, durable writes on
//! the others), `ops_per_s`, `setup_s` (median of the set-ups) and
//! `bytes_per_user_byte`; with `--trace 1` they are the replay's per-layer
//! metrics, 0 for a stage the workload never runs.
//!
//! The last stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the line before
//! it is the full report (per-class latencies, server counter deltas,
//! regime guard, configuration, and with tracing the per-stage budget).
//! Working files live under `.perfbench_tmp/` in the current directory and
//! are removed before exit.

mod json;
mod model;
mod serve;
mod traced;
mod workload;

use json::J;
use serve::{entry, median, percentile_us};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Class, Shared, Workload, CLASSES};

/// Set-ups per run; `setup_s` is their median (a hot-mixed set-up takes
/// about 25 ms, and the median of three varied by a quarter between runs).
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload point-read|commit-large|hot-mixed --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let code = match run(&args) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Result<WorkDir, String> {
        let path = Path::new(".perfbench_tmp").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(Path::new(".perfbench_tmp"));
    }
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let shared = Arc::new(Shared::generate(args.workload, args.seed));
    let work = WorkDir::new(args)?;
    let cfg = serve::server_config();
    let frames = axs_storage::StorageConfig::default().pool_frames as u64;

    // ---- set-up, timed several times ------------------------------------
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut running = None;
    for k in 0..SETUPS {
        let (r, took) = serve::setup(&shared, work.0.join(format!("setup{k}")))?;
        setup_s.push(took.as_secs_f64());
        if k + 1 < SETUPS {
            serve::remove_store(&serve::stop(r)?)?;
        } else {
            running = Some(r);
        }
    }
    let mut running = running.expect("SETUPS > 0");

    // ---- timed phase -----------------------------------------------------
    let stats_of = |client: &mut axs_client::Client| -> Result<Vec<(String, u64)>, String> {
        client
            .stats()
            .map(|s| s.into_iter().map(|e| (e.name, e.value)).collect())
            .map_err(|e| format!("stats: {e}"))
    };
    let ranges_start = entry(&stats_of(&mut running.clients[0])?, "store.ranges");
    let pages_start = serve::data_pages(&running.dir);
    let before = serve::scrape(&mut running.clients[0])?;
    let phase = serve::timed_phase(&shared, &mut running.clients, args.seconds);
    let after = serve::scrape(&mut running.clients[0])?;
    let ranges_end = entry(&stats_of(&mut running.clients[0])?, "store.ranges");
    let dir = serve::stop(running)?;
    let pages_end = serve::data_pages(&dir);
    let store_bytes = serve::store_bytes(&dir);
    let reopen_started = Instant::now();
    let reopen_problems = serve::verify_reopened(&shared, &dir, &phase.gens)?;
    let reopen_s = reopen_started.elapsed().as_secs_f64();
    serve::remove_store(&dir)?;

    let user_bytes =
        shared.loaded_bytes() as i64 + phase.gens.iter().map(|g| g.bytes_delta).sum::<i64>();
    let bytes_per_user_byte = store_bytes as f64 / user_bytes as f64;
    let fits = |pages: u64| pages <= frames;
    let regime_ok = if args.workload.outgrows_pool() {
        !fits(pages_start) && !fits(pages_end)
    } else {
        fits(pages_start) && fits(pages_end)
    };

    let (deltas, closing) = serve::counter_deltas(&before, &after);
    let tally = &phase.tally;
    let ops = tally.ops();
    let ops_per_s = ops as f64 / phase.elapsed.as_secs_f64();
    let primary = &tally.lat_ns[args.workload.primary().index()];
    let mut problems = tally.mismatches.clone();
    problems.merge(reopen_problems.clone());
    if !regime_ok {
        problems.push(format!(
            "regime guard: {} data pages at start, {} at end, pool holds {frames} frames",
            pages_start, pages_end
        ));
    }
    if primary.is_empty() {
        problems.push("no op of the primary class completed".into());
    }

    let mut report = vec![
        ("workload", J::s(args.workload.name())),
        ("seed", J::u(args.seed)),
        ("seconds", J::u(args.seconds)),
        ("trace", J::Bool(args.trace)),
        (
            "nproc",
            J::u(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("git_commit", J::s(&git_commit())),
        (
            "server_config",
            J::obj(vec![
                ("workers", J::u(cfg.workers as u64)),
                ("queue_depth", J::u(cfg.queue_depth as u64)),
                ("max_connections", J::u(cfg.max_connections as u64)),
                ("idle_timeout_s", J::u(cfg.idle_timeout.as_secs())),
                ("request_timeout_s", J::u(cfg.request_timeout.as_secs())),
                (
                    "commit_window_us",
                    J::u(cfg.commit_window.as_micros() as u64),
                ),
                (
                    "slow_request_ms",
                    cfg.slow_request
                        .map_or(J::Null, |d| J::u(d.as_millis() as u64)),
                ),
                ("trace", J::Bool(cfg.trace)),
                ("max_open_stores", J::u(cfg.max_open_stores as u64)),
                ("mvcc", J::Bool(cfg.mvcc)),
            ]),
        ),
        (
            "catalog_config",
            J::obj(vec![
                ("backing", J::s("adopt")),
                ("max_open", J::u(cfg.max_open_stores as u64)),
                (
                    "commit_window_us",
                    J::u(cfg.commit_window.as_micros() as u64),
                ),
            ]),
        ),
        ("clients", J::u(workload::CLIENTS as u64)),
        (
            "regime",
            J::obj(vec![
                ("pool_frames", J::u(frames)),
                ("ranges_start", J::u(ranges_start)),
                ("ranges_end", J::u(ranges_end)),
                ("data_pages_start", J::u(pages_start)),
                ("data_pages_end", J::u(pages_end)),
                ("outgrows_pool", J::Bool(args.workload.outgrows_pool())),
                ("ok", J::Bool(regime_ok)),
            ]),
        ),
        (
            "setup_s_each",
            J::Arr(setup_s.iter().map(|&s| J::f(s)).collect()),
        ),
        (
            "untraced",
            J::obj(
                serve::class_summary(tally)
                    .into_iter()
                    .map(|(k, v)| (k, J::f(v)))
                    .chain([
                        ("ops".to_string(), J::u(ops)),
                        ("elapsed_s".to_string(), J::f(phase.elapsed.as_secs_f64())),
                        ("ops_per_s".to_string(), J::f(ops_per_s)),
                        ("attempts".to_string(), J::u(tally.attempts)),
                        ("refused".to_string(), J::u(tally.refused)),
                        ("failed".to_string(), J::u(tally.failed)),
                        (
                            "failed_frac".to_string(),
                            J::f(ratio(tally.refused + tally.failed, tally.attempts)),
                        ),
                    ])
                    .collect(),
            ),
        ),
        (
            "space",
            J::obj(vec![
                ("store_bytes", J::u(store_bytes)),
                ("user_bytes", J::i(user_bytes)),
                ("bytes_per_user_byte", J::f(bytes_per_user_byte)),
            ]),
        ),
        (
            "server_counters",
            J::obj(vec![
                (
                    "delta",
                    J::obj(deltas.into_iter().map(|(k, v)| (k, J::i(v))).collect()),
                ),
                (
                    "closing",
                    J::obj(closing.into_iter().map(|(k, v)| (k, J::u(v))).collect()),
                ),
            ]),
        ),
        (
            "reopen",
            J::obj(vec![
                (
                    "acked_writes",
                    J::u(phase.gens.iter().map(|g| g.acked.len() as u64).sum()),
                ),
                (
                    "acked_deletes",
                    J::u(phase.gens.iter().map(|g| g.gone.len() as u64).sum()),
                ),
                ("problems", J::u(reopen_problems.count)),
                ("seconds", J::f(reopen_s)),
            ]),
        ),
    ];

    let mut attempted = ops + tally.failed;
    let mut failed = tally.failed;
    let metrics = if args.trace {
        let dir = work.0.join("traced");
        let store = serve::build_store(&shared, &dir)?;
        // Half the run length bounds the replay, so a traced run stays
        // well inside the per-run time limit even when the replay is slower
        // than the run it repeats.
        let cap = Duration::from_secs(args.seconds).div_f64(2.0);
        let ops_per_client: Vec<u64> = phase.logs.iter().map(|l| l.len() as u64).collect();
        let replay = traced::replay(&shared, store, &ops_per_client, cap)?;
        let pages_end = serve::data_pages(&dir);
        serve::remove_store(&dir)?;
        problems.merge(replay.tracer.mismatches.clone());
        attempted += replay.ops;
        failed += replay.tracer.failed;
        let (layers, detail) = per_layer(&replay, &phase.logs, pages_end);
        report.push(("traced", detail));
        layers
    } else {
        vec![
            ("lat_p50_us", "us", percentile_us(primary, 0.50)),
            // p90, not p99, carries the bound: on a noisy 2-core host the
            // commit-large write p99 spread over 10 seeds reached 0.39 while
            // its p90 stayed at 0.18 (p99 per class is in the report line).
            ("lat_p90_us", "us", percentile_us(primary, 0.90)),
            ("ops_per_s", "1/s", ops_per_s),
            ("setup_s", "s", median(setup_s.clone())),
            ("bytes_per_user_byte", "ratio", bytes_per_user_byte),
        ]
    };
    report.push((
        "problems",
        J::Arr(problems.first.iter().map(|p| J::s(p)).collect()),
    ));
    report.push(("problem_count", J::u(problems.count)));
    drop(work);

    let correct = problems.count == 0;
    for p in &problems.first {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", J::obj(report));
    let result = J::obj(vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::u(attempted)),
        ("failed", J::u(failed)),
        (
            "metrics",
            J::obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        (
                            name,
                            J::obj(vec![("value", J::f(value)), ("unit", J::s(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

type Metric = (&'static str, &'static str, f64);

/// The per-layer metrics of a replay, plus its detailed stage budget.
fn per_layer(
    replay: &traced::Replay,
    logs: &[Vec<(Class, u64)>],
    pages_end: u64,
) -> (Vec<Metric>, J) {
    use traced::{
        clock_cost_ns, stage_sum_per_op_us, stages_of, CODEC, COLLECT, FIND, FSYNC, LOCK, MUTATE,
        PARENT, PARSE, PIN, PUBLISH, READ, SEAL, SERIALIZE, STAGES, STORE_LOCK, XPATH, XQUERY,
    };
    let tr = &replay.tracer;
    let (b, a) = (replay.before, replay.after);
    let median_of = |stage: &str| tr.calls.get(stage).map_or(0.0, |v| percentile_us(v, 0.5));
    let writes = tr.class_ops[Class::Write.index()];

    // Wire plus dispatch: what the untraced run spent per op beyond the
    // traced stages, over the same prefix of each client's op stream and
    // weighted by its op mix.
    let mut untraced: [Vec<u64>; 4] = Default::default();
    for (log, &done) in logs.iter().zip(&replay.done) {
        for &(class, ns) in log.iter().take(done as usize) {
            untraced[class.index()].push(ns);
        }
    }
    let mut overhead_total = 0.0;
    let mut overhead_ops = 0u64;
    let mut classes = Vec::new();
    for class in CLASSES {
        let n = untraced[class.index()].len() as u64;
        if n == 0 || tr.class_ops[class.index()] == 0 {
            continue;
        }
        let e2e = serve::mean_us(&untraced[class.index()]);
        let staged = stage_sum_per_op_us(tr, class);
        overhead_total += (e2e - staged) * n as f64;
        overhead_ops += n;
        let traced_ops = tr.class_ops[class.index()];
        classes.push((
            class.name().to_string(),
            J::obj(vec![
                ("ops", J::u(traced_ops)),
                (
                    "wall_us_per_op",
                    J::f(ratio(tr.class_wall_ns[class.index()], traced_ops) / 1000.0),
                ),
                ("stage_sum_us_per_op", J::f(staged)),
                ("untraced_mean_us", J::f(e2e)),
                ("server_overhead_us", J::f(e2e - staged)),
                (
                    "stages",
                    J::obj(
                        stages_of(tr, class)
                            .into_iter()
                            .map(|s| {
                                let ns = tr.class_stage_ns[&(class.index(), s)];
                                (s.to_string(), J::f(ratio(ns, traced_ops) / 1000.0))
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let server_overhead = if overhead_ops == 0 {
        0.0
    } else {
        overhead_total / overhead_ops as f64
    };
    let clock_ns = clock_cost_ns();
    let trace_overhead = clock_ns * ratio(tr.spans(), replay.ops) / 1000.0;
    let hits = a.pool_hits - b.pool_hits;
    let misses = a.pool_misses - b.pool_misses;

    let layers: Vec<Metric> = vec![
        ("xml.parse_us", "us", median_of(PARSE)),
        ("wire.codec_us", "us", median_of(CODEC)),
        ("server.overhead_us", "us", server_overhead),
        ("lock.wait_us", "us", median_of(LOCK)),
        (
            "lock.waits_per_write",
            "count",
            ratio(a.lock_waits - b.lock_waits, writes),
        ),
        ("store.lock_wait_us", "us", median_of(STORE_LOCK)),
        ("store.mutate_us", "us", median_of(MUTATE)),
        ("store.seal_us", "us", median_of(SEAL)),
        (
            "pool.reads_per_commit",
            "count",
            ratio(a.pool_reads - b.pool_reads, tr.commits),
        ),
        ("pool.hit_ratio", "ratio", ratio(hits, hits + misses)),
        ("mvcc.publish_us", "us", median_of(PUBLISH)),
        ("wal.fsync_wait_us", "us", median_of(FSYNC)),
        (
            "wal.records_per_commit",
            "count",
            ratio(a.wal_records - b.wal_records, tr.commits),
        ),
        (
            "wal.group_batch_mean",
            "count",
            ratio(a.gc_commits - b.gc_commits, a.gc_syncs - b.gc_syncs),
        ),
        ("mvcc.pin_us", "us", median_of(PIN)),
        ("view.find_us", "us", median_of(FIND)),
        ("view.parent_us", "us", median_of(PARENT)),
        ("view.read_us", "us", median_of(READ)),
        (
            "mvcc.decodes_per_read",
            "count",
            ratio(a.decodes - b.decodes, tr.snapshot_reads),
        ),
        ("xml.serialize_us", "us", median_of(SERIALIZE)),
        ("xpath.eval_us", "us", median_of(XPATH)),
        ("xquery.eval_us", "us", median_of(XQUERY)),
        ("scrape.collect_us", "us", median_of(COLLECT)),
        ("store.ranges_end", "count", a.ranges as f64),
        ("store.data_pages_end", "count", pages_end as f64),
        ("trace.overhead_us", "us", trace_overhead),
    ];
    let detail = J::obj(vec![
        ("ops", J::u(replay.ops)),
        ("elapsed_s", J::f(replay.elapsed.as_secs_f64())),
        ("commits", J::u(tr.commits)),
        ("refused", J::u(tr.refused)),
        ("failed", J::u(tr.failed)),
        ("clock_ns_per_span", J::f(clock_ns)),
        ("spans_per_op", J::f(ratio(tr.spans(), replay.ops))),
        (
            "stages",
            J::obj(
                STAGES
                    .iter()
                    .filter_map(|&s| {
                        let calls = tr.calls.get(s)?;
                        let total: u64 = calls.iter().sum();
                        Some((
                            s.to_string(),
                            J::obj(vec![
                                ("calls", J::u(calls.len() as u64)),
                                ("median_us", J::f(percentile_us(calls, 0.5))),
                                ("p99_us", J::f(percentile_us(calls, 0.99))),
                                ("total_us_per_op", J::f(ratio(total, replay.ops) / 1000.0)),
                            ]),
                        ))
                    })
                    .collect(),
            ),
        ),
        ("classes", J::Obj(classes)),
        (
            "layers",
            J::obj(layers.iter().map(|(n, _, v)| (*n, J::f(*v))).collect()),
        ),
    ]);
    (layers, detail)
}
