//! One benchmark run: set up, serve over TCP, drive the seeded op list
//! from one closed-loop client, check every answer, shut down cleanly
//! and re-check what was written after reopening.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aim2::Database;
use aim2_model::Atom;
use aim2_net::{
    Client, ClientConfig, RetryPolicy, Server, ServerConfig, ServerHandle, TraceFormat,
};
use aim2_txn::SharedDatabase;

use crate::data::Shadow;
use crate::db::{self, Error};
use crate::json;
use crate::lanes;
use crate::ops::{self, check, round_ops, Answer, Class, Lane, Op, Workload};
use crate::report::{median, percentile, Report};

/// Answers are checked, and the CPU clock paused, once per this much
/// measured time; `/proc/self/stat` counts in 10 ms ticks.
const CHUNK: Duration = Duration::from_secs(1);
/// A p90 is a tail only with this many samples.
const P90_MIN_SAMPLES: usize = 100;

/// How fast the timed rounds went.
#[derive(Default)]
struct Pace {
    wall: Duration,
    /// Client-side busy time of each round (sum of its op latencies), ns.
    round_ns: Vec<f64>,
    /// Process CPU per op within each checking chunk, µs.
    chunk_cpu_us_per_op: Vec<f64>,
}

impl Pace {
    /// Ops per second of client wait time, at the median round.
    fn ops_per_s(&self, ops_per_round: usize) -> f64 {
        ops_per_round as f64 / (median(&self.round_ns) / 1e9)
    }
}

/// The served database and the one client connection.
struct Rig {
    dir: std::path::PathBuf,
    shared: SharedDatabase,
    server: ServerHandle,
    client: Client,
    shadow: Shadow,
    w: Workload,
    seed: u64,
    next_round: u64,
    /// Every op sent, warm-up included.
    attempted: u64,
    /// Ops the engine refused or could not finish.
    failed: u64,
    /// Ops answered differently from the oracle (or a failed reopen check).
    wrong: u64,
}

fn serve(dir: std::path::PathBuf, db: Database, w: Workload, seed: u64) -> Result<Rig, Error> {
    let shared = SharedDatabase::new(db);
    let server = Server::start(shared.clone(), ServerConfig::default())?;
    let client = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            client_name: "aim2-perfbench".to_string(),
            // A failure must surface as a failed op, never be retried away.
            retry: RetryPolicy::none(),
            read_timeout: Some(Duration::from_secs(120)),
            ..ClientConfig::default()
        },
    )?;
    Ok(Rig {
        dir,
        shared,
        server,
        client,
        shadow: Shadow::new(seed, w.sizes),
        w,
        seed,
        next_round: 0,
        attempted: 0,
        failed: 0,
        wrong: 0,
    })
}

impl Rig {
    fn take_round(&mut self) -> Vec<Op> {
        let ops = round_ops(&self.w, self.seed, self.next_round);
        self.next_round += 1;
        ops
    }

    /// Check answers in op order, advancing the shadow past each
    /// acknowledged write.
    fn settle(&mut self, done: Vec<(Op, Result<Answer, String>)>) {
        for (op, result) in done {
            self.attempted += 1;
            match result {
                Ok(answer) => match check(&self.shadow.expect(&op), &answer) {
                    None => {
                        if op.class.writes() {
                            self.shadow.apply(&op);
                        }
                    }
                    Some(why) => {
                        self.wrong += 1;
                        eprintln!("wrong answer to {}: {why}", ops::sql(&op));
                    }
                },
                Err(e) => {
                    self.failed += 1;
                    eprintln!("failed: {}: {e}", ops::sql(&op));
                }
            }
        }
    }

    /// Run whole rounds over TCP until `budget` of measured time has
    /// passed. Latencies (ns) per class go to `lat`.
    fn timed_rounds(&mut self, budget: Duration, lat: &mut [Vec<f64>; 7]) -> Result<Pace, Error> {
        let mut pace = Pace::default();
        let mut wall = Duration::ZERO;
        while wall < budget {
            let mut done = Vec::new();
            let (cpu0, t0) = (db::cpu_seconds()?, Instant::now());
            while t0.elapsed() < CHUNK && wall + t0.elapsed() < budget {
                let mut round_ns = 0.0;
                for op in self.take_round() {
                    let sql = ops::sql(&op);
                    let t = Instant::now();
                    let r = lanes::tcp_op(&mut self.client, self.w.lane, &sql);
                    let ns = t.elapsed().as_nanos() as f64;
                    lat[op.class.index()].push(ns);
                    round_ns += ns;
                    done.push((op, r));
                }
                pace.round_ns.push(round_ns);
            }
            wall += t0.elapsed();
            pace.chunk_cpu_us_per_op
                .push((db::cpu_seconds()? - cpu0) * 1e6 / done.len() as f64);
            self.settle(done);
        }
        pace.wall = wall;
        Ok(pace)
    }

    fn warm_up(&mut self) {
        for _ in 0..self.w.warmup_rounds {
            let done: Vec<_> = self
                .take_round()
                .into_iter()
                .map(|op| {
                    let r = lanes::tcp_op(&mut self.client, self.w.lane, &ops::sql(&op));
                    (op, r)
                })
                .collect();
            self.settle(done);
        }
    }

    /// Hang up, stop the server, checkpoint, reopen and re-check.
    /// Returns the data directory's size in MB.
    fn close(self) -> Result<(f64, u64, u64, u64), Error> {
        let Rig {
            dir,
            shared,
            mut server,
            client,
            shadow,
            attempted,
            failed,
            mut wrong,
            ..
        } = self;
        client.goodbye()?;
        server.shutdown();
        drop(server);
        let db = shared
            .try_into_inner()
            .map_err(|_| "database still shared after shutdown")?;
        let (disk_mb, mismatches) = db::close_and_verify(db, &dir, &shadow)?;
        for m in &mismatches {
            eprintln!("{m}");
        }
        wrong += mismatches.len() as u64;
        std::fs::remove_dir_all(&dir)?;
        Ok((disk_mb, attempted, failed, wrong))
    }
}

/// The untraced run: the end-to-end metrics.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Result<Report, Error> {
    let dir = db::data_dir(w.name);
    let mut setups = Vec::new();
    let mut db = None;
    for _ in 0..w.setups {
        drop(db.take());
        let (fresh, secs) = db::build(&dir, seed, w.sizes)?;
        setups.push(secs);
        db = Some(fresh);
    }
    let db = db.ok_or("no set-up ran")?;
    let mut rig = serve(dir, db, w, seed)?;
    rig.warm_up();
    let mut lat: [Vec<f64>; 7] = Default::default();
    let pace = rig.timed_rounds(Duration::from_secs(seconds), &mut lat)?;
    let peak_rss_mb = db::peak_rss_mb()?;
    let (disk_mb, attempted, failed, wrong) = rig.close()?;

    let ops: usize = lat.iter().map(Vec::len).sum();
    let mut r = Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    r.add("setup_s", median(&setups), "s");
    r.add(
        "throughput_ops_s",
        pace.ops_per_s(w.ops_per_round()),
        "ops/s",
    );
    r.add("cpu_us_per_op", median(&pace.chunk_cpu_us_per_op), "us");
    r.add("peak_rss_mb", peak_rss_mb, "MB");
    r.add("disk_mb", disk_mb, "MB");
    let us = |c: Class, p: f64| percentile(&lat[c.index()], p) / 1e3;
    r.add("paper_p50_us", us(Class::Paper, 0.5), "us");
    r.add("probe_p50_us", us(Class::Probe, 0.5), "us");
    r.add("nested_p50_us", us(Class::Nested, 0.5), "us");
    r.add("scan_p50_us", us(Class::Scan, 0.5), "us");
    r.add("cold_probe_p50_us", us(Class::ColdProbe, 0.5), "us");
    r.add("dml_p50_us", us(Class::Dml, 0.5), "us");
    r.add("cold_dml_p50_us", us(Class::ColdDml, 0.5), "us");
    // Tails, for reading only: on a shared 2-vCPU host they move too
    // much from run to run to gate on (see README.md).
    for c in Class::ALL {
        let n = lat[c.index()].len();
        if n >= P90_MIN_SAMPLES {
            eprintln!("info: {}_p90_us {:.1} ({n} samples)", c.name(), us(c, 0.9));
        }
    }
    eprintln!("measured {:.2} s wall, {ops} ops", pace.wall.as_secs_f64());
    Ok(r)
}

/// The server's counters (the `Stats` verb), keyed `group.name`.
///
/// Read through the server rather than from the shared `Stats` in
/// process: the server counts a response frame just after writing it,
/// so an in-process read can race that increment, but by the time the
/// server handles the next request on this connection every count of
/// the previous one has landed.
fn server_counters(client: &mut Client) -> Result<BTreeMap<String, u64>, Error> {
    let mut out = BTreeMap::new();
    for line in client.stats()?.lines() {
        let mut words = line.split_whitespace();
        let Some(group) = words.next() else { continue };
        for pair in words {
            let (name, value) = pair.split_once('=').ok_or("malformed Stats line")?;
            out.insert(format!("{group}.{name}"), value.parse()?);
        }
    }
    Ok(out)
}

/// Per-op counters of the traced pass: (name, `Stats` keys summed).
const COUNTERS: [(&str, &[&str]); 12] = [
    ("buf_hits", &["buffer.hits"]),
    ("buf_misses", &["buffer.misses"]),
    ("page_writes", &["buffer.page-writes"]),
    ("objects_decoded", &["storage.objects-decoded"]),
    ("atoms_decoded", &["storage.atoms-decoded"]),
    ("blocks_pruned", &["colstore.blocks-pruned"]),
    ("blocks_decoded", &["colstore.blocks-decoded"]),
    ("values_scanned", &["colstore.values-scanned"]),
    ("snapshot_reads", &["txn.snapshot-reads"]),
    ("versions_published", &["mvcc.versions-published"]),
    ("frames", &["net.frames-in", "net.frames-out"]),
    ("wal_appends", &["wal.appends"]),
];

/// Frames of the `Stats` exchanges bracketing a request that fall
/// between the two reads: the first one's response, the second's request.
const BRACKET_FRAMES: u64 = 2;

/// Per-class sums over the traced pass.
#[derive(Default)]
struct ClassTrace {
    ops: u64,
    /// Client-side latency sum, ns.
    lat_ns: f64,
    /// Stage self time sums from the server's span trees, ns.
    stages: BTreeMap<String, f64>,
    /// Root span minus stage sum, ns.
    unattributed_ns: f64,
    counts: BTreeMap<&'static str, u64>,
}

impl ClassTrace {
    fn per_op(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0) as f64 / self.ops.max(1) as f64
    }

    fn stage_us(&self, stage: &str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(0.0) / 1e3 / self.ops.max(1) as f64
    }
}

/// Fold one server trace (a JSONL line) into `into`.
fn absorb_trace(line: &str, into: &mut ClassTrace) -> Result<(), Error> {
    let t = json::parse(line.trim())?;
    let total = t
        .get("total_ns")
        .and_then(json::Json::num)
        .ok_or("trace without total_ns")?;
    let mut staged = 0.0;
    for (stage, ns) in t
        .get("stages")
        .and_then(json::Json::obj)
        .ok_or("trace without stages")?
    {
        let ns = ns.num().unwrap_or(0.0);
        staged += ns;
        *into.stages.entry(stage.clone()).or_default() += ns;
    }
    into.unattributed_ns += total - staged;
    Ok(())
}

/// Time `f` over `n` calls; mean µs per call.
fn mean_us(n: usize, mut f: impl FnMut(usize) -> Result<(), Error>) -> Result<f64, Error> {
    let t = Instant::now();
    for i in 0..n {
        f(i)?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// Median µs of `n` timed calls of `f`.
fn median_us(n: usize, mut f: impl FnMut() -> Result<(), Error>) -> Result<f64, Error> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&samples))
}

/// The traced run: the per-layer metrics.
pub fn layers(w: Workload, seed: u64, seconds: u64) -> Result<Report, Error> {
    let dir = db::data_dir(w.name);
    let (db, _) = db::build(&dir, seed, w.sizes)?;
    let mut rig = serve(dir, db, w, seed)?;
    rig.warm_up();

    // Traced pass: a fixed number of rounds right after the warm-up, so
    // the per-op counters repeat exactly for a seed. Each request's
    // Stats delta and span tree are taken after it completes, untimed.
    let mut traced: [ClassTrace; 7] = Default::default();
    rig.client.set_tracing(true);
    let mut traced_pace = Pace::default();
    for _ in 0..w.traced_rounds {
        let mut done = Vec::new();
        let mut round_ns = 0.0;
        for op in rig.take_round() {
            let sql = ops::sql(&op);
            let ct = &mut traced[op.class.index()];
            ct.ops += 1;
            let lat_before = ct.lat_ns;
            let mut answer = None;
            for &req in lanes::requests(w.lane) {
                let before = server_counters(&mut rig.client)?;
                let t = Instant::now();
                let r = lanes::send(&mut rig.client, req, &sql);
                ct.lat_ns += t.elapsed().as_nanos() as f64;
                let after = server_counters(&mut rig.client)?;
                for (name, keys) in COUNTERS {
                    let moved: u64 = keys
                        .iter()
                        .map(|k| after.get(*k).unwrap_or(&0) - before.get(*k).unwrap_or(&0))
                        .sum();
                    let moved = if name == "frames" {
                        moved - BRACKET_FRAMES
                    } else {
                        moved
                    };
                    *ct.counts.entry(name).or_default() += moved;
                }
                absorb_trace(&rig.client.trace_last(TraceFormat::Jsonl)?, ct)?;
                match r {
                    Ok(Some(a)) => answer = Some(Ok(a)),
                    Ok(None) => {}
                    Err(e) => {
                        answer = Some(Err(e));
                        if rig.client.in_transaction() {
                            let _ = rig.client.rollback();
                        }
                        break;
                    }
                }
            }
            round_ns += ct.lat_ns - lat_before;
            let answer = answer.unwrap_or_else(|| Err("no statement answer".to_string()));
            if let Ok(a) = &answer {
                *ct.counts.entry("rows").or_default() += ops::rows(a);
            }
            done.push((op, answer));
        }
        traced_pace.round_ns.push(round_ns);
        rig.settle(done);
    }
    rig.client.set_tracing(false);

    // Untraced pass over TCP: the wire-inclusive p50 per class and the
    // throughput the tracing overhead is taken against.
    let mut lat: [Vec<f64>; 7] = Default::default();
    let pace = rig.timed_rounds(Duration::from_secs(seconds), &mut lat)?;

    let ping_us = median_us(200, || Ok(rig.client.ping()?))?;
    let (mut begin_us, mut commit_us) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let t = Instant::now();
        rig.client.begin(false)?;
        begin_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        rig.client.commit()?;
        commit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    // The same classes in process, on a Session of the same lane over
    // the same SharedDatabase.
    let mut session = rig.shared.session();
    let mut in_process: [Vec<f64>; 7] = Default::default();
    for _ in 0..w.traced_rounds {
        let mut done = Vec::new();
        for op in rig.take_round() {
            let sql = ops::sql(&op);
            let t = Instant::now();
            let r = lanes::session_op(&mut session, w.lane, op.class.writes(), &sql);
            in_process[op.class.index()].push(t.elapsed().as_nanos() as f64);
            done.push((op, r));
        }
        rig.settle(done);
    }
    // Cold-block decoding, timed from its own span around 2PL cold
    // probes in process: the snapshot lane never decodes blocks, so
    // this is the one lane that measures the layer on every workload.
    let probes = 100;
    let mut decode_ns = 0u64;
    for i in 0..probes {
        let k = 1 + (crate::data::field(seed, i, 13) % w.sizes.f as u64) as i64;
        let op = Op {
            class: Class::ColdProbe,
            k,
            v: 0,
        };
        aim2_obs::begin_capture();
        let r = lanes::session_op(&mut session, Lane::Explicit, false, &ops::sql(&op));
        let spans = aim2_obs::end_capture();
        decode_ns += spans
            .iter()
            .filter(|s| s.name == "colstore.decode")
            .map(|s| s.dur_ns)
            .sum::<u64>();
        rig.settle(vec![(op, r)]);
    }
    let cold_decode_us = decode_ns as f64 / 1e3 / probes as f64;
    drop(session);

    // Parsing, index lookups and object reads, timed in batches.
    let template_ops = round_ops(&w, seed, rig.next_round);
    let mut parse_us = [0.0; 7];
    for c in Class::ALL {
        let stmts: Vec<String> = template_ops
            .iter()
            .filter(|o| o.class == c)
            .map(ops::sql)
            .collect();
        let reps = 50;
        parse_us[c.index()] = mean_us(reps * stmts.len(), |i| {
            aim2_lang::parse_stmt(std::hint::black_box(&stmts[i % stmts.len()]))?;
            Ok(())
        })?;
    }
    let d = w.sizes.d;
    let (lookup_us, read_object_us, g_cold_rows) =
        rig.shared.with_db(|db| -> Result<_, Error> {
            let keys = 1_000usize;
            let lookup = mean_us(keys, |i| {
                let k = 1 + (crate::data::field(seed, i as i64, 9) % d as u64) as i64;
                let hits = db.index_mut("D", "dno")?.lookup(&Atom::Int(k))?;
                if hits.len() != 1 {
                    return Err(
                        format!("index lookup of DNO {k} found {} entries", hits.len()).into(),
                    );
                }
                Ok(())
            })?;
            let handles = db.handles("D")?;
            let reads = 200usize;
            let read = mean_us(reads, |i| {
                let h = handles[crate::data::field(seed, i as i64, 11) as usize % handles.len()];
                std::hint::black_box(db.read_object("D", h)?);
                Ok(())
            })?;
            let g_cold = db
                .table_tiers()?
                .into_iter()
                .find(|t| t.0 == "G")
                .map_or(0, |t| t.3);
            Ok((lookup, read, g_cold))
        })?;

    let (_, attempted, failed, wrong) = rig.close()?;

    let untraced_ops_s = pace.ops_per_s(w.ops_per_round());
    let traced_ops_s = traced_pace.ops_per_s(w.ops_per_round());

    let mut r = Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    r.add("net.ping_us", ping_us, "us");
    for c in Class::ALL {
        let (ct, name) = (&traced[c.index()], c.name());
        let tcp_p50 = percentile(&lat[c.index()], 0.5) / 1e3;
        let session_p50 = median(&in_process[c.index()]) / 1e3;
        r.add(format!("net.wire_us.{name}"), tcp_p50 - session_p50, "us");
        r.add(
            format!("net.frames_per_op.{name}"),
            ct.per_op("frames"),
            "count",
        );
        r.add(
            format!("net.admission_us.{name}"),
            ct.stage_us("admission"),
            "us",
        );
        r.add(
            format!("net.row_stream_us.{name}"),
            ct.stage_us("row_stream"),
            "us",
        );
        r.add(format!("lang.parse_us.{name}"), parse_us[c.index()], "us");
        // DML does not run through the query pipeline: no plan or
        // exec stage, and nothing decoded for a result.
        if !c.writes() {
            r.add(format!("exec.plan_us.{name}"), ct.stage_us("plan"), "us");
            r.add(format!("exec.exec_us.{name}"), ct.stage_us("exec"), "us");
            let objects = ct.per_op("objects_decoded");
            r.add(format!("exec.objects_decoded.{name}"), objects, "count");
            r.add(
                format!("exec.atoms_decoded.{name}"),
                ct.per_op("atoms_decoded"),
                "count",
            );
            // 0 where the lane decodes no stored objects (snapshot reads).
            let per_object = if objects > 0.0 {
                ct.per_op("rows") / objects
            } else {
                0.0
            };
            r.add(
                format!("exec.rows_per_object.{name}"),
                per_object,
                "rows/object",
            );
        }
        r.add(
            format!("storage.pages_per_op.{name}"),
            ct.per_op("buf_hits") + ct.per_op("buf_misses"),
            "count",
        );
        r.add(
            format!("storage.misses_per_op.{name}"),
            ct.per_op("buf_misses"),
            "count",
        );
        if c.writes() {
            r.add(
                format!("storage.page_writes_per_op.{name}"),
                ct.per_op("page_writes"),
                "count",
            );
        }
        r.add(
            format!("txn.snapshot_reads_per_op.{name}"),
            ct.per_op("snapshot_reads"),
            "count",
        );
        r.add(format!("txn.session_us.{name}"), session_p50, "us");
        r.add(
            format!("obs.unattributed_us.{name}"),
            ct.unattributed_ns / 1e3 / ct.ops.max(1) as f64,
            "us",
        );
    }
    let (hits, misses): (u64, u64) = traced.iter().fold((0, 0), |(h, m), t| {
        (
            h + t.counts.get("buf_hits").copied().unwrap_or(0),
            m + t.counts.get("buf_misses").copied().unwrap_or(0),
        )
    });
    r.add(
        "storage.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.add("index.lookup_us", lookup_us, "us");
    r.add("storage.read_object_us", read_object_us, "us");
    let cold = &traced[Class::ColdProbe.index()];
    r.add(
        "colstore.blocks_pruned.cold_probe",
        cold.per_op("blocks_pruned"),
        "count",
    );
    r.add(
        "colstore.blocks_decoded.cold_probe",
        cold.per_op("blocks_decoded"),
        "count",
    );
    r.add(
        "colstore.values_scanned.cold_probe",
        cold.per_op("values_scanned"),
        "count",
    );
    r.add("colstore.cold_decode_us", cold_decode_us, "us");
    r.add("colstore.g_cold_rows_at_end", g_cold_rows as f64, "count");
    let writes = [&traced[Class::Dml.index()], &traced[Class::ColdDml.index()]];
    let write_ops = writes.iter().map(|t| t.ops).sum::<u64>().max(1) as f64;
    let write_sum =
        |f: &dyn Fn(&ClassTrace) -> f64| writes.iter().map(|t| f(t)).sum::<f64>() / write_ops;
    r.add("txn.begin_us", median(&begin_us), "us");
    r.add("txn.commit_us", median(&commit_us), "us");
    r.add(
        "txn.commit_stage_us",
        write_sum(&|t| t.stages.get("commit").copied().unwrap_or(0.0) / 1e3),
        "us",
    );
    r.add(
        "txn.versions_published_per_commit",
        write_sum(&|t| t.counts.get("versions_published").copied().unwrap_or(0) as f64),
        "count",
    );
    r.add(
        "wal.appends_per_commit",
        write_sum(&|t| t.counts.get("wal_appends").copied().unwrap_or(0) as f64),
        "count",
    );
    r.add(
        "wal.append_us",
        write_sum(&|t| t.stages.get("wal_append").copied().unwrap_or(0.0) / 1e3),
        "us",
    );
    r.add(
        "wal.fsync_us",
        write_sum(&|t| t.stages.get("wal_fsync").copied().unwrap_or(0.0) / 1e3),
        "us",
    );
    r.add(
        "obs.trace_overhead_pct",
        (untraced_ops_s - traced_ops_s) / untraced_ops_s * 100.0,
        "%",
    );
    Ok(r)
}
