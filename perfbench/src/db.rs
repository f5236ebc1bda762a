//! Building the file-backed database, the closing durability check,
//! the process measurements read from `/proc/self`, and pinning the
//! process to one CPU.

use std::path::{Path, PathBuf};
use std::time::Instant;

use aim2::{Database, DbConfig};
use aim2_model::value::build::{a, tup};
use aim2_model::{TableKind, TableValue};

use crate::data::{canon, d_budget, d_tuple, flat_a, flat_tuple, Shadow, Sizes, WHICH_F, WHICH_G};
use crate::data::{D_DDL, D_INDEX, F_DDL, G_DDL};
use crate::paper;

pub type Error = Box<dyn std::error::Error>;

fn config(dir: &Path) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.to_path_buf()),
        ..DbConfig::default()
    }
}

/// A fresh data directory for this process under `.bench_data/`.
pub fn data_dir(workload: &str) -> PathBuf {
    Path::new(".bench_data").join(format!("{workload}-{}", std::process::id()))
}

/// Create the database in `dir` (replacing what is there): the paper
/// tables, `D` with its DNO index, `F` and `G` compacted into cold
/// blocks, then a checkpoint. Returns the database and the seconds it
/// took.
pub fn build(dir: &Path, seed: u64, sizes: Sizes) -> Result<(Database, f64), Error> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let mut db = Database::with_config(config(dir));
    for ddl in paper::DDL {
        db.execute(ddl)?;
    }
    for (table, value) in paper::tables() {
        for t in value.tuples {
            db.insert_tuple(table, t)?;
        }
    }
    for ddl in [D_DDL, F_DDL, G_DDL] {
        db.execute(ddl)?;
    }
    for k in 1..=sizes.d {
        db.insert_tuple("D", d_tuple(seed, k, d_budget(seed, k)))?;
    }
    db.execute(D_INDEX)?;
    for k in 1..=sizes.f {
        db.insert_tuple("F", flat_tuple(seed, WHICH_F, k, flat_a(seed, WHICH_F, k)))?;
    }
    for k in 1..=sizes.g {
        db.insert_tuple("G", flat_tuple(seed, WHICH_G, k, flat_a(seed, WHICH_G, k)))?;
    }
    db.compact_table("F")?;
    db.compact_table("G")?;
    db.checkpoint()?;
    Ok((db, started.elapsed().as_secs_f64()))
}

/// Checkpoint and close `db`, reopen the directory with
/// [`Database::open`] and compare every value the benchmark can have
/// written (all of `D`'s BUDGETs, all of `G`'s A column, Table 5)
/// against the shadow. Returns the directory's size in MB after the
/// closing checkpoint, and a description of each mismatch.
pub fn close_and_verify(
    mut db: Database,
    dir: &Path,
    shadow: &Shadow,
) -> Result<(f64, Vec<String>), Error> {
    db.checkpoint()?;
    drop(db);
    let disk_mb = dir_bytes(dir)? as f64 / (1024.0 * 1024.0);
    let mut db = Database::open(config(dir))?;
    let relation = |tuples| TableValue::with_tuples(TableKind::Relation, tuples);
    let checks = [
        (
            "SELECT x.DNO, x.BUDGET FROM x IN D",
            relation(
                (1..=shadow.sizes.d)
                    .map(|k| tup(vec![a(k), a(shadow.budget(k))]))
                    .collect(),
            ),
        ),
        (
            "SELECT x.K, x.A FROM x IN G",
            relation(
                (1..=shadow.sizes.g)
                    .map(|k| tup(vec![a(k), a(shadow.g_a(k))]))
                    .collect(),
            ),
        ),
        (paper::STATEMENTS[0], paper::expected(0)),
    ];
    let mut mismatches = Vec::new();
    for (sql, want) in checks {
        let (_, got) = db.query(sql)?;
        if canon(&got) != canon(&want) {
            mismatches.push(format!("after reopen, {sql} differs from the shadow"));
        }
    }
    Ok((disk_mb, mismatches))
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        total += if meta.is_dir() { 0 } else { meta.len() };
    }
    Ok(total)
}

/// User plus system CPU time of the whole process (every thread), in
/// seconds, from `/proc/self/stat` (fields 14 and 15, in clock ticks of
/// 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> Result<f64, Error> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    let ticks: u64 = fields[11].parse::<u64>()? + fields[12].parse::<u64>()?;
    Ok(ticks as f64 / 100.0)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// `cpu_set_t`: 1,024 CPUs, one bit each.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict this thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU.
///
/// Call it before any thread starts. A request hands off several times
/// between the client thread, the server's connection thread and the
/// producer thread the server starts per query. Spread over two vCPUs,
/// a hand-off can wait for the host to wake an idle vCPU, and on a
/// shared 2-vCPU host the p50 of sub-millisecond requests moved by up to
/// 30% between runs of the same code. On one CPU a hand-off is a
/// context switch within the vCPU that is already running.
pub fn pin_to_one_cpu() -> Result<usize, Error> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()).into());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in this thread's affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()).into());
    }
    Ok(cpu)
}
