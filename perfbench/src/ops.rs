//! Workloads, request classes and the seeded op list.
//!
//! A run repeats whole rounds. A round is a fixed multiset of ops,
//! interleaved in a seeded order drawn per round, with keys drawn from
//! `(seed, round, slot)`. Every op's expected answer is rendered from
//! the shadow just before the op is sent.

use aim2_model::value::build::{a, rel, tup};
use aim2_model::{TableKind, TableValue};

use crate::data::{canon, d_mgrno, d_projects, field, flat_a, flat_b, mix, Shadow, Sizes, WHICH_F};
use crate::paper;

/// The request classes every workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One of the nine §3/§5 statements over the paper fixture.
    Paper,
    /// Point probe on `D` by DNO (one object, three atoms).
    Probe,
    /// One `D` object with its PROJECTS and MEMBERS nested.
    Nested,
    /// Range predicate on BUDGET over all of `D` (about 1% qualifies).
    Scan,
    /// Point probe on the compacted flat table `F`.
    ColdProbe,
    /// 1-object UPDATE on `D`.
    Dml,
    /// 1-row UPDATE on the (compacted at set-up) flat table `G`.
    ColdDml,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Paper,
        Class::Probe,
        Class::Nested,
        Class::Scan,
        Class::ColdProbe,
        Class::Dml,
        Class::ColdDml,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Paper => "paper",
            Class::Probe => "probe",
            Class::Nested => "nested",
            Class::Scan => "scan",
            Class::ColdProbe => "cold_probe",
            Class::Dml => "dml",
            Class::ColdDml => "cold_dml",
        }
    }

    pub fn writes(self) -> bool {
        matches!(self, Class::Dml | Class::ColdDml)
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// How a workload's client wraps each statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// One statement per request; the server runs a bare SELECT on an
    /// implicit read-only MVCC snapshot and DML in an implicit 2PL
    /// transaction.
    Autocommit,
    /// `BEGIN … COMMIT` around every statement: a read-write 2PL
    /// transaction, so reads take the index and columnar paths.
    Explicit,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub sizes: Sizes,
    pub lane: Lane,
    /// Ops of each class in one round, in `Class::ALL` order. The
    /// paper slots cycle through the nine statements.
    pub mix: [usize; 7],
    /// Untimed rounds before measuring.
    pub warmup_rounds: u64,
    /// Set-ups made to time `setup_s` (the median is reported).
    pub setups: usize,
    /// Rounds of the traced pass (fixed, so per-op counters repeat).
    pub traced_rounds: u64,
}

const SMALL: Sizes = Sizes {
    d: 40,
    f: 2_048,
    g: 1_024,
};
const LARGE: Sizes = Sizes {
    d: 5_000,
    f: 100_000,
    g: 20_000,
};
/// Each paper statement twice: 100+ paper samples in a 20 s run.
const SNAPSHOT_MIX: [usize; 7] = [18, 16, 8, 4, 16, 1, 2];
/// On the 2PL lane a fast read right after a scan or a write (which
/// sweep `D` through its pool) takes 2-4 times as long as one after
/// another fast read, and the next two or three are slowed too. With
/// the fast reads of `SNAPSHOT_MIX` about a fifth of them were slowed,
/// so their p50 sat next to the slow mode, where any change in that
/// share moves it. Four times as many fast reads to the same 4 scans
/// and 3 writes keep the slowed share near a twentieth.
const RW_MIX: [usize; 7] = [72, 64, 32, 4, 64, 1, 2];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_tcp",
        sizes: SMALL,
        lane: Lane::Autocommit,
        mix: [9, 4, 2, 1, 4, 1, 1],
        warmup_rounds: 50,
        setups: 21,
        traced_rounds: 40,
    },
    Workload {
        name: "scale_snapshot_tcp",
        sizes: LARGE,
        lane: Lane::Autocommit,
        mix: SNAPSHOT_MIX,
        warmup_rounds: 1,
        setups: 5,
        traced_rounds: 2,
    },
    Workload {
        name: "scale_rw",
        sizes: LARGE,
        lane: Lane::Explicit,
        mix: RW_MIX,
        warmup_rounds: 1,
        setups: 5,
        traced_rounds: 2,
    },
];

impl Workload {
    pub fn ops_per_round(&self) -> usize {
        self.mix.iter().sum()
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One op of a round: its class and the parameters drawn for it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: Class,
    /// Paper statement index, or the key probed / written.
    pub k: i64,
    /// Value written, or the scan's lower BUDGET bound.
    pub v: i64,
}

/// What a correct engine answers.
#[derive(Debug)]
pub enum Expect {
    Rows(TableValue),
    Count(u64),
}

/// The ops of round `round`: the workload's fixed multiset of classes,
/// in an order shuffled per round, with keys drawn per slot. Shuffling
/// every round keeps a class from always following the same neighbour
/// (a read right after a write to its table costs more), so that cost
/// is averaged within every run instead of fixed by the seed.
pub fn round_ops(w: &Workload, seed: u64, round: u64) -> Vec<Op> {
    let mut classes: Vec<Class> = Class::ALL
        .iter()
        .zip(w.mix)
        .flat_map(|(&c, n)| std::iter::repeat_n(c, n))
        .collect();
    // Fisher-Yates under (seed, round).
    let mut h = field(seed, round as i64, 3);
    for i in (1..classes.len()).rev() {
        h = mix(h);
        classes.swap(i, (h % (i as u64 + 1)) as usize);
    }
    let mut paper_next = 0i64;
    classes
        .into_iter()
        .enumerate()
        .map(|(slot, class)| {
            let h = field(seed, (round * 1_000 + slot as u64) as i64, 7);
            let h2 = mix(h);
            let s = w.sizes;
            let (k, v) = match class {
                Class::Paper => {
                    paper_next += 1;
                    (paper_next - 1, 0)
                }
                Class::Probe | Class::Nested => (1 + (h % s.d as u64) as i64, 0),
                // Ten of the thousand BUDGET values: about 1% of D.
                Class::Scan => (0, 1_000 * (h2 % 990) as i64),
                Class::ColdProbe => (1 + (h % s.f as u64) as i64, 0),
                Class::Dml => (1 + (h % s.d as u64) as i64, 1_000 * (h2 % 1_000) as i64),
                Class::ColdDml => (1 + (h % s.g as u64) as i64, (h2 % 1_000_000) as i64),
            };
            Op { class, k, v }
        })
        .collect()
}

/// The statement text of `op`.
pub fn sql(op: &Op) -> String {
    let (k, v) = (op.k, op.v);
    match op.class {
        Class::Paper => paper::STATEMENTS[k as usize % paper::STATEMENTS.len()].to_string(),
        Class::Probe => format!("SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN D WHERE x.DNO = {k}"),
        Class::Nested => format!(
            "SELECT x.DNO, PROJECTS = (SELECT y.PNO, y.PNAME, \
             MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS), \
             x.BUDGET FROM x IN D WHERE x.DNO = {k}"
        ),
        Class::Scan => format!(
            "SELECT x.DNO, x.BUDGET FROM x IN D WHERE x.BUDGET >= {v} AND x.BUDGET < {}",
            v + 10_000
        ),
        Class::ColdProbe => format!("SELECT x.K, x.A, x.B FROM x IN F WHERE x.K = {k}"),
        Class::Dml => format!("UPDATE x IN D SET x.BUDGET = {v} WHERE x.DNO = {k}"),
        Class::ColdDml => format!("UPDATE x IN G SET x.A = {v} WHERE x.K = {k}"),
    }
}

fn relation(tuples: Vec<aim2_model::Tuple>) -> TableValue {
    TableValue::with_tuples(TableKind::Relation, tuples)
}

impl Shadow {
    /// The answer `op` must get, given every write acknowledged so far.
    pub fn expect(&self, op: &Op) -> Expect {
        let (seed, k) = (self.seed, op.k);
        match op.class {
            Class::Paper => Expect::Rows(paper::expected(k as usize % paper::STATEMENTS.len())),
            Class::Probe => Expect::Rows(relation(vec![tup(vec![
                a(k),
                a(d_mgrno(seed, k)),
                a(self.budget(k)),
            ])])),
            Class::Nested => Expect::Rows(relation(vec![tup(vec![
                a(k),
                rel(d_projects(seed, k)),
                a(self.budget(k)),
            ])])),
            Class::Scan => Expect::Rows(relation(
                (1..=self.sizes.d)
                    .filter(|&d| (op.v..op.v + 10_000).contains(&self.budget(d)))
                    .map(|d| tup(vec![a(d), a(self.budget(d))]))
                    .collect(),
            )),
            Class::ColdProbe => Expect::Rows(relation(vec![tup(vec![
                a(k),
                a(flat_a(seed, WHICH_F, k)),
                a(flat_b(seed, WHICH_F, k).as_str()),
            ])])),
            Class::Dml | Class::ColdDml => Expect::Count(1),
        }
    }

    /// Record the effect of an acknowledged write.
    pub fn apply(&mut self, op: &Op) {
        match op.class {
            Class::Dml => {
                self.d_budget.insert(op.k, op.v);
            }
            Class::ColdDml => {
                self.g_a.insert(op.k, op.v);
            }
            _ => {}
        }
    }
}

/// What the engine answered, over either lane.
#[derive(Debug)]
pub enum Answer {
    Rows(TableValue),
    Count(u64),
    Ok,
}

/// `None` when `got` is the expected answer, else what differs.
pub fn check(expect: &Expect, got: &Answer) -> Option<String> {
    match (expect, got) {
        (Expect::Rows(want), Answer::Rows(have)) => {
            let (w, h) = (canon(want), canon(have));
            (w != h).then(|| format!("rows differ: want {w}, got {h}"))
        }
        (Expect::Count(n), Answer::Count(m)) if n == m => None,
        (want, have) => Some(format!("want {want:?}, got {have:?}")),
    }
}

/// Rows an answer carries (0 for a count).
pub fn rows(got: &Answer) -> u64 {
    match got {
        Answer::Rows(t) => t.tuples.len() as u64,
        _ => 0,
    }
}
