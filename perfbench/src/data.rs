//! Seeded inputs and the answer oracle.
//!
//! Every generated value is a pure function of `(seed, key)`, computed
//! here in plain Rust and never read back from the engine. The oracle
//! is that formula plus a shadow copy of each value an acknowledged
//! write changed; the paper statements' answers are computed from the
//! `aim2_model::fixtures` rows in `paper.rs`.

use std::collections::BTreeMap;

use aim2_model::value::build::{a, rel, tup};
use aim2_model::{Tuple, Value};

/// SplitMix64 finaliser: the one source of pseudo-randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A field of key `k`: a hash of the seed, the key and the field slot.
pub fn field(seed: u64, k: i64, slot: u64) -> u64 {
    mix(seed ^ mix((k as u64).wrapping_mul(0x1000_0000_01b3) ^ slot))
}

const FUNCTIONS: [&str; 4] = ["Leader", "Consultant", "Secretary", "Staff"];
const TYPES: [&str; 6] = ["3278", "PC/AT", "PC", "3179", "PC/XT", "4361"];
pub const PROJECTS_PER_DEPT: i64 = 3;
pub const MEMBERS_PER_PROJECT: i64 = 4;
pub const EQUIP_PER_DEPT: i64 = 2;

/// Sizes of the generated tables of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// DEPARTMENTS-shaped objects in `D` (keys `1..=d`).
    pub d: i64,
    /// Rows of the flat table `F` (keys `1..=f`), compacted cold.
    pub f: i64,
    /// Rows of the flat table `G` (keys `1..=g`), compacted cold.
    pub g: i64,
}

pub const D_DDL: &str = "CREATE TABLE D ( DNO INTEGER, MGRNO INTEGER,
    PROJECTS { PNO INTEGER, PNAME STRING, MEMBERS { EMPNO INTEGER, FUNCTION STRING } },
    BUDGET INTEGER, EQUIP { QU INTEGER, TYPE STRING } )";
pub const D_INDEX: &str = "CREATE INDEX dno ON D (DNO) USING HIERARCHICAL";
pub const F_DDL: &str = "CREATE TABLE F ( K INTEGER, A INTEGER, B STRING )";
pub const G_DDL: &str = "CREATE TABLE G ( K INTEGER, A INTEGER, B STRING )";

/// A project member of department `k`: (EMPNO, FUNCTION).
fn member(seed: u64, k: i64, p: i64, m: i64) -> (i64, &'static str) {
    let h = field(seed, k, 100 + (p * MEMBERS_PER_PROJECT + m) as u64);
    (
        (h % 1_000_000) as i64,
        FUNCTIONS[(h >> 32) as usize % FUNCTIONS.len()],
    )
}

/// A project of department `k`: (PNO, PNAME).
fn project(seed: u64, k: i64, p: i64) -> (i64, String) {
    let h = field(seed, k, 10 + p as u64);
    (k * 10 + p, format!("P{:03}", h % 1000))
}

fn equip(seed: u64, k: i64, e: i64) -> (i64, &'static str) {
    let h = field(seed, k, 50 + e as u64);
    (1 + (h % 5) as i64, TYPES[(h >> 32) as usize % TYPES.len()])
}

/// MGRNO of department `k`.
pub fn d_mgrno(seed: u64, k: i64) -> i64 {
    10_000 + (field(seed, k, 1) % 90_000) as i64
}

/// BUDGET of department `k` as generated (before any write).
pub fn d_budget(seed: u64, k: i64) -> i64 {
    1_000 * (field(seed, k, 2) % 1_000) as i64
}

/// The whole D object of key `k` in table-column order.
pub fn d_tuple(seed: u64, k: i64, budget: i64) -> Tuple {
    tup(vec![
        a(k),
        a(d_mgrno(seed, k)),
        rel(d_projects(seed, k)),
        a(budget),
        rel((0..EQUIP_PER_DEPT)
            .map(|e| {
                let (qu, ty) = equip(seed, k, e);
                tup(vec![a(qu), a(ty)])
            })
            .collect()),
    ])
}

/// PROJECTS of department `k`, as the `nested` class selects them:
/// (PNO, PNAME, MEMBERS {EMPNO, FUNCTION}).
pub fn d_projects(seed: u64, k: i64) -> Vec<Tuple> {
    (0..PROJECTS_PER_DEPT)
        .map(|p| {
            let (pno, pname) = project(seed, k, p);
            let members = (0..MEMBERS_PER_PROJECT)
                .map(|m| {
                    let (emp, func) = member(seed, k, p, m);
                    tup(vec![a(emp), a(func)])
                })
                .collect();
            tup(vec![a(pno), a(pname.as_str()), rel(members)])
        })
        .collect()
}

/// Column `A` of a flat row of key `k` in table `which` (F or G).
pub fn flat_a(seed: u64, which: u64, k: i64) -> i64 {
    (field(seed, k, 1_000 + which) % 1_000_000) as i64
}

/// Column `B` of a flat row (never written by the benchmark).
pub fn flat_b(seed: u64, which: u64, k: i64) -> String {
    format!("v{:04}", field(seed, k, 2_000 + which) % 10_000)
}

pub fn flat_tuple(seed: u64, which: u64, k: i64, a_val: i64) -> Tuple {
    tup(vec![a(k), a(a_val), a(flat_b(seed, which, k).as_str())])
}

/// The shadow copy: generated values overlaid with every value an
/// acknowledged write set.
#[derive(Debug, Clone)]
pub struct Shadow {
    pub seed: u64,
    pub sizes: Sizes,
    /// D key -> BUDGET written.
    pub d_budget: BTreeMap<i64, i64>,
    /// G key -> A written.
    pub g_a: BTreeMap<i64, i64>,
}

pub const WHICH_F: u64 = 0;
pub const WHICH_G: u64 = 1;

impl Shadow {
    pub fn new(seed: u64, sizes: Sizes) -> Shadow {
        Shadow {
            seed,
            sizes,
            d_budget: BTreeMap::new(),
            g_a: BTreeMap::new(),
        }
    }

    pub fn budget(&self, k: i64) -> i64 {
        self.d_budget
            .get(&k)
            .copied()
            .unwrap_or_else(|| d_budget(self.seed, k))
    }

    pub fn g_a(&self, k: i64) -> i64 {
        self.g_a
            .get(&k)
            .copied()
            .unwrap_or_else(|| flat_a(self.seed, WHICH_G, k))
    }
}

/// Order-independent rendering of a table value: relation tuples are
/// sorted (recursively), list tuples keep their order. Two values are
/// the same answer exactly when their renderings are equal.
pub fn canon(t: &aim2_model::TableValue) -> String {
    let mut rows: Vec<String> = t.tuples.iter().map(canon_tuple).collect();
    if t.kind == aim2_model::TableKind::Relation {
        rows.sort();
    }
    format!("{{{}}}", rows.join(";"))
}

fn canon_tuple(t: &Tuple) -> String {
    let fields: Vec<String> = t
        .fields
        .iter()
        .map(|f| match f {
            Value::Atom(atom) => format!("{atom:?}"),
            Value::Table(inner) => canon(inner),
        })
        .collect();
    format!("({})", fields.join(","))
}
