//! The paper's fixture (Tables 5, 6 and 8) and the nine §3/§5
//! statements, with their answers computed in plain Rust from the
//! `aim2_model::fixtures` rows.

use aim2_model::fixtures::{self, DEPARTMENT_ROWS, EQUIP_ROWS, MEMBER_ROWS, PROJECT_ROWS};
use aim2_model::value::build::{a, tup};
use aim2_model::{Atom, TableKind, TableValue, Tuple, Value};

pub const DDL: &[&str] = &[
    "CREATE TABLE DEPARTMENTS ( DNO INTEGER, MGRNO INTEGER,
       PROJECTS { PNO INTEGER, PNAME STRING, MEMBERS { EMPNO INTEGER, FUNCTION STRING } },
       BUDGET INTEGER, EQUIP { QU INTEGER, TYPE STRING } )",
    "CREATE TABLE EMPLOYEES-1NF ( EMPNO INTEGER, LNAME STRING, FNAME STRING, SEX STRING )",
    "CREATE TABLE REPORTS ( REPNO STRING, AUTHORS < NAME STRING >, TITLE TEXT,
       DESCRIPTORS { WORD STRING, WEIGHT DOUBLE } )",
    "CREATE TEXT INDEX tix ON REPORTS (TITLE)",
];

/// Rows of each paper table, in load order.
pub fn tables() -> Vec<(&'static str, TableValue)> {
    vec![
        ("DEPARTMENTS", fixtures::departments_value()),
        ("EMPLOYEES-1NF", fixtures::employees_1nf_value()),
        ("REPORTS", fixtures::reports_value()),
    ]
}

/// The §3/§5 statements (Examples 1–8 and the §5 text query).
pub const STATEMENTS: [&str; 9] = [
    "SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS",
    "SELECT * FROM DEPARTMENTS",
    "SELECT x.DNO, x.MGRNO,
        PROJECTS = (SELECT y.PNO, y.PNAME,
            MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
            FROM y IN x.PROJECTS),
        x.BUDGET,
        EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
     FROM x IN DEPARTMENTS",
    "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
     FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS",
    "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS
     WHERE EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT'",
    "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS
     WHERE ALL y IN x.PROJECTS : ALL z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
    "SELECT x.AUTHORS, x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones A.'",
    "SELECT x.DNO FROM x IN DEPARTMENTS
     WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
    "SELECT x.REPNO, x.AUTHORS, x.TITLE FROM x IN REPORTS
     WHERE x.TITLE CONTAINS '*comput*' AND EXISTS y IN x.AUTHORS : y.NAME = 'Jones A.'",
];

fn relation(tuples: Vec<Tuple>) -> TableValue {
    TableValue::with_tuples(TableKind::Relation, tuples)
}

fn members(pno: i64) -> impl Iterator<Item = &'static (i64, i64, i64, &'static str)> {
    MEMBER_ROWS.iter().filter(move |m| m.1 == pno)
}

fn projects(dno: i64) -> impl Iterator<Item = &'static (i64, &'static str, i64)> {
    PROJECT_ROWS.iter().filter(move |p| p.2 == dno)
}

/// (DNO, MGRNO, BUDGET) of the departments satisfying `keep`.
fn departments_where(keep: impl Fn(i64) -> bool) -> TableValue {
    relation(
        DEPARTMENT_ROWS
            .iter()
            .filter(|d| keep(d.0))
            .map(|&(dno, mgr, budget)| tup(vec![a(dno), a(mgr), a(budget)]))
            .collect(),
    )
}

fn text_of(v: &Value) -> &str {
    match v {
        Value::Atom(Atom::Text(s)) | Value::Atom(Atom::Str(s)) => s,
        other => panic!("fixture field is not text: {other:?}"),
    }
}

/// Author names of a REPORTS fixture tuple, in list order.
fn authors(report: &Tuple) -> Vec<&str> {
    match &report.fields[1] {
        Value::Table(t) => t.tuples.iter().map(|n| text_of(&n.fields[0])).collect(),
        other => panic!("AUTHORS is not a list: {other:?}"),
    }
}

/// `'*comput*'`: some word of the text contains the fragment, ignoring case.
fn contains_fragment(text: &str, fragment: &str) -> bool {
    text.split(|c: char| !c.is_alphanumeric())
        .any(|w| w.to_lowercase().contains(fragment))
}

/// The answer of statement `i`, computed from the fixture rows.
pub fn expected(i: usize) -> TableValue {
    let reports = fixtures::reports_value();
    match i {
        // Examples 1 and 2 and the explicit nest: Table 5 itself.
        0..=2 => fixtures::departments_value(),
        // Example 4: the unnest, printed in the paper as Table 7.
        3 => fixtures::table7_value(),
        4 => departments_where(|dno| EQUIP_ROWS.iter().any(|e| e.0 == dno && e.2 == "PC/AT")),
        5 => departments_where(|dno| {
            projects(dno).all(|p| members(p.0).all(|m| m.3 == "Consultant"))
        }),
        6 => relation(
            reports
                .tuples
                .iter()
                .filter(|r| authors(r).first() == Some(&"Jones A."))
                .map(|r| tup(vec![r.fields[1].clone(), r.fields[2].clone()]))
                .collect(),
        ),
        7 => relation(
            DEPARTMENT_ROWS
                .iter()
                .filter(|d| projects(d.0).any(|p| members(p.0).any(|m| m.3 == "Consultant")))
                .map(|d| tup(vec![a(d.0)]))
                .collect(),
        ),
        8 => relation(
            reports
                .tuples
                .iter()
                .filter(|r| {
                    contains_fragment(text_of(&r.fields[2]), "comput")
                        && authors(r).contains(&"Jones A.")
                })
                .map(|r| {
                    tup(vec![
                        r.fields[0].clone(),
                        r.fields[1].clone(),
                        r.fields[2].clone(),
                    ])
                })
                .collect(),
        ),
        _ => panic!("no paper statement {i}"),
    }
}
