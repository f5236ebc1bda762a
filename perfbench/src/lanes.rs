//! Sending one op through a lane: the TCP client the end-to-end numbers
//! come from, or an in-process `Session` of the same lane for the
//! wire-cost attribution.

use aim2::ExecResult;
use aim2_net::{Client, QueryOutcome};
use aim2_txn::Session;

use crate::ops::{Answer, Lane};

/// Rows per `Rows` frame the client asks for.
pub const FETCH: u32 = 16;

/// The requests one op makes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Begin,
    Stmt,
    Commit,
}

pub fn requests(lane: Lane) -> &'static [Req] {
    match lane {
        Lane::Autocommit => &[Req::Stmt],
        Lane::Explicit => &[Req::Begin, Req::Stmt, Req::Commit],
    }
}

/// Send one request of an op; `Some(answer)` for the statement itself.
pub fn send(client: &mut Client, req: Req, sql: &str) -> Result<Option<Answer>, String> {
    match req {
        Req::Begin => client.begin(false).map(|_| None),
        Req::Commit => client.commit().map(|_| None),
        Req::Stmt => client.query_fetch(sql, FETCH).map(|out| {
            Some(match out {
                QueryOutcome::Table(_, rows) => Answer::Rows(rows),
                QueryOutcome::Count(n) => Answer::Count(n),
                QueryOutcome::Ok(_) => Answer::Ok,
            })
        }),
    }
    .map_err(|e| e.to_string())
}

/// One whole op over TCP; an explicit transaction that fails midway is
/// rolled back so the next op starts clean.
pub fn tcp_op(client: &mut Client, lane: Lane, sql: &str) -> Result<Answer, String> {
    let mut answer = None;
    for &req in requests(lane) {
        match send(client, req, sql) {
            Ok(Some(a)) => answer = Some(a),
            Ok(None) => {}
            Err(e) => {
                if client.in_transaction() {
                    let _ = client.rollback();
                }
                return Err(e);
            }
        }
    }
    answer.ok_or_else(|| "no statement answer".to_string())
}

/// The same op in process, on the lane the server would pick: a bare
/// read in autocommit runs on a read-only snapshot, everything else in
/// a read-write transaction.
pub fn session_op(
    session: &mut Session,
    lane: Lane,
    writes: bool,
    sql: &str,
) -> Result<Answer, String> {
    let snapshot = lane == Lane::Autocommit && !writes;
    let begun = if snapshot {
        session.begin_read_only()
    } else {
        session.begin()
    };
    begun.map_err(|e| e.to_string())?;
    let answer = match session.execute(sql) {
        Ok(ExecResult::Table(_, rows)) => Answer::Rows(rows),
        Ok(ExecResult::Count(n)) => Answer::Count(n as u64),
        Ok(ExecResult::Ok(_)) => Answer::Ok,
        Err(e) => {
            let _ = session.rollback();
            return Err(e.to_string());
        }
    };
    session.commit().map_err(|e| e.to_string())?;
    Ok(answer)
}
