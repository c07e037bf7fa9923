//! Cost-only execution (`Engine::execute_for_cost`) against full execution:
//! the same `rows_examined` and the same error on every SELECT shape, with
//! no result rows built.

use amdb_sql::{BinlogFormat, Engine, QueryResult, Session, SqlError, Value};

fn engine() -> (Engine, Session) {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE a (id INT PRIMARY KEY, grp INT, name TEXT);
         CREATE INDEX a_grp ON a (grp);
         CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v DOUBLE);
         CREATE INDEX b_a ON b (a_id);
         CREATE TABLE c (id INT PRIMARY KEY, b_id INT);
         INSERT INTO a VALUES
           (1, 1, 'one'), (2, 1, 'two'), (3, 2, 'three'), (4, 3, 'four'), (5, 3, NULL);
         INSERT INTO b VALUES
           (10, 1, 0.5), (11, 1, 2.5), (12, 3, 1.5), (13, 4, 3.0);
         INSERT INTO c VALUES (100, 10), (101, 12), (102, 12)",
    )
    .expect("setup");
    (e, s)
}

/// Run `sql` through both entry points and require identical outcomes;
/// returns the cost path's result.
fn both(
    e: &mut Engine,
    s: &mut Session,
    sql: &str,
    params: &[Value],
) -> Result<QueryResult, SqlError> {
    let full = e.execute(s, sql, params);
    let cost = e.execute_for_cost(s, sql, params);
    match (&full, &cost) {
        (Ok(f), Ok(c)) => {
            assert_eq!(c.rows_examined, f.rows_examined, "{sql}");
            assert_eq!(c.rows_affected, f.rows_affected, "{sql}");
            assert_eq!(c.last_insert_id, f.last_insert_id, "{sql}");
            assert!(c.rows.is_empty(), "cost path built rows: {sql}");
            assert!(c.columns.is_empty(), "cost path built a header: {sql}");
        }
        (Err(f), Err(c)) => assert_eq!(c, f, "{sql}"),
        _ => panic!("outcomes differ for {sql}: full {full:?}, cost {cost:?}"),
    }
    cost
}

/// Rows examined by a shape that must take the count-only route.
fn counted(e: &mut Engine, s: &mut Session, sql: &str, params: &[Value]) -> u64 {
    let exact = e
        .prepare(sql)
        .unwrap()
        .select
        .as_ref()
        .unwrap()
        .cost_exact();
    assert!(exact, "expected a cost-exact plan: {sql}");
    both(e, s, sql, params).unwrap().rows_examined
}

/// The access path EXPLAIN reports for each FROM source.
fn paths(e: &mut Engine, s: &mut Session, sql: &str) -> Vec<String> {
    let r = e.execute(s, &format!("EXPLAIN {sql}"), &[]).unwrap();
    r.rows
        .iter()
        .map(|row| match &row[2] {
            Value::Text(p) => p.clone(),
            other => panic!("access column {other:?}"),
        })
        .collect()
}

#[test]
fn left_join_without_a_match_at_the_inner_level() {
    let (mut e, mut s) = engine();
    let sql = "SELECT a.id, b.v FROM a LEFT JOIN b ON b.a_id = a.id WHERE a.id = ?";
    assert_eq!(paths(&mut e, &mut s, sql), ["pk eq", "index eq col1"]);
    // a.id = 2 has no b rows: one base row, an empty posting list.
    assert_eq!(counted(&mut e, &mut s, sql, &[Value::Int(2)]), 1);
    // a.id = 1 has two.
    assert_eq!(counted(&mut e, &mut s, sql, &[Value::Int(1)]), 3);
}

#[test]
fn left_join_without_a_match_at_the_outer_level() {
    let (mut e, mut s) = engine();
    // a rows 2 and 5 have no b rows; their c level runs NULL-extended.
    let sql = "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON b.a_id = a.id \
               LEFT JOIN c ON c.b_id = b.id AND c.id > 100";
    // 5 base rows, 4 b rows, then c's pk range (two rows) under each of
    // the four matched b rows and the two NULL-extended ones.
    assert_eq!(
        paths(&mut e, &mut s, sql),
        ["full scan", "index eq col1", "pk range"]
    );
    assert_eq!(counted(&mut e, &mut s, sql, &[]), 5 + 4 + 6 * 2);
    // An outer ON that rejects rows changes what the inner level sees.
    let sql = "SELECT a.id FROM a LEFT JOIN b ON b.a_id = a.id AND b.v > 1.0 \
               LEFT JOIN c ON c.b_id = b.id";
    counted(&mut e, &mut s, sql, &[]);
}

#[test]
fn innermost_full_scan_counts_every_row_before_the_checks() {
    let (mut e, mut s) = engine();
    let sql = "SELECT a.id, b.id FROM a INNER JOIN b ON b.v > 1.0 WHERE a.grp = 1";
    assert_eq!(paths(&mut e, &mut s, sql), ["index eq col1", "full scan"]);
    // Two grp-1 rows, each scanning all four b rows whatever ON and WHERE say.
    assert_eq!(counted(&mut e, &mut s, sql, &[]), 2 + 2 * 4);
    let sql = "SELECT id FROM a WHERE name = 'nobody'";
    assert_eq!(paths(&mut e, &mut s, sql), ["full scan"]);
    assert_eq!(counted(&mut e, &mut s, sql, &[]), 5);
}

#[test]
fn pk_range_and_index_range_paths() {
    let (mut e, mut s) = engine();
    let sql = "SELECT id, name FROM a WHERE id >= ? AND id < ? ORDER BY name";
    assert_eq!(paths(&mut e, &mut s, sql), ["pk range"]);
    assert_eq!(
        counted(&mut e, &mut s, sql, &[Value::Int(2), Value::Int(5)]),
        3
    );
    let sql = "SELECT id FROM a WHERE grp > 1 AND name IS NOT NULL";
    assert_eq!(paths(&mut e, &mut s, sql), ["index range col1"]);
    assert_eq!(counted(&mut e, &mut s, sql, &[]), 3);
}

#[test]
fn group_by_having_distinct_and_offset() {
    let (mut e, mut s) = engine();
    for sql in [
        "SELECT grp, COUNT(*) FROM a GROUP BY grp HAVING COUNT(*) > 1 ORDER BY grp",
        "SELECT COUNT(name) FROM a WHERE grp IN (1, 3)",
        "SELECT DISTINCT grp FROM a",
        "SELECT id FROM a ORDER BY name DESC LIMIT 2 OFFSET 1",
        "SELECT a.name FROM a INNER JOIN b ON b.a_id = a.id ORDER BY b.v LIMIT 1 OFFSET 2",
    ] {
        counted(&mut e, &mut s, sql, &[]);
    }
}

#[test]
fn from_less_select() {
    let (mut e, mut s) = engine();
    assert_eq!(counted(&mut e, &mut s, "SELECT 1, ?", &[Value::Int(7)]), 0);
    // A scalar function is not on the infallible list: full executor.
    let r = both(&mut e, &mut s, "SELECT NOW_MICROS()", &[]).unwrap();
    assert_eq!(r.rows_examined, 0);
}

#[test]
fn plan_cache_capacity_zero() {
    let (mut e, mut s) = engine();
    e.set_plan_cache_capacity(0);
    let sql = "SELECT a.id, b.v FROM a LEFT JOIN b ON b.a_id = a.id WHERE a.grp = ?";
    for grp in 0..4 {
        counted(&mut e, &mut s, sql, &[Value::Int(grp)]);
    }
    assert_eq!(e.plan_cache_stats().entries, 0);
    assert!(matches!(
        both(&mut e, &mut s, "SELECT nope FROM a", &[]),
        Err(SqlError::UnknownColumn(_))
    ));
}

#[test]
fn errors_match_full_execution() {
    let (mut e, mut s) = engine();
    let err = |e: &mut Engine, s: &mut Session, sql: &str, params: &[Value]| {
        both(e, s, sql, params).expect_err(sql)
    };
    // Unknown column in the projection: raised only once a row matches.
    assert!(matches!(
        err(&mut e, &mut s, "SELECT nope FROM a WHERE id = 1", &[]),
        SqlError::UnknownColumn(_)
    ));
    both(&mut e, &mut s, "SELECT nope FROM a WHERE id = 99", &[]).unwrap();
    assert!(matches!(
        err(&mut e, &mut s, "SELECT SUM(name) FROM a", &[]),
        SqlError::TypeMismatch(_)
    ));
    assert!(matches!(
        err(&mut e, &mut s, "SELECT id FROM a WHERE id LIKE 'x%'", &[]),
        SqlError::TypeMismatch(_)
    ));
    assert!(matches!(
        err(&mut e, &mut s, "SELECT id FROM a WHERE name + 1 = 2", &[]),
        SqlError::TypeMismatch(_)
    ));
    // Unbound `?`: in an access-path key, and in a filter over a scan.
    assert!(matches!(
        err(&mut e, &mut s, "SELECT id FROM a WHERE id = ?", &[]),
        SqlError::BadParameter(_)
    ));
    assert!(matches!(
        err(&mut e, &mut s, "SELECT id FROM a WHERE name = ?", &[]),
        SqlError::BadParameter(_)
    ));
    // An outer ON still runs on the cost path, so its error does too.
    let sql = "SELECT a.id FROM a INNER JOIN b ON b.a_id = a.id + 'x' \
               INNER JOIN c ON c.b_id = b.id";
    assert!(e
        .prepare(sql)
        .unwrap()
        .select
        .as_ref()
        .unwrap()
        .cost_exact());
    assert!(matches!(
        err(&mut e, &mut s, sql, &[]),
        SqlError::TypeMismatch(_)
    ));
}

#[test]
fn writes_run_unchanged() {
    let (mut e, mut s) = engine();
    let r = e
        .execute_for_cost(&mut s, "UPDATE a SET grp = 9 WHERE grp = 1", &[])
        .unwrap();
    assert_eq!((r.rows_examined, r.rows_affected), (2, 2));
    assert_eq!(e.table_rows("a"), Some(5));
    let r = e
        .execute_for_cost(&mut s, "SELECT COUNT(*) FROM a WHERE grp = 9", &[])
        .unwrap();
    assert_eq!(r.rows_examined, 2);
}
