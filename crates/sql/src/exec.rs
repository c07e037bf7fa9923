//! Query execution: SELECT pipelines, DML, undo logging, row-change capture.

use crate::ast::*;
use crate::error::SqlError;
use crate::expr::{eval, eval_cow, eval_truth, ColumnResolver, EvalCtx, NoColumns, Truth};
use crate::plan::{choose_path, Path};
use crate::storage::{RowId, Table};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// The table catalog: lower-cased table name → table.
pub type Catalog = BTreeMap<String, Table>;

/// Catalog key for a table name: lower-cased, but borrowed when the name is
/// already lower-case (the overwhelmingly common case on the hot path, where
/// the per-statement allocation would otherwise add up).
pub fn table_key(name: &str) -> std::borrow::Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        std::borrow::Cow::Owned(name.to_ascii_lowercase())
    } else {
        std::borrow::Cow::Borrowed(name)
    }
}

/// Look up a table (case-insensitive).
pub fn get_table<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table, SqlError> {
    catalog
        .get(table_key(name).as_ref())
        .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
}

/// Look up a table mutably (case-insensitive).
pub fn get_table_mut<'a>(catalog: &'a mut Catalog, name: &str) -> Result<&'a mut Table, SqlError> {
    catalog
        .get_mut(table_key(name).as_ref())
        .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
}

/// The result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (SELECT only). Shared out of the cached plan —
    /// cloning a result header is a refcount bump, not a `Vec<String>`.
    pub columns: std::sync::Arc<[String]>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
    /// Auto-increment id assigned by the last INSERT, if any.
    pub last_insert_id: Option<i64>,
    /// Rows fetched from storage while executing — the executor's work
    /// measure, consumed by the cost model.
    pub rows_examined: u64,
}

/// Undo information for transaction rollback, in execution order.
#[derive(Debug, Clone)]
pub struct UndoEntry {
    pub table: String,
    pub undo: Undo,
}

/// One reversible mutation. Old images are the storage layer's shared
/// `Arc<[Value]>` handles, so logging undo never copies a row.
#[derive(Debug, Clone)]
pub enum Undo {
    /// Row was inserted; undo deletes it.
    Inserted(RowId),
    /// Row was updated; undo restores the old image.
    Updated(RowId, std::sync::Arc<[Value]>),
    /// Row was deleted; undo re-inserts the old image.
    Deleted(RowId, std::sync::Arc<[Value]>),
}

/// A captured row mutation for row-based binlogging.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    pub table: String,
    pub kind: RowChangeKind,
}

/// Kind of row mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum RowChangeKind {
    Insert {
        row: Vec<Value>,
    },
    Update {
        before: Vec<Value>,
        after: Vec<Value>,
    },
    Delete {
        row: Vec<Value>,
    },
}

/// Output of a write statement: result plus undo and row-change logs.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    pub result: QueryResult,
    pub undo: Vec<UndoEntry>,
    pub changes: Vec<RowChange>,
}

/// What a write statement must materialize beyond the data mutation itself.
/// Undo entries only matter inside an explicit transaction and row-change
/// images only when a master logs in row format; the dominant autocommit
/// statement-format path needs neither, so the executor skips the per-row
/// image clones entirely.
#[derive(Debug, Clone, Copy)]
pub struct Capture {
    /// Keep undo entries (session is inside an explicit transaction).
    pub undo: bool,
    /// Keep row-change images (row-format binlogging on a master).
    pub changes: bool,
}

impl Capture {
    /// Capture everything — the conservative default for direct callers.
    pub const ALL: Capture = Capture {
        undo: true,
        changes: true,
    };
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// One bound table in a FROM clause. Column names are the table's shared
/// list ([`Table::col_names`]): binding a table costs a refcount bump, not
/// one `String` clone per column.
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    columns: std::sync::Arc<[String]>,
}

/// Row scope across all FROM bindings; `None` = NULL-extended (LEFT JOIN) or
/// not yet bound. Rows are *borrowed* from storage — the join pipeline never
/// clones a row to evaluate predicates or projections over it.
struct Scope<'a> {
    bindings: &'a [Binding],
    rows: &'a [Option<&'a [Value]>],
}

impl ColumnResolver for Scope<'_> {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Value, SqlError> {
        match qualifier {
            Some(q) => {
                let (i, b) = self
                    .bindings
                    .iter()
                    .enumerate()
                    .find(|(_, b)| b.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| SqlError::UnknownColumn(format!("{q}.{name}")))?;
                let col = b
                    .columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(name))
                    .ok_or_else(|| SqlError::UnknownColumn(format!("{q}.{name}")))?;
                Ok(match self.rows[i] {
                    Some(row) => row[col].clone(),
                    None => Value::Null,
                })
            }
            None => {
                let mut hit: Option<(usize, usize)> = None;
                for (i, b) in self.bindings.iter().enumerate() {
                    if let Some(col) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        if hit.is_some() {
                            return Err(SqlError::UnknownColumn(format!(
                                "ambiguous column '{name}'"
                            )));
                        }
                        hit = Some((i, col));
                    }
                }
                let (i, col) = hit.ok_or_else(|| SqlError::UnknownColumn(name.to_string()))?;
                Ok(match self.rows[i] {
                    Some(row) => row[col].clone(),
                    None => Value::Null,
                })
            }
        }
    }

    fn resolve_idx(&self, binding: usize, col: usize) -> Result<Value, SqlError> {
        Ok(match self.rows[binding] {
            Some(row) => row[col].clone(),
            None => Value::Null,
        })
    }

    fn resolve_idx_ref(&self, binding: usize, col: usize) -> Result<&Value, SqlError> {
        Ok(match self.rows[binding] {
            Some(row) => &row[col],
            None => &crate::expr::NULL_VALUE,
        })
    }
}

// ---------------------------------------------------------------------------
// Candidate iteration (access paths)
// ---------------------------------------------------------------------------

/// Candidate rows for one table access. Point lookups borrow the index's
/// posting list directly instead of materializing a fresh `Vec` per access —
/// on the index-nested-loop join path that is one allocation per outer row.
/// Full scans iterate storage directly, skipping both the row-id `Vec` and
/// the per-id B-tree lookup an id list would cost.
enum Cands<'t> {
    Empty,
    One(RowId),
    Slice(&'t [RowId]),
    Owned(Vec<RowId>),
    Scan,
}

impl Cands<'_> {
    /// Number of candidates, without touching a row: exactly the count
    /// [`Cands::rows`] would yield.
    fn len(&self, table: &Table) -> usize {
        match self {
            Cands::Empty => 0,
            Cands::One(_) => 1,
            Cands::Slice(s) => s.len(),
            Cands::Owned(v) => v.len(),
            Cands::Scan => table.row_count(),
        }
    }

    /// Iterate `(rid, row)` pairs against the table the candidates came from.
    fn rows<'t>(&self, table: &'t Table) -> CandsIter<'t, '_> {
        match self {
            Cands::Empty => CandsIter::Ids(table, IdIter::One(None)),
            Cands::One(rid) => CandsIter::Ids(table, IdIter::One(Some(*rid))),
            Cands::Slice(s) => CandsIter::Ids(table, IdIter::Slice(s.iter())),
            Cands::Owned(v) => CandsIter::Ids(table, IdIter::Slice(v.iter())),
            Cands::Scan => CandsIter::Scan(table.scan_pairs()),
        }
    }
}

enum IdIter<'a> {
    One(Option<RowId>),
    Slice(std::slice::Iter<'a, RowId>),
}

impl Iterator for IdIter<'_> {
    type Item = RowId;
    fn next(&mut self) -> Option<RowId> {
        match self {
            IdIter::One(o) => o.take(),
            IdIter::Slice(it) => it.next().copied(),
        }
    }
}

enum CandsIter<'t, 'c> {
    Ids(&'t Table, IdIter<'c>),
    Scan(crate::storage::ScanIter<'t>),
}

impl<'t> Iterator for CandsIter<'t, '_> {
    type Item = (RowId, &'t [Value]);
    fn next(&mut self) -> Option<(RowId, &'t [Value])> {
        match self {
            CandsIter::Ids(table, ids) => {
                let rid = ids.next()?;
                Some((rid, table.get(rid).expect("candidate rid valid")))
            }
            CandsIter::Scan(it) => it.next(),
        }
    }
}

/// Produce candidate row ids for a table access, preferring the given
/// path and gracefully falling back to a full scan when a key expression
/// cannot be evaluated in the current scope.
fn candidates<'t>(
    table: &'t Table,
    path: &Path,
    ctx: &EvalCtx,
    scope: &Scope<'_>,
) -> Result<Cands<'t>, SqlError> {
    // Keys evaluate through the borrowing evaluator: an equality probe
    // against a `Text` literal or parameter must not clone the string just
    // to hash it.
    fn eval_key<'e>(
        key: &'e Expr,
        ctx: &'e EvalCtx,
        scope: &'e Scope<'_>,
    ) -> Result<Option<std::borrow::Cow<'e, Value>>, SqlError> {
        match eval_cow(key, ctx, scope) {
            Ok(v) => Ok(Some(v)),
            Err(SqlError::UnknownColumn(_)) => Ok(None), // not evaluable yet
            Err(e) => Err(e),
        }
    }
    Ok(match path {
        Path::FullScan => Cands::Scan,
        Path::PkEq { key } => match eval_key(key, ctx, scope)? {
            Some(v) if !v.is_null() => match table.pk_lookup(&v) {
                Some(rid) => Cands::One(rid),
                None => Cands::Empty,
            },
            Some(_) => Cands::Empty,
            None => Cands::Scan,
        },
        Path::IndexEq { column, key } => match eval_key(key, ctx, scope)? {
            Some(v) if !v.is_null() => {
                let ix = table.index_on(*column).expect("planned index exists");
                Cands::Slice(ix.lookup_eq(&v))
            }
            Some(_) => Cands::Empty,
            None => Cands::Scan,
        },
        Path::PkRange { lo, hi } => match eval_bounds(lo, hi, ctx, scope)? {
            Some((lo_b, hi_b)) => match table.pk_range(as_bound(&lo_b), as_bound(&hi_b)) {
                Some(iter) => Cands::Owned(iter.collect()),
                None => Cands::Scan,
            },
            None => Cands::Scan,
        },
        Path::IndexRange { column, lo, hi } => match eval_bounds(lo, hi, ctx, scope)? {
            Some((lo_b, hi_b)) => {
                let ix = table.index_on(*column).expect("planned index exists");
                Cands::Owned(ix.lookup_range(as_bound(&lo_b), as_bound(&hi_b)).collect())
            }
            None => Cands::Scan,
        },
    })
}

type EvaluatedBound = Option<(Value, bool)>;

fn eval_bounds(
    lo: &Option<(Expr, bool)>,
    hi: &Option<(Expr, bool)>,
    ctx: &EvalCtx,
    scope: &Scope<'_>,
) -> Result<Option<(EvaluatedBound, EvaluatedBound)>, SqlError> {
    let one = |b: &Option<(Expr, bool)>| -> Result<Option<EvaluatedBound>, SqlError> {
        match b {
            None => Ok(Some(None)),
            Some((e, incl)) => match eval(e, ctx, scope) {
                Ok(v) if v.is_null() => Ok(Some(None)), // NULL bound: unbounded side
                Ok(v) => Ok(Some(Some((v, *incl)))),
                Err(SqlError::UnknownColumn(_)) => Ok(None),
                Err(e) => Err(e),
            },
        }
    };
    match (one(lo)?, one(hi)?) {
        (Some(l), Some(h)) => Ok(Some((l, h))),
        _ => Ok(None),
    }
}

fn as_bound(b: &EvaluatedBound) -> Bound<&Value> {
    match b {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
    }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// One planned FROM source. The table is recorded by catalog key rather than
/// by reference so the plan owns no borrows and can be cached; execution
/// re-resolves the key against the live catalog.
#[derive(Debug, Clone)]
struct PlannedSource {
    /// Lower-cased catalog key.
    table_key: String,
    kind: JoinKind,
    on: Option<Expr>,
    path: Path,
}

/// A fully planned SELECT: resolved FROM sources with chosen access paths,
/// the expanded projection list, and the schema stamp of every table the
/// plan reads (for cache invalidation).
#[derive(Debug, Clone)]
pub struct SelectPlan {
    sources: Vec<PlannedSource>,
    bindings: Vec<Binding>,
    filter: Option<Expr>,
    out_cols: std::sync::Arc<[String]>,
    item_exprs: Vec<(Expr, String)>, // (expr, name) expanded
    aggregate_mode: bool,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    order_by: Vec<OrderKey>,
    /// True when any ORDER BY key names an output column (alias); those
    /// keys read the projected row, so projection cannot be deferred past
    /// the sort.
    order_refs_output: bool,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
    deps: Vec<(String, u64)>,
    /// True when every expression [`exec_select_cost`] skips cannot fail
    /// once all parameters are bound (see [`cost_only_exact`]).
    cost_exact: bool,
}

impl SelectPlan {
    /// Tables this plan reads, as `(catalog key, schema serial at plan
    /// time)` pairs. A cached plan is stale once any serial has moved.
    pub fn deps(&self) -> &[(String, u64)] {
        &self.deps
    }

    /// Whether [`exec_select_cost`] reports exactly what
    /// [`exec_select_planned`] would — the same `rows_examined` and the
    /// same error — provided every `?` is bound.
    pub fn cost_exact(&self) -> bool {
        self.cost_exact
    }
}

/// Can evaluating `e` never fail, once every parameter is bound? Admits
/// positional columns, literals and parameters, combined by comparisons,
/// AND/OR/NOT, IS NULL and IN — none of which raises an error for any
/// operand values. `agg` also admits `COUNT(*)` / `COUNT(x)`, which is only
/// infallible where the executor folds aggregates rather than evaluating
/// them as scalar functions.
fn infallible(e: &Expr, agg: bool) -> bool {
    match e {
        Expr::Resolved { .. } | Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Binary(a, op, b) => {
            matches!(
                op,
                BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::LtEq
                    | BinOp::Gt
                    | BinOp::GtEq
                    | BinOp::And
                    | BinOp::Or
            ) && infallible(a, agg)
                && infallible(b, agg)
        }
        Expr::Unary(UnOp::Not, inner) => infallible(inner, agg),
        Expr::IsNull { expr, .. } => infallible(expr, agg),
        Expr::InList { expr, list, .. } => {
            infallible(expr, agg) && list.iter().all(|i| infallible(i, agg))
        }
        Expr::Func { name, args, star } => {
            agg && name.eq_ignore_ascii_case("COUNT")
                && (*star || matches!(args.as_slice(), [arg] if infallible(arg, false)))
        }
        _ => false,
    }
}

/// The plan-time rule behind [`SelectPlan::cost_exact`]: the cost-only path
/// skips the innermost source's ON check, the WHERE filter, the
/// projection, GROUP BY keys, HAVING and the ORDER BY keys, so each must be
/// [`infallible`]. Outer ON checks still run and need not be. ORDER BY keys
/// are still named at this point: one that names an output column reads
/// the projected value, any other must resolve to a unique table column.
fn cost_only_exact(plan: &SelectPlan) -> bool {
    let agg = plan.aggregate_mode;
    let innermost_on = plan.sources.last().and_then(|s| s.on.as_ref());
    innermost_on
        .into_iter()
        .chain(&plan.filter)
        .chain(&plan.group_by)
        .all(|e| infallible(e, false))
        && plan.item_exprs.iter().all(|(e, _)| infallible(e, agg))
        && plan.having.as_ref().is_none_or(|h| infallible(h, agg))
        && plan.order_by.iter().all(|ok| match &ok.expr {
            Expr::Column {
                qualifier: None,
                name,
            } if plan.out_cols.iter().any(|c| c.eq_ignore_ascii_case(name)) => true,
            key => {
                let mut key = key.clone();
                resolve_columns(&mut key, &plan.bindings);
                infallible(&key, agg)
            }
        })
}

/// Rewrite every [`Expr::Column`] whose name resolves uniquely against the
/// plan's bindings into a positional [`Expr::Resolved`] reference. Name
/// resolution depends only on the bindings (never on row data), so this is a
/// pure fast path: per-plan scans replace per-row scans. Unknown and
/// ambiguous names are left as-is — [`Scope::resolve`] must still raise the
/// same error at the same point in execution.
fn resolve_columns(e: &mut Expr, bindings: &[Binding]) {
    match e {
        Expr::Column { qualifier, name } => {
            let hit = match qualifier {
                Some(q) => bindings
                    .iter()
                    .enumerate()
                    .find(|(_, b)| b.name.eq_ignore_ascii_case(q))
                    .and_then(|(i, b)| {
                        b.columns
                            .iter()
                            .position(|c| c.eq_ignore_ascii_case(name))
                            .map(|col| (i, col))
                    }),
                None => {
                    let mut hit = None;
                    let mut ambiguous = false;
                    for (i, b) in bindings.iter().enumerate() {
                        if let Some(col) =
                            b.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                        {
                            ambiguous |= hit.is_some();
                            hit = Some((i, col));
                        }
                    }
                    if ambiguous {
                        None
                    } else {
                        hit
                    }
                }
            };
            if let Some((binding, col)) = hit {
                *e = Expr::Resolved { binding, col };
            }
        }
        Expr::Unary(_, inner) => resolve_columns(inner, bindings),
        Expr::Binary(a, _, b) => {
            resolve_columns(a, bindings);
            resolve_columns(b, bindings);
        }
        Expr::Func { args, .. } => {
            for a in args {
                resolve_columns(a, bindings);
            }
        }
        Expr::IsNull { expr, .. } => resolve_columns(expr, bindings),
        Expr::Like { expr, pattern, .. } => {
            resolve_columns(expr, bindings);
            resolve_columns(pattern, bindings);
        }
        Expr::InList { expr, list, .. } => {
            resolve_columns(expr, bindings);
            for i in list {
                resolve_columns(i, bindings);
            }
        }
        Expr::Between { expr, lo, hi } => {
            resolve_columns(expr, bindings);
            resolve_columns(lo, bindings);
            resolve_columns(hi, bindings);
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Resolved { .. } => {}
    }
}

/// Plan a SELECT: resolve tables, choose access paths, expand the
/// projection. Everything here depends only on catalog schemas and index
/// definitions, so the result stays valid until a schema-affecting DDL runs.
pub fn plan_select(catalog: &Catalog, sel: &SelectStmt) -> Result<SelectPlan, SqlError> {
    let mut sources: Vec<PlannedSource> = Vec::new();
    let mut bindings: Vec<Binding> = Vec::new();
    let mut deps: Vec<(String, u64)> = Vec::new();
    if let Some(from) = &sel.from {
        let base_table = get_table(catalog, &from.base.table)?;
        let base_binding = from.base.binding().to_string();
        sources.push(PlannedSource {
            table_key: from.base.table.to_ascii_lowercase(),
            kind: JoinKind::Inner,
            on: None,
            path: choose_path(base_table, &base_binding, sel.filter.as_ref()),
        });
        deps.push((
            from.base.table.to_ascii_lowercase(),
            base_table.schema_serial(),
        ));
        bindings.push(Binding {
            name: base_binding,
            columns: base_table.col_names(),
        });
        for j in &from.joins {
            let t = get_table(catalog, &j.table.table)?;
            let binding = j.table.binding().to_string();
            sources.push(PlannedSource {
                table_key: j.table.table.to_ascii_lowercase(),
                kind: j.kind,
                on: Some(j.on.clone()),
                path: choose_path(t, &binding, Some(&j.on)),
            });
            deps.push((j.table.table.to_ascii_lowercase(), t.schema_serial()));
            bindings.push(Binding {
                name: binding,
                columns: t.col_names(),
            });
        }
    }

    // Output columns.
    let mut out_cols: Vec<String> = Vec::new();
    let mut item_exprs: Vec<(Expr, String)> = Vec::new(); // (expr, name) expanded
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (bi, b) in bindings.iter().enumerate() {
                    for c in b.columns.iter() {
                        out_cols.push(c.clone());
                        item_exprs.push((
                            Expr::Column {
                                qualifier: Some(bindings[bi].name.clone()),
                                name: c.clone(),
                            },
                            c.clone(),
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    Expr::Func { name, .. } => name.to_ascii_lowercase(),
                    _ => format!("col{}", i + 1),
                });
                out_cols.push(name.clone());
                item_exprs.push((expr.clone(), name));
            }
        }
    }

    let aggregate_mode = !sel.group_by.is_empty()
        || item_exprs.iter().any(|(e, _)| e.contains_aggregate())
        || sel.having.is_some();
    if sel.having.is_some() && sel.group_by.is_empty() {
        return Err(SqlError::Unsupported(
            "HAVING requires GROUP BY in this engine".into(),
        ));
    }

    let order_refs_output = sel.order_by.iter().any(|ok| {
        matches!(&ok.expr, Expr::Column { qualifier: None, name }
            if out_cols.iter().any(|c| c.eq_ignore_ascii_case(name)))
    });

    // Pre-resolve column names to positions everywhere except ORDER BY keys:
    // those resolve output aliases ahead of table columns, so they must stay
    // named until the projection exists.
    let mut filter = sel.filter.clone();
    if let Some(f) = &mut filter {
        resolve_columns(f, &bindings);
    }
    for src in &mut sources {
        if let Some(on) = &mut src.on {
            resolve_columns(on, &bindings);
        }
    }
    for (e, _) in &mut item_exprs {
        resolve_columns(e, &bindings);
    }
    let mut group_by = sel.group_by.clone();
    for g in &mut group_by {
        resolve_columns(g, &bindings);
    }
    let mut having = sel.having.clone();
    if let Some(h) = &mut having {
        resolve_columns(h, &bindings);
    }

    let mut plan = SelectPlan {
        sources,
        bindings,
        filter,
        out_cols: out_cols.into(),
        item_exprs,
        aggregate_mode,
        group_by,
        having,
        order_by: sel.order_by.clone(),
        order_refs_output,
        distinct: sel.distinct,
        limit: sel.limit,
        offset: sel.offset,
        deps,
        cost_exact: false,
    };
    plan.cost_exact = cost_only_exact(&plan);
    Ok(plan)
}

/// Execute a SELECT against the catalog (plan + execute in one step).
pub fn exec_select(
    catalog: &Catalog,
    sel: &SelectStmt,
    ctx: &EvalCtx,
) -> Result<QueryResult, SqlError> {
    let plan = plan_select(catalog, sel)?;
    exec_select_planned(catalog, &plan, ctx)
}

/// One aggregation group: accumulators plus the representative scope row
/// (the group's first, used to evaluate non-aggregate expressions).
type AggGroup<'t> = (Vec<AggAcc>, Vec<Option<&'t [Value]>>);

/// Re-resolve a plan's tables against the live catalog.
fn plan_tables<'c>(catalog: &'c Catalog, plan: &SelectPlan) -> Result<Vec<&'c Table>, SqlError> {
    plan.sources
        .iter()
        .map(|s| {
            catalog
                .get(&s.table_key)
                .ok_or_else(|| SqlError::UnknownTable(s.table_key.clone()))
        })
        .collect()
}

/// Sink receiving each surviving scope row from the join driver.
type RowSink<'s, 't> = dyn FnMut(&[Option<&'t [Value]>]) -> Result<(), SqlError> + 's;

/// The nested-loop join driver over a plan's per-source candidate lists.
/// Rows are borrowed straight out of storage; nothing is cloned until a
/// sink decides it must keep something.
struct Join<'a, 't> {
    plan: &'a SelectPlan,
    tables: &'a [&'t Table],
    ctx: &'a EvalCtx<'a>,
    /// Count the innermost source's candidates instead of visiting them —
    /// the cost-only mode of [`exec_select_cost`]. The innermost ON check
    /// and the WHERE filter are then never evaluated, and the sink never
    /// called, so the plan must be [`SelectPlan::cost_exact`].
    count_innermost: bool,
    /// Rows fetched from storage so far, counted before the ON and WHERE
    /// checks decide whether a row survives.
    rows_examined: u64,
}

impl<'a, 't> Join<'a, 't> {
    /// Feed each surviving scope row to `sink`.
    fn drive(&mut self, sink: &mut RowSink<'_, 't>) -> Result<(), SqlError> {
        if self.plan.sources.is_empty() {
            // A FROM-less SELECT yields exactly one row over an empty scope;
            // the padding entry is never read (there are no bindings).
            return sink(&[None]);
        }
        let mut scope_rows: Vec<Option<&'t [Value]>> = vec![None; self.plan.sources.len()];
        self.recurse(0, &mut scope_rows, sink)
    }

    fn recurse(
        &mut self,
        idx: usize,
        scope_rows: &mut [Option<&'t [Value]>],
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let plan = self.plan;
        let bindings = &plan.bindings;
        if idx == plan.sources.len() {
            if let Some(f) = &plan.filter {
                let scope = Scope {
                    bindings,
                    rows: scope_rows,
                };
                if eval_truth(f, self.ctx, &scope)? != Truth::True {
                    return Ok(());
                }
            }
            return sink(scope_rows);
        }
        let src = &plan.sources[idx];
        let table = self.tables[idx];
        let cands = {
            let scope = Scope {
                bindings,
                rows: scope_rows,
            };
            candidates(table, &src.path, self.ctx, &scope)?
        };
        if self.count_innermost && idx + 1 == plan.sources.len() {
            self.rows_examined += cands.len(table) as u64;
            return Ok(());
        }
        let mut matched = false;
        for (_rid, row) in cands.rows(table) {
            self.rows_examined += 1;
            scope_rows[idx] = Some(row);
            // Re-check the ON predicate (the path may be a superset).
            if let Some(on) = &src.on {
                let scope = Scope {
                    bindings,
                    rows: scope_rows,
                };
                if eval_truth(on, self.ctx, &scope)? != Truth::True {
                    scope_rows[idx] = None;
                    continue;
                }
            }
            matched = true;
            self.recurse(idx + 1, scope_rows, sink)?;
            scope_rows[idx] = None;
        }
        if !matched && src.kind == JoinKind::Left {
            scope_rows[idx] = None;
            self.recurse(idx + 1, scope_rows, sink)?;
        }
        Ok(())
    }
}

/// Rows a planned SELECT examines, without building its result: the join
/// driver runs with a no-op sink and counts the innermost source's
/// candidates without touching them. No projection, sort key, sort,
/// DISTINCT, aggregation or LIMIT work is done. For a
/// [`SelectPlan::cost_exact`] plan with every `?` bound, the count and any
/// error are exactly those of [`exec_select_planned`].
pub fn exec_select_cost(
    catalog: &Catalog,
    plan: &SelectPlan,
    ctx: &EvalCtx,
) -> Result<u64, SqlError> {
    debug_assert!(plan.cost_exact, "cost-only execution of an inexact plan");
    let tables = plan_tables(catalog, plan)?;
    let mut join = Join {
        plan,
        tables: &tables,
        ctx,
        count_innermost: true,
        rows_examined: 0,
    };
    join.drive(&mut |_| Ok(()))?;
    Ok(join.rows_examined)
}

/// Execute a previously planned SELECT against the catalog.
pub fn exec_select_planned<'c>(
    catalog: &'c Catalog,
    plan: &SelectPlan,
    ctx: &EvalCtx,
) -> Result<QueryResult, SqlError> {
    let tables = plan_tables(catalog, plan)?;
    let bindings = &plan.bindings;
    let out_cols = &plan.out_cols;
    let item_exprs = &plan.item_exprs;

    // Stream scope rows (with WHERE applied) into a per-mode sink.
    let mut join = Join {
        plan,
        tables: &tables,
        ctx,
        count_innermost: false,
        rows_examined: 0,
    };

    // Project (and aggregate).
    // Each output row carries its sort keys, computed pre-projection.
    let mut result_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (sort_keys, out_row)

    let order_key_exprs: Vec<&OrderKey> = plan.order_by.iter().collect();

    let compute_sort_keys =
        |out_row: &[Value], scope: &dyn ColumnResolver| -> Result<Vec<Value>, SqlError> {
            let mut keys = Vec::with_capacity(order_key_exprs.len());
            for ok in &order_key_exprs {
                // Alias / output-name reference?
                if let Expr::Column {
                    qualifier: None,
                    name,
                } = &ok.expr
                {
                    if let Some(pos) = out_cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        keys.push(out_row[pos].clone());
                        continue;
                    }
                }
                keys.push(eval(&ok.expr, ctx, scope)?);
            }
            Ok(keys)
        };

    if plan.aggregate_mode {
        let specs = collect_agg_specs(item_exprs, &plan.order_by, plan.having.as_ref());
        // (accumulators, representative scope rows); output order is group
        // discovery order, so the index map can be an unordered HashMap.
        let mut groups: Vec<AggGroup<'c>> = Vec::new();
        let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
        // Rows stream straight into accumulators; only each group's first row
        // is kept (as the group's representative scope). A global aggregate
        // (no GROUP BY) skips the key hashing entirely — one group, found
        // without a lookup.
        let global = plan.group_by.is_empty();
        let mut sink = |scope_rows: &[Option<&'c [Value]>]| -> Result<(), SqlError> {
            let scope = Scope {
                bindings,
                rows: scope_rows,
            };
            let gi = if global {
                if groups.is_empty() {
                    groups.push((specs.iter().map(AggAcc::new).collect(), scope_rows.to_vec()));
                }
                0
            } else {
                let mut key = Vec::with_capacity(plan.group_by.len());
                for g in &plan.group_by {
                    key.push(ValueKey::from(eval(g, ctx, &scope)?));
                }
                let key = GroupKey(key);
                match group_index.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        groups.push((specs.iter().map(AggAcc::new).collect(), scope_rows.to_vec()));
                        group_index.insert(key, groups.len() - 1);
                        groups.len() - 1
                    }
                }
            };
            for (acc, spec) in groups[gi].0.iter_mut().zip(&specs) {
                acc.update(spec, ctx, &scope)?;
            }
            Ok(())
        };
        join.drive(&mut sink)?;
        // A global aggregate over zero rows still yields one group.
        if groups.is_empty() && global {
            groups.push((
                specs.iter().map(AggAcc::new).collect(),
                vec![None; bindings.len()],
            ));
        }

        for (accs, rep_rows) in &groups {
            let scope = Scope {
                bindings,
                rows: rep_rows,
            };
            let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            // HAVING filters whole groups; aggregates inside it substitute.
            if let Some(h) = &plan.having {
                let rewritten = substitute_aggs(h, &specs, &agg_values);
                if eval_truth(&rewritten, ctx, &scope)? != Truth::True {
                    continue;
                }
            }
            let mut out_row = Vec::with_capacity(item_exprs.len());
            for (e, _) in item_exprs {
                let rewritten = substitute_aggs(e, &specs, &agg_values);
                out_row.push(eval(&rewritten, ctx, &scope)?);
            }
            // Sort keys may contain aggregates too.
            let mut keys = Vec::with_capacity(order_key_exprs.len());
            for ok in &order_key_exprs {
                if let Expr::Column {
                    qualifier: None,
                    name,
                } = &ok.expr
                {
                    if let Some(pos) = out_cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        keys.push(out_row[pos].clone());
                        continue;
                    }
                }
                let rewritten = substitute_aggs(&ok.expr, &specs, &agg_values);
                keys.push(eval(&rewritten, ctx, &scope)?);
            }
            result_rows.push((keys, out_row));
        }
    } else {
        // Sorting needs every emitted row at once, so the non-aggregate path
        // materializes — but into one flat buffer of borrowed row slices
        // (chunks of `n_srcs`), not a Vec-per-row.
        let n_srcs = plan.sources.len().max(1);
        let mut flat: Vec<Option<&'c [Value]>> = Vec::new();
        let mut sink = |scope_rows: &[Option<&'c [Value]>]| -> Result<(), SqlError> {
            flat.extend_from_slice(scope_rows);
            Ok(())
        };
        join.drive(&mut sink)?;

        // Windowed fast path: with OFFSET/LIMIT, no DISTINCT, and sort keys
        // that don't read the projected row, sort the borrowed scope rows
        // first and project only the window's survivors — projection is the
        // expensive step (it clones every projected value).
        let windowed = (plan.limit.is_some() || plan.offset.is_some())
            && !plan.distinct
            && !plan.order_refs_output;
        if windowed {
            let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(flat.len() / n_srcs);
            for (i, scope_rows) in flat.chunks(n_srcs).enumerate() {
                let scope = Scope {
                    bindings,
                    rows: scope_rows,
                };
                let mut keys = Vec::with_capacity(order_key_exprs.len());
                for ok in &order_key_exprs {
                    keys.push(eval(&ok.expr, ctx, &scope)?);
                }
                keyed.push((keys, i));
            }
            if !plan.order_by.is_empty() {
                keyed.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(&plan.order_by, ka, kb));
            }
            let offset = plan.offset.unwrap_or(0) as usize;
            let take = plan.limit.map(|l| l as usize).unwrap_or(usize::MAX);
            let mut rows = Vec::new();
            for (_, i) in keyed.into_iter().skip(offset).take(take) {
                let scope = Scope {
                    bindings,
                    rows: &flat[i * n_srcs..(i + 1) * n_srcs],
                };
                let mut out_row = Vec::with_capacity(item_exprs.len());
                for (e, _) in item_exprs {
                    out_row.push(eval(e, ctx, &scope)?);
                }
                rows.push(out_row);
            }
            return Ok(QueryResult {
                columns: out_cols.clone(),
                rows,
                rows_affected: 0,
                last_insert_id: None,
                rows_examined: join.rows_examined,
            });
        }

        for scope_rows in flat.chunks(n_srcs) {
            let scope = Scope {
                bindings,
                rows: scope_rows,
            };
            let mut out_row = Vec::with_capacity(item_exprs.len());
            for (e, _) in item_exprs {
                out_row.push(eval(e, ctx, &scope)?);
            }
            let keys = compute_sort_keys(&out_row, &scope)?;
            result_rows.push((keys, out_row));
        }
    }

    // DISTINCT: keep the first occurrence of each projected row.
    if plan.distinct {
        let mut seen: std::collections::HashSet<GroupKey> = std::collections::HashSet::new();
        result_rows.retain(|(_, row)| {
            seen.insert(GroupKey(
                row.iter().map(|v| ValueKey::from(v.clone())).collect(),
            ))
        });
    }

    // ORDER BY.
    if !plan.order_by.is_empty() {
        result_rows.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(&plan.order_by, ka, kb));
    }

    // OFFSET / LIMIT.
    let offset = plan.offset.unwrap_or(0) as usize;
    let rows: Vec<Vec<Value>> = result_rows
        .into_iter()
        .map(|(_, r)| r)
        .skip(offset)
        .take(plan.limit.map(|l| l as usize).unwrap_or(usize::MAX))
        .collect();

    Ok(QueryResult {
        columns: out_cols.clone(),
        rows,
        rows_affected: 0,
        last_insert_id: None,
        rows_examined: join.rows_examined,
    })
}

/// Compare two pre-computed sort-key rows under an ORDER BY spec. `sort_by`
/// is stable, so equal keys keep emission order with or without deferred
/// projection.
fn cmp_sort_keys(order_by: &[OrderKey], ka: &[Value], kb: &[Value]) -> std::cmp::Ordering {
    for (i, ok) in order_by.iter().enumerate() {
        let ord = ka[i].index_cmp(&kb[i]);
        let ord = if ok.desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Exact-value grouping / DISTINCT key. Equality must distinguish exactly
/// what `Value`'s `Debug` formatting distinguishes — `Int(1)` ≠
/// `Double(1.0)` ≠ `Timestamp(1)`, `-0.0` ≠ `0.0` — while treating every
/// NaN as equal to itself, without allocating a formatted string per row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey(Vec<ValueKey>);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValueKey {
    Null,
    Int(i64),
    /// `f64` bits, with every NaN normalized to one pattern.
    DoubleBits(u64),
    Text(String),
    Bool(bool),
    Timestamp(i64),
}

impl From<Value> for ValueKey {
    fn from(v: Value) -> ValueKey {
        match v {
            Value::Null => ValueKey::Null,
            Value::Int(i) => ValueKey::Int(i),
            Value::Double(d) => ValueKey::DoubleBits(if d.is_nan() {
                f64::NAN.to_bits()
            } else {
                d.to_bits()
            }),
            Value::Text(s) => ValueKey::Text(s),
            Value::Bool(b) => ValueKey::Bool(b),
            Value::Timestamp(t) => ValueKey::Timestamp(t),
        }
    }
}

/// Execute an EXPLAIN: report each table access with its chosen path,
/// mirroring the planner decisions `exec_select` would make.
pub fn explain_select(catalog: &Catalog, sel: &SelectStmt) -> Result<QueryResult, SqlError> {
    let mut res = QueryResult {
        columns: vec!["table".into(), "binding".into(), "access".into()].into(),
        ..QueryResult::default()
    };
    let Some(from) = &sel.from else {
        res.rows.push(vec![
            Value::Text("(no table)".into()),
            Value::Null,
            Value::Text("constant".into()),
        ]);
        return Ok(res);
    };
    let base = get_table(catalog, &from.base.table)?;
    let base_binding = from.base.binding();
    let path = choose_path(base, base_binding, sel.filter.as_ref());
    res.rows.push(vec![
        Value::Text(from.base.table.clone()),
        Value::Text(base_binding.to_string()),
        Value::Text(path.describe()),
    ]);
    for j in &from.joins {
        let t = get_table(catalog, &j.table.table)?;
        let binding = j.table.binding();
        let path = choose_path(t, binding, Some(&j.on));
        res.rows.push(vec![
            Value::Text(j.table.table.clone()),
            Value::Text(binding.to_string()),
            Value::Text(path.describe()),
        ]);
    }
    Ok(res)
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct AggSpec {
    name: String,
    arg: Option<Expr>,
    star: bool,
}

fn collect_agg_specs(
    items: &[(Expr, String)],
    order_by: &[OrderKey],
    having: Option<&Expr>,
) -> Vec<AggSpec> {
    let mut specs: Vec<AggSpec> = Vec::new();
    let mut add_from = |e: &Expr| {
        e.walk(&mut |node| {
            if let Expr::Func { name, args, star } = node {
                if is_aggregate_name(name) {
                    let spec = AggSpec {
                        name: name.to_ascii_uppercase(),
                        arg: args.first().cloned(),
                        star: *star,
                    };
                    if !specs.contains(&spec) {
                        specs.push(spec);
                    }
                }
            }
        });
    };
    for (e, _) in items {
        add_from(e);
    }
    for ok in order_by {
        add_from(&ok.expr);
    }
    if let Some(h) = having {
        add_from(h);
    }
    specs
}

/// Replace aggregate calls with their computed values.
fn substitute_aggs(e: &Expr, specs: &[AggSpec], values: &[Value]) -> Expr {
    if let Expr::Func { name, args, star } = e {
        if is_aggregate_name(name) {
            let spec = AggSpec {
                name: name.to_ascii_uppercase(),
                arg: args.first().cloned(),
                star: *star,
            };
            if let Some(i) = specs.iter().position(|s| *s == spec) {
                return Expr::Literal(values[i].clone());
            }
        }
    }
    match e {
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(substitute_aggs(inner, specs, values))),
        Expr::Binary(a, op, b) => Expr::Binary(
            Box::new(substitute_aggs(a, specs, values)),
            *op,
            Box::new(substitute_aggs(b, specs, values)),
        ),
        Expr::Func { name, args, star } => Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| substitute_aggs(a, specs, values))
                .collect(),
            star: *star,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(substitute_aggs(expr, specs, values)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(substitute_aggs(expr, specs, values)),
            pattern: Box::new(substitute_aggs(pattern, specs, values)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(substitute_aggs(expr, specs, values)),
            list: list
                .iter()
                .map(|i| substitute_aggs(i, specs, values))
                .collect(),
            negated: *negated,
        },
        Expr::Between { expr, lo, hi } => Expr::Between {
            expr: Box::new(substitute_aggs(expr, specs, values)),
            lo: Box::new(substitute_aggs(lo, specs, values)),
            hi: Box::new(substitute_aggs(hi, specs, values)),
        },
        other => other.clone(),
    }
}

#[derive(Debug, Clone)]
enum AggAcc {
    Count(i64),
    Sum { sum: f64, any: bool, int: bool },
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAcc {
    fn new(spec: &AggSpec) -> AggAcc {
        match spec.name.as_str() {
            "COUNT" => AggAcc::Count(0),
            "SUM" => AggAcc::Sum {
                sum: 0.0,
                any: false,
                int: true,
            },
            "AVG" => AggAcc::Avg { sum: 0.0, n: 0 },
            "MIN" => AggAcc::Min(None),
            "MAX" => AggAcc::Max(None),
            other => unreachable!("non-aggregate {other}"),
        }
    }

    fn update(
        &mut self,
        spec: &AggSpec,
        ctx: &EvalCtx,
        scope: &dyn ColumnResolver,
    ) -> Result<(), SqlError> {
        let arg_val = if spec.star {
            Some(Value::Int(1))
        } else if let Some(arg) = &spec.arg {
            Some(eval(arg, ctx, scope)?)
        } else {
            None
        };
        match self {
            AggAcc::Count(n) => match arg_val {
                Some(Value::Null) => {}
                Some(_) => *n += 1,
                None => return Err(SqlError::BadParameter("COUNT needs an argument".into())),
            },
            AggAcc::Sum { sum, any, int } => match arg_val {
                Some(Value::Null) | None => {}
                Some(Value::Int(i)) => {
                    *sum += i as f64;
                    *any = true;
                }
                Some(Value::Double(d)) => {
                    *sum += d;
                    *any = true;
                    *int = false;
                }
                Some(v) => {
                    return Err(SqlError::TypeMismatch(format!("SUM over {v:?}")));
                }
            },
            AggAcc::Avg { sum, n } => match arg_val {
                Some(Value::Null) | None => {}
                Some(Value::Int(i)) => {
                    *sum += i as f64;
                    *n += 1;
                }
                Some(Value::Double(d)) => {
                    *sum += d;
                    *n += 1;
                }
                Some(v) => {
                    return Err(SqlError::TypeMismatch(format!("AVG over {v:?}")));
                }
            },
            AggAcc::Min(cur) => {
                if let Some(v) = arg_val {
                    if !v.is_null()
                        && (cur.is_none()
                            || v.sql_cmp(cur.as_ref().expect("checked"))
                                == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(v);
                    }
                }
            }
            AggAcc::Max(cur) => {
                if let Some(v) = arg_val {
                    if !v.is_null()
                        && (cur.is_none()
                            || v.sql_cmp(cur.as_ref().expect("checked"))
                                == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(*n),
            AggAcc::Sum { sum, any, int } => {
                if !any {
                    Value::Null
                } else if *int {
                    Value::Int(*sum as i64)
                } else {
                    Value::Double(*sum)
                }
            }
            AggAcc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *n as f64)
                }
            }
            AggAcc::Min(v) | AggAcc::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

/// Execute an INSERT.
pub fn exec_insert(
    catalog: &mut Catalog,
    table_name: &str,
    columns: &[String],
    rows: &[Vec<Expr>],
    ctx: &EvalCtx,
    cap: Capture,
) -> Result<WriteOutcome, SqlError> {
    let table = get_table_mut(catalog, table_name)?;

    // Map insert column list to schema positions. The schema borrows end
    // before the mutating insert loop starts, so no clone of the schema is
    // needed.
    let (arity, positions, pk_auto) = {
        let schema = table.schema();
        let positions: Vec<usize> = if columns.is_empty() {
            (0..schema.arity()).collect()
        } else {
            let mut out = Vec::with_capacity(columns.len());
            for c in columns {
                out.push(
                    schema
                        .column_index(c)
                        .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?,
                );
            }
            out
        };
        let pk_auto = schema
            .pk_index()
            .filter(|&pk| schema.columns[pk].auto_increment);
        (schema.arity(), positions, pk_auto)
    };

    let mut outcome = WriteOutcome::default();
    let key = table_key(table_name);
    for value_exprs in rows {
        if value_exprs.len() != positions.len() {
            return Err(SqlError::Constraint(format!(
                "INSERT has {} values for {} columns",
                value_exprs.len(),
                positions.len()
            )));
        }
        let mut full = vec![Value::Null; arity];
        for (pos, e) in positions.iter().zip(value_exprs) {
            full[*pos] = eval(e, ctx, &NoColumns)?;
        }
        let rid = table.insert(full)?;
        let stored = table.get(rid).expect("just inserted");
        if let Some(pk) = pk_auto {
            // TIMESTAMP auto-increment keys store `Timestamp`; the assigned
            // id is still reported through last_insert_id.
            if let Value::Int(v) | Value::Timestamp(v) = stored[pk] {
                outcome.result.last_insert_id = Some(v);
            }
        }
        if cap.undo {
            outcome.undo.push(UndoEntry {
                table: key.clone().into_owned(),
                undo: Undo::Inserted(rid),
            });
        }
        if cap.changes {
            outcome.changes.push(RowChange {
                table: key.clone().into_owned(),
                kind: RowChangeKind::Insert {
                    row: stored.to_vec(),
                },
            });
        }
        outcome.result.rows_affected += 1;
    }
    Ok(outcome)
}

/// Shared row-matching for UPDATE and DELETE.
fn matching_rows(
    table: &Table,
    binding: &str,
    filter: Option<&Expr>,
    ctx: &EvalCtx,
    rows_examined: &mut u64,
) -> Result<Vec<RowId>, SqlError> {
    let path = choose_path(table, binding, filter);
    let bindings = [Binding {
        name: binding.to_string(),
        columns: table.col_names(),
    }];
    let empty_rows = [None];
    let scope = Scope {
        bindings: &bindings,
        rows: &empty_rows,
    };
    let cands = candidates(table, &path, ctx, &scope)?;
    let mut out = Vec::new();
    for (rid, row) in cands.rows(table) {
        *rows_examined += 1;
        let rows_holder = [Some(row)];
        let scope = Scope {
            bindings: &bindings,
            rows: &rows_holder,
        };
        let keep = match filter {
            Some(f) => eval_truth(f, ctx, &scope)? == Truth::True,
            None => true,
        };
        if keep {
            out.push(rid);
        }
    }
    Ok(out)
}

/// Execute an UPDATE.
pub fn exec_update(
    catalog: &mut Catalog,
    table_name: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
    ctx: &EvalCtx,
    cap: Capture,
) -> Result<WriteOutcome, SqlError> {
    let table = get_table_mut(catalog, table_name)?;
    let (set_positions, bindings) = {
        let schema = table.schema();
        let mut set_positions = Vec::with_capacity(sets.len());
        for (c, _) in sets {
            set_positions.push(
                schema
                    .column_index(c)
                    .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?,
            );
        }
        let bindings = [Binding {
            name: table_name.to_string(),
            columns: table.col_names(),
        }];
        (set_positions, bindings)
    };

    let mut outcome = WriteOutcome::default();
    let rids = matching_rows(
        table,
        table_name,
        filter,
        ctx,
        &mut outcome.result.rows_examined,
    )?;

    let key = table_key(table_name);
    for rid in rids {
        // One clone builds the new image; the SET expressions evaluate
        // against the borrowed old row.
        let mut new_row;
        {
            let old = table.get(rid).expect("matched row valid");
            new_row = old.to_vec();
            let rows_holder = [Some(old)];
            let scope = Scope {
                bindings: &bindings,
                rows: &rows_holder,
            };
            for (pos, (_, e)) in set_positions.iter().zip(sets) {
                new_row[*pos] = eval(e, ctx, &scope)?;
            }
        }
        let old_row = table.update(rid, new_row)?;
        if cap.changes {
            // Shipped images are owned copies; the undo log shares the Arc.
            let after = table.get(rid).expect("updated row valid").to_vec();
            if cap.undo {
                outcome.undo.push(UndoEntry {
                    table: key.clone().into_owned(),
                    undo: Undo::Updated(rid, old_row.clone()),
                });
            }
            outcome.changes.push(RowChange {
                table: key.clone().into_owned(),
                kind: RowChangeKind::Update {
                    before: old_row.to_vec(),
                    after,
                },
            });
        } else if cap.undo {
            outcome.undo.push(UndoEntry {
                table: key.clone().into_owned(),
                undo: Undo::Updated(rid, old_row),
            });
        }
        outcome.result.rows_affected += 1;
    }
    Ok(outcome)
}

/// Execute a DELETE.
pub fn exec_delete(
    catalog: &mut Catalog,
    table_name: &str,
    filter: Option<&Expr>,
    ctx: &EvalCtx,
    cap: Capture,
) -> Result<WriteOutcome, SqlError> {
    let table = get_table_mut(catalog, table_name)?;
    let mut outcome = WriteOutcome::default();
    let rids = matching_rows(
        table,
        table_name,
        filter,
        ctx,
        &mut outcome.result.rows_examined,
    )?;
    let key = table_key(table_name);
    for rid in rids {
        let row = table.delete(rid).expect("matched row valid");
        match (cap.undo, cap.changes) {
            (true, true) => {
                outcome.undo.push(UndoEntry {
                    table: key.clone().into_owned(),
                    undo: Undo::Deleted(rid, row.clone()),
                });
                outcome.changes.push(RowChange {
                    table: key.clone().into_owned(),
                    kind: RowChangeKind::Delete { row: row.to_vec() },
                });
            }
            (true, false) => outcome.undo.push(UndoEntry {
                table: key.clone().into_owned(),
                undo: Undo::Deleted(rid, row),
            }),
            (false, true) => outcome.changes.push(RowChange {
                table: key.clone().into_owned(),
                kind: RowChangeKind::Delete { row: row.to_vec() },
            }),
            (false, false) => {}
        }
        outcome.result.rows_affected += 1;
    }
    Ok(outcome)
}
