//! In-memory tables: columnar storage with a row-compatibility shim.
//!
//! A [`Table`] stores its data as one typed [`Column`] per schema
//! column, each behind an `Arc` — so projections, temp reuse, and scans
//! share column payloads by refcount instead of cloning cell values.
//! The legacy row API ([`Table::new`] from rows, [`Table::rows`],
//! [`Table::row`]) remains as a thin shim over the columns, so
//! row-at-a-time callers keep working unchanged.

use crate::column::{Column, ColumnBuilder};
use mqo_catalog::{Catalog, ColId, TableId};
use mqo_expr::Value;
use mqo_util::FxHashMap;
#[allow(unused_imports)]
use std::cmp::Ordering;
use std::sync::Arc;

/// A tuple: one value per schema column.
pub type Row = Vec<Value>;

/// An in-memory table (base relation or materialized temp). Rows are
/// stored sorted by `sorted_on` when present — a sorted table doubles as
/// a clustered index on its leading sort column.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column layout of every row.
    pub schema: Vec<ColId>,
    /// Typed columnar data, one entry per schema column. Shared by
    /// refcount across operators that don't change the payload.
    cols: Vec<Arc<Column>>,
    /// Number of rows.
    n_rows: usize,
    /// Sort keys the rows are ordered by (empty = unordered).
    pub sorted_on: Vec<ColId>,
}

impl Table {
    /// Creates an unordered table from rows (the legacy constructor —
    /// columns are built with inferred types).
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the schema's.
    #[must_use]
    pub fn new(schema: Vec<ColId>, rows: Vec<Row>) -> Self {
        let n_rows = rows.len();
        let mut builders: Vec<ColumnBuilder> =
            (0..schema.len()).map(|_| ColumnBuilder::new()).collect();
        for row in rows {
            assert_eq!(row.len(), schema.len(), "row arity != schema arity");
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        let cols = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Table {
            schema,
            cols,
            n_rows,
            sorted_on: Vec::new(),
        }
    }

    /// Creates an unordered table directly from columns.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the schema's arity.
    pub fn from_columns(schema: Vec<ColId>, cols: Vec<Column>) -> Self {
        assert_eq!(schema.len(), cols.len(), "schema/column arity mismatch");
        let n_rows = cols.first().map_or(0, Column::len);
        assert!(
            cols.iter().all(|c| c.len() == n_rows),
            "ragged column lengths"
        );
        Table {
            schema,
            cols: cols.into_iter().map(Arc::new).collect(),
            n_rows,
            sorted_on: Vec::new(),
        }
    }

    /// Creates a table sharing already-refcounted columns (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the schema's arity.
    #[must_use]
    pub fn from_shared_columns(schema: Vec<ColId>, cols: Vec<Arc<Column>>, n_rows: usize) -> Self {
        assert_eq!(schema.len(), cols.len(), "schema/column arity mismatch");
        debug_assert!(cols.iter().all(|c| c.len() == n_rows));
        Table {
            schema,
            cols,
            n_rows,
            sorted_on: Vec::new(),
        }
    }

    /// Position of a column in the schema; panics if absent (schema
    /// mismatches are programming errors caught by tests).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in the schema.
    #[must_use]
    pub fn col_pos(&self, c: ColId) -> usize {
        self.schema
            .iter()
            .position(|&x| x == c)
            .unwrap_or_else(|| panic!("column c{c} not in schema {:?}", self.schema))
    }

    /// The column at schema position `pos`.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is past the schema's end.
    #[must_use]
    pub fn col(&self, pos: usize) -> &Column {
        &self.cols[pos]
    }

    /// Shared handle to the column at schema position `pos`.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is past the schema's end.
    #[must_use]
    pub fn col_arc(&self, pos: usize) -> Arc<Column> {
        Arc::clone(&self.cols[pos])
    }

    /// The column storing `c`; panics if absent.
    ///
    /// # Panics
    ///
    /// Panics when `c` is not in the schema.
    #[must_use]
    pub fn col_of(&self, c: ColId) -> &Column {
        &self.cols[self.col_pos(c)]
    }

    /// Materializes row `i` (legacy shim: clones one `Value` per cell).
    #[must_use]
    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Iterates materialized rows (legacy shim for row-at-a-time
    /// callers; each row allocates).
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.n_rows).map(|i| self.row(i))
    }

    /// Materializes every row (legacy shim).
    #[must_use]
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows().collect()
    }

    /// Sorts the rows by the given keys (ascending, Null first, stable)
    /// via a column-level argsort + gather. A single `Int` key is radix
    /// sorted on its key images (`Column::int_key_images`, whose order
    /// is the comparator's); every other key list goes through the row
    /// comparator. Both give the same permutation.
    ///
    /// # Panics
    ///
    /// Panics when a key column is not in the schema, or when key
    /// columns mix strings with numbers.
    pub fn sort_by(&mut self, keys: &[ColId]) {
        let pos: Vec<usize> = keys.iter().map(|&k| self.col_pos(k)).collect();
        let images = match pos[..] {
            [p] => self.cols[p].int_key_images(),
            _ => None,
        };
        let idx: Vec<u32> = match images {
            Some(images) => radix_argsort(images),
            None => {
                let mut idx: Vec<u32> = (0..self.n_rows as u32).collect();
                idx.sort_by(|&a, &b| {
                    pos.iter()
                        .map(|&p| self.cols[p].sort_cmp_rows(a as usize, b as usize))
                        .find(|o| *o != std::cmp::Ordering::Equal)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx
            }
        };
        if !idx.iter().enumerate().all(|(k, &i)| k as u32 == i) {
            self.cols = self.cols.iter().map(|c| Arc::new(c.gather(&idx))).collect();
        }
        self.sorted_on = keys.to_vec();
    }

    /// Half-open index range of rows whose leading sort column equals or
    /// falls within `[lo, hi]` bounds (inclusive); requires the table to
    /// be sorted. `None` bounds are unbounded.
    ///
    /// # Panics
    ///
    /// Panics if the table is not sorted.
    #[must_use]
    pub fn range_on_sorted(&self, lo: Option<&Value>, hi: Option<&Value>) -> (usize, usize) {
        assert!(!self.sorted_on.is_empty(), "range probe on unsorted table");
        let c = &self.cols[self.col_pos(self.sorted_on[0])];
        let start = match lo {
            Some(v) => partition_point(self.n_rows, |i| {
                c.sort_cmp_value(i, v) == std::cmp::Ordering::Less
            }),
            None => 0,
        };
        let end = match hi {
            Some(v) => partition_point(self.n_rows, |i| {
                c.sort_cmp_value(i, v) != std::cmp::Ordering::Greater
            }),
            None => self.n_rows,
        };
        (start, end.max(start))
    }

    /// Approximate heap footprint of the table's column payloads in
    /// bytes (see [`Column::approx_bytes`]) — the admission/accounting
    /// unit of the `MvStore` byte budget. Columns shared by refcount
    /// with other tables are charged in full.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }
}

/// Stable LSD radix argsort, one byte per pass: the row indices of
/// `keys` in ascending key order, ties in ascending row order — the
/// permutation an unstable sort of `(key, row)` pairs gives. A byte
/// position where every key agrees cannot reorder anything, so its pass
/// is skipped (all eight when every key is equal).
fn radix_argsort(mut keys: Vec<u64>) -> Vec<u32> {
    let n = keys.len();
    let mut rows: Vec<u32> = (0..n as u32).collect();
    let varying = keys
        .first()
        .map_or(0, |&k0| keys.iter().fold(0, |m, &k| m | (k ^ k0)));
    let (mut keys_to, mut rows_to) = (vec![0u64; n], vec![0u32; n]);
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let digit = |k: u64| (k >> shift) as usize & 0xff;
        let mut at = [0usize; 256];
        for &k in &keys {
            at[digit(k)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (sum, *slot) = (sum + *slot, sum);
        }
        for (&k, &r) in keys.iter().zip(&rows) {
            let d = digit(k);
            keys_to[at[d]] = k;
            rows_to[at[d]] = r;
            at[d] += 1;
        }
        std::mem::swap(&mut keys, &mut keys_to);
        std::mem::swap(&mut rows, &mut rows_to);
    }
    rows
}

/// First `i` in `0..n` where `pred(i)` is false (binary search over row
/// indices; `pred` must be monotone true→false).
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A database instance: one table per catalog table.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: FxHashMap<TableId, Arc<Table>>,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a table, sorting it by its clustered column per the
    /// catalog.
    pub fn insert(&mut self, catalog: &Catalog, id: TableId, mut table: Table) {
        if let Some(c) = catalog.table_ref(id).clustered_on {
            table.sort_by(&[c]);
        }
        self.tables.insert(id, Arc::new(table));
    }

    /// Fetches a table.
    ///
    /// # Panics
    ///
    /// Panics if no data is loaded for `id`.
    #[must_use]
    pub fn table(&self, id: TableId) -> Arc<Table> {
        self.tables
            .get(&id)
            .cloned()
            .unwrap_or_else(|| panic!("no data loaded for table {id:?}"))
    }

    /// True if data for `id` is loaded.
    #[must_use]
    pub fn contains(&self, id: TableId) -> bool {
        self.tables.contains_key(&id)
    }
}

/// Normalizes a result for comparison: projects columns in ascending
/// `ColId` order and sorts rows, so logically equal results compare equal
/// regardless of operator order. Used by differential tests (shared vs
/// unshared execution).
///
/// # Panics
///
/// Panics when rows hold incomparable cells (strings vs numbers in one
/// column).
#[must_use]
pub fn normalize_result(table: &Table) -> Vec<Row> {
    let mut order: Vec<usize> = (0..table.schema.len()).collect();
    order.sort_by_key(|&i| table.schema[i]);
    let mut rows: Vec<Row> = (0..table.len())
        .map(|r| order.iter().map(|&i| table.col(i).get(r)).collect())
        .collect();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Approximate equality of two normalized results: floats compare within
/// a relative epsilon (summation order may legally differ between plans),
/// everything else exactly.
#[must_use]
pub fn results_approx_equal(a: &[Row], b: &[Row], rel_eps: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb.iter()).all(|(x, y)| match (x, y) {
                (Value::Float(p), Value::Float(q)) => {
                    let scale = p.abs().max(q.abs()).max(1.0);
                    (p - q).abs() <= rel_eps * scale
                }
                _ => x == y,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn sort_and_range_probe() {
        let mut t = Table::new(
            vec![c(0), c(1)],
            vec![
                vec![v(3), v(30)],
                vec![v(1), v(10)],
                vec![v(2), v(20)],
                vec![v(2), v(21)],
            ],
        );
        t.sort_by(&[c(0)]);
        assert_eq!(t.sorted_on, vec![c(0)]);
        let (s, e) = t.range_on_sorted(Some(&v(2)), Some(&v(2)));
        assert_eq!(e - s, 2);
        let (s, e) = t.range_on_sorted(Some(&v(2)), None);
        assert_eq!(e - s, 3);
        let (s, e) = t.range_on_sorted(None, Some(&v(1)));
        assert_eq!((s, e), (0, 1));
        let (s, e) = t.range_on_sorted(Some(&v(9)), Some(&v(100)));
        assert_eq!(s, e);
    }

    #[test]
    fn normalize_is_order_insensitive() {
        let t1 = Table::new(vec![c(1), c(0)], vec![vec![v(10), v(1)], vec![v(20), v(2)]]);
        let t2 = Table::new(vec![c(0), c(1)], vec![vec![v(2), v(20)], vec![v(1), v(10)]]);
        assert_eq!(normalize_result(&t1), normalize_result(&t2));
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn col_pos_panics_on_missing() {
        let t = Table::new(vec![c(0)], vec![]);
        let _ = t.col_pos(c(7));
    }

    #[test]
    fn row_shim_roundtrips() {
        let rows = vec![
            vec![v(1), Value::str("a"), Value::Null],
            vec![v(2), Value::Null, Value::Float(0.5)],
        ];
        let t = Table::new(vec![c(0), c(1), c(2)], rows.clone());
        assert_eq!(t.to_rows(), rows);
        assert_eq!(t.row(1), rows[1]);
        assert_eq!(t.rows().count(), 2);
    }

    /// Regression for the hidden quadratic: `NullMask::any` scanned the
    /// mask words up to the first null and the sort comparators call it
    /// per comparison, so a sort on a key whose nulls sit at the end was
    /// O(n log n · n/64) — at 50 000 rows two orders of magnitude over
    /// the null-free sort. Both the typed single-key path and the
    /// comparator path must stay within a small multiple (best of three
    /// each, so a scheduling hiccup cannot fail it).
    #[test]
    fn nullable_sort_costs_a_small_multiple_of_null_free() {
        let build = |nullable: bool| {
            let rows = (0..50_000i64)
                .map(|i| {
                    let key = if nullable && i >= 49_990 {
                        Value::Null
                    } else {
                        v(i * 7919 % 10_007)
                    };
                    vec![key.clone(), key]
                })
                .collect();
            Table::new(vec![c(0), c(1)], rows)
        };
        let best_of_three = |t: &Table, keys: &[ColId]| {
            (0..3)
                .map(|_| {
                    let mut t = t.clone();
                    let start = std::time::Instant::now();
                    t.sort_by(keys);
                    start.elapsed()
                })
                .min()
                .expect("three runs")
        };
        let (plain, nullable) = (build(false), build(true));
        for keys in [&[c(0)][..], &[c(0), c(1)][..]] {
            let (base, with_nulls) = (best_of_three(&plain, keys), best_of_three(&nullable, keys));
            assert!(
                with_nulls <= base * 10,
                "{} key(s): nullable {with_nulls:?} vs null-free {base:?}",
                keys.len()
            );
        }
    }

    #[test]
    fn sort_is_stable_like_row_sort() {
        // ties on the key keep insertion order, as Vec::sort_by did
        let rows = vec![
            vec![v(2), v(0)],
            vec![v(1), v(1)],
            vec![v(2), v(2)],
            vec![v(1), v(3)],
        ];
        let mut t = Table::new(vec![c(0), c(1)], rows.clone());
        let mut expect = rows;
        expect.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        t.sort_by(&[c(0)]);
        assert_eq!(t.to_rows(), expect);
    }
}
