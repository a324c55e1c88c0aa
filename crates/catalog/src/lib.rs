//! Catalog: schemas, statistics and index metadata.
//!
//! The optimizer experiments in the paper (estimated cost, optimization
//! time) depend only on statistics — row counts, tuple widths, per-column
//! min/max/distinct — so the catalog is the ground truth those experiments
//! run against. Execution experiments generate data that *matches* these
//! statistics (see `mqo-exec`).
//!
//! Columns get globally unique [`ColId`]s; a column belongs to exactly one
//! base table. Derived results reference base columns directly (queries in
//! this workspace never rename columns, mirroring the paper's algebra).

mod stats;

pub use stats::{ColStats, Number};

use mqo_util::id_type;
use std::sync::atomic::{AtomicU64, Ordering};

id_type!(
    /// Identifies a base table in the catalog.
    TableId
);
id_type!(
    /// Identifies a column of a base table (globally unique).
    ColId
);

/// Column data type. The execution engine stores values accordingly; the
/// optimizer only needs widths and numeric ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Fixed-width string of the given byte length (statistics treat the
    /// first 8 bytes as the sort key, which is enough for our workloads).
    Str(u16),
}

impl ColType {
    /// Width in bytes as accounted by the cost model.
    #[must_use]
    pub fn width(self) -> u32 {
        match self {
            ColType::Int | ColType::Float => 8,
            ColType::Str(n) => n as u32,
        }
    }
}

/// A column definition plus its statistics.
#[derive(Debug, Clone)]
pub struct Column {
    /// Global id.
    pub id: ColId,
    /// Owning table; `None` for derived columns (aggregate outputs).
    pub table: Option<TableId>,
    /// Column name (unique within its table).
    pub name: String,
    /// Data type.
    pub ty: ColType,
    /// Value statistics used by cardinality estimation.
    pub stats: ColStats,
}

/// A base table: schema, cardinality and clustered-index metadata.
#[derive(Debug, Clone)]
pub struct Table {
    /// Global id.
    pub id: TableId,
    /// Table name (unique in the catalog).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColId>,
    /// Number of rows.
    pub cardinality: f64,
    /// Column the table is clustered on (primary key), if any. A clustered
    /// index supplies a sort order for free and enables indexed
    /// selects/joins on that column, as in the paper's experimental setup.
    pub clustered_on: Option<ColId>,
}

/// The catalog: all tables and columns known to the optimizer.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: Vec<Table>,
    columns: Vec<Column>,
    by_name: mqo_util::FxHashMap<String, TableId>,
    stats_epoch: u64,
}

/// A statistics epoch no catalog has had before.
fn fresh_stats_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: Vec::new(),
            columns: Vec::new(),
            by_name: mqo_util::FxHashMap::default(),
            stats_epoch: fresh_stats_epoch(),
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The version of the statistics of the tables and columns already
    /// defined. Every new catalog starts a process-unique epoch and
    /// [`Catalog::scale_table`] moves to a new one; appends (`table`,
    /// `derived_column`) leave existing statistics, hence the epoch,
    /// unchanged. So two catalogs with the same epoch give every shared
    /// id the same statistics: a plan for a batch over those ids is the
    /// same plan under either — what a session's plan cache relies on.
    #[must_use]
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Starts defining a table. Finish with [`TableBuilder::build`].
    pub fn table(&mut self, name: &str) -> TableBuilder<'_> {
        TableBuilder {
            catalog: self,
            name: name.to_string(),
            columns: Vec::new(),
            cardinality: 0.0,
            clustered_on_first: false,
        }
    }

    /// Looks a table up by name.
    #[must_use]
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|id| &self.tables[id.index()])
    }

    /// Returns the table with the given id.
    #[must_use]
    pub fn table_ref(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Returns the column with the given id.
    #[must_use]
    pub fn column(&self, id: ColId) -> &Column {
        &self.columns[id.index()]
    }

    /// Finds a column of `table` by name.
    #[must_use]
    pub fn column_by_name(&self, table: TableId, name: &str) -> Option<&Column> {
        self.tables[table.index()]
            .columns
            .iter()
            .map(|&c| &self.columns[c.index()])
            .find(|c| c.name == name)
    }

    /// Convenience: `"table.column"` lookup; panics if missing (used by
    /// workload definitions where absence is a programming error).
    ///
    /// # Panics
    ///
    /// Panics if the table or column does not exist.
    #[must_use]
    pub fn col(&self, table: &str, column: &str) -> ColId {
        let t = self
            .table_by_name(table)
            .unwrap_or_else(|| panic!("no table named {table}"));
        self.column_by_name(t.id, column)
            .unwrap_or_else(|| panic!("no column {table}.{column}"))
            .id
    }

    /// All tables.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All columns.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Width in bytes of one tuple of `table`.
    #[must_use]
    pub fn tuple_width(&self, table: TableId) -> u32 {
        self.tables[table.index()]
            .columns
            .iter()
            .map(|&c| self.columns[c.index()].ty.width())
            .sum()
    }

    /// Registers a derived column (e.g. an aggregate output). Derived
    /// columns belong to no table; logical plans bind them to the operator
    /// that produces them.
    pub fn derived_column(&mut self, name: &str, ty: ColType, stats: ColStats) -> ColId {
        let cid = ColId::from_index(self.columns.len());
        self.columns.push(Column {
            id: cid,
            table: None,
            name: name.to_string(),
            ty,
            stats,
        });
        cid
    }

    /// Overrides a table's cardinality (used by scale-factor sweeps). The
    /// per-column distinct counts are scaled proportionally, capped by the
    /// new cardinality. Starts a new [`Catalog::stats_epoch`].
    pub fn scale_table(&mut self, table: TableId, factor: f64) {
        self.stats_epoch = fresh_stats_epoch();
        let old = self.tables[table.index()].cardinality;
        let new = (old * factor).max(1.0);
        self.tables[table.index()].cardinality = new;
        for &c in self.tables[table.index()].columns.clone().iter() {
            let st = &mut self.columns[c.index()].stats;
            st.distinct = (st.distinct * factor).clamp(1.0, new);
        }
    }
}

/// Fluent builder for a table definition.
pub struct TableBuilder<'a> {
    catalog: &'a mut Catalog,
    name: String,
    columns: Vec<(String, ColType, ColStats)>,
    cardinality: f64,
    clustered_on_first: bool,
}

impl TableBuilder<'_> {
    /// Sets the row count.
    #[must_use]
    pub fn rows(mut self, n: f64) -> Self {
        self.cardinality = n;
        self
    }

    /// Adds a column with explicit statistics.
    #[must_use]
    pub fn column(mut self, name: &str, ty: ColType, stats: ColStats) -> Self {
        self.columns.push((name.to_string(), ty, stats));
        self
    }

    /// Adds an integer key column with values `0..rows` (distinct = rows).
    /// Call after [`Self::rows`].
    ///
    /// # Panics
    ///
    /// Panics unless `rows()` was set to a positive count first.
    #[must_use]
    pub fn int_key(self, name: &str) -> Self {
        let rows = self.cardinality;
        assert!(rows > 0.0, "set rows() before int_key()");
        self.column(
            name,
            ColType::Int,
            ColStats::uniform_int(0, rows as i64 - 1, rows),
        )
    }

    /// Adds an integer column uniform over `[lo, hi]`.
    #[must_use]
    pub fn int_uniform(self, name: &str, lo: i64, hi: i64) -> Self {
        let distinct = (hi - lo + 1) as f64;
        self.column(name, ColType::Int, ColStats::uniform_int(lo, hi, distinct))
    }

    /// Marks the first column as the clustered primary key.
    #[must_use]
    pub fn clustered_on_first(mut self) -> Self {
        self.clustered_on_first = true;
        self
    }

    /// Registers the table and returns its id.
    ///
    /// # Panics
    ///
    /// Panics unless `rows()` was set to a positive count.
    #[must_use]
    pub fn build(self) -> TableId {
        let Self {
            catalog,
            name,
            columns,
            cardinality,
            clustered_on_first,
        } = self;
        assert!(
            !catalog.by_name.contains_key(&name),
            "duplicate table name {name}"
        );
        assert!(cardinality > 0.0, "table {name} needs rows() > 0");
        let tid = TableId::from_index(catalog.tables.len());
        let mut col_ids = Vec::with_capacity(columns.len());
        for (cname, ty, stats) in columns {
            let cid = ColId::from_index(catalog.columns.len());
            catalog.columns.push(Column {
                id: cid,
                table: Some(tid),
                name: cname,
                ty,
                stats,
            });
            col_ids.push(cid);
        }
        let clustered_on = clustered_on_first.then(|| col_ids[0]);
        catalog.by_name.insert(name.clone(), tid);
        catalog.tables.push(Table {
            id: tid,
            name,
            columns: col_ids,
            cardinality,
            clustered_on,
        });
        tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> (Catalog, TableId) {
        let mut cat = Catalog::new();
        let t = cat
            .table("emp")
            .rows(1000.0)
            .int_key("id")
            .int_uniform("dept", 0, 9)
            .column("name", ColType::Str(24), ColStats::opaque(900.0))
            .clustered_on_first()
            .build();
        (cat, t)
    }

    #[test]
    fn builder_registers_schema() {
        let (cat, t) = demo();
        let table = cat.table_ref(t);
        assert_eq!(table.name, "emp");
        assert_eq!(table.columns.len(), 3);
        assert_eq!(table.cardinality, 1000.0);
        assert_eq!(table.clustered_on, Some(table.columns[0]));
        assert_eq!(cat.tuple_width(t), 8 + 8 + 24);
    }

    #[test]
    fn lookups_by_name() {
        let (cat, t) = demo();
        assert_eq!(cat.table_by_name("emp").unwrap().id, t);
        assert!(cat.table_by_name("nope").is_none());
        let dept = cat.col("emp", "dept");
        assert_eq!(cat.column(dept).name, "dept");
        assert_eq!(cat.column(dept).table, Some(t));
        assert!(cat.column_by_name(t, "salary").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        let _ = cat.table("t").rows(1.0).int_key("a").build();
        let _ = cat.table("t").rows(1.0).int_key("a").build();
    }

    #[test]
    fn scale_table_scales_rows_and_distincts() {
        let (mut cat, t) = demo();
        let dept = cat.col("emp", "dept");
        cat.scale_table(t, 100.0);
        assert_eq!(cat.table_ref(t).cardinality, 100_000.0);
        // dept had 10 distinct values; scaling multiplies but caps at rows.
        assert_eq!(cat.column(dept).stats.distinct, 1000.0);
        let id = cat.col("emp", "id");
        assert_eq!(cat.column(id).stats.distinct, 100_000.0);
    }

    #[test]
    fn stats_epoch_moves_on_rescaling_only() {
        let (mut cat, t) = demo();
        let (other, _) = demo();
        assert_ne!(
            cat.stats_epoch(),
            other.stats_epoch(),
            "catalogs never share by accident"
        );
        let before = cat.stats_epoch();
        let clone = cat.clone();
        let _ = cat.table("dept").rows(10.0).int_key("d").build();
        let _ = cat.derived_column("total", ColType::Float, ColStats::opaque(5.0));
        assert_eq!(
            cat.stats_epoch(),
            before,
            "appends keep existing statistics"
        );
        assert_eq!(clone.stats_epoch(), before);
        cat.scale_table(t, 2.0);
        assert_ne!(cat.stats_epoch(), before);
        assert_ne!(cat.stats_epoch(), other.stats_epoch());
    }

    #[test]
    fn column_ids_are_global_across_tables() {
        let mut cat = Catalog::new();
        let a = cat.table("a").rows(10.0).int_key("x").build();
        let b = cat.table("b").rows(10.0).int_key("x").build();
        let ax = cat.col("a", "x");
        let bx = cat.col("b", "x");
        assert_ne!(ax, bx);
        assert_eq!(cat.column(ax).table, Some(a));
        assert_eq!(cat.column(bx).table, Some(b));
    }
}
