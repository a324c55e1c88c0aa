//! Typed columnar storage.
//!
//! A [`Column`] stores one table column as a contiguous typed vector
//! (`i64` / `f64` / `Arc<str>`) plus a packed null bitmap, so the
//! vectorized operators can run comparisons over primitive slices with
//! zero per-row [`Value`] clones. Columns built from rows with mixed
//! value types (hand-written tests, rather than generated data) fall
//! back to a `Vec<Value>` representation with identical semantics.
//!
//! All comparison helpers replicate the scalar semantics of
//! [`Value::sort_cmp`] (total order: Null first, numerics through `f64`,
//! then strings) and [`Value::cmp_maybe`] (SQL predicate order: `None`
//! on Null or type mismatch) *exactly*, so the row-at-a-time and the
//! batched execution paths produce bit-identical results.

use mqo_expr::{CmpOp, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Packed null bitmap. Empty means "no nulls"; the word vector only
/// grows up to the highest set bit, and bits past it read as not-null.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
}

impl NullMask {
    /// True if row `i` is null.
    #[inline]
    #[must_use]
    pub fn is_null(&self, i: usize) -> bool {
        self.words
            .get(i >> 6)
            .is_some_and(|w| (w >> (i & 63)) & 1 == 1)
    }

    /// Marks row `i` null.
    pub fn set(&mut self, i: usize) {
        let w = i >> 6;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        // mqo-analyze: allow(panic-path): resized to w + 1 just above — the index is always in bounds
        self.words[w] |= 1 << (i & 63);
    }

    /// True if any row is null. O(1): [`NullMask::set`] is the only
    /// mutator and it never leaves a zero word at the end, so the word
    /// vector is non-empty exactly when some bit is set. Comparison
    /// kernels call this per comparison; scanning the words up to the
    /// first null here made sorting a column whose nulls sit late
    /// quadratic.
    #[inline]
    #[must_use]
    pub fn any(&self) -> bool {
        !self.words.is_empty()
    }
}

/// The typed payload of a [`Column`]. Null slots hold a placeholder
/// (`0`, `0.0`, `""`) and are tracked by the column's [`NullMask`];
/// the `Val` fallback stores `Value::Null` inline instead.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Shared immutable strings.
    Str(Vec<Arc<str>>),
    /// Mixed-type fallback: exact `Value`s, nulls inline.
    Val(Vec<Value>),
}

/// A borrowed view of one cell — the zero-clone analogue of [`Value`]
/// used by comparison kernels (no `Arc` refcount traffic for strings).
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell.
    Str(&'a str),
}

impl<'a> Cell<'a> {
    /// Borrowed view of a `Value`.
    #[must_use]
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
            Value::Null => Cell::Null,
        }
    }

    /// Owning `Value` for this cell.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::str(s),
        }
    }

    /// Numeric view, mirroring [`Value::as_f64`].
    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Total comparison, bit-identical to [`Value::sort_cmp`] (numerics
    /// compare through `f64`, exactly as the scalar path does).
    ///
    /// # Panics
    ///
    /// Panics when comparing a string cell with a numeric cell.
    #[must_use]
    pub fn sort_cmp(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
            (a, b) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.total_cmp(&y)
            }
        }
    }

    /// Predicate comparison, bit-identical to [`Value::cmp_maybe`].
    ///
    /// # Panics
    ///
    /// Panics when comparing a string cell with a numeric cell.
    #[must_use]
    pub fn cmp_maybe(self, other: Cell<'_>) -> Option<Ordering> {
        use Cell::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Str(_), _) | (_, Str(_)) => None,
            (a, b) => a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap()),
        }
    }

    /// The cell as a hash-join key: `a.join_key() == b.join_key()` (both
    /// `Some`) exactly when `a.cmp_maybe(b) == Some(Equal)`. Null and NaN
    /// have no key (they equal nothing, themselves included); numbers
    /// meet through `f64` as the comparison does, so `Int(3)` keys like
    /// `Float(3.0)`, integers beyond 2^53 collide where their `f64`
    /// images do, and `-0.0` keys like `0.0`; a string never keys like
    /// a number.
    pub(crate) fn join_key(self) -> Option<JoinKey<'a>> {
        match self {
            Cell::Null => None,
            Cell::Str(s) => Some(JoinKey::Str(s)),
            Cell::Int(i) => Some(JoinKey::Num((i as f64).to_bits())),
            Cell::Float(f) if f.is_nan() => None,
            Cell::Float(f) => Some(JoinKey::Num(if f == 0.0 { 0 } else { f.to_bits() })),
        }
    }
}

/// Equality class of a non-null cell under [`Cell::cmp_maybe`]; see
/// [`Cell::join_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey<'a> {
    /// `f64` bit pattern of a number, `-0.0` folded into `0.0`.
    Num(u64),
    /// String bytes.
    Str(&'a str),
}

/// One table column: typed data plus null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
}

impl Column {
    /// Builds a column from exact values (type inferred; mixed types
    /// fall back to the `Val` representation).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Column {
        let mut b = ColumnBuilder::new();
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(d) => d.len(),
            ColumnData::Float(d) => d.len(),
            ColumnData::Str(d) => d.len(),
            ColumnData::Val(d) => d.len(),
        }
    }

    /// True if the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the payload, in bytes — what a
    /// byte-budgeted cache (the `MvStore`) charges for keeping this
    /// column alive. String payloads charge their UTF-8 length plus the
    /// `Arc` pointer; shared (`Arc`-deduplicated) strings are charged at
    /// every occurrence, a deliberate overestimate.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(d) => d.len() * std::mem::size_of::<i64>(),
            ColumnData::Float(d) => d.len() * std::mem::size_of::<f64>(),
            ColumnData::Str(d) => d
                .iter()
                .map(|s| s.len() + std::mem::size_of::<Arc<str>>())
                .sum(),
            ColumnData::Val(d) => d
                .iter()
                .map(|v| {
                    std::mem::size_of::<Value>()
                        + match v {
                            Value::Str(s) => s.len(),
                            _ => 0,
                        }
                })
                .sum(),
        };
        data + self.nulls.words.len() * std::mem::size_of::<u64>()
    }

    /// The typed payload.
    #[must_use]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True if row `i` is null.
    ///
    /// # Panics
    ///
    /// Panics when `i` is past the end of a `Val` column.
    #[inline]
    #[must_use]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Val(d) => matches!(d[i], Value::Null),
            _ => self.nulls.is_null(i),
        }
    }

    /// True if any row is null.
    #[must_use]
    pub fn has_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Val(d) => d.iter().any(|v| matches!(v, Value::Null)),
            _ => self.nulls.any(),
        }
    }

    /// Borrowed view of row `i` (no clones).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    #[inline]
    #[must_use]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match &self.data {
            ColumnData::Val(d) => Cell::of(&d[i]),
            _ if self.nulls.is_null(i) => Cell::Null,
            ColumnData::Int(d) => Cell::Int(d[i]),
            ColumnData::Float(d) => Cell::Float(d[i]),
            ColumnData::Str(d) => Cell::Str(&d[i]),
        }
    }

    /// Owning value of row `i` (an `Arc` refcount bump for strings).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Val(d) => d[i].clone(),
            _ if self.nulls.is_null(i) => Value::Null,
            ColumnData::Int(d) => Value::Int(d[i]),
            ColumnData::Float(d) => Value::Float(d[i]),
            ColumnData::Str(d) => Value::Str(Arc::clone(&d[i])),
        }
    }

    /// Total comparison of rows `i` and `j` of this column.
    ///
    /// # Panics
    ///
    /// Panics when the key columns mix strings with numbers.
    #[inline]
    #[must_use]
    pub fn sort_cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match &self.data {
            ColumnData::Int(d) if !self.nulls.any() => (d[i] as f64).total_cmp(&(d[j] as f64)),
            ColumnData::Str(d) if !self.nulls.any() => d[i].cmp(&d[j]),
            _ => self.cell(i).sort_cmp(self.cell(j)),
        }
    }

    /// One order-preserving `u64` key image per row of an `Int` column,
    /// so a kernel extracts the keys once instead of dispatching on the
    /// representation per comparison. The image is the bit pattern of
    /// `d[i] as f64` — the comparison's own widening, so integers beyond
    /// 2^53 tie exactly as they do there — mapped so that unsigned order
    /// is `f64::total_cmp` order; a Null row is 0, below every number
    /// (`i64 as f64` is never NaN, so the smallest image, that of
    /// -2^63, is still positive). Hence, for rows `i` and `j`:
    /// `img[i].cmp(&img[j]) == sort_cmp(cell(i), cell(j))`, and for
    /// non-zero images `img[i] == img[j]` exactly when the cells'
    /// [`Cell::join_key`]s are equal. `None` for the other
    /// representations.
    pub(crate) fn int_key_images(&self) -> Option<Vec<u64>> {
        let ColumnData::Int(d) = &self.data else {
            return None;
        };
        let nulls = self.nulls.any();
        let image = |(i, &x): (usize, &i64)| {
            let bits = (x as f64).to_bits();
            if nulls && self.nulls.is_null(i) {
                0
            } else if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            }
        };
        Some(d.iter().enumerate().map(image).collect())
    }

    /// Total comparison of `self[i]` against `other[j]`.
    #[inline]
    #[must_use]
    pub fn sort_cmp_cells(&self, i: usize, other: &Column, j: usize) -> Ordering {
        self.cell(i).sort_cmp(other.cell(j))
    }

    /// Total comparison of row `i` against a scalar.
    #[inline]
    #[must_use]
    pub fn sort_cmp_value(&self, i: usize, v: &Value) -> Ordering {
        self.cell(i).sort_cmp(Cell::of(v))
    }

    /// Predicate comparison of row `i` against a scalar.
    #[inline]
    #[must_use]
    pub fn cmp_maybe_value(&self, i: usize, v: &Value) -> Option<Ordering> {
        self.cell(i).cmp_maybe(Cell::of(v))
    }

    /// Retains in `sel` only the rows where `self[i] op v` holds under
    /// SQL predicate semantics: `cmp_maybe(..).is_some_and(|o|
    /// op.matches(o))`, so Null never matches. A typed column against a
    /// constant of its kind dispatches on the operator once and runs one
    /// compaction over `sel` with no data-dependent branch; the `Val`
    /// fallback compares cell by cell.
    ///
    /// # Panics
    ///
    /// Panics when `sel` holds a row index past the column's end.
    pub fn refine_cmp_value(&self, op: CmpOp, v: &Value, sel: &mut Vec<u32>) {
        match (&self.data, v.as_f64(), v) {
            (_, _, Value::Null) => sel.clear(),
            (ColumnData::Int(d), Some(y), _) => {
                self.refine_typed(self, op, |i| d[i] as f64, |_| y, sel)
            }
            (ColumnData::Float(d), Some(y), _) => self.refine_typed(self, op, |i| d[i], |_| y, sel),
            (ColumnData::Str(d), _, Value::Str(s)) => {
                let s: &str = s;
                self.refine_typed(self, op, |i| &*d[i], |_| s, sel);
            }
            (ColumnData::Val(d), _, _) => {
                let rhs = Cell::of(v);
                sel.retain(|&i| {
                    Cell::of(&d[i as usize])
                        .cmp_maybe(rhs)
                        .is_some_and(|o| op.matches(o))
                });
            }
            // type mismatch (Str column vs numeric constant or vice
            // versa): cmp_maybe is None on every row
            _ => sel.clear(),
        }
    }

    /// Retains in `sel` only the rows where `self[i] op other[i]` holds
    /// (both columns indexed by the same selection — a same-table
    /// column-column predicate).
    ///
    /// # Panics
    ///
    /// Panics when `sel` holds a row index past either column's end.
    pub fn refine_cmp_col(&self, op: CmpOp, other: &Column, sel: &mut Vec<u32>) {
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                self.refine_typed(other, op, |i| a[i] as f64, |i| b[i] as f64, sel);
            }
            _ => sel.retain(|&i| {
                let i = i as usize;
                self.cell(i)
                    .cmp_maybe(other.cell(i))
                    .is_some_and(|o| op.matches(o))
            }),
        }
    }

    /// The typed selection kernel: keeps the rows of `sel` where neither
    /// `self` nor `other` is null and `x(i) op y(i)`. (A comparison
    /// against a constant passes `self` as `other`.) The null masks fold
    /// into the kept flag, so a column without nulls pays nothing for
    /// them.
    fn refine_typed<T: Operand>(
        &self,
        other: &Column,
        op: CmpOp,
        x: impl Fn(usize) -> T,
        y: impl Fn(usize) -> T,
        sel: &mut Vec<u32>,
    ) {
        let (a, b) = (&self.nulls, &other.nulls);
        if a.any() || b.any() {
            refine_by(op, |i| !(a.is_null(i) | b.is_null(i)), x, y, sel);
        } else {
            refine_by(op, |_| true, x, y, sel);
        }
    }

    /// New column with the rows of `idx`, in order.
    ///
    /// # Panics
    ///
    /// Panics when `idx` holds a row index past the column's end.
    #[must_use]
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut nulls = NullMask::default();
        if self.nulls.any() {
            for (k, &i) in idx.iter().enumerate() {
                if self.nulls.is_null(i as usize) {
                    nulls.set(k);
                }
            }
        }
        let data = match &self.data {
            ColumnData::Int(d) => ColumnData::Int(idx.iter().map(|&i| d[i as usize]).collect()),
            ColumnData::Float(d) => ColumnData::Float(idx.iter().map(|&i| d[i as usize]).collect()),
            ColumnData::Str(d) => {
                ColumnData::Str(idx.iter().map(|&i| Arc::clone(&d[i as usize])).collect())
            }
            ColumnData::Val(d) => {
                ColumnData::Val(idx.iter().map(|&i| d[i as usize].clone()).collect())
            }
        };
        Column { data, nulls }
    }
}

/// An operand of the typed selection kernels, compared with Rust's
/// operators: on `f64` they are false when either side is NaN, which is
/// `partial_cmp(..).is_some_and(|o| op.matches(o))` exactly, except for
/// `!=`, which NaN satisfies.
trait Operand: PartialOrd + Copy {
    /// `self <> y` under SQL semantics.
    fn sql_ne(self, y: Self) -> bool;
}

impl Operand for f64 {
    #[inline]
    fn sql_ne(self, y: f64) -> bool {
        (self < y) | (self > y)
    }
}

impl Operand for &str {
    #[inline]
    fn sql_ne(self, y: &str) -> bool {
        self != y
    }
}

/// Keeps the rows `i` of `sel` where `valid(i)` and `x(i) op y(i)`,
/// matching on `op` once: each arm is its own [`compact`] loop.
#[inline]
fn refine_by<T: Operand>(
    op: CmpOp,
    valid: impl Fn(usize) -> bool,
    x: impl Fn(usize) -> T,
    y: impl Fn(usize) -> T,
    sel: &mut Vec<u32>,
) {
    match op {
        CmpOp::Lt => compact(sel, |i| valid(i) & (x(i) < y(i))),
        CmpOp::Le => compact(sel, |i| valid(i) & (x(i) <= y(i))),
        CmpOp::Eq => compact(sel, |i| valid(i) & (x(i) == y(i))),
        CmpOp::Ge => compact(sel, |i| valid(i) & (x(i) >= y(i))),
        CmpOp::Gt => compact(sel, |i| valid(i) & (x(i) > y(i))),
        CmpOp::Ne => compact(sel, |i| valid(i) & x(i).sql_ne(y(i))),
    }
}

/// Keeps the rows `i` of `sel` with `keep(i)`, in order. Every row is
/// written and the write cursor advances by the flag, so no branch
/// depends on the data.
#[inline]
fn compact(sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut k = 0;
    for j in 0..sel.len() {
        let i = sel[j];
        sel[k] = i;
        k += usize::from(keep(i as usize));
    }
    sel.truncate(k);
}

/// Incremental [`Column`] constructor with type inference: the first
/// non-null value decides the typed representation; a later value of a
/// different type degrades the whole column to the `Val` fallback.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Nothing but nulls seen so far.
    Pending {
        /// Number of leading nulls.
        nulls: usize,
    },
    /// Committed to a typed (or fallback) representation.
    Building(Column),
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        ColumnBuilder::Pending { nulls: 0 }
    }

    /// Rows pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Pending { nulls } => *nulls,
            ColumnBuilder::Building(c) => c.len(),
        }
    }

    /// True if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn start(nulls: usize, data: ColumnData) -> Column {
        let mut mask = NullMask::default();
        for i in 0..nulls {
            mask.set(i);
        }
        let mut col = Column { data, nulls: mask };
        match &mut col.data {
            ColumnData::Int(d) => d.resize(nulls, 0),
            ColumnData::Float(d) => d.resize(nulls, 0.0),
            ColumnData::Str(d) => d.resize(nulls, Arc::from("")),
            ColumnData::Val(d) => d.resize(nulls, Value::Null),
        }
        col
    }

    /// Degrades the in-progress column to the `Val` representation.
    fn degrade(col: &mut Column) {
        let vals: Vec<Value> = (0..col.len()).map(|i| col.get(i)).collect();
        col.data = ColumnData::Val(vals);
        col.nulls = NullMask::default();
    }

    /// Appends one value.
    pub fn push(&mut self, v: Value) {
        match self {
            ColumnBuilder::Pending { nulls } => match v {
                Value::Null => *nulls += 1,
                Value::Int(x) => {
                    let mut c = Self::start(*nulls, ColumnData::Int(Vec::new()));
                    if let ColumnData::Int(d) = &mut c.data {
                        d.push(x);
                    }
                    *self = ColumnBuilder::Building(c);
                }
                Value::Float(x) => {
                    let mut c = Self::start(*nulls, ColumnData::Float(Vec::new()));
                    if let ColumnData::Float(d) = &mut c.data {
                        d.push(x);
                    }
                    *self = ColumnBuilder::Building(c);
                }
                Value::Str(s) => {
                    let mut c = Self::start(*nulls, ColumnData::Str(Vec::new()));
                    if let ColumnData::Str(d) = &mut c.data {
                        d.push(s);
                    }
                    *self = ColumnBuilder::Building(c);
                }
            },
            ColumnBuilder::Building(c) => {
                let at = c.len();
                match (&mut c.data, v) {
                    (ColumnData::Int(d), Value::Int(x)) => d.push(x),
                    (ColumnData::Float(d), Value::Float(x)) => d.push(x),
                    (ColumnData::Str(d), Value::Str(s)) => d.push(s),
                    (ColumnData::Int(d), Value::Null) => {
                        d.push(0);
                        c.nulls.set(at);
                    }
                    (ColumnData::Float(d), Value::Null) => {
                        d.push(0.0);
                        c.nulls.set(at);
                    }
                    (ColumnData::Str(d), Value::Null) => {
                        d.push(Arc::from(""));
                        c.nulls.set(at);
                    }
                    (ColumnData::Val(d), v) => d.push(v),
                    (_, v) => {
                        Self::degrade(c);
                        if let ColumnData::Val(d) = &mut c.data {
                            d.push(v);
                        }
                    }
                }
            }
        }
    }

    /// Finishes the column. An all-null (or empty) builder yields an
    /// `Int` column with every row null — indistinguishable from any
    /// other representation at the `Value` level.
    #[must_use]
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Pending { nulls } => Self::start(nulls, ColumnData::Int(Vec::new())),
            ColumnBuilder::Building(c) => c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip_preserves_exact_values() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(-7)];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data(), ColumnData::Int(_)));
        for (i, v) in vals.iter().enumerate() {
            // strict variant equality, not just Value::eq
            assert_eq!(format!("{:?}", c.get(i)), format!("{v:?}"));
        }
    }

    #[test]
    fn mixed_types_degrade_to_val() {
        let vals = vec![Value::Int(1), Value::str("x"), Value::Null];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data(), ColumnData::Val(_)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(format!("{:?}", c.get(i)), format!("{v:?}"));
        }
    }

    #[test]
    fn leading_nulls_then_type() {
        let c = Column::from_values(vec![Value::Null, Value::Null, Value::str("a")]);
        assert!(c.is_null(0) && c.is_null(1) && !c.is_null(2));
        assert_eq!(c.get(2), Value::str("a"));
    }

    #[test]
    fn comparisons_match_value_semantics() {
        let vals = [
            Value::Null,
            Value::Int(5),
            Value::Float(5.0),
            Value::Float(7.5),
            Value::str("a"),
        ];
        let c = Column::from_values(vals.iter().cloned());
        for (i, a) in vals.iter().enumerate() {
            for b in &vals {
                assert_eq!(c.sort_cmp_value(i, b), a.sort_cmp(b), "{a} vs {b}");
                assert_eq!(c.cmp_maybe_value(i, b), a.cmp_maybe(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn refine_cmp_value_filters_with_null_semantics() {
        let c = Column::from_values(vec![
            Value::Int(1),
            Value::Null,
            Value::Int(5),
            Value::Int(9),
        ]);
        let mut sel: Vec<u32> = (0..4).collect();
        c.refine_cmp_value(CmpOp::Ge, &Value::Int(5), &mut sel);
        assert_eq!(sel, vec![2, 3]);
        // Ne never matches Null either
        let mut sel: Vec<u32> = (0..4).collect();
        c.refine_cmp_value(CmpOp::Ne, &Value::Int(5), &mut sel);
        assert_eq!(sel, vec![0, 3]);
    }

    #[test]
    fn gather_carries_nulls() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        let g = c.gather(&[2, 1, 1, 0]);
        assert_eq!(g.get(0), Value::Int(3));
        assert!(g.is_null(1) && g.is_null(2));
        assert_eq!(g.get(3), Value::Int(1));
    }

    /// The hash-join key contract: two cells share a key exactly when
    /// the predicate comparison calls them equal.
    #[test]
    fn join_key_equality_is_cmp_maybe_equal() {
        const BIG: i64 = 1 << 53;
        let vals = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Int(BIG + 2),
            Value::Float(BIG as f64),
            Value::Float(f64::INFINITY),
            Value::str(""),
            Value::str("3"),
            Value::str("a"),
        ];
        for a in vals.iter().map(Cell::of) {
            for b in vals.iter().map(Cell::of) {
                let same_key = a.join_key().is_some() && a.join_key() == b.join_key();
                let equal = a.cmp_maybe(b) == Some(Ordering::Equal);
                assert_eq!(same_key, equal, "{a:?} vs {b:?}");
            }
        }
    }

    /// The key-image contract the sort, merge-join, hash-join and
    /// aggregate kernels rely on: image order is `sort_cmp` order, and
    /// two non-Null rows share an image exactly when they share a join
    /// key — at the extremes, across the 2^53 ties, and with Nulls.
    #[test]
    fn int_key_images_order_as_sort_cmp_and_equal_as_join_key() {
        const BIG: i64 = 1 << 53;
        let vals: Vec<Value> = [
            i64::MIN,
            i64::MIN + 1,
            -BIG - 2,
            -BIG - 1,
            -BIG,
            -1,
            0,
            1,
            BIG,
            BIG + 1,
            BIG + 2,
            i64::MAX - 1,
            i64::MAX,
        ]
        .into_iter()
        .map(Value::Int)
        .chain([Value::Null])
        .collect();
        let c = Column::from_values(vals.iter().cloned());
        let img = c.int_key_images().expect("an Int column");
        for i in 0..vals.len() {
            assert_eq!(img[i] == 0, c.is_null(i), "row {i}: 0 is exactly Null");
            for j in 0..vals.len() {
                let (a, b) = (c.cell(i), c.cell(j));
                assert_eq!(img[i].cmp(&img[j]), a.sort_cmp(b), "{a:?} vs {b:?}");
                if img[i] != 0 {
                    let same_key = a.join_key().is_some() && a.join_key() == b.join_key();
                    assert_eq!(img[i] == img[j], same_key, "{a:?} vs {b:?}");
                }
            }
        }
        let f = Column::from_values([Value::Float(1.0)]);
        assert!(f.int_key_images().is_none(), "only Int columns have images");
    }

    /// Regression for the NaN sort-ordering bug: `Cell::sort_cmp` used
    /// to collapse `partial_cmp`'s `None` into `Equal`, so a NaN cell
    /// broke the comparator's totality inside `Table::sort_by`'s argsort.
    /// `Cell::sort_cmp` must stay bit-identical to `Value::sort_cmp`
    /// (row/vec parity), so the two are checked against each other over
    /// a NaN-bearing value set, and `sort_cmp_rows` — the typed-column
    /// fast path — must agree with the cell path row for row.
    #[test]
    fn sort_cmp_matches_value_semantics_with_nan() {
        let vals = [
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Null,
            Value::Int(7),
        ];
        let c = Column::from_values(vals.iter().cloned());
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(
                    c.cell(i).sort_cmp(c.cell(j)),
                    a.sort_cmp(b),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(c.sort_cmp_rows(i, j), a.sort_cmp(b), "rows {i} vs {j}");
                // totality: antisymmetric over every pair, NaN included
                assert_eq!(c.sort_cmp_rows(i, j), c.sort_cmp_rows(j, i).reverse());
            }
        }
        // NaN orders above +inf (total_cmp), never Equal to it.
        assert_eq!(c.sort_cmp_rows(0, 1), Ordering::Greater);
    }
}
