//! Vectorized physical operators over columnar tables.
//!
//! Operators process their input in fixed-size batches (1024 rows,
//! `BATCH_ROWS`) of **selection vectors**: a
//! predicate evaluates column-at-a-time, refining a `Vec<u32>` of
//! surviving row indices per atom, and rows are only materialized once,
//! by a typed column gather. Joins, sorts and aggregates gather at the
//! end of the operator. The selections ([`select`], [`index_select`])
//! stop before it: they return the row indices over their input's
//! `Arc`-shared columns, and the consumer gathers — [`project`] only the
//! columns it keeps, everyone else the whole schema ([`gather_table`]).
//! A selection that keeps every row is zero-copy either way.
//!
//! Every table-producing function here is the batched twin of a
//! row-at-a-time operator in [`crate::ops`] and must produce
//! bit-identical output tables; `tests/parity.rs` pins that equivalence
//! on randomized inputs.

use crate::column::{Column, ColumnBuilder};
use crate::ops::{self, Params};
use crate::table::Table;
use mqo_catalog::ColId;
use mqo_expr::{AggExpr, Atom, CmpOp, Conjunct, Predicate, ScalarExpr, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Rows per batch of a selection or a join probe. One fixed size: in
/// the `vec_exec` sweep of EXPERIMENTS.md (release build, single-CPU
/// container, TPC-D scale 0.004) Q15 ran in 944 µs with 1-row batches,
/// 415 µs at 64, 387 µs at 1024 and 388 µs at 8192.
const BATCH_ROWS: usize = 1024;

/// One side of a vectorized atom: a column of the probed input, a
/// broadcast cell (the current outer row of a join probe), or a column
/// the schema doesn't carry (SQL NULL semantics: never matches).
#[derive(Clone, Copy)]
pub enum VSide<'a> {
    /// A column of the probed (batched) input, indexed by the selection.
    Col(&'a Column),
    /// A single broadcast cell: column + fixed row.
    Cell(&'a Column, usize),
    /// Column absent from the schema.
    Missing,
}

enum Rhs<'a> {
    Const(&'a Value),
    Side(VSide<'a>),
}

fn refine_sides(lhs: VSide<'_>, op: CmpOp, rhs: Rhs<'_>, sel: &mut Vec<u32>) {
    match (lhs, rhs) {
        (VSide::Missing, _) | (_, Rhs::Side(VSide::Missing)) => sel.clear(),
        (VSide::Col(c), Rhs::Const(v)) => c.refine_cmp_value(op, v, sel),
        (VSide::Col(c), Rhs::Side(VSide::Cell(oc, j))) => {
            let v = oc.get(j);
            c.refine_cmp_value(op, &v, sel);
        }
        (VSide::Col(a), Rhs::Side(VSide::Col(b))) => a.refine_cmp_col(op, b, sel),
        (VSide::Cell(c, i), Rhs::Const(v)) => {
            if !c.cmp_maybe_value(i, v).is_some_and(|o| op.matches(o)) {
                sel.clear();
            }
        }
        (VSide::Cell(c, i), Rhs::Side(VSide::Cell(oc, j))) => {
            if !c
                .cell(i)
                .cmp_maybe(oc.cell(j))
                .is_some_and(|o| op.matches(o))
            {
                sel.clear();
            }
        }
        // broadcast-vs-column: flip the operator and batch over the column
        (VSide::Cell(c, i), Rhs::Side(VSide::Col(b))) => {
            let v = c.get(i);
            b.refine_cmp_value(op.flip(), &v, sel);
        }
    }
}

/// # Panics
///
/// Panics when `atom` references a parameter absent from `params`.
fn refine_atom<'a>(
    atom: &Atom,
    side: &impl Fn(ColId) -> VSide<'a>,
    params: &Params,
    sel: &mut Vec<u32>,
) {
    match atom {
        Atom::Cmp { col, op, val } => refine_sides(side(*col), *op, Rhs::Const(val), sel),
        Atom::Param { col, op, param } => {
            let v = params
                .get(param)
                .unwrap_or_else(|| panic!("unbound parameter :{param}"));
            refine_sides(side(*col), *op, Rhs::Const(v), sel)
        }
        Atom::ColCmp { left, op, right } => {
            refine_sides(side(*left), *op, Rhs::Side(side(*right)), sel)
        }
    }
}

/// Retains in `sel` (ascending row indices) the rows satisfying `pred`
/// (OR-of-ANDs: each conjunct refines the candidates atom by atom;
/// disjuncts union by sorted merge). Indices stay sorted.
///
/// # Panics
///
/// Panics when `pred` references a parameter absent from `params`.
pub fn refine_pred<'a>(
    pred: &Predicate,
    side: &impl Fn(ColId) -> VSide<'a>,
    params: &Params,
    sel: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    let refine_conjunct = |d: &Conjunct, sel: &mut Vec<u32>| {
        for a in d.atoms() {
            if sel.is_empty() {
                return;
            }
            refine_atom(a, side, params, sel);
        }
    };
    if let [d] = pred.disjuncts() {
        return refine_conjunct(d, sel);
    }
    let candidates = std::mem::take(sel);
    for d in pred.disjuncts() {
        scratch.clear();
        scratch.extend_from_slice(&candidates);
        refine_conjunct(d, scratch);
        union_sorted(sel, scratch);
    }
}

/// Merges sorted `src` into sorted `dst`, deduplicating.
fn union_sorted(dst: &mut Vec<u32>, src: &[u32]) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < dst.len() && j < src.len() {
        match dst[i].cmp(&src[j]) {
            Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            Ordering::Equal => {
                merged.push(dst[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// Atom-side resolver over a single table's schema.
fn table_side<'a>(t: &'a Table) -> impl Fn(ColId) -> VSide<'a> {
    move |c| match t.schema.iter().position(|&x| x == c) {
        Some(p) => VSide::Col(t.col(p)),
        None => VSide::Missing,
    }
}

/// Atom-side resolver for a join probe: outer columns broadcast the
/// current outer row `o`, inner columns batch. The outer schema wins on
/// (never expected) duplicate column ids, matching the row path's
/// first-position resolution over the concatenated schema.
fn join_side<'a>(outer: &'a Table, o: usize, inner: &'a Table) -> impl Fn(ColId) -> VSide<'a> {
    move |c| {
        if let Some(p) = outer.schema.iter().position(|&x| x == c) {
            return VSide::Cell(outer.col(p), o);
        }
        match inner.schema.iter().position(|&x| x == c) {
            Some(p) => VSide::Col(inner.col(p)),
            None => VSide::Missing,
        }
    }
}

/// Evaluates `pred` over rows `[lo, hi)` of `t` in [`BATCH_ROWS`]-row
/// chunks, returning all surviving row indices.
fn select_range(t: &Table, pred: &Predicate, params: &Params, lo: usize, hi: usize) -> Vec<u32> {
    let side = table_side(t);
    let mut all = Vec::new();
    let (mut sel, mut scratch) = (Vec::new(), Vec::new());
    let mut s = lo;
    while s < hi {
        let e = (s + BATCH_ROWS).min(hi);
        sel.clear();
        sel.extend(s as u32..e as u32);
        refine_pred(pred, &side, params, &mut sel, &mut scratch);
        all.extend_from_slice(&sel);
        s = e;
    }
    all
}

/// Materializes the selected rows (`None` = every row) of the columns at
/// schema positions `pos` of `t`, one typed gather per column, under
/// `schema`. A selection that keeps every row shares the payloads
/// zero-copy. The output carries `sel.len()` rows even with no columns,
/// and, like the row operators, no sort metadata — the engine owns
/// `sorted_on` bookkeeping.
fn gather(
    t: &Table,
    sel: Option<&[u32]>,
    schema: Vec<ColId>,
    pos: impl Iterator<Item = usize>,
) -> Table {
    // a sorted subset of 0..len with full cardinality is the identity
    let sel = sel.filter(|s| s.len() < t.len());
    let cols = pos
        .map(|p| match sel {
            None => t.col_arc(p),
            Some(s) => Arc::new(t.col(p).gather(s)),
        })
        .collect();
    Table::from_shared_columns(schema, cols, sel.map_or(t.len(), <[u32]>::len))
}

/// Materializes the selected rows (`None` = every row) of all of `t`'s
/// columns — the gather a selection pays when its consumer keeps the
/// whole schema (a materialized temp, a query root, any operator but
/// `Project`).
#[must_use]
pub fn gather_table(t: &Table, sel: Option<&[u32]>) -> Table {
    gather(t, sel, t.schema.clone(), 0..t.schema.len())
}

/// A join's matches, accumulated as (left, right) row-index pairs.
/// Every join kernel is a *candidate source*: per left row it names the
/// ascending right rows that can still match (the whole input, a key
/// group, an index range, a hash bucket) and [`JoinMatches::probe`]
/// keeps those passing the residual, [`BATCH_ROWS`] candidates at a
/// time.
struct JoinMatches<'a> {
    left: &'a Table,
    right: &'a Table,
    residual: &'a Predicate,
    params: &'a Params,
    left_idx: Vec<u32>,
    right_idx: Vec<u32>,
    sel: Vec<u32>,
    scratch: Vec<u32>,
}

impl<'a> JoinMatches<'a> {
    fn new(left: &'a Table, right: &'a Table, residual: &'a Predicate, params: &'a Params) -> Self {
        JoinMatches {
            left,
            right,
            residual,
            params,
            left_idx: Vec::new(),
            right_idx: Vec::new(),
            sel: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Pairs left row `l` with each of `candidates` (ascending right
    /// rows) that satisfies the residual, `l`'s cells broadcast.
    fn probe(&mut self, l: usize, mut candidates: impl Iterator<Item = u32>) {
        if self.residual.is_true() {
            self.right_idx.extend(candidates);
        } else {
            let side = join_side(self.left, l, self.right);
            loop {
                self.sel.clear();
                self.sel.extend(candidates.by_ref().take(BATCH_ROWS));
                if self.sel.is_empty() {
                    break;
                }
                refine_pred(
                    self.residual,
                    &side,
                    self.params,
                    &mut self.sel,
                    &mut self.scratch,
                );
                self.right_idx.extend_from_slice(&self.sel);
            }
        }
        // one `l` per right row just matched: the two stay the same length
        self.left_idx.resize(self.right_idx.len(), l as u32);
    }

    /// The concatenated join output, each side's columns gathered once.
    fn finish(self) -> Table {
        let (left, right) = (self.left, self.right);
        let mut schema = left.schema.clone();
        schema.extend(right.schema.iter().copied());
        let mut cols = Vec::with_capacity(schema.len());
        for p in 0..left.schema.len() {
            cols.push(left.col(p).gather(&self.left_idx));
        }
        for p in 0..right.schema.len() {
            cols.push(right.col(p).gather(&self.right_idx));
        }
        Table::from_columns(schema, cols)
    }
}

/// Batched filter's selection: the rows of `input` satisfying `pred`,
/// ascending, or `None` when a constant-TRUE predicate keeps them all.
#[must_use]
pub fn select(input: &Table, pred: &Predicate, params: &Params) -> Option<Vec<u32>> {
    (!pred.is_true()).then(|| select_range(input, pred, params, 0, input.len()))
}

/// Batched filter: [`select`] + [`gather_table`]. A constant-TRUE
/// predicate is zero-copy.
#[must_use]
pub fn filter(input: &Table, pred: &Predicate, params: &Params) -> Table {
    gather_table(input, select(input, pred, params).as_deref())
}

/// Batched clustered-index range scan's selection: binary-search the
/// sorted table using the predicate's bounds on the clustering column,
/// then re-check the full predicate batch-at-a-time over the narrowed
/// range.
#[must_use]
pub fn index_select(table: &Table, pred: &Predicate, col: ColId, params: &Params) -> Vec<u32> {
    let (lo, hi) = ops::probe_bounds(pred, col, params);
    let (start, end) = table.range_on_sorted(lo.as_ref(), hi.as_ref());
    select_range(table, pred, params, start, end)
}

/// Batched clustered-index range scan: [`index_select`] +
/// [`gather_table`].
#[must_use]
pub fn index_scan(table: &Table, pred: &Predicate, col: ColId, params: &Params) -> Table {
    gather_table(table, Some(&index_select(table, pred, col, params)))
}

/// Projection of a selection (`None` = every row): gathers only `cols`,
/// and shares them zero-copy when every row is selected.
///
/// # Panics
///
/// Panics when a column of `cols` is not in `input`'s schema.
#[must_use]
pub fn project(input: &Table, sel: Option<&[u32]>, cols: &[ColId]) -> Table {
    gather(
        input,
        sel,
        cols.to_vec(),
        cols.iter().map(|&c| input.col_pos(c)),
    )
}

/// Batched nested-loops join. When the predicate is one conjunct with
/// an `outer column = inner column` atom, the (small) outer block is
/// hashed on that key and the inner is scanned **once** — the in-memory
/// half of the block nested-loops join the cost model charges — with the
/// remaining atoms run as a residual over each outer row's bucket.
/// Any other predicate runs vectorized over the whole inner per outer
/// row, outer cells broadcast. Either way matches come out outer-major,
/// inner row ascending, and each side's columns are gathered once.
///
/// # Panics
///
/// Panics when `pred` references a parameter absent from `params`.
#[must_use]
pub fn nl_join(outer: &Table, inner: &Table, pred: &Predicate, params: &Params) -> Table {
    let Some((outer_key, inner_key, residual)) = equi_key(outer, inner, pred) else {
        let mut m = JoinMatches::new(outer, inner, pred, params);
        for o in 0..outer.len() {
            m.probe(o, 0..inner.len() as u32);
        }
        return m.finish();
    };
    let buckets = match (outer_key.int_key_images(), inner_key.int_key_images()) {
        (Some(o), Some(i)) => {
            // image 0 is Null, which has no key
            let key = |images: &[u64], r: usize| Some(images[r]).filter(|&k| k != 0);
            HashBuckets::build(
                ImageHashState::new(),
                o.len(),
                |r| key(&o, r),
                i.len(),
                |r| key(&i, r),
            )
        }
        _ => HashBuckets::build(
            RandomState::new(),
            outer_key.len(),
            |r| outer_key.cell(r).join_key(),
            inner_key.len(),
            |r| inner_key.cell(r).join_key(),
        ),
    };
    let mut m = JoinMatches::new(outer, inner, &residual, params);
    for o in 0..outer.len() {
        m.probe(o, buckets.of(o).iter().copied());
    }
    m.finish()
}

/// Splits a single-conjunct join predicate at its first equality between
/// an outer and an inner column (columns resolve as [`join_side`] does:
/// the outer schema wins): the two key columns and the other atoms.
fn equi_key<'a>(
    outer: &'a Table,
    inner: &'a Table,
    pred: &Predicate,
) -> Option<(&'a Column, &'a Column, Predicate)> {
    let [conjunct] = pred.disjuncts() else {
        return None;
    };
    let pos = |t: &Table, c: ColId| t.schema.iter().position(|&x| x == c);
    let atoms = conjunct.atoms();
    atoms.iter().enumerate().find_map(|(k, atom)| {
        let Atom::ColCmp {
            left,
            op: CmpOp::Eq,
            right,
        } = *atom
        else {
            return None;
        };
        let (o, i) = match (pos(outer, left), pos(outer, right)) {
            (Some(o), None) => (o, pos(inner, right)?),
            (None, Some(o)) => (o, pos(inner, left)?),
            _ => return None,
        };
        let mut rest = atoms.to_vec();
        rest.remove(k);
        Some((outer.col(o), inner.col(i), Predicate::all(rest)))
    })
}

/// Hash-join candidates in CSR form: `rows[starts[o]..starts[o + 1]]`
/// are the inner rows, ascending, whose key equals outer row `o`'s under
/// [`Cell::join_key`](crate::column::Cell::join_key) — or, when both key
/// columns are `Int`, under equality of their non-zero key images
/// (`Column::int_key_images`), which is the same relation.
struct HashBuckets {
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl HashBuckets {
    /// Hashes the outer side's keys (`None` = keyless, never matches;
    /// rows sharing a key chain through `next`), scans the inner side
    /// once, and regroups the (outer, inner) hits by outer row with a
    /// counting pass — stable, so each bucket keeps scan order. An
    /// inner key that the [`Prefilter`] rejects skips the table; most
    /// inner rows of a selective join miss, and the filter's one bit
    /// answers them from cache. The table is only ever probed, never
    /// iterated, so its hash cannot reach the output.
    fn build<K: Eq + Hash, S: BuildHasher>(
        hasher: S,
        n_outer: usize,
        outer_key: impl Fn(usize) -> Option<K>,
        n_inner: usize,
        inner_key: impl Fn(usize) -> Option<K>,
    ) -> HashBuckets {
        const END: u32 = u32::MAX;
        let mut next = vec![END; n_outer];
        let mut first: HashMap<K, u32, S> = HashMap::with_capacity_and_hasher(n_outer, hasher);
        let mut filter = Prefilter::new(n_outer);
        // back to front, so every chain runs in ascending outer row order
        for o in (0..n_outer).rev() {
            if let Some(key) = outer_key(o) {
                filter.insert(first.hasher().hash_one(&key));
                if let Some(later) = first.insert(key, o as u32) {
                    next[o] = later;
                }
            }
        }
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut starts = vec![0usize; n_outer + 1];
        for r in 0..n_inner {
            let Some(key) = inner_key(r) else {
                continue;
            };
            if !filter.may_hold(first.hasher().hash_one(&key)) {
                continue;
            }
            let mut o = first.get(&key).copied().unwrap_or(END);
            while o != END {
                hits.push((o, r as u32));
                starts[o as usize + 1] += 1;
                o = next[o as usize];
            }
        }
        for o in 0..n_outer {
            starts[o + 1] += starts[o];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0u32; hits.len()];
        for (o, r) in hits {
            rows[cursor[o as usize]] = r;
            cursor[o as usize] += 1;
        }
        HashBuckets { starts, rows }
    }

    /// The bucket of outer row `o`.
    fn of(&self, o: usize) -> &[u32] {
        &self.rows[self.starts[o]..self.starts[o + 1]]
    }
}

/// One bit per slot, 16 slots per build row, set at the slot a key's
/// hash names: a clear bit proves the key absent, and a probe key that
/// is absent finds its bit set with probability at most 1/16.
struct Prefilter {
    words: Vec<u64>,
    /// `64 - log2(slots)`: a hash's top bits name its slot.
    shift: u32,
}

impl Prefilter {
    /// An empty filter for up to `rows` build rows.
    fn new(rows: usize) -> Prefilter {
        let slots = (rows * 16).next_power_of_two().max(64);
        Prefilter {
            words: vec![0; slots / 64],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn insert(&mut self, h: u64) {
        let (w, bit) = self.slot(h);
        self.words[w] |= bit;
    }

    fn slot(&self, h: u64) -> (usize, u64) {
        let s = h >> self.shift;
        ((s >> 6) as usize, 1 << (s & 63))
    }

    /// False only if no build key has hash `h`.
    fn may_hold(&self, h: u64) -> bool {
        let (w, bit) = self.slot(h);
        self.words[w] & bit != 0
    }
}

/// Hashes the hash join's `u64` key images with splitmix64's finalizer
/// over a seed drawn once per build from std's [`RandomState`], so the
/// hash stays keyed per process. The finalizer avalanches fully: the
/// images of small integers, which end in 30+ zero bits, spread over
/// every bit of the hash (Fx's single multiply would leave those zeros
/// as the bucket index). The images hash the server's own data, which
/// no statement writes; the `JoinKey` cell path keeps SipHash.
struct ImageHashState {
    seed: u64,
}

impl ImageHashState {
    fn new() -> Self {
        ImageHashState {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for ImageHashState {
    type Hasher = ImageHasher;

    fn build_hasher(&self) -> ImageHasher {
        ImageHasher { state: self.seed }
    }
}

/// See [`ImageHashState`].
struct ImageHasher {
    state: u64,
}

impl Hasher for ImageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            // little-endian, as `u64::from_le_bytes` of the padded chunk
            self.write_u64(chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.state = splitmix64(self.state ^ x);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// splitmix64's output function: a bijection on `u64` in which every
/// input bit flips each output bit with probability ≈ 1/2.
fn splitmix64(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Batched merge join of two inputs sorted on their key columns. Key
/// groups are found in the sort's total order — on `u64` key images
/// (`Column::int_key_images`) when each side has one `Int` key, cell by
/// cell otherwise — and a group whose key is Null or NaN on some column
/// matches nothing, as under SQL equality; residuals run vectorized over
/// the right-side group.
///
/// # Panics
///
/// Panics when a key column is not in its side's schema, or when
/// `residual` references a parameter absent from `params`.
#[must_use]
pub fn merge_join(
    left: &Table,
    right: &Table,
    left_keys: &[ColId],
    right_keys: &[ColId],
    residual: &Predicate,
    params: &Params,
) -> Table {
    let lp: Vec<usize> = left_keys.iter().map(|&k| left.col_pos(k)).collect();
    let rp: Vec<usize> = right_keys.iter().map(|&k| right.col_pos(k)).collect();
    let mut m = JoinMatches::new(left, right, residual, params);
    let images = match (&lp[..], &rp[..]) {
        (&[a], &[b]) => left
            .col(a)
            .int_key_images()
            .zip(right.col(b).int_key_images()),
        _ => None,
    };
    match images {
        Some((l, r)) => merge_groups(&mut m, |i, j| l[i].cmp(&r[j]), |i| l[i] == 0),
        None => merge_groups(
            &mut m,
            |i, j| {
                lp.iter()
                    .zip(&rp)
                    .map(|(&a, &b)| left.col(a).sort_cmp_cells(i, right.col(b), j))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            },
            |i| lp.iter().any(|&p| left.col(p).cell(i).join_key().is_none()),
        ),
    }
    m.finish()
}

/// The merge loop over two sorted inputs: `key_cmp(i, j)` orders left
/// row `i` against right row `j`, and `keyless(i)` says left row `i`'s
/// key equals nothing. Each group of equal keys on both sides is probed
/// left row by left row, unless its key is keyless — a property of the
/// whole group, since it shares one key.
fn merge_groups(
    m: &mut JoinMatches<'_>,
    key_cmp: impl Fn(usize, usize) -> Ordering,
    keyless: impl Fn(usize) -> bool,
) {
    let (nl, nr) = (m.left.len(), m.right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < nl && j < nr {
        match key_cmp(i, j) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let mut j_end = j + 1;
                while j_end < nr && key_cmp(i, j_end) == Ordering::Equal {
                    j_end += 1;
                }
                let mut i_end = i + 1;
                while i_end < nl && key_cmp(i_end, j) == Ordering::Equal {
                    i_end += 1;
                }
                if !keyless(i) {
                    for l in i..i_end {
                        m.probe(l, j as u32..j_end as u32);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
}

/// Batched indexed nested-loops join: for each outer row, range-probe
/// the sorted inner table on the join key, then run the residual
/// vectorized over the probed range.
#[must_use]
pub fn indexed_nl_join(
    outer: &Table,
    inner: &Table,
    outer_key: ColId,
    residual: &Predicate,
    params: &Params,
) -> Table {
    let okp = outer.col_pos(outer_key);
    let mut m = JoinMatches::new(outer, inner, residual, params);
    for o in 0..outer.len() {
        if outer.col(okp).is_null(o) {
            continue;
        }
        let key = outer.col(okp).get(o);
        let (ps, pe) = inner.range_on_sorted(Some(&key), Some(&key));
        m.probe(o, ps as u32..pe as u32);
    }
    m.finish()
}

/// Batched sort-based aggregation over an input sorted by `keys`
/// (scalar aggregation for empty `keys`). Group boundaries come from
/// column comparisons — equality of key images
/// (`Column::int_key_images`) for a single `Int` key; accumulators are
/// the same [`AggExpr`] folds the row path uses, fed straight from the
/// columns.
///
/// # Panics
///
/// Panics when a key column is not in `input`'s schema.
pub fn sort_aggregate(input: &Table, keys: &[ColId], aggs: &[AggExpr]) -> Table {
    let kp: Vec<usize> = keys.iter().map(|&k| input.col_pos(k)).collect();
    let n = input.len();
    let mut group_starts: Vec<u32> = Vec::new();
    let mut agg_builders: Vec<ColumnBuilder> =
        (0..aggs.len()).map(|_| ColumnBuilder::new()).collect();
    // column position of each aggregate's plain-column argument, if any
    let arg_pos: Vec<Option<Option<usize>>> = aggs
        .iter()
        .map(|a| match &a.arg {
            ScalarExpr::Col(c) => Some(input.schema.iter().position(|&x| x == *c)),
            _ => None,
        })
        .collect();
    if n == 0 {
        if keys.is_empty() {
            // scalar aggregate over empty input: one row of "empty" accs
            for (b, a) in agg_builders.iter_mut().zip(aggs) {
                b.push(match a.func {
                    mqo_expr::AggFunc::Count => Value::Int(0),
                    _ => Value::Null,
                });
            }
        }
    } else {
        let images = match kp[..] {
            [p] => input.col(p).int_key_images(),
            _ => None,
        };
        let same_group = |a: usize, b: usize| match &images {
            Some(img) => img[a] == img[b],
            None => kp
                .iter()
                .all(|&p| input.col(p).sort_cmp_rows(a, b) == Ordering::Equal),
        };
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && same_group(start, end) {
                end += 1;
            }
            group_starts.push(start as u32);
            for (ai, a) in aggs.iter().enumerate() {
                let mut acc: Option<Value> = None;
                match arg_pos[ai] {
                    Some(Some(p)) => {
                        let col = input.col(p);
                        for r in start..end {
                            a.accumulate(&mut acc, col.get(r));
                        }
                    }
                    Some(None) => {
                        for _ in start..end {
                            a.accumulate(&mut acc, Value::Null);
                        }
                    }
                    None => {
                        for r in start..end {
                            let v =
                                a.arg
                                    .eval(&|c| match input.schema.iter().position(|&x| x == c) {
                                        Some(p) => input.col(p).get(r),
                                        None => Value::Null,
                                    });
                            a.accumulate(&mut acc, v);
                        }
                    }
                }
                agg_builders[ai].push(acc.unwrap_or(Value::Null));
            }
            start = end;
        }
    }
    let mut schema = keys.to_vec();
    schema.extend(aggs.iter().map(|a| a.output));
    let mut cols: Vec<Column> = kp
        .iter()
        .map(|&p| input.col(p).gather(&group_starts))
        .collect();
    cols.extend(agg_builders.into_iter().map(ColumnBuilder::finish));
    // scalar aggregation of an empty input has no key columns to carry
    // the row count; `from_columns` reads it off the aggregate columns
    Table::from_columns(schema, cols)
}
