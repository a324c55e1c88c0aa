//! The memo: groups (equivalence nodes), operations (AND nodes), the
//! operation hash index, and hashing-based unification.

use mqo_catalog::{ColId, TableId};
use mqo_expr::{AggExpr, Predicate};
use mqo_util::{BitSet, FxHashMap, UnionFind};

use crate::DagConfig;

mqo_util::id_type!(
    /// Identifies an equivalence node (group) in the DAG.
    GroupId
);
mqo_util::id_type!(
    /// Identifies an operation node in the DAG.
    OpId
);

/// Logical operator stored in an operation node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Base-table scan (a leaf; its group has no inputs).
    Scan(TableId),
    /// Selection.
    Select(Predicate),
    /// Inner join.
    Join(Predicate),
    /// Group-by aggregation.
    Aggregate {
        /// Group-by keys (sorted).
        keys: Vec<ColId>,
        /// Aggregates (sorted by output column).
        aggs: Vec<AggExpr>,
    },
    /// Projection.
    Project(Vec<ColId>),
    /// The pseudo-root no-op combining all query roots (paper §2.1);
    /// exactly one exists per DAG.
    Root,
}

impl OpKind {
    /// Short operator name for explain output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Scan(_) => "Scan",
            OpKind::Select(_) => "Select",
            OpKind::Join(_) => "Join",
            OpKind::Aggregate { .. } => "Aggregate",
            OpKind::Project(_) => "Project",
            OpKind::Root => "Root",
        }
    }
}

/// An operation node: an operator applied to input groups.
#[derive(Debug, Clone)]
pub struct Operation {
    /// The operator.
    pub kind: OpKind,
    /// Input groups (raw ids; resolve through [`Dag::find`]).
    inputs: Vec<GroupId>,
    /// Owning group (raw id).
    group: GroupId,
    /// False once unification discovered this op duplicates another.
    pub alive: bool,
    /// True if added by a subsumption derivation (§2.1). Volcano-SH's
    /// pre-pass/undo logic and plan extraction treat these specially.
    pub from_subsumption: bool,
    /// True if produced by the commutativity rule (PGLK97: never commute a
    /// commuted op again).
    pub from_commutativity: bool,
    /// Cached canonical hash key (kept in sync by re-keying on merges).
    key: (OpKind, Vec<GroupId>),
}

/// An equivalence node: a set of alternative operations computing the same
/// result, plus logical properties shared by all of them.
#[derive(Debug, Clone)]
pub struct Group {
    /// Alternative operations (may contain dead ids; filter via accessors).
    ops: Vec<OpId>,
    /// Operations that use this group as an input (may contain dead ids).
    parents: Vec<OpId>,
    /// Estimated output rows.
    pub rows: f64,
    /// Output columns (sorted set).
    pub cols: Vec<ColId>,
    /// Bytes per output row.
    pub width: u32,
    /// True if the result depends on a correlation parameter — such nodes
    /// cannot be materialized for sharing (paper §5).
    pub has_param: bool,
    /// Base tables contributing to this result.
    pub relset: BitSet,
    /// Topological number (children before parents); assigned by
    /// [`Dag::renumber`].
    pub topo: u32,
}

/// Logical properties for a new group, computed by the builder/rules.
#[derive(Debug, Clone)]
pub struct GroupProps {
    /// Estimated output rows.
    pub rows: f64,
    /// Output columns (will be sorted).
    pub cols: Vec<ColId>,
    /// Bytes per row.
    pub width: u32,
    /// Parameter dependence.
    pub has_param: bool,
    /// Base relations.
    pub relset: BitSet,
}

/// The AND-OR DAG.
#[derive(Debug, Clone)]
pub struct Dag {
    groups: Vec<Group>,
    ops: Vec<Operation>,
    uf: UnionFind,
    index: FxHashMap<(OpKind, Vec<GroupId>), OpId>,
    root: Option<GroupId>,
    root_weights: Vec<f64>,
    topo_order: Vec<GroupId>,
    pub(crate) config: DagConfig,
    /// Bumped on every structural change (new op or merge); the rule
    /// engine uses it to detect fix point.
    pub(crate) version: u64,
}

impl Dag {
    /// An empty DAG (used by the builder; most callers want
    /// `Dag::expand`).
    #[must_use]
    pub fn empty(config: DagConfig) -> Self {
        Self {
            groups: Vec::new(),
            ops: Vec::new(),
            uf: UnionFind::new(),
            index: FxHashMap::default(),
            root: None,
            root_weights: Vec::new(),
            topo_order: Vec::new(),
            config,
            version: 0,
        }
    }

    // ------------------------------------------------------------------
    // Identity

    /// Resolves a possibly-merged group id to its canonical id.
    #[inline]
    #[must_use]
    pub fn find(&self, g: GroupId) -> GroupId {
        GroupId::from_index(self.uf.find_const(g.index()))
    }

    fn find_mut(&mut self, g: GroupId) -> GroupId {
        GroupId::from_index(self.uf.find(g.index()))
    }

    // ------------------------------------------------------------------
    // Accessors

    /// The canonical group struct for `g`.
    #[must_use]
    pub fn group(&self, g: GroupId) -> &Group {
        &self.groups[self.find(g).index()]
    }

    /// The operation struct for `o`.
    #[must_use]
    pub fn op(&self, o: OpId) -> &Operation {
        &self.ops[o.index()]
    }

    /// Alive operations of a group, in insertion order.
    pub fn group_ops(&self, g: GroupId) -> impl Iterator<Item = OpId> + '_ {
        self.groups[self.find(g).index()]
            .ops
            .iter()
            .copied()
            .filter(|&o| self.ops[o.index()].alive)
    }

    /// Alive, de-duplicated parent operations of a group.
    #[must_use]
    pub fn parents_of(&self, g: GroupId) -> Vec<OpId> {
        let mut out: Vec<OpId> = self.groups[self.find(g).index()]
            .parents
            .iter()
            .copied()
            .filter(|&o| self.ops[o.index()].alive)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolved input groups of an operation.
    #[must_use]
    pub fn op_inputs(&self, o: OpId) -> Vec<GroupId> {
        self.ops[o.index()]
            .inputs
            .iter()
            .map(|&g| self.find(g))
            .collect()
    }

    /// Resolved owning group of an operation.
    #[must_use]
    pub fn op_group(&self, o: OpId) -> GroupId {
        self.find(self.ops[o.index()].group)
    }

    /// The pseudo-root group (panics if the DAG has no queries).
    ///
    /// # Panics
    ///
    /// Panics if the DAG has no root (only `Dag::expand` output is rooted).
    #[must_use]
    pub fn root(&self) -> GroupId {
        self.find(self.root.expect("DAG has no root"))
    }

    /// Per-query invocation weights, aligned with the root op's inputs.
    #[must_use]
    pub fn root_weights(&self) -> &[f64] {
        &self.root_weights
    }

    /// The root operation node.
    ///
    /// # Panics
    ///
    /// Panics if the DAG has no root or the root group has no op.
    #[must_use]
    pub fn root_op(&self) -> OpId {
        self.group_ops(self.root())
            .next()
            .expect("root group has an op")
    }

    /// Canonical groups reachable from the root, children before parents.
    #[must_use]
    pub fn topo_order(&self) -> &[GroupId] {
        &self.topo_order
    }

    /// Number of alive operations.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.alive).count()
    }

    /// Number of canonical reachable groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.topo_order.len()
    }

    /// Total operation slots ever allocated (dead included) — the safety
    /// valve compares against `DagConfig::max_ops`.
    #[must_use]
    pub fn ops_allocated(&self) -> usize {
        self.ops.len()
    }

    // ------------------------------------------------------------------
    // Construction

    /// Installs the pseudo-root op over the query root groups with their
    /// invocation weights.
    pub(crate) fn set_root(&mut self, query_roots: Vec<GroupId>, weights: Vec<f64>) {
        assert_eq!(query_roots.len(), weights.len());
        assert!(self.root.is_none(), "root already set");
        let cols = Vec::new();
        let props = GroupProps {
            rows: 1.0,
            cols,
            width: 1,
            has_param: false,
            relset: BitSet::new(),
        };
        let g = self.new_group(props);
        let (g, _o, _) = self.insert_op(OpKind::Root, query_roots, Some(g), false, false);
        self.root = Some(g);
        self.root_weights = weights;
    }

    /// Creates a fresh group with the given properties.
    pub(crate) fn new_group(&mut self, props: GroupProps) -> GroupId {
        let mut cols = props.cols;
        cols.sort_unstable();
        cols.dedup();
        let id = GroupId::from_index(self.groups.len());
        self.groups.push(Group {
            ops: Vec::new(),
            parents: Vec::new(),
            rows: props.rows.max(1.0),
            cols,
            width: props.width.max(1),
            has_param: props.has_param,
            relset: props.relset,
            topo: 0,
        });
        let uf_id = self.uf.push();
        debug_assert_eq!(uf_id, id.index());
        id
    }

    /// Inserts an operation. If an identical expression already exists the
    /// existing op is returned and, when `target` names a different group,
    /// the two groups are **unified**. Returns the (canonical) owning
    /// group, the op id and whether the op is new.
    ///
    /// When `target` is `None` the caller must guarantee the op is new or
    /// find it via the index (use [`Dag::lookup`]); `insert_expr` wraps the
    /// common find-or-create pattern.
    pub(crate) fn insert_op(
        &mut self,
        kind: OpKind,
        inputs: Vec<GroupId>,
        target: Option<GroupId>,
        from_subsumption: bool,
        from_commutativity: bool,
    ) -> (GroupId, OpId, bool) {
        let mut inputs = inputs;
        for g in &mut inputs {
            *g = self.find_mut(*g);
        }
        let key = (kind, inputs);
        if let Some(&existing) = self.index.get(&key) {
            debug_assert!(self.ops[existing.index()].alive);
            let eg = self.op_group(existing);
            if let Some(t) = target {
                let t = self.find_mut(t);
                if t != eg {
                    self.merge(t, eg);
                }
            }
            return (self.op_group(existing), existing, false);
        }
        let group = match target {
            Some(t) => self.find_mut(t),
            None => panic!("insert_op without target for unknown expression; use insert_expr"),
        };
        (
            group,
            self.push_op(key, group, from_subsumption, from_commutativity),
            true,
        )
    }

    /// Appends a new op (known to be absent from the index) to `group`.
    fn push_op(
        &mut self,
        key: (OpKind, Vec<GroupId>),
        group: GroupId,
        from_subsumption: bool,
        from_commutativity: bool,
    ) -> OpId {
        let id = OpId::from_index(self.ops.len());
        self.ops.push(Operation {
            kind: key.0.clone(),
            inputs: key.1.clone(),
            group,
            alive: true,
            from_subsumption,
            from_commutativity,
            key: key.clone(),
        });
        self.version += 1;
        self.groups[group.index()].ops.push(id);
        for g in &key.1 {
            self.groups[g.index()].parents.push(id);
        }
        self.index.insert(key, id);
        id
    }

    /// Find-or-create: returns the group computing `kind(inputs)`,
    /// creating a fresh group when the expression is new. `props` gives
    /// the new group's properties from the DAG, the kind and the resolved
    /// inputs; it runs only on a miss.
    pub(crate) fn insert_expr(
        &mut self,
        kind: OpKind,
        inputs: Vec<GroupId>,
        props: impl FnOnce(&Dag, &OpKind, &[GroupId]) -> GroupProps,
        from_subsumption: bool,
        from_commutativity: bool,
    ) -> (GroupId, OpId, bool) {
        let mut resolved = inputs;
        for g in &mut resolved {
            *g = self.find_mut(*g);
        }
        let key = (kind, resolved);
        if let Some(&existing) = self.index.get(&key) {
            return (self.op_group(existing), existing, false);
        }
        let g = self.new_group(props(self, &key.0, &key.1));
        (
            g,
            self.push_op(key, g, from_subsumption, from_commutativity),
            true,
        )
    }

    /// Looks an expression up without inserting.
    #[must_use]
    pub fn lookup(&self, kind: &OpKind, inputs: &[GroupId]) -> Option<OpId> {
        let resolved: Vec<GroupId> = inputs.iter().map(|&g| self.find(g)).collect();
        self.index.get(&(kind.clone(), resolved)).copied()
    }

    // ------------------------------------------------------------------
    // Unification

    /// Merges two equivalence classes (unification, §2.1). Re-keys parent
    /// operations; duplicates discovered along the way are killed and may
    /// cascade further merges.
    pub(crate) fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut work = vec![(a, b)];
        while let Some((a, b)) = work.pop() {
            let ra = self.find_mut(a);
            let rb = self.find_mut(b);
            if ra == rb {
                continue;
            }
            debug_assert_eq!(
                self.groups[ra.index()].relset,
                self.groups[rb.index()].relset,
                "unifying groups over different relations"
            );
            self.version += 1;
            let rep = GroupId::from_index(self.uf.union(ra.index(), rb.index()));
            let lose = if rep == ra { rb } else { ra };
            let moved_ops = std::mem::take(&mut self.groups[lose.index()].ops);
            let moved_parents = std::mem::take(&mut self.groups[lose.index()].parents);
            let lose_param = self.groups[lose.index()].has_param;
            {
                let g = &mut self.groups[rep.index()];
                g.ops.extend(moved_ops);
                g.parents.extend(moved_parents);
                g.has_param |= lose_param;
            }
            // Every op that takes the merged class as input may now have a
            // stale key. Re-key them; collisions kill duplicates and can
            // queue further merges.
            let affected: Vec<OpId> = self.groups[rep.index()]
                .parents
                .iter()
                .copied()
                .filter(|&o| self.ops[o.index()].alive)
                .collect();
            for op in affected {
                self.rekey(op, &mut work);
            }
        }
    }

    fn rekey(&mut self, op: OpId, work: &mut Vec<(GroupId, GroupId)>) {
        if !self.ops[op.index()].alive {
            return;
        }
        let old_key = self.ops[op.index()].key.clone();
        let new_inputs: Vec<GroupId> = self.ops[op.index()]
            .inputs
            .clone()
            .into_iter()
            .map(|g| self.find_mut(g))
            .collect();
        let new_key = (old_key.0.clone(), new_inputs.clone());
        if new_key == old_key {
            return;
        }
        if self.index.get(&old_key) == Some(&op) {
            self.index.remove(&old_key);
        }
        self.ops[op.index()].inputs = new_inputs;
        match self.index.get(&new_key) {
            Some(&other) if other != op => {
                // Duplicate expression: kill `op`, unify owning groups.
                self.ops[op.index()].alive = false;
                let g1 = self.op_group(op);
                let g2 = self.op_group(other);
                if g1 != g2 {
                    work.push((g1, g2));
                }
            }
            _ => {
                self.index.insert(new_key.clone(), op);
                self.ops[op.index()].key = new_key;
            }
        }
    }

    // ------------------------------------------------------------------
    // Topological numbering

    /// Recomputes the reachable-group topological order and per-group
    /// numbers. Children receive smaller numbers than parents, the
    /// property the incremental cost update's `PropHeap` relies on
    /// (paper Figure 5). Panics if a cycle sneaked in.
    ///
    /// # Panics
    ///
    /// Panics if the op edges contain a cycle.
    pub fn renumber(&mut self) {
        let root = self.root();
        let mut order = Vec::new();
        let mut state: FxHashMap<GroupId, u8> = FxHashMap::default(); // 1=visiting, 2=done
                                                                      // Iterative DFS with an explicit stack of (group, child_cursor).
        let mut stack: Vec<(GroupId, Vec<GroupId>, usize)> = Vec::new();
        let children_of = |dag: &Dag, g: GroupId| -> Vec<GroupId> {
            let mut cs: Vec<GroupId> = dag.group_ops(g).flat_map(|o| dag.op_inputs(o)).collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        };
        state.insert(root, 1);
        stack.push((root, children_of(self, root), 0));
        while let Some((g, children, mut cursor)) = stack.pop() {
            let mut descended = false;
            while cursor < children.len() {
                let c = children[cursor];
                cursor += 1;
                match state.get(&c) {
                    Some(1) => panic!("cycle in AND-OR DAG involving group {c:?}"),
                    Some(_) => continue,
                    None => {
                        state.insert(c, 1);
                        stack.push((g, children, cursor));
                        stack.push((c, children_of(self, c), 0));
                        descended = true;
                        break;
                    }
                }
            }
            if !descended {
                state.insert(g, 2);
                order.push(g);
            }
        }
        for (i, &g) in order.iter().enumerate() {
            self.groups[g.index()].topo = i as u32;
        }
        self.topo_order = order;
    }

    /// Renders the DAG for debugging: one line per group with its ops.
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for &g in &self.topo_order {
            let grp = self.group(g);
            let _ = write!(
                s,
                "g{} rows={:.0} cols={} ops:",
                g,
                grp.rows,
                grp.cols.len()
            );
            for o in self.group_ops(g) {
                let op = self.op(o);
                let ins: Vec<String> = self.op_inputs(o).iter().map(|i| format!("g{i}")).collect();
                let _ = write!(s, " [{} {}({})]", o, op.kind.name(), ins.join(","));
            }
            let _ = writeln!(s);
        }
        s
    }

    // ------------------------------------------------------------------
    // Verifier negative-test seams
    //
    // `mqo-verify`'s negative tests must build *invalid* DAGs — states
    // the public construction API correctly refuses to produce. These
    // seams bypass the index/unification machinery for exactly that
    // purpose. Hidden from docs; never call them outside tests.

    /// Creates a fresh group copying `like`'s logical properties
    /// (including its topo number, so corruption tests do not trip the
    /// unrelated topo-monotonicity check).
    #[doc(hidden)]
    pub fn testing_new_group_like(&mut self, like: GroupId) -> GroupId {
        let src = self.group(like).clone();
        let g = self.new_group(GroupProps {
            rows: src.rows,
            cols: src.cols.clone(),
            width: src.width,
            has_param: src.has_param,
            relset: src.relset.clone(),
        });
        self.groups[g.index()].topo = src.topo;
        g
    }

    /// Adds an op to `group` **bypassing the index** — duplicates are
    /// not unified, which is precisely what collision tests need.
    /// Parent back-links are maintained.
    #[doc(hidden)]
    pub fn testing_add_raw_op(
        &mut self,
        kind: OpKind,
        inputs: Vec<GroupId>,
        group: GroupId,
        from_subsumption: bool,
    ) -> OpId {
        let mut inputs = inputs;
        for g in &mut inputs {
            *g = self.find(*g);
        }
        let group = self.find(group);
        let id = OpId::from_index(self.ops.len());
        self.ops.push(Operation {
            kind: kind.clone(),
            inputs: inputs.clone(),
            group,
            alive: true,
            from_subsumption,
            from_commutativity: false,
            key: (kind, inputs.clone()),
        });
        self.groups[group.index()].ops.push(id);
        for g in inputs {
            self.groups[g.index()].parents.push(id);
        }
        self.version += 1;
        id
    }

    /// Redirects input `idx` of `op` to `g`, maintaining parent lists.
    #[doc(hidden)]
    pub fn testing_set_op_input(&mut self, op: OpId, idx: usize, g: GroupId) {
        let g = self.find(g);
        let old = self.ops[op.index()].inputs[idx];
        let old = self.find(old);
        self.ops[op.index()].inputs[idx] = g;
        let parents = &mut self.groups[old.index()].parents;
        if let Some(pos) = parents.iter().position(|&p| p == op) {
            parents.remove(pos);
        }
        self.groups[g.index()].parents.push(op);
        self.version += 1;
    }

    /// Empties `g`'s parent back-link list (breaking referential
    /// integrity on purpose).
    #[doc(hidden)]
    pub fn testing_clear_parents(&mut self, g: GroupId) {
        let g = self.find(g);
        self.groups[g.index()].parents.clear();
    }

    /// Overwrites the root invocation weights.
    #[doc(hidden)]
    pub fn testing_set_root_weights(&mut self, weights: Vec<f64>) {
        self.root_weights = weights;
    }

    /// Marks `op` dead without unification bookkeeping.
    #[doc(hidden)]
    pub fn testing_kill_op(&mut self, op: OpId) {
        self.ops[op.index()].alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_util::BitSet;

    fn props(rows: f64, rel: usize) -> GroupProps {
        GroupProps {
            rows,
            cols: vec![],
            width: 8,
            has_param: false,
            relset: BitSet::singleton(rel),
        }
    }

    fn join_props(rows: f64, rels: &[usize]) -> GroupProps {
        GroupProps {
            rows,
            cols: vec![],
            width: 8,
            has_param: false,
            relset: rels.iter().copied().collect(),
        }
    }

    #[test]
    fn insert_dedupes_identical_expressions() {
        let mut dag = Dag::empty(DagConfig::default());
        let (ga, _, new_a) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        assert!(new_a);
        let (ga2, _, new_a2) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        assert!(!new_a2);
        assert_eq!(ga, ga2);
    }

    #[test]
    fn unification_merges_groups_via_common_derivation() {
        // Two distinct groups for "A⋈B" (as if from two query trees),
        // then the same expression inserted into both → they unify.
        let mut dag = Dag::empty(DagConfig::default());
        let (a, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        let (b, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(1)),
            vec![],
            |_, _, _| props(10.0, 1),
            false,
            false,
        );
        let p = Predicate::true_();
        // group 1 contains Join(a,b)
        let g1 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(OpKind::Join(p.clone()), vec![a, b], Some(g1), false, false);
        // group 2 contains Join(b,a) — a different expression
        let g2 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(OpKind::Join(p.clone()), vec![b, a], Some(g2), false, false);
        assert_ne!(dag.find(g1), dag.find(g2));
        // now derive Join(a,b) into g2 (e.g. via commutativity): unify
        dag.insert_op(OpKind::Join(p), vec![a, b], Some(g2), false, true);
        assert_eq!(dag.find(g1), dag.find(g2));
        // the merged group holds both alternatives
        let n = dag.group_ops(g1).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn cascading_merge_rekeys_parents() {
        // r0, r1 leaves; two parallel towers:
        //   gX = J(r0,r1) in two separate groups gx1, gx2
        //   top1 = J(gx1, r2), top2 = J(gx2, r2)
        // Unifying gx1/gx2 must re-key top1/top2 into the same expression
        // and cascade-merge their groups.
        let mut dag = Dag::empty(DagConfig::default());
        let (r0, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        let (r1, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(1)),
            vec![],
            |_, _, _| props(10.0, 1),
            false,
            false,
        );
        let (r2, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(2)),
            vec![],
            |_, _, _| props(10.0, 2),
            false,
            false,
        );
        let p = Predicate::true_();
        let gx1 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(
            OpKind::Join(p.clone()),
            vec![r0, r1],
            Some(gx1),
            false,
            false,
        );
        let gx2 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(
            OpKind::Join(p.clone()),
            vec![r1, r0],
            Some(gx2),
            false,
            false,
        );
        let top1 = dag.new_group(join_props(1000.0, &[0, 1, 2]));
        dag.insert_op(
            OpKind::Join(p.clone()),
            vec![gx1, r2],
            Some(top1),
            false,
            false,
        );
        let top2 = dag.new_group(join_props(1000.0, &[0, 1, 2]));
        dag.insert_op(OpKind::Join(p), vec![gx2, r2], Some(top2), false, false);
        assert_ne!(dag.find(top1), dag.find(top2));
        dag.merge(gx1, gx2);
        // tops collapse: same expression J(gx, r2)
        assert_eq!(dag.find(top1), dag.find(top2));
        // only one alive op remains in the merged top group
        assert_eq!(dag.group_ops(top1).count(), 1);
    }

    #[test]
    fn topo_orders_children_first() {
        let mut dag = Dag::empty(DagConfig::default());
        let (a, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        let (b, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(1)),
            vec![],
            |_, _, _| props(10.0, 1),
            false,
            false,
        );
        let p = Predicate::true_();
        let (j, _, _) = dag.insert_expr(
            OpKind::Join(p),
            vec![a, b],
            |_, _, _| join_props(100.0, &[0, 1]),
            false,
            false,
        );
        dag.set_root(vec![j], vec![1.0]);
        dag.renumber();
        let order = dag.topo_order();
        assert_eq!(order.len(), 4); // a, b, join, root
        let pos = |g: GroupId| order.iter().position(|&x| x == dag.find(g)).unwrap();
        assert!(pos(a) < pos(j));
        assert!(pos(b) < pos(j));
        assert!(pos(j) < pos(dag.root()));
        assert!(dag.group(a).topo < dag.group(j).topo);
    }

    #[test]
    fn parents_filter_dead_and_dedup() {
        let mut dag = Dag::empty(DagConfig::default());
        let (a, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(0)),
            vec![],
            |_, _, _| props(10.0, 0),
            false,
            false,
        );
        let (b, _, _) = dag.insert_expr(
            OpKind::Scan(TableId(1)),
            vec![],
            |_, _, _| props(10.0, 1),
            false,
            false,
        );
        let p = Predicate::true_();
        let gx1 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(OpKind::Join(p.clone()), vec![a, b], Some(gx1), false, false);
        let gx2 = dag.new_group(join_props(100.0, &[0, 1]));
        dag.insert_op(OpKind::Join(p), vec![b, a], Some(gx2), false, false);
        dag.merge(gx1, gx2);
        // both leaf groups should report exactly the surviving parent ops
        for leaf in [a, b] {
            let ps = dag.parents_of(leaf);
            assert_eq!(ps.len(), 2, "two distinct join ops remain alive");
            assert!(ps.iter().all(|&o| dag.op(o).alive));
        }
    }
}
