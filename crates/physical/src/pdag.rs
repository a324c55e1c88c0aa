//! Physical DAG construction from the logical AND-OR DAG.

use crate::algo::Algo;
use crate::extract::{ChosenOp, ExtractedPlan};
use crate::prop::PhysProp;
use mqo_catalog::{Catalog, ColId, TableId};
use mqo_cost::{Cost, CostParams, Estimator};
use mqo_dag::{Dag, GroupId, OpId, OpKind};
use mqo_expr::{Atom, CmpOp, Predicate};
use mqo_util::FxHashMap;

mqo_util::id_type!(
    /// Identifies a physical node `(group, required property)`.
    PhysNodeId
);
mqo_util::id_type!(
    /// Identifies a physical operation.
    PhysOpId
);

/// A physical equivalence node: a logical group refined by a required
/// physical property.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// The logical group.
    pub group: GroupId,
    /// The required property.
    pub prop: PhysProp,
    /// Implementations (and enforcers) delivering this node.
    pub ops: Vec<PhysOpId>,
    /// Physical ops consuming this node as an input.
    pub parents: Vec<PhysOpId>,
    /// Estimated rows (copied from the logical group).
    pub rows: f64,
    /// Estimated size in blocks when materialized.
    pub blocks: f64,
    /// Topological number (children before parents).
    pub topo: u32,
}

/// Dependence of a reuse-sensitive operator on a materialized temp: the
/// op is feasible only when `source` is materialized sorted with leading
/// column `key`; then `extra` (the probe work) is added to its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempDep {
    /// The group that must be materialized.
    pub source: GroupId,
    /// Required leading sort column of the temp.
    pub key: ColId,
    /// Cost added when the temp is available.
    pub extra: Cost,
}

/// A physical operation: an algorithm delivering one physical node.
#[derive(Debug, Clone)]
pub struct PhysOp {
    /// The algorithm.
    pub algo: Algo,
    /// Owning physical node.
    pub node: PhysNodeId,
    /// Input physical nodes.
    pub inputs: Vec<PhysNodeId>,
    /// Provenance: the logical operation this implements.
    pub logical_op: OpId,
    /// True if the logical op came from a subsumption derivation.
    pub from_subsumption: bool,
    /// Materialized-set-independent local cost.
    pub local: Cost,
    /// Reuse-sensitive component (see [`TempDep`]).
    pub temp_dep: Option<TempDep>,
    /// Query weights — only on the pseudo-root op (paper §5).
    pub weights: Option<Vec<f64>>,
}

/// The fully instantiated physical AND-OR DAG.
#[derive(Debug, Clone)]
pub struct PhysicalDag {
    /// Cost model parameters used to build the op costs.
    pub params: CostParams,
    nodes: Vec<PhysNode>,
    ops: Vec<PhysOp>,
    /// Variants per group, in creation order (at most a handful each: the
    /// unordered node plus one per interesting order).
    by_group: FxHashMap<GroupId, Vec<PhysNodeId>>,
    /// Ops whose feasibility depends on a given group's materialization.
    temp_watchers: FxHashMap<GroupId, Vec<PhysOpId>>,
    root: PhysNodeId,
}

impl PhysicalDag {
    /// All physical nodes, in topological order of their ids.
    #[must_use]
    pub fn nodes(&self) -> &[PhysNode] {
        &self.nodes
    }

    /// All physical ops.
    #[must_use]
    pub fn ops(&self) -> &[PhysOp] {
        &self.ops
    }

    /// The node struct.
    #[must_use]
    pub fn node(&self, id: PhysNodeId) -> &PhysNode {
        &self.nodes[id.index()]
    }

    /// The op struct.
    #[must_use]
    pub fn op(&self, id: PhysOpId) -> &PhysOp {
        &self.ops[id.index()]
    }

    /// The root physical node (pseudo-root group, no requirement).
    #[must_use]
    pub fn root(&self) -> PhysNodeId {
        self.root
    }

    /// Physical variants of a logical group.
    pub fn variants(&self, g: GroupId) -> &[PhysNodeId] {
        self.by_group.get(&g).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Looks up the node for `(group, prop)`.
    #[must_use]
    pub fn node_for(&self, g: GroupId, prop: &PhysProp) -> Option<PhysNodeId> {
        self.variants(g)
            .iter()
            .copied()
            .find(|&n| self.nodes[n.index()].prop == *prop)
    }

    /// Ops that must be re-costed when `g`'s materialization changes.
    pub fn temp_watchers(&self, g: GroupId) -> &[PhysOpId] {
        self.temp_watchers.get(&g).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of physical nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of physical ops.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Materialization cost of a node (paper's `matcost`): sequential
    /// write of the result. The cost of *producing* it in the required
    /// order is the node's plan cost, accounted separately.
    #[must_use]
    pub fn matcost(&self, n: PhysNodeId) -> Cost {
        self.params.matcost(self.nodes[n.index()].blocks)
    }

    /// Reuse cost of a materialized node (paper's `reusecost`): read it
    /// back sequentially.
    #[must_use]
    pub fn reusecost(&self, n: PhysNodeId) -> Cost {
        self.params.reusecost(self.nodes[n.index()].blocks)
    }

    /// The part of this DAG that executing `plan` reads, with `plan`
    /// renumbered to it: what a session stores to run a plan again
    /// without the AND-OR DAG it was searched on.
    ///
    /// Every node keeps its id, group, property, size estimates and
    /// topological number, with empty op and parent lists. Only the ops
    /// `plan` computes are kept, renumbered in ascending node order, and
    /// the returned plan's choices point at the new op ids. The slice
    /// answers [`PhysicalDag::node`] and [`PhysicalDag::op`] for that
    /// plan only: it has no alternatives, no variant index and no temp
    /// watchers, so it cannot be searched, costed or extracted again.
    #[must_use]
    pub fn plan_slice(&self, plan: &ExtractedPlan) -> (PhysicalDag, ExtractedPlan) {
        let nodes = self
            .nodes
            .iter()
            .map(|n| PhysNode {
                prop: n.prop.clone(),
                ops: Vec::new(),
                parents: Vec::new(),
                ..*n
            })
            .collect();
        let mut ops = Vec::new();
        let mut choices = FxHashMap::default();
        for id in 0..self.nodes.len() {
            let n = PhysNodeId::from_index(id);
            let Some(&choice) = plan.choices.get(&n) else {
                continue;
            };
            let choice = match choice {
                ChosenOp::Compute(o) => {
                    ops.push(self.op(o).clone());
                    ChosenOp::Compute(PhysOpId::from_index(ops.len() - 1))
                }
                reuse @ ChosenOp::Reuse(_) => reuse,
            };
            choices.insert(n, choice);
        }
        let slice = PhysicalDag {
            params: self.params,
            nodes,
            ops,
            by_group: FxHashMap::default(),
            temp_watchers: FxHashMap::default(),
            root: self.root,
        };
        let plan = ExtractedPlan {
            choices,
            root: plan.root,
            query_roots: plan.query_roots.clone(),
            materialized: plan.materialized.clone(),
            warm_used: plan.warm_used.clone(),
            total_cost: plan.total_cost,
        };
        (slice, plan)
    }

    // ------------------------------------------------------------------
    // Verifier negative-test seams (see `Dag`'s equivalents): mutable
    // access for building deliberately *invalid* physical DAGs. Hidden
    // from docs; never call outside tests.

    /// Mutable access to a node, for corruption tests.
    #[doc(hidden)]
    pub fn testing_node_mut(&mut self, n: PhysNodeId) -> &mut PhysNode {
        &mut self.nodes[n.index()]
    }

    /// Mutable access to an op, for corruption tests.
    #[doc(hidden)]
    pub fn testing_op_mut(&mut self, o: PhysOpId) -> &mut PhysOp {
        &mut self.ops[o.index()]
    }

    /// Empties the temp-watcher registry, for corruption tests.
    #[doc(hidden)]
    pub fn testing_clear_temp_watchers(&mut self) {
        self.temp_watchers.clear();
    }

    /// Builds the physical DAG for an expanded logical DAG.
    ///
    /// # Panics
    ///
    /// `dag` must be a well-formed rooted AND-OR DAG as produced by
    /// `Dag::expand` — rooted, acyclic, every reachable group
    /// implemented. The builder panics on violations (with less context
    /// than a diagnostic); `mqo-verify`'s DAG checks run *before* this
    /// build at the optimizer's stage boundary so corruption is reported
    /// there instead.
    #[must_use]
    pub fn build(dag: &Dag, catalog: &Catalog, params: CostParams) -> PhysicalDag {
        Builder {
            dag,
            est: Estimator::new(catalog),
            catalog,
            params,
            out: PhysicalDag {
                params,
                nodes: Vec::new(),
                ops: Vec::new(),
                by_group: FxHashMap::default(),
                temp_watchers: FxHashMap::default(),
                root: PhysNodeId(0),
            },
            interesting: FxHashMap::default(),
        }
        .run()
    }
}

struct Builder<'a> {
    dag: &'a Dag,
    est: Estimator<'a>,
    catalog: &'a Catalog,
    params: CostParams,
    out: PhysicalDag,
    interesting: FxHashMap<GroupId, Vec<Vec<ColId>>>,
}

impl<'a> Builder<'a> {
    fn run(mut self) -> PhysicalDag {
        self.collect_interesting_orders();
        self.create_nodes();
        self.create_ops();
        self.create_enforcers();
        self.number_nodes();
        self.out.root = self
            .out
            .node_for(self.dag.root(), &PhysProp::Any)
            .expect("root node exists");
        self.out
    }

    // ------------------------------------------------------------------

    fn add_interesting(&mut self, g: GroupId, keys: Vec<ColId>) {
        if keys.is_empty() {
            return;
        }
        let e = self.interesting.entry(g).or_default();
        if !e.contains(&keys) {
            e.push(keys);
        }
    }

    /// Interesting orders, propagated parents-first so order-preserving
    /// operators pass requirements down to their inputs.
    fn collect_interesting_orders(&mut self) {
        let dag = self.dag;
        for &g in dag.topo_order().iter().rev() {
            for op in dag.group_ops(g) {
                let inputs = dag.op_inputs(op);
                match &dag.op(op).kind {
                    OpKind::Join(p) => {
                        let (l, r) = (inputs[0], inputs[1]);
                        let pairs = equi_pairs(dag, p, l, r);
                        if pairs.is_empty() {
                            continue;
                        }
                        let lks: Vec<ColId> = pairs.iter().map(|&(a, _)| a).collect();
                        let rks: Vec<ColId> = pairs.iter().map(|&(_, b)| b).collect();
                        self.add_interesting(l, lks);
                        self.add_interesting(r, rks);
                        // single-column variants: index-join probes use the
                        // first pair
                        self.add_interesting(l, vec![pairs[0].0]);
                        self.add_interesting(r, vec![pairs[0].1]);
                    }
                    OpKind::Select(p) => {
                        // a single-column predicate makes that column an
                        // interesting (index) order on the input
                        if let [c] = p.columns()[..] {
                            self.add_interesting(inputs[0], vec![c]);
                        }
                        // order-preserving: pass own orders down
                        let own = self.interesting.get(&g).cloned().unwrap_or_default();
                        for k in own {
                            self.add_interesting(inputs[0], k);
                        }
                    }
                    OpKind::Aggregate { keys, .. } => {
                        self.add_interesting(inputs[0], keys.clone());
                    }
                    OpKind::Project(cols) => {
                        let own = self.interesting.get(&g).cloned().unwrap_or_default();
                        for k in own {
                            if k.iter().all(|c| cols.contains(c)) {
                                self.add_interesting(inputs[0], k);
                            }
                        }
                    }
                    OpKind::Scan(_) | OpKind::Root => {}
                }
            }
        }
    }

    // ------------------------------------------------------------------

    fn create_nodes(&mut self) {
        let order: Vec<GroupId> = self.dag.topo_order().to_vec();
        for &g in &order {
            self.new_node(g, PhysProp::Any);
            for keys in self.interesting.get(&g).cloned().unwrap_or_default() {
                self.new_node(g, PhysProp::Sorted(keys));
            }
        }
    }

    fn new_node(&mut self, g: GroupId, prop: PhysProp) -> PhysNodeId {
        if let Some(id) = self.out.node_for(g, &prop) {
            return id;
        }
        let grp = self.dag.group(g);
        let id = PhysNodeId::from_index(self.out.nodes.len());
        self.out.nodes.push(PhysNode {
            group: g,
            prop,
            ops: Vec::new(),
            parents: Vec::new(),
            rows: grp.rows,
            blocks: self.params.blocks(grp.rows, grp.width),
            topo: 0,
        });
        self.out.by_group.entry(g).or_default().push(id);
        id
    }

    // ------------------------------------------------------------------

    /// Adds one physical op per node whose requirement `out_order`
    /// satisfies.
    #[allow(clippy::too_many_arguments)]
    // by-value args are cloned once per satisfying target; the call
    // sites build them inline, so references would only move the clone
    #[allow(clippy::needless_pass_by_value)]
    fn add_op(
        &mut self,
        g: GroupId,
        out_order: &PhysProp,
        algo: Algo,
        inputs: Vec<PhysNodeId>,
        logical_op: OpId,
        local: Cost,
        temp_dep: Option<TempDep>,
        weights: Option<Vec<f64>>,
    ) {
        let targets: Vec<PhysNodeId> = self.out.by_group[&g]
            .iter()
            .copied()
            .filter(|&n| out_order.satisfies(&self.out.nodes[n.index()].prop))
            .collect();
        for t in targets {
            let id = PhysOpId::from_index(self.out.ops.len());
            self.out.ops.push(PhysOp {
                algo: algo.clone(),
                node: t,
                inputs: inputs.clone(),
                logical_op,
                from_subsumption: self.dag.op(logical_op).from_subsumption,
                local,
                temp_dep,
                weights: weights.clone(),
            });
            self.out.nodes[t.index()].ops.push(id);
            for &i in &inputs {
                self.out.nodes[i.index()].parents.push(id);
            }
            if let Some(td) = temp_dep {
                self.out
                    .temp_watchers
                    .entry(td.source)
                    .or_default()
                    .push(id);
            }
        }
    }

    /// The already-created node for `(g, prop)`. Invariant: `create_nodes`
    /// ran first and instantiated every (group, interesting-order) pair,
    /// so a miss here is a builder bug, not an input error — hence a
    /// panic rather than a typed diagnostic.
    fn node_of(&self, g: GroupId, prop: &PhysProp) -> PhysNodeId {
        self.out
            .node_for(g, prop)
            .unwrap_or_else(|| panic!("missing phys node ({g:?}, {prop})"))
    }

    fn group_blocks(&self, g: GroupId) -> f64 {
        let grp = self.dag.group(g);
        self.params.blocks(grp.rows, grp.width)
    }

    /// True if `g` is a base-table scan group, possibly behind a
    /// projection (`Π(scan)`); returns the table. Index access paths read
    /// the base table directly — execution resolves columns by id, so the
    /// extra (unprojected) columns are semantically inert; the cost model
    /// charges the projected width, a slight but harmless underestimate.
    fn bare_scan(&self, g: GroupId) -> Option<TableId> {
        for o in self.dag.group_ops(g) {
            match &self.dag.op(o).kind {
                OpKind::Scan(t) => return Some(*t),
                OpKind::Project(_) => {
                    let input = self.dag.op_inputs(o)[0];
                    let scan =
                        self.dag
                            .group_ops(input)
                            .find_map(|oo| match self.dag.op(oo).kind {
                                OpKind::Scan(t) => Some(t),
                                _ => None,
                            });
                    if scan.is_some() {
                        return scan;
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn create_ops(&mut self) {
        let dag = self.dag;
        for &g in dag.topo_order() {
            let g_blocks = self.group_blocks(g);
            for lop in dag.group_ops(g) {
                let inputs = dag.op_inputs(lop);
                match &dag.op(lop).kind {
                    OpKind::Scan(t) => self.ops_for_scan(g, lop, *t),
                    OpKind::Select(p) => self.ops_for_select(g, lop, p, inputs[0], g_blocks),
                    OpKind::Join(p) => self.ops_for_join(g, lop, p, inputs[0], inputs[1], g_blocks),
                    OpKind::Aggregate { keys, aggs } => {
                        let h = inputs[0];
                        let in_blocks = self.group_blocks(h);
                        let local = self.params.cpu(in_blocks + g_blocks);
                        let out = if keys.is_empty() {
                            PhysProp::Any
                        } else {
                            PhysProp::Sorted(keys.clone())
                        };
                        let input_node = self.node_of(h, &out);
                        self.add_op(
                            g,
                            &out,
                            Algo::SortAggregate {
                                keys: keys.clone(),
                                aggs: aggs.clone(),
                            },
                            vec![input_node],
                            lop,
                            local,
                            None,
                            None,
                        );
                    }
                    OpKind::Project(cols) => {
                        let h = inputs[0];
                        let in_blocks = self.group_blocks(h);
                        let local = self.params.cpu(in_blocks);
                        for v in self.out.by_group[&h].clone() {
                            let vprop = self.out.nodes[v.index()].prop.clone();
                            let out = if vprop.keys().iter().all(|c| cols.contains(c)) {
                                vprop.clone()
                            } else {
                                PhysProp::Any
                            };
                            self.add_op(
                                g,
                                &out,
                                Algo::Project { cols: cols.clone() },
                                vec![v],
                                lop,
                                local,
                                None,
                                None,
                            );
                        }
                    }
                    OpKind::Root => {
                        let ins: Vec<PhysNodeId> = inputs
                            .iter()
                            .map(|&q| self.node_of(q, &PhysProp::Any))
                            .collect();
                        let weights = self.dag.root_weights().to_vec();
                        self.add_op(
                            g,
                            &PhysProp::Any,
                            Algo::Root,
                            ins,
                            lop,
                            Cost::ZERO,
                            None,
                            Some(weights),
                        );
                    }
                }
            }
        }
    }

    fn ops_for_scan(&mut self, g: GroupId, lop: OpId, t: TableId) {
        let blocks = self.group_blocks(g);
        let order = match self.catalog.table_ref(t).clustered_on {
            Some(c) => PhysProp::Sorted(vec![c]),
            None => PhysProp::Any,
        };
        let local = self.params.seq_read(blocks);
        self.add_op(
            g,
            &order,
            Algo::TableScan { table: t },
            vec![],
            lop,
            local,
            None,
            None,
        );
    }

    fn ops_for_select(&mut self, g: GroupId, lop: OpId, p: &Predicate, h: GroupId, g_blocks: f64) {
        let in_blocks = self.group_blocks(h);
        // (a) pipelined filter over every input variant
        for v in self.out.by_group[&h].clone() {
            let vprop = self.out.nodes[v.index()].prop.clone();
            self.add_op(
                g,
                &vprop,
                Algo::Filter { pred: p.clone() },
                vec![v],
                lop,
                self.params.cpu(in_blocks),
                None,
                None,
            );
        }
        // single-column predicates unlock index access
        let pred_col = match p.columns()[..] {
            [c] => Some(c),
            _ => None,
        };
        let Some(c) = pred_col else { return };
        let range_like = p.disjuncts().iter().all(|d| {
            d.atoms()
                .iter()
                .all(|a| matches!(a, Atom::Cmp { .. } | Atom::Param { .. }))
        });
        if !range_like {
            return;
        }
        // (b) clustered-index select on a base table
        if let Some(t) = self.bare_scan(h) {
            if self.catalog.table_ref(t).clustered_on == Some(c) {
                self.add_op(
                    g,
                    &PhysProp::Sorted(vec![c]),
                    Algo::IndexedSelect {
                        table: t,
                        pred: p.clone(),
                    },
                    vec![],
                    lop,
                    self.params.index_probe(g_blocks),
                    None,
                    None,
                );
            }
        }
        // (c) probe of a materialized temp sorted on the column
        let has_sorted_variant = self.out.by_group[&h]
            .iter()
            .any(|&n| self.out.nodes[n.index()].prop.leading_col() == Some(c));
        if has_sorted_variant {
            self.add_op(
                g,
                &PhysProp::Sorted(vec![c]),
                Algo::TempIndexedSelect {
                    source: h,
                    col: c,
                    pred: p.clone(),
                },
                vec![],
                lop,
                Cost::ZERO,
                Some(TempDep {
                    source: h,
                    key: c,
                    extra: self.params.index_probe(g_blocks),
                }),
                None,
            );
        }
    }

    fn ops_for_join(
        &mut self,
        g: GroupId,
        lop: OpId,
        p: &Predicate,
        l: GroupId,
        r: GroupId,
        g_blocks: f64,
    ) {
        let l_grp = self.dag.group(l);
        let r_grp = self.dag.group(r);
        let (l_blocks, r_blocks) = (self.group_blocks(l), self.group_blocks(r));
        let pairs = equi_pairs(self.dag, p, l, r);

        // (a) naive paged nested-loops join (the paper's operator set has
        // no hash join; its NLJ rescans the inner relation once per outer
        // block, which is why merge joins and shared materialized results
        // dominate its plans)
        {
            let passes = l_blocks.ceil().max(1.0);
            let inner_base = self.bare_scan(r).is_some();
            let mut local = self
                .params
                .cpu(l_blocks + g_blocks + (passes - 1.0) * r_blocks);
            if passes > 1.0 {
                local += self.params.seq_read(r_blocks) * (passes - 1.0);
                if !inner_base {
                    // spool the inner to a temp so it can be rescanned
                    local += self.params.seq_write(r_blocks);
                }
            }
            let (ln, rn) = (
                self.node_of(l, &PhysProp::Any),
                self.node_of(r, &PhysProp::Any),
            );
            self.add_op(
                g,
                &PhysProp::Any,
                Algo::NestLoopsJoin { pred: p.clone() },
                vec![ln, rn],
                lop,
                local,
                None,
                None,
            );
        }

        if pairs.is_empty() {
            return;
        }
        let lks: Vec<ColId> = pairs.iter().map(|&(a, _)| a).collect();
        let rks: Vec<ColId> = pairs.iter().map(|&(_, b)| b).collect();
        let residual = residual_pred(p, &pairs);

        // (b) merge join
        {
            let ln = self.node_of(l, &PhysProp::Sorted(lks.clone()));
            let rn = self.node_of(r, &PhysProp::Sorted(rks.clone()));
            let local = self.params.cpu(l_blocks + r_blocks + g_blocks);
            self.add_op(
                g,
                &PhysProp::Sorted(lks.clone()),
                Algo::MergeJoin {
                    left_keys: lks,
                    right_keys: rks,
                    residual,
                },
                vec![ln, rn],
                lop,
                local,
                None,
                None,
            );
        }

        // (c) indexed nested-loops joins on the first equi pair
        let (lc, rc) = pairs[0];
        let per_probe_rows = r_grp.rows / self.est.distinct_in(rc, r_grp.rows);
        let probe_blocks = self.params.blocks(per_probe_rows, r_grp.width.max(1));
        let probe = self.params.index_probe(probe_blocks);
        let single_residual = residual_without_pair(p, lc, rc);
        if let Some(t) = self.bare_scan(r) {
            if self.catalog.table_ref(t).clustered_on == Some(rc) {
                let ln = self.node_of(l, &PhysProp::Any);
                let local = self.params.cpu(g_blocks) + probe * l_grp.rows;
                self.add_op(
                    g,
                    &PhysProp::Any,
                    Algo::IndexedNLJoinBase {
                        table: t,
                        outer_key: lc,
                        inner_key: rc,
                        residual: single_residual.clone(),
                    },
                    vec![ln],
                    lop,
                    local,
                    None,
                    None,
                );
            }
        }
        let inner_sorted_exists = self.out.by_group[&r]
            .iter()
            .any(|&n| self.out.nodes[n.index()].prop.leading_col() == Some(rc));
        if inner_sorted_exists {
            let ln = self.node_of(l, &PhysProp::Any);
            self.add_op(
                g,
                &PhysProp::Any,
                Algo::IndexedNLJoinTemp {
                    source: r,
                    outer_key: lc,
                    inner_key: rc,
                    residual: single_residual,
                },
                vec![ln],
                lop,
                self.params.cpu(g_blocks),
                Some(TempDep {
                    source: r,
                    key: rc,
                    extra: probe * l_grp.rows,
                }),
                None,
            );
        }
    }

    fn create_enforcers(&mut self) {
        for id in 0..self.out.nodes.len() {
            let node = &self.out.nodes[id];
            let PhysProp::Sorted(keys) = node.prop.clone() else {
                continue;
            };
            let g = node.group;
            let blocks = node.blocks;
            let any = self.node_of(g, &PhysProp::Any);
            let target = PhysNodeId::from_index(id);
            let local = self.params.sort(blocks);
            // enforcers attach to exactly one node; bypass add_op's
            // satisfies-fanout
            let op_id = PhysOpId::from_index(self.out.ops.len());
            // Use the group's first logical op as provenance. A reachable
            // group with no alive op is memo corruption; the verifier's
            // `DagLinkBroken` check catches it before the build when
            // enabled (see `PhysicalDag::build`'s panic contract).
            let lop = self.dag.group_ops(g).next().expect("group has ops");
            self.out.ops.push(PhysOp {
                algo: Algo::Sort { keys },
                node: target,
                inputs: vec![any],
                logical_op: lop,
                from_subsumption: false,
                local,
                temp_dep: None,
                weights: None,
            });
            self.out.nodes[id].ops.push(op_id);
            self.out.nodes[any.index()].parents.push(op_id);
        }
    }

    fn number_nodes(&mut self) {
        // Nodes were created group-major in logical topological order with
        // (g, Any) first — that order is already topological for the
        // physical DAG (ops only reference lower groups, or the Any node
        // of their own group for enforcers).
        for (i, n) in self.out.nodes.iter_mut().enumerate() {
            n.topo = i as u32;
        }
    }
}

/// Extracts aligned equi-join column pairs `(left col, right col)` from a
/// conjunctive join predicate.
pub(crate) fn equi_pairs(dag: &Dag, p: &Predicate, l: GroupId, r: GroupId) -> Vec<(ColId, ColId)> {
    let [conj] = p.disjuncts() else {
        return vec![];
    };
    // group column sets are sorted
    let (lcols, rcols) = (&dag.group(l).cols, &dag.group(r).cols);
    let (in_l, in_r) = (
        |c: &ColId| lcols.binary_search(c).is_ok(),
        |c: &ColId| rcols.binary_search(c).is_ok(),
    );
    let mut pairs: Vec<(ColId, ColId)> = conj
        .atoms()
        .iter()
        .filter_map(|a| match a {
            Atom::ColCmp {
                left,
                op: CmpOp::Eq,
                right,
            } => {
                if in_l(left) && in_r(right) {
                    Some((*left, *right))
                } else if in_l(right) && in_r(left) {
                    Some((*right, *left))
                } else {
                    None
                }
            }
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The predicate minus the equi atoms in `pairs` (they are enforced by the
/// join algorithm itself).
fn residual_pred(p: &Predicate, pairs: &[(ColId, ColId)]) -> Predicate {
    let [conj] = p.disjuncts() else {
        return p.clone();
    };
    let atoms: Vec<Atom> = conj
        .atoms()
        .iter()
        .filter(|a| {
            !matches!(a, Atom::ColCmp { left, op: CmpOp::Eq, right }
                if pairs.contains(&(*left, *right)) || pairs.contains(&(*right, *left)))
        })
        .cloned()
        .collect();
    Predicate::all(atoms)
}

/// The predicate minus the single `(lc, rc)` equi atom.
fn residual_without_pair(p: &Predicate, lc: ColId, rc: ColId) -> Predicate {
    residual_pred(p, &[(lc, rc)])
}
