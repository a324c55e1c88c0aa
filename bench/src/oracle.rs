//! Output checking that shares no path with the op under test.
//!
//! The reference answer for an op input comes from the *unshared*
//! Volcano plan, executed alone with no cache — no Greedy, no
//! materialized views, no batch forming, no wire. Results are compared in a canonical form
//! (columns by name, rows sorted): first by a hash of the rendered
//! rows, and, because a shared plan may legally sum floats in another
//! order, by a tolerance compare whenever the hashes differ.
//!
//! For the two seeds named in `bench/README.md` reference hashes made
//! on the row engine are committed under `bench/expected/`, so on
//! those seeds the vectorized operators are checked against the row
//! operators too, and a change that moves the reference path itself
//! is seen.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use mqo_catalog::Catalog;
use mqo_core::{Optimizer, Options};
use mqo_exec::{execute_plan_with, results_approx_equal, Database, ExecMode, ExecOptions, Table};
use mqo_expr::{ParamId, Value};
use mqo_logical::Batch;
use mqo_serve::QueryResult;
use mqo_util::FxHashMap;

/// FNV-1a, 64 bit: names inputs and hashes canonical renders.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One query's result in canonical form.
#[derive(Debug, Clone)]
pub struct Canon {
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Canon {
    /// Columns ordered exact-typed first then float, by name within
    /// each; rows sorted on the reordered columns. Float columns sort
    /// last so that a last-bit difference cannot reorder the rows.
    fn new(cols: Vec<String>, rows: Vec<Vec<Value>>) -> Canon {
        let is_float: Vec<bool> = (0..cols.len())
            .map(|i| {
                rows.iter()
                    .any(|r| matches!(r.get(i), Some(Value::Float(_))))
            })
            .collect();
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by_key(|&i| (is_float[i], &cols[i], i));
        let mut rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| order.iter().map(|&i| r[i].clone()).collect())
            .collect();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.sort_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Canon {
            cols: order.iter().map(|&i| cols[i].clone()).collect(),
            rows,
        }
    }

    pub fn from_table(catalog: &Catalog, t: &Table) -> Canon {
        let cols = t
            .schema
            .iter()
            .map(|&c| catalog.column(c).name.clone())
            .collect();
        Canon::new(cols, t.to_rows())
    }

    pub fn from_result(r: &QueryResult) -> Canon {
        Canon::new(r.columns.clone(), r.rows.clone())
    }

    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The canonical render: floats keep seven significant digits, so
    /// a different summation order almost never changes the text.
    fn render(&self) -> String {
        let mut s = self.cols.join(",");
        for row in &self.rows {
            s.push('\n');
            for v in row {
                // Writing to a String cannot fail.
                let _ = match v {
                    Value::Null => write!(s, "null|"),
                    Value::Int(i) => write!(s, "{i}|"),
                    Value::Float(f) => write!(s, "{f:.6e}|"),
                    Value::Str(t) => write!(s, "'{t}'|"),
                };
            }
        }
        s
    }

    /// The columns named in `keep`, in canonical form again.
    fn project(&self, keep: &[String]) -> Canon {
        let at: Vec<usize> = (0..self.cols.len())
            .filter(|&i| keep.contains(&self.cols[i]))
            .collect();
        Canon::new(
            at.iter().map(|&i| self.cols[i].clone()).collect(),
            self.rows
                .iter()
                .map(|r| at.iter().map(|&i| r[i].clone()).collect())
                .collect(),
        )
    }

    /// Same rows, floats within 1e-9. A plan whose query has no final
    /// projection (TPC-D Q2's outer block) may carry columns another
    /// plan of the same query dropped below a join; where the reference
    /// has every column of `got` and more, the compare is on `got`'s.
    fn approx_eq(&self, got: &Canon) -> bool {
        if self.cols == got.cols {
            return results_approx_equal(&self.rows, &got.rows, 1e-9);
        }
        let narrowed = self.project(&got.cols);
        narrowed.cols == got.cols && results_approx_equal(&narrowed.rows, &got.rows, 1e-9)
    }
}

/// Hash of an op's whole output (its queries in order).
pub fn hash_results(results: &[Canon]) -> u64 {
    let mut text = String::new();
    for c in results {
        text.push_str(&c.render());
        text.push_str("\n--\n");
    }
    fnv64(text.as_bytes())
}

/// The reference answer for one op input.
#[derive(Debug)]
pub struct Expected {
    pub label: String,
    pub results: Vec<Canon>,
    pub hash: u64,
    /// Estimated cost of the session strategy's plan, cold and alone.
    pub strategy_cost: f64,
    /// Estimated cost of the unshared Volcano plan.
    pub volcano_cost: f64,
    /// False when a committed golden hash exists and disagrees.
    pub golden_ok: bool,
}

impl Expected {
    /// True when `got` is this input's answer. `full` skips the hash
    /// shortcut and always does the value-by-value compare.
    pub fn matches(&self, got: &[Canon], full: bool) -> bool {
        if !self.golden_ok || got.len() != self.results.len() {
            return false;
        }
        if !full && hash_results(got) == self.hash {
            return true;
        }
        self.results.iter().zip(got).all(|(e, g)| e.approx_eq(g))
    }
}

/// Plans `batch` unshared and with the session strategy, and executes
/// the unshared plan alone, with no cache, on the engine `mode`.
/// Returns the canonical results and the two estimated costs.
///
/// The committed golden hashes come from the row engine. A run checks
/// against the vectorized engine — the row engine takes seconds on
/// the larger batches, more than a run may spend — and, for a seed
/// with golden hashes, checks that the two agree.
pub fn reference(
    catalog: &Catalog,
    db: &Database,
    batch: &Batch,
    params: &FxHashMap<ParamId, Value>,
    mode: ExecMode,
    strategy: &str,
) -> (Vec<Canon>, f64, f64) {
    let optimizer = Optimizer::with_options(catalog, Options::new());
    let ctx = optimizer.prepare(batch);
    let volcano = optimizer
        .search(&ctx, "Volcano")
        .expect("Volcano is a built-in strategy");
    let shared = optimizer
        .search(&ctx, strategy)
        .expect("the session strategy is a built-in");
    let exec = ExecOptions {
        mode,
        ..ExecOptions::default()
    };
    let out = execute_plan_with(catalog, &ctx.pdag, &volcano.plan, db, params, exec);
    let results = out
        .results
        .iter()
        .map(|t| Canon::from_table(catalog, t))
        .collect();
    (results, shared.cost.secs(), volcano.cost.secs())
}

/// Reference answers by input key, checked against the committed
/// golden hashes where a file for this workload and seed exists.
pub struct Oracle {
    workload: &'static str,
    seed: u64,
    entries: BTreeMap<u64, Expected>,
    golden: Option<BTreeMap<u64, u64>>,
    /// Inputs computed while `pin` was on: the fixed set (laps 0 and
    /// 1) that `est_cost_ratio` and the golden file cover.
    pinned: Vec<u64>,
    pub pin: bool,
    /// The engine references run on: vectorized in a run, row when
    /// writing the golden hashes.
    pub engine: ExecMode,
}

fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

impl Oracle {
    pub fn new(workload: &'static str, seed: u64) -> Oracle {
        let path = expected_dir().join(format!("{workload}.{seed}.txt"));
        let golden = std::fs::read_to_string(path).ok().map(|text| {
            text.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let key = u64::from_str_radix(f.next()?, 16).ok()?;
                    let hash = u64::from_str_radix(f.next()?, 16).ok()?;
                    Some((key, hash))
                })
                .collect()
        });
        Oracle {
            workload,
            seed,
            entries: BTreeMap::new(),
            golden,
            pinned: Vec::new(),
            pin: true,
            engine: ExecMode::Vectorized,
        }
    }

    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }

    pub fn get(&self, key: u64) -> Option<&Expected> {
        self.entries.get(&key)
    }

    /// The reference for `key`, computed by `make` on first sight.
    pub fn ensure(
        &mut self,
        key: u64,
        label: &str,
        make: impl FnOnce() -> (Vec<Canon>, f64, f64),
    ) -> &Expected {
        if !self.entries.contains_key(&key) {
            let (results, strategy_cost, volcano_cost) = make();
            let hash = hash_results(&results);
            let golden_ok = match (&self.golden, self.pin) {
                (Some(g), true) => g.get(&key) == Some(&hash),
                _ => true,
            };
            if self.pin {
                self.pinned.push(key);
            }
            self.entries.insert(
                key,
                Expected {
                    label: label.to_string(),
                    results,
                    hash,
                    strategy_cost,
                    volcano_cost,
                    golden_ok,
                },
            );
        }
        &self.entries[&key]
    }

    /// Σ strategy cost ÷ Σ Volcano cost over the pinned inputs.
    pub fn est_cost_ratio(&self) -> f64 {
        let (s, v) = self.pinned.iter().fold((0.0, 0.0), |(s, v), k| {
            let e = &self.entries[k];
            (s + e.strategy_cost, v + e.volcano_cost)
        });
        if v > 0.0 {
            s / v
        } else {
            0.0
        }
    }

    pub fn golden_mismatches(&self) -> usize {
        self.entries.values().filter(|e| !e.golden_ok).count()
    }

    /// Writes the pinned inputs' hashes as this seed's golden file.
    /// A workload whose ops return no rows has nothing to pin.
    pub fn write_golden(&self) -> std::io::Result<Option<PathBuf>> {
        let mut keys = self.pinned.clone();
        keys.sort_unstable();
        let mut text = String::new();
        for k in keys {
            let e = &self.entries[&k];
            let rows: usize = e.results.iter().map(Canon::rows).sum();
            if !e.results.is_empty() {
                text.push_str(&format!("{k:016x} {:016x} {rows} {}\n", e.hash, e.label));
            }
        }
        if text.is_empty() {
            return Ok(None);
        }
        let dir = expected_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.{}.txt", self.workload, self.seed));
        std::fs::write(&path, text)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(cols: &[&str], rows: Vec<Vec<Value>>) -> Canon {
        Canon::new(cols.iter().map(|c| c.to_string()).collect(), rows)
    }

    #[test]
    fn canonical_form_ignores_row_and_column_order() {
        let a = canon(
            &["k", "v"],
            vec![
                vec![Value::Int(2), Value::Float(0.5)],
                vec![Value::Int(1), Value::Float(1.5)],
            ],
        );
        let b = canon(
            &["v", "k"],
            vec![
                vec![Value::Float(1.5), Value::Int(1)],
                vec![Value::Float(0.5), Value::Int(2)],
            ],
        );
        assert_eq!(
            hash_results(std::slice::from_ref(&a)),
            hash_results(std::slice::from_ref(&b))
        );
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn summation_order_noise_passes_and_wrong_values_fail() {
        let exact = canon(&["v"], vec![vec![Value::Float(0.1 + 0.2)]]);
        let reordered = canon(&["v"], vec![vec![Value::Float(0.3)]]);
        let wrong = canon(&["v"], vec![vec![Value::Float(0.31)]]);
        let expected = Expected {
            label: "t".into(),
            hash: hash_results(std::slice::from_ref(&exact)),
            results: vec![exact],
            strategy_cost: 1.0,
            volcano_cost: 2.0,
            golden_ok: true,
        };
        assert!(expected.matches(std::slice::from_ref(&reordered), false));
        assert!(expected.matches(&[reordered], true));
        assert!(!expected.matches(&[wrong], false));
        assert!(!expected.matches(&[], false));
    }

    #[test]
    fn extra_reference_columns_are_projected_away_missing_ones_fail() {
        let wide = canon(
            &["k", "pad", "v"],
            vec![
                vec![Value::Int(1), Value::str("x"), Value::Float(1.5)],
                vec![Value::Int(2), Value::str("y"), Value::Float(2.5)],
            ],
        );
        let narrow = canon(
            &["k", "v"],
            vec![
                vec![Value::Int(2), Value::Float(2.5)],
                vec![Value::Int(1), Value::Float(1.5)],
            ],
        );
        assert!(wide.approx_eq(&narrow));
        assert!(!narrow.approx_eq(&wide), "the op may not invent columns");
    }

    #[test]
    fn fnv_matches_its_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
