//! Execution engine: runs the optimizer's shared plans.
//!
//! The paper demonstrated its plans on Microsoft SQL Server by encoding
//! sharing as temp-table DDL (§6, Figure 7) — and notes the measured
//! benefit *understates* the potential because sharing could not be
//! pipelined. This engine executes [`mqo_physical::ExtractedPlan`]s
//! directly against **columnar** in-memory tables: every operator's
//! vectorized implementation ([`vops`]) evaluates predicates
//! column-at-a-time over typed slices with selection vectors and
//! materializes output rows with one gather per column, in fixed-size
//! batches of 1024 rows. The legacy tuple-at-a-time
//! pull operators ([`ops`]) remain behind `MQO_EXEC_MODE=row` as a
//! migration shim and as the differential oracle the parity suite runs
//! against the batched path. A temp store materializes shared nodes
//! once (sorted temps act as clustered indexes), and a catalog-driven
//! data generator produces columnar tables whose statistics match the
//! optimizer's.

mod column;
mod datagen;
mod engine;
mod mv_store;
pub mod ops;
mod table;
pub mod vops;

pub use column::{Cell, Column, ColumnBuilder, ColumnData, NullMask};
pub use datagen::generate_database;
pub use engine::{
    execute_plan, execute_plan_with, try_execute_plan_seeded, ExecMode, ExecOptions, ExecOutcome,
    SeededOutcome,
};
pub use mv_store::{Admission, MvEntry, MvStats, MvStore};
pub use table::{normalize_result, results_approx_equal, Database, Row, Table};
