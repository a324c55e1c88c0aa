//! Shared utilities for the MQO workspace.
//!
//! Keeps the rest of the workspace dependency-free: a fast FxHash-style
//! hasher (integer keys dominate our maps), a macro for `u32` id newtypes,
//! a union-find used by DAG unification, a compact bitset used for
//! relation sets, and the unified recoverable error type ([`MqoError`])
//! the whole pipeline threads through its fallible paths.

pub mod bitset;
pub mod error;
pub mod fxhash;
pub mod sorted;
pub mod union_find;

pub use bitset::BitSet;
pub use error::{ErrorStage, MqoError, MqoErrorKind};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use sorted::{into_sorted_entries, sorted_entries, sorted_items, sorted_keys};
pub use union_find::UnionFind;

/// `std::thread::available_parallelism()` with a fallback of 1.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Declares a `u32`-backed id newtype with `index()`/`from(usize)` helpers.
///
/// Ids are ordered and hashable so they can key maps and sort stably.
#[macro_export]
macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Index into a dense arena.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense arena index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}
