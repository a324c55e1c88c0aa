//! Shared utilities for the MQO workspace.
//!
//! Keeps the rest of the workspace dependency-free: a fast FxHash-style
//! hasher (integer keys dominate our maps), a macro for `u32` id newtypes,
//! a union-find used by DAG unification, a compact bitset used for
//! relation sets, the unified recoverable error type ([`MqoError`])
//! the whole pipeline threads through its fallible paths, and the one
//! caret renderer every diagnostic goes through ([`render_caret`]).

pub mod bitset;
pub mod diagnostic;
pub mod error;
pub mod fxhash;
pub mod sorted;
pub mod union_find;

pub use bitset::BitSet;
pub use diagnostic::{render_caret, write_one_line};
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

/// Declares a fieldless enum together with its stable names: `ALL`
/// (declaration order), `name()` and `from_name()` all read one table,
/// so no variant exists without a name and no name without a decoder.
#[macro_export]
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)+];

            /// The variant's short stable name (rendered diagnostics,
            /// allow comments, the serving protocol).
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// The variant whose [`name`](Self::name) is `name`.
            #[must_use]
            pub fn from_name(name: &str) -> Option<$ty> {
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }
    };
}
