//! The one diagnostic shape of the workspace. Pipeline errors
//! ([`MqoError`](crate::MqoError)), IR verification errors, SQL errors
//! and source-lint findings all render through [`render_caret`], so
//! every diagnostic a user sees reads like a compiler error:
//!
//! ```text
//! error[fault-injected]: injected fault at seam `temp-build`
//!   --> stage execute, site temp-build
//!    | failpoint temp-build fired on hit #3
//!    | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^
//! ```

use std::fmt;

/// Renders the four-line caret diagnostic: `header: message`, the
/// location, the source line, and a run of `width` carets (at least
/// one) starting `offset` columns into it. `header` is `error` or
/// `error[code]`.
#[must_use]
pub fn render_caret(
    header: &str,
    message: &str,
    location: &str,
    line: &str,
    offset: usize,
    width: usize,
) -> String {
    format!(
        "{header}: {message}\n  --> {location}\n   | {line}\n   | {}{}",
        " ".repeat(offset),
        "^".repeat(width.max(1))
    )
}

/// Writes the one-line form of a staged diagnostic,
/// `[stage/kind] message (at site)` — the `Display` of pipeline and
/// verification errors.
///
/// # Errors
///
/// Propagates the formatter's error.
pub fn write_one_line(
    f: &mut fmt::Formatter<'_>,
    stage: &dyn fmt::Display,
    kind: &str,
    message: &str,
    site: &dyn fmt::Display,
) -> fmt::Result {
    write!(f, "[{stage}/{kind}] {message} (at {site})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carets_start_at_the_offset_and_never_vanish() {
        assert_eq!(
            render_caret("error[x]", "msg", "here", "abcdef", 2, 3),
            "error[x]: msg\n  --> here\n   | abcdef\n   |   ^^^"
        );
        assert!(render_caret("error", "m", "l", "", 0, 0).ends_with("   | ^"));
    }
}
