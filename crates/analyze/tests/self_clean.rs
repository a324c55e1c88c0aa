//! The analyzer eats its own dog food: a full workspace scan must come
//! back with zero unsuppressed findings, and every suppression must
//! carry a written reason. This is the test CI's `mqo-analyze --deny
//! all` leg mirrors — if a PR introduces an offender, this fails with
//! the rendered diagnostics in the assert message.

use std::path::Path;

use mqo_analyze::ctx::FileCtx;
use mqo_analyze::{analyze_source, analyze_workspace, find_workspace_root, workspace_files};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
}

#[test]
fn workspace_is_clean_under_all_lints() {
    let analysis = analyze_workspace(&workspace_root());
    assert!(
        analysis.files_scanned > 100,
        "scan looks truncated: {} files",
        analysis.files_scanned
    );
    let live = analysis.unsuppressed();
    let rendered: Vec<String> = live.iter().map(|f| f.render()).collect();
    assert!(
        live.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        rendered.join("\n\n")
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let analysis = analyze_workspace(&workspace_root());
    for f in analysis.suppressed() {
        let reason = f.suppressed.as_deref().unwrap_or("");
        assert!(
            reason.trim().len() >= 10,
            "suppression at {}:{} has no substantive reason: {reason:?}",
            f.path,
            f.line
        );
    }
}

/// An allow directive that silences nothing is a stale exemption: it
/// either outlived the code it excused or never matched the lint's
/// scope, and it would hide the next real finding on its lines.
#[test]
fn every_allow_directive_suppresses_a_finding() {
    let root = workspace_root();
    let mut dead = Vec::new();
    for file in workspace_files(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file).expect("workspace file readable");
        let findings = analyze_source(&rel, &src);
        for s in FileCtx::build(&rel, &src).suppressions {
            let live = findings.iter().any(|f| {
                f.suppressed.is_some()
                    && s.lints.contains(&f.kind)
                    && (f.line == s.line || f.line == s.line + 1)
            });
            if !live {
                dead.push(format!("{rel}:{} allow({:?})", s.line, s.lints));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "allow directives that suppress nothing:\n{}",
        dead.join("\n")
    );
}

#[test]
fn json_output_is_well_formed_smoke() {
    let analysis = analyze_workspace(&workspace_root());
    let json = analysis.to_json();
    let json = json.trim();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not an object"
    );
    for key in [
        "\"version\"",
        "\"files_scanned\"",
        "\"findings\"",
        "\"suppressed\"",
    ] {
        assert!(json.contains(key), "missing {key} in JSON output");
    }
    // balanced quotes imply escaping held up (odd count = broken string)
    let quotes = json.matches('"').count();
    assert_eq!(quotes % 2, 0, "unbalanced quotes in JSON output");
}
