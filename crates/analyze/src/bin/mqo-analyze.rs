//! `mqo-analyze` — source-level lints for the whole workspace.
//!
//! ```text
//! mqo-analyze [--json] [--deny all|LINT[,LINT…]] [--list] [--root DIR] [FILE…]
//! ```
//!
//! With no `FILE` arguments the workspace is discovered by walking up
//! from the current directory to the nearest `[workspace]` manifest.
//! Exit status is nonzero iff an unsuppressed finding matches the
//! `--deny` set (default: report-only, exit 0). CI runs
//! `mqo-analyze --deny all`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mqo_analyze::{analyze_source, find_workspace_root, Analysis, LintKind};

struct Args {
    json: bool,
    list: bool,
    deny: Vec<LintKind>,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        list: false,
        deny: Vec::new(),
        root: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--deny" => {
                let spec = it.next().ok_or("--deny needs an argument")?;
                if spec == "all" {
                    args.deny = LintKind::ALL.to_vec();
                } else {
                    for name in spec.split(',') {
                        let kind = LintKind::from_name(name.trim())
                            .ok_or_else(|| format!("unknown lint `{name}`"))?;
                        args.deny.push(kind);
                    }
                }
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs an argument")?));
            }
            "--help" | "-h" => {
                println!(
                    "usage: mqo-analyze [--json] [--deny all|LINT[,LINT…]] [--list] \
                     [--root DIR] [FILE…]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mqo-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for k in LintKind::ALL {
            println!("{:<22} {}", k.name(), k.description());
        }
        return ExitCode::SUCCESS;
    }
    let root = args.root.clone().unwrap_or_else(|| {
        find_workspace_root(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")))
    });
    let analysis = if args.files.is_empty() {
        mqo_analyze::analyze_workspace(&root)
    } else {
        analyze_paths(&root, &args.files)
    };

    if args.json {
        print!("{}", analysis.to_json());
    } else {
        for f in analysis.unsuppressed() {
            println!("{}\n", f.render());
        }
        println!(
            "mqo-analyze: {} file(s), {} finding(s), {} suppressed (with reasons)",
            analysis.files_scanned,
            analysis.unsuppressed().len(),
            analysis.suppressed().len()
        );
    }
    let denied = analysis
        .unsuppressed()
        .iter()
        .filter(|f| args.deny.contains(&f.kind))
        .count();
    if denied > 0 {
        eprintln!("mqo-analyze: {denied} denied finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Analyzes an explicit file list, repo-relativizing paths against
/// `root` so crate/section scoping still applies.
fn analyze_paths(root: &Path, files: &[PathBuf]) -> Analysis {
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    for file in files {
        let canonical = file.canonicalize().unwrap_or_else(|_| file.clone());
        let rel = canonical
            .strip_prefix(root.canonicalize().unwrap_or_else(|_| root.to_path_buf()))
            .unwrap_or(&canonical)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(file) {
            Ok(src) => analysis.findings.extend(analyze_source(&rel, &src)),
            Err(e) => eprintln!("mqo-analyze: cannot read {}: {e}", file.display()),
        }
    }
    analysis
}
