//! The `divide-lint` CLI.
//!
//! ```text
//! divide-lint [--root DIR] [--quiet] [--format text|sarif] [--out FILE]
//! ```
//!
//! `--format sarif` additionally emits the findings as a SARIF 2.1.0
//! document — to stdout, or to `--out FILE` so CI can upload it as an
//! artifact while keeping the human summary on the console. Exit codes:
//! `0` clean, `1` any finding, `2` usage / configuration errors
//! (unreadable files, no workspace root).

use divide_lint::{analyze, discover_root, emit, Config};
use std::path::PathBuf;

struct Args {
    root: Option<PathBuf>,
    quiet: bool,
    sarif: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: divide-lint [--root DIR] [--quiet] [--format text|sarif] [--out FILE]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        root: None,
        quiet: false,
        sarif: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--quiet" | "-q" => args.quiet = true,
            "--format" => {
                args.sarif = match it.next().as_deref() {
                    Some("text") => false,
                    Some("sarif") => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    args
}

fn fail(msg: &str) -> ! {
    eprintln!("divide-lint: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let root = match args
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|d| discover_root(&d)))
    {
        Some(r) => r,
        None => fail("no workspace root found (run inside the workspace or pass --root)"),
    };
    let findings = analyze(&Config::workspace(root)).unwrap_or_else(|e| fail(&e));

    if args.sarif {
        let doc = emit::sarif(&findings);
        match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    fail(&format!("cannot write {}: {e}", path.display()));
                }
            }
            None => print!("{doc}"),
        }
    }

    for f in &findings {
        println!("{f}");
        if !args.quiet && !f.hint.is_empty() {
            println!("    hint: {}", f.hint);
        }
    }
    println!("divide-lint: {} findings", findings.len());
    std::process::exit(if findings.is_empty() { 0 } else { 1 });
}
