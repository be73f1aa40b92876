//! Records the compiler version and, when the source is a git checkout,
//! its revision, so every benchmark result can name what built it.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only the repository this package sits in counts, not some git
    // checkout that happens to enclose it.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = root.canonicalize().unwrap_or(root);
    let root_str = root.to_str().unwrap_or(".");
    let toplevel = run("git", &["-C", root_str, "rev-parse", "--show-toplevel"]);
    let own_repo = toplevel.is_some_and(|t| std::path::Path::new(&t) == root);
    let rev = own_repo
        .then(|| run("git", &["-C", root_str, "rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
}
