//! Records build provenance for the benchmark's result lines: the rustc
//! version, the source commit (`unknown` outside a git repository) and
//! a digest of the measured sources, which identifies the code even in a
//! checkout without history.

use std::path::{Path, PathBuf};
use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "fixtures" {
                collect(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// FNV-1a over the sorted relative paths and contents of every Rust
/// source and manifest of the library crates and this package.
fn source_digest(package: &Path) -> String {
    let root = package.parent().unwrap_or(package);
    let mut files = Vec::new();
    for dir in [root.join("crates"), package.join("src")] {
        collect(&dir, &mut files);
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&[0]).chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn main() {
    let package = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={}", source_digest(&package));
    println!("cargo:rerun-if-changed=build.rs");
}
