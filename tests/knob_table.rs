//! One knob table: every `VSNOOP_*`/`SOAK_*` environment knob is named
//! only in `crates/core/src/knob.rs`, and OBSERVABILITY.md documents
//! exactly the knobs that module reads.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIXES: [&str; 2] = ["\"VSNOOP_", "\"SOAK_"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every knob-name string literal in `text` (the name without quotes).
fn knob_literals(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for prefix in PREFIXES {
        for (at, _) in text.match_indices(prefix) {
            let name: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            names.insert(name);
        }
    }
    names
}

#[test]
fn knob_names_are_spelled_only_in_the_knob_module() {
    let knob_rs = root().join("crates/core/src/knob.rs");
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.contains(&knob_rs), "scan missed knob.rs");
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| **f != knob_rs)
        .filter_map(|f| {
            let found = knob_literals(&std::fs::read_to_string(f).unwrap());
            (!found.is_empty()).then(|| format!("{}: {found:?}", f.display()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "read these knobs through vsnoop::knob instead: {offenders:#?}"
    );

    let in_module = knob_literals(&std::fs::read_to_string(&knob_rs).unwrap());
    let listed: BTreeSet<String> = vsnoop::knob::NAMES.iter().map(|n| n.to_string()).collect();
    assert_eq!(in_module, listed, "knob.rs names a knob NAMES leaves out");
}

#[test]
fn observability_table_documents_exactly_the_knobs() {
    let doc = std::fs::read_to_string(root().join("OBSERVABILITY.md")).unwrap();
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Environment variables"))
        .expect("OBSERVABILITY.md has an \"Environment variables\" section");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    assert_eq!(documented, vsnoop::knob::NAMES);
}
