//! GitHub rejects a workflow file in which one mapping repeats a key,
//! and nothing else in an offline build would notice: the file is data,
//! not code. This test scans every YAML file under `.github/` for
//! duplicate sibling keys with a small indentation-based reader — enough
//! for the block-style YAML these files use (mappings, `- ` sequences,
//! `|`/`>` block scalars, comments), with no YAML dependency.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// One mapping being read: the column its keys start at and the keys
/// seen so far.
struct Scope {
    indent: usize,
    keys: HashSet<String>,
}

/// The mapping key a line starts with (`key:` or `key: value`), if any.
fn key_of(text: &str) -> Option<&str> {
    let end = text
        .find(": ")
        .or_else(|| text.strip_suffix(':').map(str::len))?;
    let key = text[..end].trim();
    let quoted = |q: char| key.len() >= 2 && key.starts_with(q) && key.ends_with(q);
    let plain = key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    (!key.is_empty() && (plain || quoted('"') || quoted('\''))).then_some(key)
}

/// Whether a key's value opens a block scalar (`|`, `>-`, `|+` ...).
fn opens_block(text: &str) -> bool {
    let value = text.split_once(": ").map_or("", |(_, v)| v);
    let value = value.split(" #").next().unwrap_or("").trim();
    value.starts_with('|') || value.starts_with('>')
}

/// Every duplicate sibling key in `source`, as `(line, key)` pairs with
/// 1-based line numbers.
fn duplicate_keys(source: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Lines indented deeper than this belong to a block scalar.
    let mut block: Option<usize> = None;
    for (number, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(parent) = block {
            if indent > parent {
                continue;
            }
            block = None;
        }
        // A `- ` item starts a new mapping two columns in.
        let (indent, text) = match trimmed.strip_prefix("- ") {
            Some(rest) => {
                scopes.retain(|s| s.indent <= indent);
                (indent + 2, rest.trim_start())
            }
            None if trimmed == "-" => {
                scopes.retain(|s| s.indent <= indent);
                continue;
            }
            None => (indent, trimmed),
        };
        let Some(key) = key_of(text) else {
            continue;
        };
        scopes.retain(|s| s.indent <= indent);
        match scopes.last_mut() {
            Some(scope) if scope.indent == indent => {
                if !scope.keys.insert(key.to_owned()) {
                    found.push((number + 1, key.to_owned()));
                }
            }
            _ => scopes.push(Scope {
                indent,
                keys: HashSet::from([key.to_owned()]),
            }),
        }
        if opens_block(text) {
            block = Some(indent);
        }
    }
    found
}

fn yaml_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            yaml_files(&path, out);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "yml" || ext == "yaml")
        {
            out.push(path);
        }
    }
}

#[test]
fn github_yaml_files_have_no_duplicate_keys() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github");
    let mut files = Vec::new();
    yaml_files(&root, &mut files);
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("workflows/ci.yml")),
        "no workflow files found under {}",
        root.display()
    );
    let mut problems = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable YAML file");
        for (line, key) in duplicate_keys(&source) {
            problems.push(format!("{}:{line}: duplicate key {key:?}", file.display()));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_scanner_finds_duplicates_only_among_siblings() {
    let duplicated = "\
jobs:
  test:
    steps:
      - name: Rust setup
        uses: ./setup
        with:
          cache-key: release
        with:
          components: clippy
";
    assert_eq!(duplicate_keys(duplicated), vec![(8, "with".to_owned())]);

    let clean = "\
on:
  push:
    branches: [main]
jobs:
  a:
    steps:
      - name: one
        with:
          name: nested keys are another mapping
      - name: two
        run: |
          name: lines of a block scalar are not keys
          run: either
  b:
    steps:
      - name: one
";
    assert!(duplicate_keys(clean).is_empty());

    let top_level = "name: CI\non:\n  push:\nname: again\n";
    assert_eq!(duplicate_keys(top_level), vec![(4, "name".to_owned())]);
}
