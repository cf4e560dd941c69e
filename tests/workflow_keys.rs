//! GitHub rejects a workflow file in which one mapping repeats a key,
//! and nothing else in an offline build would notice: the file is data,
//! not code. This test scans every YAML file under `.github/` for
//! duplicate sibling keys with a small indentation-based reader — enough
//! for the block-style YAML these files use (mappings, `- ` sequences,
//! `|`/`>` block scalars, comments), with no YAML dependency.
//!
//! A second check keeps `cargo --locked` steps runnable: `--locked`
//! fails in a fresh checkout unless the manifest's `Cargo.lock` is
//! committed, so no root `.gitignore` rule may ignore that lock file.
//!
//! A third check keeps every step pointed at code that exists: each
//! `--bin NAME` and `./target/release/NAME` names a binary of some
//! manifest in the repository, and each script a step runs
//! (`python3 perfbench/run.py`, `./path`) is a file of the repository.

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

/// Every command line of `source` with the 1-based number of its first
/// line: backslash-continued lines are joined and comment lines skipped.
fn command_lines(source: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let mut command = String::new();
    let mut start = 0;
    for (number, line) in source.lines().enumerate() {
        if line.trim_start().starts_with('#') {
            continue;
        }
        if command.is_empty() {
            start = number + 1;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => {
                command.push_str(head);
                command.push(' ');
            }
            None => {
                command.push_str(line);
                found.push((start, std::mem::take(&mut command)));
            }
        }
    }
    found
}

/// The manifest directory (relative to the repository root, `""` for
/// the root) of every `cargo` command passing `--locked` in `source`,
/// with its 1-based line number.
fn locked_manifest_dirs(source: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (start, command) in command_lines(source) {
        let words: Vec<&str> = command.split_whitespace().collect();
        if let Some(cargo) = words.iter().position(|&w| w == "cargo") {
            let args = &words[cargo..];
            if args.contains(&"--locked") {
                let manifest = args.iter().enumerate().find_map(|(i, &w)| {
                    match w.strip_prefix("--manifest-path")? {
                        "" => args.get(i + 1).copied(),
                        joined => joined.strip_prefix('='),
                    }
                });
                let dir = manifest.map_or("", |m| {
                    let m = m.trim_start_matches("./");
                    m.trim_end_matches("Cargo.toml").trim_end_matches('/')
                });
                found.push((start, dir.to_owned()));
            }
        }
    }
    found
}

/// What a step needs the repository to provide.
#[derive(Debug, PartialEq)]
enum Needs {
    /// From `--bin NAME` or `./target/release/NAME`.
    Binary(String),
    /// A script run by `python3`/`python`/`bash`/`sh`, or a `./PATH`.
    Path(String),
}

/// Every binary and repository path the commands of `source` name, with
/// 1-based line numbers.
fn step_needs(source: &str) -> Vec<(usize, Needs)> {
    let mut found = Vec::new();
    for (line, command) in command_lines(source) {
        let words: Vec<&str> = command
            .split_whitespace()
            .map(|w| w.trim_matches(|c| matches!(c, '"' | '\'' | '(' | ')' | ';')))
            .collect();
        for (i, &word) in words.iter().enumerate() {
            let next = words.get(i + 1).copied().unwrap_or("");
            let need = if let Some(name) = word.strip_prefix("./target/release/") {
                Needs::Binary(name.to_owned())
            } else if word == "--bin" && !next.is_empty() {
                Needs::Binary(next.to_owned())
            } else if let Some(path) = word.strip_prefix("./") {
                Needs::Path(path.to_owned())
            } else if matches!(word, "python3" | "python" | "bash" | "sh")
                && !next.is_empty()
                && !next.starts_with(['-', '/', '$', '~', '<', '>'])
                && !next.starts_with("./")
            {
                Needs::Path(next.to_owned())
            } else {
                continue;
            };
            found.push((line, need));
        }
    }
    found
}

/// Adds every binary some manifest under `dir` builds: its `[[bin]]`
/// names, each `src/bin/NAME.rs`, and the package name when there is a
/// `src/main.rs`. Build output (`target`) and hidden directories are
/// skipped.
fn binaries_under(dir: &Path, names: &mut HashSet<String>) {
    if let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) {
        let has_main = dir.join("src/main.rs").is_file();
        let mut table = "";
        for line in toml.lines().map(str::trim) {
            if line.starts_with('[') {
                table = line;
            } else if let Some(("name", value)) = line.split_once('=').map(|(k, v)| (k.trim(), v)) {
                if table == "[[bin]]" || table == "[package]" && has_main {
                    names.insert(value.trim().trim_matches('"').to_owned());
                }
            }
        }
        for entry in std::fs::read_dir(dir.join("src/bin"))
            .into_iter()
            .flatten()
            .flatten()
        {
            if let Some(stem) = entry.file_name().to_string_lossy().strip_suffix(".rs") {
                names.insert(stem.to_owned());
            }
        }
    }
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.path().is_dir() && name != "target" && !name.starts_with('.') {
            binaries_under(&entry.path(), names);
        }
    }
}

/// `*` and `?` wildcard matching that never crosses a `/`.
fn glob(pattern: &[u8], text: &[u8]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            glob(&pattern[1..], text)
                || text.first().is_some_and(|&c| c != b'/') && glob(pattern, &text[1..])
        }
        (Some(b'?'), Some(&c)) if c != b'/' => glob(&pattern[1..], &text[1..]),
        (Some(&p), Some(&c)) if p == c => glob(&pattern[1..], &text[1..]),
        _ => false,
    }
}

/// Whether the `.gitignore` rule `rule` matches `path` (relative,
/// `/`-separated; `is_dir` for directories). Covers the rule forms a
/// root `.gitignore` uses: plain names matching at any depth, anchored
/// and multi-component paths, `*`/`?` wildcards and a trailing `/`
/// (`**` is not supported).
fn rule_matches(rule: &str, path: &str, is_dir: bool) -> bool {
    let (rule, dir_only) = match rule.strip_suffix('/') {
        Some(rule) => (rule, true),
        None => (rule, false),
    };
    if dir_only && !is_dir {
        return false;
    }
    // A leading or inner `/` anchors the rule at the root; otherwise it
    // matches the last path component at any depth.
    let anchored = rule.contains('/');
    let rule = rule.strip_prefix('/').unwrap_or(rule);
    let subject = if anchored {
        path
    } else {
        path.rsplit('/').next().unwrap_or(path)
    };
    glob(rule.as_bytes(), subject.as_bytes())
}

/// Whether `gitignore` ignores the file `path`: the file itself or one
/// of its directories matches a rule, and no later `!` rule re-includes
/// it (nothing re-includes a file inside an ignored directory).
fn is_ignored(gitignore: &str, path: &str) -> bool {
    let rules: Vec<&str> = gitignore
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let parts: Vec<&str> = path.split('/').collect();
    (1..=parts.len()).any(|depth| {
        let prefix = parts[..depth].join("/");
        let is_dir = depth < parts.len();
        let mut ignored = false;
        for rule in &rules {
            match rule.strip_prefix('!') {
                Some(negated) if rule_matches(negated, &prefix, is_dir) => ignored = false,
                None if rule_matches(rule, &prefix, is_dir) => ignored = true,
                _ => {}
            }
        }
        ignored
    })
}

#[test]
fn locked_cargo_steps_have_a_committable_lock_file() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let gitignore = std::fs::read_to_string(repo.join(".gitignore")).unwrap_or_default();
    let mut files = Vec::new();
    yaml_files(&repo.join(".github"), &mut files);
    files.sort();
    let mut steps = 0;
    let mut problems = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable YAML file");
        for (line, dir) in locked_manifest_dirs(&source) {
            steps += 1;
            let lock = Path::new(&dir).join("Cargo.lock");
            let lock = lock.to_string_lossy();
            if is_ignored(&gitignore, &lock) {
                problems.push(format!(
                    "{}:{line}: cargo --locked, but .gitignore ignores {lock}",
                    file.display()
                ));
            }
        }
    }
    assert!(steps > 0, "no cargo --locked steps found");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_lock_checker_reads_commands_and_ignore_rules() {
    let workflow = "\
      - run: cargo test --locked -q --workspace
      # cargo build --locked, in a comment
      - run: cargo test --release --manifest-path perfbench/Cargo.toml
      - run: |
          cargo build --locked --release \\
            --manifest-path tools/x/Cargo.toml
          cargo run --locked --manifest-path=./y/Cargo.toml
";
    assert_eq!(
        locked_manifest_dirs(workflow),
        vec![
            (1, String::new()),
            (5, "tools/x".to_owned()),
            (7, "y".to_owned())
        ]
    );

    let everywhere = "/target\nCargo.lock\n";
    assert!(is_ignored(everywhere, "Cargo.lock"));
    assert!(is_ignored(everywhere, "perfbench/Cargo.lock"));
    let anchored = "# lock files\n/perfbench/Cargo.lock\n/perfbench/target\n";
    assert!(!is_ignored(anchored, "Cargo.lock"));
    assert!(is_ignored(anchored, "perfbench/Cargo.lock"));
    assert!(is_ignored("/perfbench/\n", "perfbench/Cargo.lock"));
    assert!(!is_ignored("Cargo.lock/\n", "Cargo.lock"));
    assert!(is_ignored("*.lock\n", "a/Cargo.lock"));
    assert!(!is_ignored("*.lock\n!Cargo.lock\n", "Cargo.lock"));
    assert!(is_ignored("/a\n!a/Cargo.lock\n", "a/Cargo.lock"));
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

#[test]
fn ci_steps_name_binaries_and_paths_that_exist() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut binaries = HashSet::new();
    binaries_under(repo, &mut binaries);
    // A `[[bin]]` entry, a `src/bin/NAME.rs` and a `src/main.rs`.
    for expected in ["bench_diff", "table1", "perfbench"] {
        assert!(binaries.contains(expected), "binary {expected} not found");
    }
    let mut files = Vec::new();
    yaml_files(&repo.join(".github"), &mut files);
    let mut needs = 0;
    let mut problems = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable YAML file");
        for (line, need) in step_needs(&source) {
            needs += 1;
            let exists = match &need {
                Needs::Binary(name) => binaries.contains(name),
                Needs::Path(path) => repo.join(path).exists(),
            };
            if !exists {
                problems.push(format!("{}:{line}: no such {need:?}", file.display()));
            }
        }
    }
    assert!(needs > 0, "no binaries or scripts found in the workflows");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_step_reader_finds_binaries_and_scripts() {
    let workflow = "\
      - uses: ./.github/actions/rust-setup
      # cargo run --bin in_a_comment
      - run: |
          cargo build --release \\
            -p eds-bench --bin table1
          ./target/release/eds-serve < /tmp/requests.jsonl
          (cd \"$1\" && python3 perfbench/run.py --seed 1) > /tmp/out
";
    assert_eq!(
        step_needs(workflow),
        vec![
            (1, Needs::Path(".github/actions/rust-setup".to_owned())),
            (4, Needs::Binary("table1".to_owned())),
            (6, Needs::Binary("eds-serve".to_owned())),
            (7, Needs::Path("perfbench/run.py".to_owned())),
        ]
    );
}
