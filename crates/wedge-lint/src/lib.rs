//! # wedge-lint
//!
//! A workspace-aware static analyzer for the WedgeChain repo, plus
//! the machine-checked wire-ABI lockfile (`WIRE_ABI.lock`).
//!
//! WedgeChain's lazy-trust guarantee only holds when every runtime
//! derives byte-identical digests, certifications, and verdicts —
//! and nearly every bug this repo has shipped was a *policy*
//! violation invisible to the compiler: nondeterministic `HashMap`
//! iteration in gossip, a `let _ =` that swallowed `write_frame`
//! errors and wedged a partition, wire tags whose renumbering would
//! be a silent ABI break. This crate enforces those policies by
//! machine:
//!
//! | rule | invariant |
//! |---|---|
//! | `wire-abi` | envelope tags are append-only, pinned by `WIRE_ABI.lock` |
//! | `sans-io-purity` | engines/protocol layers take time as an argument, never do IO |
//! | `nondet-iter` | no order-leaking `HashMap`/`HashSet` iteration in protocol crates |
//! | `discarded-result` | no `let _ =` on send/write/shutdown in the transports |
//! | `no-panic-path` | no unwrap/expect/panic in engines and service threads |
//! | `bounded-channels` | `sync_channel` only; unbounded queues hide overload |
//!
//! Deliberate exceptions are annotated in place:
//! `// lint:allow(<rule>): <reason>` — the reason is mandatory and
//! the annotation grammar itself is checked (`lint-annotation`).
//!
//! Three ways to run it: `cargo run -p wedge-lint` (human output),
//! `cargo run -p wedge-lint -- --write-abi` (regenerate the
//! lockfile), and the root crate's `tests/lint.rs` (so plain
//! `cargo test` covers the whole workspace).
#![forbid(unsafe_code)]

pub mod abi;
pub mod lexer;
pub mod rules;

pub use rules::Violation;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned.
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "bench-json"];

/// Lints one file's source text under its workspace-relative path.
/// This is the unit the fixture tests drive: rule scoping comes from
/// `rel_path`, so tests can fabricate engine/transport paths.
pub fn lint_file_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let file = lexer::lex(rel_path, source);
    rules::lint_file(&file)
}

/// Walks the workspace rooted at `root`, lints every `.rs` file, and
/// checks the wire-ABI lockfile. Violations are sorted by file/line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = rel_path(root, &path);
        let source = fs::read_to_string(&path)?;
        violations.extend(lint_file_source(&rel, &source));
    }
    violations.extend(check_abi(root)?);
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// Extracts the live wire ABI from source under `root`.
pub fn current_abi(root: &Path) -> io::Result<Result<abi::WireAbi, String>> {
    let messages = fs::read_to_string(root.join(abi::MESSAGES_PATH))?;
    let frame = fs::read_to_string(root.join(abi::FRAME_PATH))?;
    Ok(abi::extract(&messages, &frame))
}

/// The `wire-abi` rule: committed lockfile vs live source.
fn check_abi(root: &Path) -> io::Result<Vec<Violation>> {
    let current = match current_abi(root)? {
        Ok(abi) => abi,
        Err(e) => {
            return Ok(vec![Violation {
                file: abi::MESSAGES_PATH.to_string(),
                line: 1,
                rule: "wire-abi",
                msg: format!("cannot extract wire ABI from source: {e}"),
            }]);
        }
    };
    let lock_path = root.join(abi::LOCK_PATH);
    let committed = match fs::read_to_string(&lock_path) {
        Ok(text) => match abi::WireAbi::parse(&text) {
            Ok(abi) => abi,
            Err(e) => {
                return Ok(vec![Violation {
                    file: abi::LOCK_PATH.to_string(),
                    line: 1,
                    rule: "wire-abi",
                    msg: format!("cannot parse lockfile: {e}"),
                }]);
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(vec![Violation {
                file: abi::LOCK_PATH.to_string(),
                line: 1,
                rule: "wire-abi",
                msg: "WIRE_ABI.lock missing — generate it: cargo run -p wedge-lint -- --write-abi"
                    .to_string(),
            }]);
        }
        Err(e) => return Err(e),
    };
    Ok(abi::check(&committed, &current))
}

/// Regenerates `WIRE_ABI.lock` from source. Refuses to *remove* or
/// rename locked tags — append-only holds even for the writer; a
/// genuinely retired variant keeps its tag and name in both places.
pub fn write_abi(root: &Path) -> io::Result<Result<String, String>> {
    let current = match current_abi(root)? {
        Ok(abi) => abi,
        Err(e) => return Ok(Err(e)),
    };
    let lock_path = root.join(abi::LOCK_PATH);
    if let Ok(text) = fs::read_to_string(&lock_path) {
        if let Ok(committed) = abi::WireAbi::parse(&text) {
            for (tag, name, _) in &committed.tags {
                match current.tags.iter().find(|(t, _, _)| t == tag) {
                    None => {
                        return Ok(Err(format!(
                            "refusing to drop locked tag {tag} ({name}) — tags are \
                             append-only; restore the variant or keep its tag reserved"
                        )));
                    }
                    Some((_, live, _)) if live != name => {
                        return Ok(Err(format!(
                            "refusing to rename locked tag {tag}: {name} -> {live} — a \
                             tag's meaning is frozen at first ship"
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    let rendered = current.render();
    fs::write(&lock_path, &rendered)?;
    Ok(Ok(rendered))
}

/// Finds the workspace root by walking up from `start` to the first
/// `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> =
            fs::read_dir(&dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
