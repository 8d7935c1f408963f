//! Architecture guards: machine-checked layering rules.
//!
//! The workspace is a strict DAG of layers (DESIGN.md "Crate map"):
//! algorithm crates (`dsp`, `rocket`, `ml`) must never depend on the
//! environment crates (`sim`, `device`), the decision core must stay
//! I/O-free so it can run on a watch, and leaf utility crates
//! (`par`, `obs`) must stay dependency-free. Those rules only hold as
//! long as nobody adds one line to a `Cargo.toml` — so this crate pins
//! them as tests, run by the CI `guards-replay` lane.
//!
//! Three checks:
//!
//! * **Layer DAG** — each crate's *runtime* `[dependencies]` on other
//!   workspace crates must be a subset of its allow-list in
//!   [`layer_rules`]; the induced graph must be acyclic. Crates not in
//!   the rule table fail closed (an unknown crate is a violation, not
//!   a pass).
//! * **I/O ban** — sources of the pure layers ([`IO_BANNED_CRATES`]:
//!   `core`, `dsp`, `rocket`, `ml`) must not mention `std::fs`,
//!   `std::net` or `std::process`, even in comments: the token scan is
//!   deliberately blunt so it cannot be fooled by cfg-gating.
//! * **No external crates** — no manifest names a dependency outside
//!   the workspace (anything not `p2auth*`), in any dependency table,
//!   and `Cargo.lock` has no `source =` line: everything builds from
//!   this tree, offline.
//! * **One build** — no manifest declares a `[features]` table, sets
//!   `features`/`default-features` on a dependency or gates a target
//!   on `required-features`, and no source outside this crate gates
//!   code on `cfg(feature …)`: every build is the one tier-1 tests.
//! * **One CRC** — `fn crc32` and its polynomial live only in
//!   [`CRC32_HOME`].
//!
//! The manifest parser is a ~60-line line-oriented scanner, not a TOML
//! implementation: it only needs section headers and dependency keys,
//! and a parser bug fails toward *more* reported dependencies, which
//! fails the guard loudly instead of silently passing. Every check is
//! exercised against known-bad fixtures in `tests/fixtures/`, so the
//! guard itself is guarded against rotting into a tautology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

/// Crates whose sources must not touch process-level I/O, with the
/// banned tokens. The decision pipeline has to be runnable on an
/// embedded target and fully deterministic under replay; filesystem,
/// network or subprocess access anywhere under these crates breaks
/// both.
pub const IO_BANNED_CRATES: &[&str] = &["core", "dsp", "rocket", "ml", "obs"];

/// Tokens that constitute process-level I/O.
pub const IO_DENYLIST: &[&str] = &["std::fs", "std::net", "std::process"];

/// Source files inside [`IO_BANNED_CRATES`] that are *allowed* to
/// touch the filesystem, as `crates/`-relative suffixes. Kept to the
/// absolute minimum: the observability crate is banned as a whole (its
/// metrics/event/SLO layers must stay replay-pure), and only its
/// durable shard-persistence module may write. Adding a path here is a
/// reviewed architecture decision, not a convenience.
#[must_use]
pub fn io_allowlist() -> &'static [&'static str] {
    &["obs/src/persist.rs"]
}

/// Whether `path` is an allow-listed exception to the I/O ban. The
/// comparison is on `/`-normalized path suffixes so it holds from any
/// working directory and on any separator.
#[must_use]
pub fn io_allowed(path: &Path) -> bool {
    let normalized = path
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/");
    io_allowlist()
        .iter()
        .any(|allowed| normalized.ends_with(&format!("crates/{allowed}")))
}

/// The allowed *runtime* workspace dependencies of every crate, i.e.
/// the layer DAG. `dev-dependencies` are exempt: tests may reach
/// across layers.
///
/// Fail-closed in both directions: a crate missing from this table is
/// an error, and a listed crate depending on anything not in its row
/// is an error.
#[must_use]
pub fn layer_rules() -> &'static [(&'static str, &'static [&'static str])] {
    &[
        // Leaf utilities: no workspace dependencies at all.
        ("p2auth-rng", &[]),
        ("p2auth-par", &[]),
        ("p2auth-obs", &[]),
        ("p2auth-guards", &[]),
        // Algorithm layers: never sim, never device, never core.
        ("p2auth-dsp", &[]),
        ("p2auth-rocket", &["p2auth-rng", "p2auth-par", "p2auth-obs"]),
        (
            "p2auth-ml",
            &["p2auth-rng", "p2auth-dsp", "p2auth-par", "p2auth-obs"],
        ),
        // The decision core sits on the algorithm layers only.
        (
            "p2auth-core",
            &[
                "p2auth-dsp",
                "p2auth-par",
                "p2auth-rocket",
                "p2auth-ml",
                "p2auth-obs",
            ],
        ),
        // Environment layers sit on core, never on each other's guts.
        (
            "p2auth-sim",
            &["p2auth-rng", "p2auth-dsp", "p2auth-core", "p2auth-obs"],
        ),
        (
            "p2auth-device",
            &["p2auth-rng", "p2auth-core", "p2auth-obs"],
        ),
        (
            "p2auth-baseline",
            &[
                "p2auth-dsp",
                "p2auth-ml",
                "p2auth-rocket",
                "p2auth-core",
                "p2auth-obs",
            ],
        ),
        // The oracle harness sees only the kernels it checks.
        ("p2auth-verify", &["p2auth-rng", "p2auth-dsp"]),
        // The serving layer sits above device (sessions) and sim (the
        // fleet's traffic generator), never above the CLI or bench.
        (
            "p2auth-server",
            &[
                "p2auth-core",
                "p2auth-device",
                "p2auth-sim",
                "p2auth-par",
                "p2auth-obs",
            ],
        ),
        // Top-of-stack consumers.
        (
            "p2auth-bench",
            &[
                "p2auth-rng",
                "p2auth-dsp",
                "p2auth-par",
                "p2auth-rocket",
                "p2auth-ml",
                "p2auth-sim",
                "p2auth-device",
                "p2auth-core",
                "p2auth-baseline",
                "p2auth-obs",
                "p2auth-server",
            ],
        ),
        (
            "p2auth-cli",
            &[
                "p2auth-core",
                "p2auth-sim",
                "p2auth-device",
                "p2auth-obs",
                "p2auth-server",
            ],
        ),
    ]
}

/// A crate manifest reduced to what the guard cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// `package.name`.
    pub name: String,
    /// Workspace (`p2auth-*`) crates named under runtime
    /// `[dependencies]` (including `optional` and
    /// `[dependencies.<name>]` forms; `dev-dependencies` and
    /// `build-dependencies` excluded).
    pub runtime_deps: Vec<String>,
    /// Non-workspace crates named in any dependency table: runtime,
    /// dev, build, target-specific or `[workspace.dependencies]`.
    pub external_deps: Vec<String>,
}

fn section_of(line: &str) -> Option<&str> {
    // A header may carry a trailing `# comment`.
    let t = line.split('#').next().unwrap_or(line).trim();
    let inner = t.strip_prefix('[')?.strip_suffix(']')?;
    Some(inner.trim_matches(|c| c == '[' || c == ']'))
}

fn key_of(line: &str) -> Option<&str> {
    let t = line.trim();
    if t.starts_with('#') {
        return None;
    }
    let (key, _) = t.split_once('=')?;
    // `p2auth-dsp.workspace = true` is a dotted key for `p2auth-dsp`.
    let key = key.trim().trim_matches('"');
    Some(key.split('.').next().unwrap_or(key))
}

/// Parses the subset of TOML the guard needs from a `Cargo.toml`.
///
/// Unknown constructs err on the side of *reporting* a dependency:
/// a false positive fails the guard visibly, a false negative would
/// let a layer violation through.
#[must_use]
pub fn parse_manifest(text: &str) -> Manifest {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut external = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        if let Some(s) = section_of(line) {
            section = s.to_string();
            // `[dependencies.p2auth-x]` declares a dependency in the
            // header itself.
            if let Some(dep) = section.strip_prefix("dependencies.") {
                if dep.starts_with("p2auth-") {
                    deps.push(dep.to_string());
                }
            }
            if let Some((table, dep)) = section.rsplit_once('.') {
                if is_dependency_table(table) && !dep.starts_with("p2auth") {
                    external.push(dep.to_string());
                }
            }
            continue;
        }
        if is_dependency_table(&section) {
            if let Some(key) = key_of(line) {
                if !key.starts_with("p2auth") {
                    external.push(key.to_string());
                }
            }
        }
        match section.as_str() {
            "package" if key_of(line) == Some("name") => {
                if let Some((_, v)) = line.split_once('=') {
                    name = v.trim().trim_matches('"').to_string();
                }
            }
            "dependencies" => {
                if let Some(key) = key_of(line) {
                    if key.starts_with("p2auth-") {
                        deps.push(key.to_string());
                    }
                }
            }
            _ => {}
        }
    }
    deps.sort();
    deps.dedup();
    external.sort();
    external.dedup();
    Manifest {
        name,
        runtime_deps: deps,
        external_deps: external,
    }
}

/// Whether a section header names a dependency table:
/// `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]` or `[target.<cfg>.dependencies]` (and
/// the dev/build forms of the last).
fn is_dependency_table(section: &str) -> bool {
    let last = section.rsplit('.').next().unwrap_or(section);
    matches!(
        last,
        "dependencies" | "dev-dependencies" | "build-dependencies"
    )
}

/// The `name = ...` of every `Cargo.lock` package with a `source =`
/// line, i.e. every package not built from this tree. A `source` line
/// before any package name is reported as `"?"`.
#[must_use]
pub fn lockfile_sourced_packages(lock: &str) -> Vec<String> {
    let mut name = None;
    let mut sourced = Vec::new();
    for line in lock.lines().map(str::trim) {
        if line == "[[package]]" {
            name = None;
        } else if let Some(v) = line.strip_prefix("name = ") {
            name = Some(v.trim_matches('"').to_string());
        } else if line.starts_with("source = ") || line.starts_with("source=") {
            sourced.push(name.clone().unwrap_or_else(|| "?".to_string()));
        }
    }
    sourced
}

/// Checks one manifest against the layer rules, returning
/// human-readable violations (empty means compliant).
#[must_use]
pub fn check_layers(manifest: &Manifest, rules: &[(&str, &[&str])]) -> Vec<String> {
    let Some((_, allowed)) = rules.iter().find(|(n, _)| *n == manifest.name) else {
        return vec![format!(
            "crate {:?} has no layer rule; add it to p2auth-guards::layer_rules",
            manifest.name
        )];
    };
    manifest
        .runtime_deps
        .iter()
        .filter(|d| !allowed.contains(&d.as_str()))
        .map(|d| {
            format!(
                "forbidden layer edge: {} -> {} (allowed: {:?})",
                manifest.name, d, allowed
            )
        })
        .collect()
}

/// Checks that the dependency edges over the rule table form a DAG.
/// Returns a cycle as a crate-name path if one exists.
#[must_use]
pub fn find_cycle(edges: &[(String, String)]) -> Option<Vec<String>> {
    fn visit(
        node: &str,
        edges: &[(String, String)],
        path: &mut Vec<String>,
        done: &mut Vec<String>,
    ) -> bool {
        if done.iter().any(|d| d == node) {
            return false;
        }
        if let Some(pos) = path.iter().position(|p| p == node) {
            path.drain(..pos);
            path.push(node.to_string());
            return true;
        }
        path.push(node.to_string());
        for (from, to) in edges {
            if from == node && visit(to, edges, path, done) {
                return true;
            }
        }
        path.pop();
        done.push(node.to_string());
        false
    }
    let mut done = Vec::new();
    for (from, _) in edges {
        let mut path = Vec::new();
        if visit(from, edges, &mut path, &mut done) {
            return Some(path);
        }
    }
    None
}

/// Scans one source text for banned I/O tokens, returning
/// `(line_number, token)` hits (1-indexed).
#[must_use]
pub fn scan_source_for_io(text: &str) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for token in IO_DENYLIST {
            if line.contains(token) {
                hits.push((i + 1, *token));
            }
        }
    }
    hits
}

/// Cargo-feature machinery in one manifest, as `(line, what)` hits
/// (1-indexed): a `[features]` table, a `features` or
/// `default-features` key on any dependency (inline, dotted or in a
/// `[dependencies.<name>]` table), or a `required-features` gate.
#[must_use]
pub fn scan_manifest_for_features(text: &str) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    let mut section = String::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(s) = section_of(line) {
            section = s.to_string();
            if section == "features" {
                hits.push((i + 1, "[features] table".to_string()));
            }
            continue;
        }
        let t = line.trim();
        let Some((key, value)) = t.split_once('=').filter(|_| !t.starts_with('#')) else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let subkey = key.rsplit('.').next().unwrap_or(key);
        let in_dep_table = is_dependency_table(&section);
        let in_dep_header = section
            .rsplit_once('.')
            .is_some_and(|(table, _)| is_dependency_table(table));
        let feature_key = matches!(subkey, "features" | "default-features");
        if subkey == "required-features"
            || (in_dep_table && (feature_key || value.contains("features")))
            || (in_dep_header && feature_key)
        {
            hits.push((i + 1, format!("{key} in [{section}]")));
        }
    }
    hits
}

/// Lines (1-indexed) of one source that gate code on a cargo feature:
/// a `feature = "…"` predicate on a line naming `cfg`, so
/// `cfg(feature …)`, `cfg!(feature …)` and predicates nested in
/// `all`/`any`/`not` or `cfg_attr` all count.
#[must_use]
pub fn scan_source_for_feature_cfg(text: &str) -> Vec<usize> {
    let names_feature_predicate = |line: &str| {
        line.match_indices("feature").any(|(at, word)| {
            let glued = line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let rest = line[at + word.len()..].trim_start();
            !glued && rest.starts_with('=') && !rest.starts_with("==")
        })
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("cfg") && names_feature_predicate(l))
        .map(|(i, _)| i + 1)
        .collect()
}

/// The one source file allowed to implement CRC-32, as a
/// `crates/`-relative suffix.
pub const CRC32_HOME: &str = "obs/src/persist.rs";

/// Lines (1-indexed) of one source that implement a CRC-32: a
/// `fn crc32(` definition or the reflected IEEE polynomial
/// `0xEDB88320`, in any case and digit grouping.
#[must_use]
pub fn scan_source_for_crc32(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.to_ascii_lowercase().replace('_', "");
            l.contains("fn crc32(") || l.contains("0xedb88320")
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` under
/// cargo, else the nearest ancestor of the current directory holding a
/// `crates/` directory and a workspace `Cargo.toml` (so the guard also
/// runs under a bare `rustc` test binary).
#[must_use]
pub fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&dir);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("crates").is_dir() {
                return root.to_path_buf();
            }
        }
    }
    let mut dir = std::env::current_dir().expect("current dir");
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        assert!(dir.pop(), "workspace root not found above current dir");
    }
}

/// Every `crates/*/Cargo.toml` in the workspace, sorted by path.
#[must_use]
pub fn workspace_manifests(root: &Path) -> Vec<(PathBuf, Manifest)> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).unwrap_or_else(|e| panic!("read {}: {e}", crates.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        if path.is_file() {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            out.push((path, parse_manifest(&text)));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Every workspace source the one-build and one-CRC checks scan: the
/// facade's `src/`, `tests/` and `examples/` and every crate but
/// `guards` (whose checks and fixtures name the patterns), sorted.
#[must_use]
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = ["src", "tests", "examples"]
        .iter()
        .flat_map(|d| rust_sources(&root.join(d)))
        .collect();
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).unwrap_or_else(|e| panic!("read {}: {e}", crates.display()));
    for entry in entries {
        let dir = entry.expect("dir entry").path();
        if !dir.ends_with("guards") {
            out.extend(rust_sources(&dir));
        }
    }
    out.sort();
    out
}

/// Every `.rs` file under a directory, recursively, sorted.
#[must_use]
pub fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let p = entry.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_table_dependencies() {
        let m = parse_manifest(
            r#"
[package]
name = "p2auth-demo"

[dependencies]
p2auth-dsp.workspace = true
p2auth-rocket = { workspace = true, optional = true }
rand = "0.8"

[dependencies.p2auth-ml]
workspace = true

[dev-dependencies]
p2auth-sim.workspace = true
"#,
        );
        assert_eq!(m.name, "p2auth-demo");
        assert_eq!(m.runtime_deps, ["p2auth-dsp", "p2auth-ml", "p2auth-rocket"]);
        assert_eq!(m.external_deps, ["rand"]);
    }

    #[test]
    fn external_deps_are_found_in_every_table() {
        let m = parse_manifest(
            r#"
[workspace.dependencies]
serde = "1"
p2auth-dsp = { path = "crates/dsp" }

[dev-dependencies]
proptest.workspace = true

[build-dependencies.cc]
version = "1"

[target.'cfg(unix)'.dependencies]
libc = "0.2"

[features]
std = []
"#,
        );
        assert_eq!(m.external_deps, ["cc", "libc", "proptest", "serde"]);
    }

    #[test]
    fn lockfile_sources_are_reported_by_package() {
        let lock = "version = 3\n\n[[package]]\nname = \"p2auth\"\nversion = \"0.1.0\"\n\n\
                    [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        assert_eq!(lockfile_sourced_packages(lock), ["rand"]);
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let m = parse_manifest(
            "[package]\nname = \"p2auth-x\"\n[dev-dependencies]\np2auth-sim.workspace = true\n",
        );
        assert!(m.runtime_deps.is_empty());
    }

    #[test]
    fn unknown_crate_fails_closed() {
        let m = Manifest {
            name: "p2auth-rogue".to_string(),
            runtime_deps: vec![],
            external_deps: vec![],
        };
        assert_eq!(check_layers(&m, layer_rules()).len(), 1);
    }

    #[test]
    fn cycle_is_found() {
        let e = |a: &str, b: &str| (a.to_string(), b.to_string());
        let edges = vec![e("a", "b"), e("b", "c"), e("c", "a"), e("d", "a")];
        let cycle = find_cycle(&edges).expect("cycle exists");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4, "{cycle:?}");
        assert!(find_cycle(&[e("a", "b"), e("b", "c")]).is_none());
    }

    #[test]
    fn io_scan_reports_line_numbers() {
        let hits = scan_source_for_io("fn ok() {}\nuse std::fs;\nlet x = std::net::TcpStream;\n");
        assert_eq!(hits, vec![(2, "std::fs"), (3, "std::net")]);
    }

    #[test]
    fn io_allowlist_exempts_only_the_persistence_module() {
        assert!(io_allowed(Path::new("/repo/crates/obs/src/persist.rs")));
        assert!(io_allowed(Path::new("crates/obs/src/persist.rs")));
        // Neither the rest of the obs crate, nor a same-named file in
        // another banned crate, nor a nested impostor gets through.
        assert!(!io_allowed(Path::new("crates/obs/src/metrics.rs")));
        assert!(!io_allowed(Path::new("crates/core/src/persist.rs")));
        assert!(!io_allowed(Path::new("crates/obs/src/sub/persist.rs")));
    }
}
