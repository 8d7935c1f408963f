//! The guard proper: every workspace manifest obeys the layer DAG,
//! the DAG is acyclic, the pure layers are I/O-free, nothing outside
//! the tree is a dependency, there is one build and one CRC — and the
//! checks themselves still catch known-bad fixtures.

use p2auth_guards::{
    check_layers, find_cycle, io_allowed, io_allowlist, layer_rules, lockfile_sourced_packages,
    parse_manifest, rust_sources, scan_manifest_for_features, scan_source_for_crc32,
    scan_source_for_feature_cfg, scan_source_for_io, workspace_manifests, workspace_root,
    workspace_sources, CRC32_HOME, IO_BANNED_CRATES,
};

#[test]
fn every_crate_obeys_the_layer_dag() {
    let root = workspace_root();
    let manifests = workspace_manifests(&root);
    assert!(
        manifests.len() >= 13,
        "expected the full workspace, found {} manifests",
        manifests.len()
    );
    let mut violations = Vec::new();
    for (path, m) in &manifests {
        for v in check_layers(m, layer_rules()) {
            violations.push(format!("{}: {v}", path.display()));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn the_layer_graph_is_acyclic() {
    let root = workspace_root();
    let mut edges = Vec::new();
    for (_, m) in workspace_manifests(&root) {
        for d in &m.runtime_deps {
            edges.push((m.name.clone(), d.clone()));
        }
    }
    assert!(!edges.is_empty(), "no dependency edges found");
    if let Some(cycle) = find_cycle(&edges) {
        panic!("dependency cycle: {}", cycle.join(" -> "));
    }
}

#[test]
fn pure_layers_never_touch_io() {
    let root = workspace_root();
    let mut hits = Vec::new();
    let mut scanned = 0;
    let mut allowed_seen = 0;
    for krate in IO_BANNED_CRATES {
        for src in rust_sources(&root.join("crates").join(krate).join("src")) {
            if io_allowed(&src) {
                allowed_seen += 1;
                continue;
            }
            scanned += 1;
            let text = std::fs::read_to_string(&src)
                .unwrap_or_else(|e| panic!("read {}: {e}", src.display()));
            for (line, token) in scan_source_for_io(&text) {
                hits.push(format!("{}:{line}: {token}", src.display()));
            }
        }
    }
    assert!(scanned > 10, "only {scanned} sources scanned — wrong root?");
    assert_eq!(
        allowed_seen,
        io_allowlist().len(),
        "allow-listed files missing from the tree — stale allowlist entry?"
    );
    assert!(hits.is_empty(), "I/O in pure layers:\n{}", hits.join("\n"));
}

#[test]
fn guard_catches_the_forbidden_dependency_fixture() {
    let bad = parse_manifest(include_str!("fixtures/forbidden_dep.toml"));
    assert_eq!(bad.name, "p2auth-dsp");
    assert_eq!(bad.runtime_deps, ["p2auth-device"]);
    let violations = check_layers(&bad, layer_rules());
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains("p2auth-dsp -> p2auth-device"),
        "{violations:?}"
    );
}

#[test]
fn guard_catches_the_forbidden_io_fixture() {
    let hits = scan_source_for_io(include_str!("fixtures/forbidden_io.rs"));
    let tokens: Vec<_> = hits.iter().map(|(_, t)| *t).collect();
    assert!(tokens.contains(&"std::net"), "{hits:?}");
    assert!(tokens.contains(&"std::fs"), "{hits:?}");
}

#[test]
fn guard_catches_the_forbidden_io_obs_fixture() {
    // A filesystem escape from the obs crate outside `persist.rs`
    // must be flagged by the scan AND not rescued by the allowlist.
    let hits = scan_source_for_io(include_str!("fixtures/forbidden_io_obs.rs"));
    assert!(
        hits.iter().any(|(_, t)| *t == "std::fs"),
        "scan missed the fixture: {hits:?}"
    );
    assert!(!io_allowed(std::path::Path::new(
        "crates/obs/src/exporter_escape.rs"
    )));
    assert!(
        !io_allowed(std::path::Path::new(
            "crates/guards/tests/fixtures/forbidden_io_obs.rs"
        )),
        "the fixture itself must not be allow-listed"
    );
}

#[test]
fn rule_table_covers_exactly_the_workspace() {
    // A crate added to the workspace without a rule fails
    // `every_crate_obeys_the_layer_dag`; a rule left behind after a
    // crate is deleted fails here.
    let root = workspace_root();
    let names: Vec<_> = workspace_manifests(&root)
        .into_iter()
        .map(|(_, m)| m.name)
        .collect();
    for (rule_name, _) in layer_rules() {
        assert!(
            names.iter().any(|n| n == rule_name),
            "stale layer rule for {rule_name:?}"
        );
    }
}

#[test]
fn no_manifest_names_an_external_crate() {
    let root = workspace_root();
    let facade = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&facade)
        .unwrap_or_else(|e| panic!("read {}: {e}", facade.display()));
    let mut manifests = workspace_manifests(&root);
    manifests.push((facade, parse_manifest(&text)));
    let external: Vec<String> = manifests
        .iter()
        .flat_map(|(path, m)| {
            m.external_deps
                .iter()
                .map(move |d| format!("{}: {d}", path.display()))
        })
        .collect();
    assert!(
        external.is_empty(),
        "external crates:\n{}",
        external.join("\n")
    );
}

#[test]
fn the_lockfile_has_only_path_packages() {
    let lock = workspace_root().join("Cargo.lock");
    let text =
        std::fs::read_to_string(&lock).unwrap_or_else(|e| panic!("read {}: {e}", lock.display()));
    assert!(
        text.contains("name = \"p2auth-core\""),
        "not the workspace lockfile"
    );
    let sourced = lockfile_sourced_packages(&text);
    assert!(
        sourced.is_empty(),
        "packages from outside the tree: {sourced:?}"
    );
}

#[test]
fn guard_catches_the_external_crate_fixtures() {
    let bad = parse_manifest(include_str!("fixtures/external_dep.toml"));
    assert_eq!(bad.external_deps, ["proptest", "rand"]);
    assert!(check_layers(&bad, layer_rules()).is_empty());
    let sourced = lockfile_sourced_packages(include_str!("fixtures/registry.lock"));
    assert_eq!(sourced, ["rand"]);
}

#[test]
fn one_build_and_one_crc() {
    let root = workspace_root();
    let mut violations = Vec::new();
    let mut manifests: Vec<_> = workspace_manifests(&root)
        .into_iter()
        .map(|(path, _)| path)
        .collect();
    manifests.push(root.join("Cargo.toml"));
    for path in &manifests {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for (line, what) in scan_manifest_for_features(&text) {
            violations.push(format!("{}:{line}: {what}", path.display()));
        }
    }
    let sources = workspace_sources(&root);
    assert!(sources.len() > 100, "only {} sources found", sources.len());
    let mut crc_homes = 0;
    for src in &sources {
        let text =
            std::fs::read_to_string(src).unwrap_or_else(|e| panic!("read {}: {e}", src.display()));
        for line in scan_source_for_feature_cfg(&text) {
            violations.push(format!("{}:{line}: cargo-feature cfg", src.display()));
        }
        let crc = scan_source_for_crc32(&text);
        let home = src
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/")
            .ends_with(&format!("crates/{CRC32_HOME}"));
        if home {
            crc_homes += text.matches("pub fn crc32(").count();
        } else {
            for line in crc {
                violations.push(format!(
                    "{}:{line}: CRC-32 outside {CRC32_HOME}",
                    src.display()
                ));
            }
        }
    }
    assert_eq!(crc_homes, 1, "{CRC32_HOME} must define crc32 exactly once");
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// 1-indexed lines of `text` carrying `marker`.
fn marked(text: &str, marker: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(marker))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn guard_catches_the_one_build_fixtures() {
    let toml = include_str!("fixtures/feature_manifest.toml");
    let hits: Vec<usize> = scan_manifest_for_features(toml)
        .into_iter()
        .map(|(line, _)| line)
        .collect();
    assert_eq!(hits.len(), 6, "{hits:?}");
    assert_eq!(hits, marked(toml, "# flagged"));

    let src = include_str!("fixtures/feature_cfg.rs");
    let cfgs = scan_source_for_feature_cfg(src);
    assert_eq!(cfgs.len(), 4, "{cfgs:?}");
    assert_eq!(cfgs, marked(src, "flagged: feature"));
    let crcs = scan_source_for_crc32(src);
    assert_eq!(crcs.len(), 2, "{crcs:?}");
    assert_eq!(crcs, marked(src, "flagged: crc"));
}
