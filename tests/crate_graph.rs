//! The crate graph is the purity boundary (rule P1, DESIGN.md §11).
//!
//! `clippy.toml` bans the wall clock and the thread API everywhere; the
//! only sanctioned uses sit in `bench` (the `Stopwatch`) and `simpar`
//! (the work pool), each behind an `#[expect]`. A simulation crate can
//! therefore reach the wall clock or a thread only by depending on one of
//! those two crates, and this test pins exactly who may:
//!
//! - `bench` is a dependency of the `experiments` CLI (its progress
//!   lines) and nothing else in the workspace; perfbench, the timing
//!   harness, is a separate package outside it;
//! - `simpar` is a dependency of `simcore` (optional, behind its `par`
//!   feature) and of the root package;
//! - only `experiments` and `simserve` turn on `simcore/par`;
//! - `bench` and `simpar` depend on no workspace crate themselves.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One dependency edge: `(dependency, enables simcore's par feature)`.
type Deps = Vec<(String, bool)>;

/// Package name and dependencies (all kinds) of one manifest, by line
/// matching: `name = "…"` under `[package]`, and every key under a
/// `[*dependencies]` table other than `[workspace.dependencies]`.
fn parse(manifest: &str) -> (String, Deps) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if section == "[package]" {
            if let Some(v) = line.strip_prefix("name = ") {
                name = v.trim_matches('"').to_string();
            }
        } else if section.ends_with("dependencies]") && !section.starts_with("[workspace") {
            let key: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !key.is_empty() {
                let par = key == "simcore" && line.contains("\"par\"");
                deps.push((key, par));
            }
        }
    }
    (name, deps)
}

/// Everything wrong with a crate graph (package name → dependencies).
fn violations(graph: &BTreeMap<String, Deps>) -> Vec<String> {
    let dependents = |target: &str| -> BTreeSet<&str> {
        graph
            .iter()
            .filter(|(_, deps)| deps.iter().any(|(d, _)| d == target))
            .map(|(name, _)| name.as_str())
            .collect()
    };
    let mut out = Vec::new();
    let mut expect = |what: &str, got: BTreeSet<&str>, want: &[&str]| {
        let want: BTreeSet<&str> = want.iter().copied().collect();
        if got != want {
            out.push(format!("{what}: {got:?}, allowed {want:?}"));
        }
    };
    expect(
        "crates depending on bench",
        dependents("bench"),
        &["experiments"],
    );
    expect(
        "crates depending on simpar",
        dependents("simpar"),
        &["energy-adaptation", "simcore"],
    );
    let par: BTreeSet<&str> = graph
        .iter()
        .filter(|(_, deps)| deps.iter().any(|(_, p)| *p))
        .map(|(name, _)| name.as_str())
        .collect();
    expect(
        "crates enabling simcore/par",
        par,
        &["experiments", "simserve"],
    );
    for leaf in ["bench", "simpar"] {
        let deps: BTreeSet<&str> = graph
            .get(leaf)
            .map(|d| d.iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default();
        expect(&format!("dependencies of {leaf}"), deps, &[]);
    }
    out
}

fn workspace_graph() -> BTreeMap<String, Deps> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).map(|rd| {
        rd.flatten()
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect::<Vec<_>>()
    });
    manifests.extend(crates.unwrap_or_default());
    manifests
        .iter()
        .map(|p| parse(&std::fs::read_to_string(p).unwrap_or_default()))
        .collect()
}

#[test]
fn only_the_sanctioned_crates_reach_clock_and_threads() {
    let graph = workspace_graph();
    assert!(graph.len() >= 13, "only {} manifests parsed", graph.len());
    let found = violations(&graph);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// Negative control: a simulation crate that picks up `bench` (say, to
/// time itself) breaks the graph.
#[test]
fn a_simulation_crate_depending_on_bench_is_caught() {
    const MACHINE: &str = "\
[package]
name = \"machine\"

[dependencies]
simcore.workspace = true
bench.workspace = true
";
    let mut graph = workspace_graph();
    let (name, deps) = parse(MACHINE);
    graph.insert(name, deps);
    let found = violations(&graph);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("machine"), "{found:?}");
}
