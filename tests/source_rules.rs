//! Source rules that neither the type system nor clippy can express,
//! checked over the workspace's own sources by plain line matching (no
//! lexer, no parser). Everything else — unit arithmetic, banned types and
//! methods, panics, float equality, unchecked indexing — is enforced by
//! the `Joules`/`Watts`/`Hertz` types and the workspace clippy lints
//! (DESIGN.md §11).
//!
//! - **D4** — a public `f64` field or function whose name says it carries
//!   energy, power or time ends in a unit suffix (`_j`, `_w`, `_s`, …).
//! - **U1** — in the simulation crates, a public field or function named
//!   `_j`, `_w` or `_hz` is typed `Joules`, `Watts` or `Hertz`, not `f64`.
//! - **S1** — in `crates/simserve`, every `pub fn` taking `&mut self`
//!   returns `Result`: the serving layer refuses bad input, it does not
//!   panic.
//! - **D3** — no `as f32` cast: energy paths stay `f64` end to end.
//! - **P1** — every function in `crates/simcore/src/time.rs`, and each
//!   per-event leaf named in [`INLINE_LEAVES`], carries `#[inline]`.
//!   The event loop calls these across crates millions of times a run,
//!   and without the attribute rustc inlines only trivial functions
//!   across crates. No benchmark gates speed yet, so this keeps a
//!   refactor from quietly dropping one.
//!
//! Test code is exempt: `tests/`, `benches/` and `examples/` directories,
//! and everything from a file's first `#[cfg(test)]` line on (the
//! workspace keeps its unit-test module at the end of each file).
//!
//! The file also pins the clippy lint *levels* the other rules rely on.
//! `clippy.toml`'s bans are guarded by `#[expect]` controls in
//! `experiments::lint_controls`, but a lint level cannot be: an
//! `#[expect(lint)]` enables its lint for its own item, so it stays
//! fulfilled after the workspace-level entry is deleted.

use std::path::{Path, PathBuf};

const UNIT_KEYWORDS: [&str; 6] = ["energy", "power", "watt", "joule", "time", "duration"];
const UNIT_SUFFIXES: [&str; 13] = [
    "_j", "_w", "_s", "_mw", "_mj", "_kj", "_wh", "_us", "_ms", "_ns", "_hz", "_bps", "_frac",
];
/// Suffixes whose quantity has a unit type in `simcore::units`.
const TYPED_SUFFIXES: [&str; 3] = ["_j", "_w", "_hz"];
/// Crates outside the simulation proper: the harness, the timing crate,
/// and the work pool. U1 does not apply there.
const NON_SIMULATION: [&str; 3] = ["crates/experiments/", "crates/bench/", "crates/simpar/"];

/// P1's files and the functions in each that must carry `#[inline]`;
/// an empty list means every function in the file.
const INLINE_LEAVES: [(&str, &[&str]); 10] = [
    ("crates/simcore/src/time.rs", &[]),
    ("crates/simcore/src/trace.rs", &["enabled"]),
    (
        "crates/hw560x/src/platform.rs",
        &["breakdown", "power_w", "spec", "total_w"],
    ),
    ("crates/hw560x/src/cpu.rs", &["excess_power_w"]),
    ("crates/hw560x/src/display.rs", &["power_w"]),
    (
        "crates/hw560x/src/disk.rs",
        &["power_w", "state", "spin_down_deadline"],
    ),
    (
        "crates/hw560x/src/wavelan.rs",
        &[
            "power_w",
            "state",
            "open_window",
            "close_window",
            "begin_transfer",
            "end_transfer",
        ],
    ),
    ("crates/hw560x/src/battery.rs", &["drain", "remaining_j"]),
    (
        "crates/netsim/src/link.rs",
        &["active_count", "rate_factor"],
    ),
    ("crates/machine/src/energy.rs", &["add", "key"]),
];

/// One rule violation: `path:line: [rule] message`.
fn finding(path: &str, line: usize, rule: &str, msg: String) -> String {
    format!("{path}:{line}: [{rule}] {msg}")
}

fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

fn names_a_unit(name: &str) -> bool {
    name.split('_')
        .any(|seg| UNIT_KEYWORDS.contains(&seg.to_ascii_lowercase().as_str()))
}

fn has_suffix(name: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| name.ends_with(s))
}

/// The signature starting at `lines[i]`, joined up to its body or `;`.
fn signature(lines: &[&str], i: usize) -> String {
    let mut sig = String::new();
    for line in lines.iter().skip(i).take(12) {
        sig.push_str(line);
        sig.push(' ');
        if line.contains('{') || line.trim_end().ends_with(';') {
            break;
        }
    }
    sig
}

/// The return type of a joined signature, trimmed (empty for `()`).
fn return_type(sig: &str) -> &str {
    sig.split_once("->").map_or("", |(_, ret)| ret.trim_start())
}

/// The name of the function a line declares, at any visibility.
fn declared_fn(line: &str) -> Option<&str> {
    let rest = ["pub ", "pub(crate) "]
        .iter()
        .find_map(|v| line.strip_prefix(v))
        .unwrap_or(line);
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    rest.strip_prefix("fn ").map(ident)
}

/// True when the attributes directly above `lines[i]` include
/// `#[inline]` or `#[inline(always)]`. The block ends at a doc comment,
/// a blank line or the end of the previous item.
fn inlined(lines: &[&str], i: usize) -> bool {
    lines[..i]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| !(l.is_empty() || l.starts_with("//") || l.ends_with(['{', '}', ';'])))
        .any(|l| l == "#[inline]" || l == "#[inline(always)]")
}

/// Checks one source file; `path` is workspace-relative with `/`
/// separators and decides which rules apply.
fn check(path: &str, source: &str) -> Vec<String> {
    let simulation = !NON_SIMULATION.iter().any(|p| path.starts_with(p));
    let service = path.starts_with("crates/simserve/");
    let lines: Vec<&str> = source.lines().collect();
    let end = lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len());
    let leaves = INLINE_LEAVES
        .iter()
        .find(|(file, _)| *file == path)
        .map(|(_, names)| *names);
    let mut declared = Vec::new();
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate().take(end) {
        let line = raw.trim_start();
        let n = i + 1;
        if line.starts_with("//") {
            continue;
        }
        if let (Some(leaves), Some(name)) = (leaves, declared_fn(line)) {
            if (leaves.is_empty() || leaves.contains(&name)) && !inlined(&lines, i) {
                out.push(finding(
                    path,
                    n,
                    "P1",
                    format!("per-event leaf `{name}` lacks `#[inline]`"),
                ));
            }
            declared.push(name);
        }
        if let Some(pos) = line.find("as f32") {
            let after = line[pos + 6..].chars().next();
            if !after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                out.push(finding(path, n, "D3", "narrowing `as f32` cast".into()));
            }
        }
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let (name, ty) = if let Some(f) = rest
            .strip_prefix("fn ")
            .or_else(|| rest.strip_prefix("const fn "))
        {
            let sig = signature(&lines, i);
            if service && sig.contains("&mut self") && !return_type(&sig).starts_with("Result") {
                out.push(finding(
                    path,
                    n,
                    "S1",
                    format!(
                        "`{}` takes `&mut self` but does not return `Result`",
                        ident(f)
                    ),
                ));
            }
            (ident(f), return_type(&sig).to_string())
        } else {
            let name = ident(rest);
            match rest[name.len()..].trim_start().strip_prefix(':') {
                Some(ty) if !name.is_empty() => (name, ty.trim().trim_end_matches(',').to_string()),
                _ => continue,
            }
        };
        if !ty.starts_with("f64") {
            continue;
        }
        if names_a_unit(name) && !has_suffix(name, &UNIT_SUFFIXES) {
            out.push(finding(
                path,
                n,
                "D4",
                format!("public f64 `{name}` carries a unit but its name does not say which"),
            ));
        }
        if simulation && has_suffix(name, &TYPED_SUFFIXES) {
            out.push(finding(
                path,
                n,
                "U1",
                format!("public `{name}: f64`: use simcore's Joules/Watts/Hertz"),
            ));
        }
    }
    for leaf in leaves.unwrap_or_default() {
        if !declared.contains(leaf) {
            out.push(finding(
                path,
                0,
                "P1",
                format!("per-event leaf `{leaf}` is gone: update INLINE_LEAVES"),
            ));
        }
    }
    out
}

/// Clippy lints `[workspace.lints.clippy]` must set to `warn` or `deny`.
const REQUIRED_LINTS: [&str; 5] = [
    "unwrap_used",
    "expect_used",
    "float_cmp",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// Files that must deny unchecked indexing at their root: the serving
/// layer and the snapshot codec both parse untrusted bytes.
const INDEXING_DENIED: [&str; 2] = [
    "crates/simserve/src/lib.rs",
    "crates/simcore/src/snapshot.rs",
];

/// Required lints missing from a workspace manifest (or not at least
/// `warn`).
fn missing_lints(workspace_manifest: &str) -> Vec<&'static str> {
    let mut in_table = false;
    let mut set = Vec::new();
    for line in workspace_manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[workspace.lints.clippy]";
        } else if in_table {
            if let Some((key, level)) = line.split_once('=') {
                if matches!(level.trim(), "\"warn\"" | "\"deny\"") {
                    set.push(key.trim().to_string());
                }
            }
        }
    }
    REQUIRED_LINTS
        .into_iter()
        .filter(|l| !set.iter().any(|s| s == l))
        .collect()
}

/// True when a crate manifest inherits the workspace lints.
fn inherits_lints(manifest: &str) -> bool {
    let mut in_table = false;
    manifest.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            in_table = line == "[lints]";
            false
        } else {
            in_table && line.replace(' ', "") == "workspace=true"
        }
    })
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                collect(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_sources_follow_the_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect(&root.join("src"), &mut files);
    collect(&root.join("crates"), &mut files);
    files.sort();
    assert!(files.len() >= 90, "only {} source files found", files.len());
    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(file).unwrap_or_default();
        findings.extend(check(&rel, &source));
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn lint_levels_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_default();
    let manifest = read("Cargo.toml");
    assert_eq!(missing_lints(&manifest), Vec::<&str>::new());
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        manifests.extend(entries.flatten().map(|e| e.path().join("Cargo.toml")));
    }
    for m in manifests.iter().filter(|m| m.is_file()) {
        let text = std::fs::read_to_string(m).unwrap_or_default();
        assert!(
            inherits_lints(&text),
            "{} lacks `[lints] workspace = true`",
            m.display()
        );
    }
    for rel in INDEXING_DENIED {
        assert!(
            read(rel).contains("#![deny(clippy::indexing_slicing)]"),
            "{rel} no longer denies clippy::indexing_slicing"
        );
    }
}

/// Negative control for the level pin: a manifest that drops `float_cmp`
/// or demotes `expect_used` to `allow` is caught, and a crate that stops
/// inheriting the workspace lints is too.
#[test]
fn weakened_lint_levels_are_flagged() {
    let manifest = "\
[workspace.lints.clippy]
unwrap_used = \"warn\"
expect_used = \"allow\"
allow_attributes = \"warn\"
allow_attributes_without_reason = \"deny\"

[workspace.dependencies]
float_cmp = \"warn\"
";
    assert_eq!(missing_lints(manifest), ["expect_used", "float_cmp"]);
    assert!(inherits_lints(
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!inherits_lints(
        "[package]\nname = \"x\"\nworkspace = true\n"
    ));
}

/// Negative control: one violation per rule is flagged, and the same
/// lines inside the test module are not.
#[test]
fn fixture_violations_are_flagged() {
    const DIRTY: &str = "\
pub struct Report {
    pub total_energy: f64,
    pub residual_j: f64,
}
pub fn drain_w(x: f64) -> f64 {
    x as f32 as f64
}
impl Slot {
    pub fn ingest(&mut self, batch: &[u8]) -> usize {
        batch.len()
    }
    pub fn freeze(&mut self) -> Result<Vec<u8>, Error> {
        Ok(Vec::new())
    }
}
";
    let rules = |path: &str, src: &str| -> Vec<String> {
        check(path, src)
            .iter()
            .map(|f| f[f.find('[').unwrap_or(0)..].to_string())
            .collect()
    };
    let found = rules("crates/simserve/src/fixture.rs", DIRTY);
    let tags: Vec<&str> = found.iter().map(|f| &f[..4]).collect();
    assert_eq!(tags, ["[D4]", "[U1]", "[U1]", "[D3]", "[S1]"], "{found:?}");
    // Outside the service and simulation crates only D3 and D4 apply.
    let harness = rules("crates/experiments/src/fixture.rs", DIRTY);
    let tags: Vec<&str> = harness.iter().map(|f| &f[..4]).collect();
    assert_eq!(tags, ["[D4]", "[D3]"], "{harness:?}");
    // Test modules are exempt.
    let in_tests = format!("#[cfg(test)]\nmod tests {{\n{DIRTY}}}\n");
    assert!(check("crates/simserve/src/fixture.rs", &in_tests).is_empty());

    // P1: in `time.rs` every function needs `#[inline]`, also below a
    // doc comment or next to a multi-line `#[expect]`; in a leaf file
    // only the named leaves do, and a named leaf that disappears is
    // flagged too. Test modules are exempt.
    const TIME: &str = "\
impl SimTime {
    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    #[expect(
        clippy::expect_used,
        reason = \"overflow guard\"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        todo!()
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = \"overflow guard\"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        todo!()
    }
}

fn round(x: f64) -> u64 {
    x as u64
}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
    let found = check("crates/simcore/src/time.rs", TIME);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains(":13: [P1]") && found[0].contains("`since`"));
    assert!(found[1].contains(":31: [P1]") && found[1].contains("`round`"));
    const LINK: &str = "\
impl SharedLink {
    /// Number of flows.
    pub fn active_count(&self) -> usize {
        self.flows.len()
    }

    /// Not a leaf.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }
}
";
    let found = check("crates/netsim/src/link.rs", LINK);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains(":3: [P1]") && found[0].contains("`active_count`"));
    assert!(found[1].contains("`rate_factor` is gone"));
    // The same source anywhere else is not P1's business.
    assert!(check("crates/netsim/src/other.rs", LINK).is_empty());
}
