//! Energy kind of the golden harness: the committed per-call-path
//! tables under `tests/golden/energymap_*.txt` match a fresh replay of
//! every canonical scenario. The negative controls and the table-schema
//! checks live with the rest of the harness tests in `tests/golden.rs`.

use experiments::golden::{self, Kind};
use experiments::tracerec::{self, SCENARIOS};

/// Every committed golden table matches a fresh replay: the same path
/// set and sample counts, energy well inside tolerance (the simulation
/// is bit-exact at the golden seed).
#[test]
fn golden_energy_tables_pass_the_gate() {
    for scenario in SCENARIOS {
        let file = golden::render(Kind::Energy, scenario, 1.0).unwrap();
        assert!(file.text.lines().count() > 1, "{scenario}: empty table");
        if let Some(report) = file.diff(&tracerec::golden_dir()) {
            panic!("{} failed the energy gate:\n{report}", file.name);
        }
    }
}
