//! The offline correlation stage.
//!
//! "In a later off-line stage, PowerScope combines these sequences with
//! symbol table information from binaries and shared libraries on the
//! profiling computer ... The result is an energy profile." Each sample's
//! energy quantum is its current reading times the supply voltage times
//! the gap to the next sample; the quantum is attributed to the process
//! the PID monitor observed and the procedure its symbol table resolves
//! the raw PC into.
//!
//! Both stages resolve through per-key accumulators rather than string
//! keys. A process's symbol table is read once, giving each distinct
//! procedure name (by content, `(unknown)` included) one id; a sample's
//! PC resolves to an id by a binary search of that table, and its
//! quantum is added, in sample order, into the accumulator of its
//! `(process, id)` — so PCs that resolve alike, several stripped ones
//! included, share one sum, exactly as they shared one string key. The
//! path stage memoises each distinct stack of ids to its list of path
//! nodes, building each node's path string once. Rows are formed from
//! the accumulators at the end, so every sum is taken in the same order
//! as a per-sample string-keyed pass would take it.

use std::collections::BTreeMap;

use crate::profile::{EnergyProfile, PathProfile, PathRow, ProcedureRow, ProcessPaths, ProcessRow};
use crate::sample::{CollectedRun, Sample, MAX_STACK_DEPTH};
use crate::symbols::{SymbolTable, UNKNOWN_PROCEDURE};
use crate::SUPPLY_VOLTS;
use simcore::Joules;

/// Correlates a collected run into an energy profile.
///
/// Samples must be in time order (as the multimeter produced them). The
/// final sample's quantum extends to the trace end. PCs with no covering
/// symbol resolve to [`UNKNOWN_PROCEDURE`].
pub fn correlate(run: &CollectedRun) -> EnergyProfile {
    // One `(cpu_secs, energy)` sum per procedure id, `None` until a
    // sample lands on it: a procedure no sample resolved to gets no row.
    let mut by_proc: ByProcess<'_, Vec<Option<(f64, Joules)>>> = ByProcess::new(run);
    let duration = for_each_quantum(run, |s, dt, energy| {
        let (symbols, sums) = by_proc.slot(s.process, |symbols| vec![None; symbols.names.len()]);
        let sum = sums[symbols.id(s.pc())].get_or_insert((0.0, Joules::ZERO));
        sum.0 += dt;
        sum.1 += energy;
    });
    // Names are distinct within a process and processes are distinct, so
    // both sorts are total orders and the rows' starting order is moot.
    let mut processes: Vec<ProcessRow> = by_proc
        .slots
        .into_iter()
        .map(|(symbols, sums)| {
            let mut procedures: Vec<ProcedureRow> = sums
                .into_iter()
                .zip(&symbols.names)
                .filter_map(|(sum, name)| {
                    sum.map(|(cpu_secs, energy_j)| ProcedureRow {
                        procedure: name.to_string(),
                        cpu_secs,
                        energy_j,
                    })
                })
                .collect();
            procedures.sort_by(|a, b| {
                b.energy_j
                    .total_cmp(&a.energy_j)
                    .then_with(|| a.procedure.cmp(&b.procedure))
            });
            ProcessRow {
                process: symbols.process.to_string(),
                cpu_secs: procedures.iter().map(|p| p.cpu_secs).sum(),
                energy_j: procedures.iter().map(|p| p.energy_j).sum(),
                procedures,
            }
        })
        .collect();
    processes.sort_by(|a, b| {
        b.energy_j
            .total_cmp(&a.energy_j)
            .then_with(|| a.process.cmp(&b.process))
    });
    EnergyProfile {
        processes,
        duration_s: duration,
    }
}

/// Correlates a collected run into a per-call-path energy profile with
/// parent/child inclusive–exclusive accounting.
///
/// Each sample's quantum is attributed *exclusively* to its leaf frame
/// and *inclusively* to every ancestor on its stack, so a parent row's
/// inclusive energy is exactly the sum of its own exclusive energy and
/// its children's inclusive energies, and the leaf-exclusive energies of
/// one process sum to that process's total. Rows come out in
/// lexicographic path order (parents immediately before their subtrees).
pub fn correlate_paths(run: &CollectedRun) -> PathProfile {
    let mut by_proc: ByProcess<'_, PathBook> = ByProcess::new(run);
    let duration = for_each_quantum(run, |s, dt, energy| {
        let (symbols, book) = by_proc.slot(s.process, |_| PathBook::default());
        // A degenerate empty stack still has to keep the books balanced:
        // its quantum goes to the unknown procedure (id 0, which the
        // zeroed key already holds), like a lone unresolvable frame.
        let frames = s.stack.frames();
        let mut key = ([0; MAX_STACK_DEPTH], frames.len().max(1));
        for (id, pc) in key.0.iter_mut().zip(frames) {
            *id = symbols.id(*pc);
        }
        let PathBook {
            stacks,
            nodes,
            by_path,
        } = book;
        let chain = stacks
            .entry(key)
            .or_insert_with(|| path_nodes(&key.0[..key.1], symbols, nodes, by_path));
        for &n in chain.iter() {
            let node = &mut nodes[n];
            node.inclusive_time_s += dt;
            node.inclusive_energy_j += energy;
        }
        let leaf = &mut nodes[chain[chain.len() - 1]];
        leaf.samples += 1;
        leaf.self_time_s += dt;
        leaf.self_energy_j += energy;
    });
    let processes: Vec<ProcessPaths> = by_proc
        .into_sorted()
        .into_iter()
        .map(|(symbols, book)| {
            // Path keys sort parents immediately before their children
            // ("a" < "a/b" < "a/b/c" < "a/c").
            let rows: Vec<PathRow> = book
                .by_path
                .into_iter()
                .map(|(path, n)| {
                    let n = book.nodes[n];
                    PathRow {
                        path,
                        samples: n.samples,
                        self_time_s: n.self_time_s,
                        self_energy_j: n.self_energy_j,
                        inclusive_time_s: n.inclusive_time_s,
                        inclusive_energy_j: n.inclusive_energy_j,
                    }
                })
                .collect();
            let energy_j = rows.iter().map(|r| r.self_energy_j).sum();
            ProcessPaths {
                process: symbols.process.to_string(),
                rows,
                energy_j,
            }
        })
        .collect();
    PathProfile {
        processes,
        duration_s: duration,
    }
}

/// Calls `f(sample, dt, energy)` for every sample in order, each quantum
/// running to the next sample (the last to the trace end), and returns
/// the summed duration.
fn for_each_quantum(run: &CollectedRun, mut f: impl FnMut(&Sample, f64, Joules)) -> f64 {
    let trace = &run.trace;
    let mut duration = 0.0;
    for (i, s) in trace.samples.iter().enumerate() {
        let next_at = trace
            .samples
            .get(i + 1)
            .map(|n| n.at)
            .unwrap_or(trace.end.max(s.at));
        let dt = next_at.since(s.at).as_secs_f64();
        let energy = Joules(s.current_a * SUPPLY_VOLTS * dt);
        duration += dt;
        f(s, dt, energy);
    }
    duration
}

/// One process's symbol table seen through procedure ids: each distinct
/// procedure name, by content, has one id, [`UNKNOWN_PROCEDURE`] being
/// id 0, and every table entry maps to the id of its name.
struct ProcessSymbols<'r> {
    process: &'static str,
    table: Option<&'r SymbolTable>,
    /// The id of each table entry, in address order.
    entry_ids: Vec<usize>,
    /// The name of each id.
    names: Vec<&'static str>,
}

impl<'r> ProcessSymbols<'r> {
    fn new(process: &'static str, table: Option<&'r SymbolTable>) -> Self {
        let mut names = vec![UNKNOWN_PROCEDURE];
        let entry_ids = table
            .into_iter()
            .flat_map(SymbolTable::procedures)
            .map(|name| {
                names.iter().position(|n| *n == name).unwrap_or_else(|| {
                    names.push(name);
                    names.len() - 1
                })
            })
            .collect();
        ProcessSymbols {
            process,
            table,
            entry_ids,
            names,
        }
    }

    /// The id of the procedure `pc` resolves to.
    fn id(&self, pc: u32) -> usize {
        self.table
            .and_then(|t| t.index_of(pc))
            .map_or(0, |i| self.entry_ids[i])
    }
}

/// Per-process state of one correlation pass, one slot per process name
/// in first-seen order.
struct ByProcess<'r, A> {
    run: &'r CollectedRun,
    slots: Vec<(ProcessSymbols<'r>, A)>,
}

impl<'r, A> ByProcess<'r, A> {
    fn new(run: &'r CollectedRun) -> Self {
        ByProcess {
            run,
            slots: Vec::new(),
        }
    }

    /// The slot of `process`, matched by pointer (the collector hands
    /// out one `&'static str` per process) or else by content, and made
    /// with `new` on the process's first sample.
    fn slot(
        &mut self,
        process: &'static str,
        new: impl FnOnce(&ProcessSymbols<'r>) -> A,
    ) -> &mut (ProcessSymbols<'r>, A) {
        let found = self
            .slots
            .iter()
            .position(|(p, _)| std::ptr::eq(p.process, process) || p.process == process);
        let i = found.unwrap_or_else(|| {
            let symbols = ProcessSymbols::new(process, self.run.symbols.get(process));
            let state = new(&symbols);
            self.slots.push((symbols, state));
            self.slots.len() - 1
        });
        &mut self.slots[i]
    }

    /// The slots in process-name order.
    fn into_sorted(mut self) -> Vec<(ProcessSymbols<'r>, A)> {
        self.slots.sort_by(|a, b| a.0.process.cmp(b.0.process));
        self.slots
    }
}

/// One call path's sums.
#[derive(Clone, Copy, Default)]
struct Node {
    samples: u64,
    self_time_s: f64,
    self_energy_j: Joules,
    inclusive_time_s: f64,
    inclusive_energy_j: Joules,
}

/// A stack of procedure ids, root first, and its depth.
type StackKey = ([usize; MAX_STACK_DEPTH], usize);

/// One process's path nodes and the memo that finds them.
#[derive(Default)]
struct PathBook {
    /// Each distinct stack seen, to its path nodes, root first.
    stacks: BTreeMap<StackKey, Vec<usize>>,
    nodes: Vec<Node>,
    /// Each node's path, to its index in `nodes`: two stacks whose
    /// names join to the same path share its node.
    by_path: BTreeMap<String, usize>,
}

/// The nodes of every prefix of the stack `ids`, made on first sight.
fn path_nodes(
    ids: &[usize],
    symbols: &ProcessSymbols<'_>,
    nodes: &mut Vec<Node>,
    by_path: &mut BTreeMap<String, usize>,
) -> Vec<usize> {
    let mut path = String::new();
    ids.iter()
        .enumerate()
        .map(|(depth, &id)| {
            if depth > 0 {
                path.push('/');
            }
            path.push_str(symbols.names[id]);
            if let Some(&n) = by_path.get(&path) {
                return n;
            }
            nodes.push(Node::default());
            by_path.insert(path.clone(), nodes.len() - 1);
            nodes.len() - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;
    use crate::symbols::SymbolTable;
    use simcore::SimTime;

    fn run_with(samples: Vec<(u64, f64, &'static str, &'static str)>, end_ms: u64) -> CollectedRun {
        let mut run = CollectedRun::default();
        for (at_ms, current, process, procedure) in samples {
            let table = run.symbols.entry(process).or_insert_with(SymbolTable::new);
            table.intern(procedure);
            let pc = table.pc_within(procedure, 7);
            run.trace.samples.push(Sample {
                at: SimTime::from_micros(at_ms * 1000),
                current_a: current,
                process,
                stack: crate::sample::CallStack::leaf_only(pc),
            });
        }
        run.trace.end = SimTime::from_micros(end_ms * 1000);
        run
    }

    /// A run whose samples carry full call paths (root first).
    fn run_with_paths(
        samples: Vec<(u64, f64, &'static str, &'static [&'static str])>,
        end_ms: u64,
    ) -> CollectedRun {
        let mut run = CollectedRun::default();
        for (at_ms, current, process, path) in samples {
            let table = run.symbols.entry(process).or_insert_with(SymbolTable::new);
            let mut stack = crate::sample::CallStack::default();
            for frame in path {
                table.intern(frame);
                stack.push(table.pc_within(frame, 7));
            }
            run.trace.samples.push(Sample {
                at: SimTime::from_micros(at_ms * 1000),
                current_a: current,
                process,
                stack,
            });
        }
        run.trace.end = SimTime::from_micros(end_ms * 1000);
        run
    }

    #[test]
    fn quanta_extend_to_next_sample() {
        let run = run_with(
            vec![
                (0, 1.0, "a", "f"),   // 12 W for 0.5 s → 6 J.
                (500, 2.0, "b", "g"), // 24 W for 0.5 s → 12 J.
            ],
            1000,
        );
        let p = correlate(&run);
        assert!((p.process_energy_j("a") - Joules(6.0)).abs() < Joules(1e-9));
        assert!((p.process_energy_j("b") - Joules(12.0)).abs() < Joules(1e-9));
        assert!((p.duration_s - 1.0).abs() < 1e-9);
        assert_eq!(p.processes[0].process, "b", "sorted by energy");
    }

    #[test]
    fn procedures_accumulate_within_process() {
        let run = run_with(
            vec![
                (0, 1.0, "a", "f"),
                (100, 1.0, "a", "g"),
                (200, 1.0, "a", "f"),
            ],
            300,
        );
        let p = correlate(&run);
        assert_eq!(p.processes.len(), 1);
        let row = &p.processes[0];
        assert_eq!(row.procedures.len(), 2);
        let f = row.procedures.iter().find(|r| r.procedure == "f").unwrap();
        assert!((f.cpu_secs - 0.2).abs() < 1e-9);
        assert!((row.energy_j - Joules(12.0 * 0.3)).abs() < Joules(1e-9));
    }

    #[test]
    fn unresolvable_pcs_land_in_unknown() {
        let mut run = run_with(vec![(0, 1.0, "a", "f")], 200);
        // A sample from a process with no symbol table at all.
        run.trace.samples.push(Sample {
            at: SimTime::from_micros(100 * 1000),
            current_a: 1.0,
            process: "stripped",
            stack: crate::sample::CallStack::leaf_only(0xdead_beef),
        });
        let p = correlate(&run);
        let stripped = p
            .processes
            .iter()
            .find(|r| r.process == "stripped")
            .expect("stripped process present");
        assert_eq!(stripped.procedures[0].procedure, UNKNOWN_PROCEDURE);
    }

    #[test]
    fn empty_trace_gives_empty_profile() {
        let p = correlate(&CollectedRun::default());
        assert!(p.processes.is_empty());
        assert_eq!(p.total_energy_j(), Joules(0.0));
    }

    #[test]
    fn profile_row_order_is_sample_order_independent() {
        // Regression test for the HashMap → BTreeMap conversion: two
        // traces with the same per-process totals must render identical
        // profiles even when the samples arrive in a different process
        // order. Every process gets equal energy, so row order rests
        // entirely on the deterministic name tie-break.
        let quanta = [(0, "c"), (100, "a"), (200, "b"), (300, "d")];
        let forward: Vec<_> = quanta
            .iter()
            .enumerate()
            .map(|(i, (_, p))| ((i as u64) * 100, 1.0, *p, "f"))
            .collect();
        let reversed: Vec<_> = quanta
            .iter()
            .rev()
            .enumerate()
            .map(|(i, (_, p))| ((i as u64) * 100, 1.0, *p, "f"))
            .collect();
        let pf = correlate(&run_with(forward, 400));
        let pr = correlate(&run_with(reversed, 400));
        let order_f: Vec<&str> = pf.processes.iter().map(|r| r.process.as_str()).collect();
        let order_r: Vec<&str> = pr.processes.iter().map(|r| r.process.as_str()).collect();
        assert_eq!(order_f, order_r);
        assert_eq!(order_f, ["a", "b", "c", "d"]);
    }

    #[test]
    fn paths_roll_up_inclusive_and_exclusive_energy() {
        // 12 W throughout; four 0.25 s quanta: two on a/b/c, one on
        // a/b/d, one on a (a root-level leaf).
        let run = run_with_paths(
            vec![
                (0, 1.0, "p", &["a", "b", "c"]),
                (250, 1.0, "p", &["a", "b", "d"]),
                (500, 1.0, "p", &["a", "b", "c"]),
                (750, 1.0, "p", &["a"]),
            ],
            1000,
        );
        let prof = correlate_paths(&run);
        assert_eq!(prof.processes.len(), 1);
        let p = &prof.processes[0];
        let row = |path: &str| {
            p.rows
                .iter()
                .find(|r| r.path == path)
                .unwrap_or_else(|| panic!("missing row {path}"))
        };
        let q = 12.0 * 0.25; // one quantum's energy, J
        assert!((row("a/b/c").self_energy_j - Joules(2.0 * q)).abs() < Joules(1e-9));
        assert_eq!(row("a/b/c").samples, 2);
        assert!((row("a/b/d").self_energy_j - Joules(q)).abs() < Joules(1e-9));
        // Interior node: no exclusive samples, inclusive = children.
        assert_eq!(row("a/b").samples, 0);
        assert!((row("a/b").self_energy_j).abs() < Joules(1e-12));
        assert!((row("a/b").inclusive_energy_j - Joules(3.0 * q)).abs() < Joules(1e-9));
        // Root: one exclusive quantum plus the subtree.
        assert_eq!(row("a").samples, 1);
        assert!((row("a").self_energy_j - Joules(q)).abs() < Joules(1e-9));
        assert!((row("a").inclusive_energy_j - Joules(4.0 * q)).abs() < Joules(1e-9));
        // Parent inclusive == own exclusive + children inclusive.
        assert!(
            (row("a").inclusive_energy_j - row("a").self_energy_j - row("a/b").inclusive_energy_j)
                .abs()
                < Joules(1e-9)
        );
        // Process total == sum of leaf exclusives == root inclusive.
        assert!((p.energy_j - Joules(4.0 * q)).abs() < Joules(1e-9));
        assert!((prof.total_energy_j() - Joules(4.0 * q)).abs() < Joules(1e-9));
        // Rows are in lexicographic order: parents before children.
        let order: Vec<&str> = p.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, ["a", "a/b", "a/b/c", "a/b/d"]);
    }

    #[test]
    fn path_profile_agrees_with_flat_profile_totals() {
        let run = run_with_paths(
            vec![
                (0, 1.0, "p", &["root", "f"]),
                (100, 2.0, "q", &["g"]),
                (200, 1.0, "p", &["root", "h"]),
            ],
            300,
        );
        let flat = correlate(&run);
        let paths = correlate_paths(&run);
        assert!((flat.total_energy_j() - paths.total_energy_j()).abs() < Joules(1e-9));
        for proc in &paths.processes {
            assert!(
                (proc.energy_j - flat.process_energy_j(&proc.process)).abs() < Joules(1e-9),
                "{} disagrees",
                proc.process
            );
        }
        assert!((flat.duration_s - paths.duration_s).abs() < 1e-12);
    }

    #[test]
    fn path_table_renders_with_d4_headers() {
        let run = run_with_paths(vec![(0, 1.0, "p", &["a", "b"])], 100);
        let text = correlate_paths(&run).format_table();
        let header = text.lines().next().unwrap_or("");
        for field in [
            "process",
            "path",
            "samples",
            "self_time_s",
            "self_energy_j",
            "inclusive_time_s",
            "inclusive_energy_j",
        ] {
            assert!(header.contains(field), "missing {field} in {header}");
        }
        assert!(text.contains("a/b"), "{text}");
    }
}
