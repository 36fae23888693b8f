//! Dead-code and unused-symbol detection.
//!
//! Evaluation executes every SSA slot, so "dead" here means *the
//! value can never influence any root over the declared domain*.
//! Liveness is the crate's one *backward* dataflow instance: the fact
//! lattice is the booleans under "or", roots are live by fiat, and a
//! slot is live when some live user effectively reads it — where a
//! `Select` whose guard the interval analysis proved constant reads
//! only its guard and the taken branch, so the untaken subtree — and
//! any symbol read only from it — surfaces as dead. The least fixpoint
//! equals the historical root-DFS marking exactly. In a freshly
//! compiled program with no constant guards everything is live by
//! construction (programs are built by DFS from the roots), which is
//! exactly what makes a dead-code finding a signal and not noise.

use mist_symbolic::{Instr, Program};

use crate::diag::{Analysis, Diagnostic, Severity};
use crate::framework::{self, Direction, FactEnv, Lattice, TransferFunction};
use crate::interval::{guard_constant, AbstractValue};
use crate::unit::UnitRegistry;

/// Liveness fact: whether a slot can influence any root.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Live(bool);

impl Lattice for Live {
    fn bottom() -> Self {
        Live(false)
    }
    fn join(&self, other: &Self) -> Self {
        Live(self.0 || other.0)
    }
}

/// The backward liveness instance. `guard_taken` holds the interval
/// analysis' constant-guard verdicts per `Select` slot.
struct LivenessAnalysis<'p> {
    program: &'p Program,
    is_root: Vec<bool>,
    guard_taken: Vec<Option<bool>>,
}

impl LivenessAnalysis<'_> {
    /// Whether `user`'s instruction effectively reads `slot`: always,
    /// except for the untaken branch of a constant-guard `Select`.
    fn reads(&self, user: u32, slot: u32) -> bool {
        match self.program.instr(user as usize) {
            Instr::Select(c, a, b) => match self.guard_taken[user as usize] {
                Some(true) => slot == c || slot == a,
                Some(false) => slot == c || slot == b,
                None => slot == c || slot == a || slot == b,
            },
            _ => true,
        }
    }
}

impl TransferFunction for LivenessAnalysis<'_> {
    type Fact = Live;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn transfer(&mut self, slot: u32, _instr: Instr<'_>, env: &FactEnv<'_, Live>) -> Live {
        if self.is_root[slot as usize] {
            return Live(true);
        }
        for &u in env.users(slot) {
            if env.fact(u).0 && self.reads(u, slot) {
                return Live(true);
            }
        }
        Live(false)
    }
}

pub(crate) fn analyze(
    program: &Program,
    registry: &UnitRegistry,
    values: &[AbstractValue],
) -> Vec<Diagnostic> {
    let n = program.len();
    let mut is_root = vec![false; n];
    for &r in program.root_slots() {
        is_root[r as usize] = true;
    }
    let guard_taken: Vec<Option<bool>> = program
        .instrs()
        .map(|instr| match instr {
            Instr::Select(c, _, _) => guard_constant(values[c as usize]),
            _ => None,
        })
        .collect();
    let mut analysis = LivenessAnalysis {
        program,
        is_root,
        guard_taken,
    };
    let live: Vec<bool> = framework::fixpoint(program, &mut analysis)
        .into_iter()
        .map(|l| l.0)
        .collect();

    let mut diags = Vec::new();

    // One warning per live Select whose guard cannot vary over the domain.
    for (slot, instr) in program.instrs().enumerate() {
        if !live[slot] {
            continue;
        }
        if let Instr::Select(c, _, _) = instr {
            if let Some(taken_then) = guard_constant(values[c as usize]) {
                let (taken, dead) = if taken_then {
                    ("then", "else")
                } else {
                    ("else", "then")
                };
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    analysis: Analysis::DeadCode,
                    code: "dead-branch",
                    slot: Some(slot as u32),
                    root: None,
                    message: format!(
                        "select guard is constant over the domain; always takes the \
                         {taken}-branch, {dead}-branch is dead"
                    ),
                });
            }
        }
    }

    let dead: Vec<usize> = (0..n).filter(|&s| !live[s]).collect();
    if !dead.is_empty() {
        let shown: Vec<String> = dead.iter().take(8).map(|s| s.to_string()).collect();
        let ellipsis = if dead.len() > 8 { ", …" } else { "" };
        diags.push(Diagnostic {
            severity: Severity::Info,
            analysis: Analysis::DeadCode,
            code: "dead-code",
            slot: Some(dead[0] as u32),
            root: None,
            message: format!(
                "{} instruction(s) cannot influence any root over the domain \
                 (slots {}{ellipsis})",
                dead.len(),
                shown.join(", ")
            ),
        });
    }

    // Symbols whose every read sits in dead code still demand a binding
    // from the caller but never affect an output.
    let table = program.symbols();
    for (idx, name) in table.names().iter().enumerate() {
        let mut reads = 0usize;
        let mut live_reads = 0usize;
        for (slot, instr) in program.instrs().enumerate() {
            if instr == Instr::Sym(idx as u32) {
                reads += 1;
                if live[slot] {
                    live_reads += 1;
                }
            }
        }
        if reads > 0 && live_reads == 0 {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                analysis: Analysis::DeadCode,
                code: "unused-symbol",
                slot: None,
                root: None,
                message: format!("symbol `{name}` is only read by dead code"),
            });
        }
    }

    // Registry declarations the program never reads: usually a stale
    // registry, occasionally a symbol the analyzer dropped by mistake.
    for name in registry.symbol_names() {
        if table.index_of(name).is_none() {
            diags.push(Diagnostic {
                severity: Severity::Info,
                analysis: Analysis::DeadCode,
                code: "undeclared-read",
                slot: None,
                root: None,
                message: format!("declared symbol `{name}` is not read by the program"),
            });
        }
    }

    diags
}
