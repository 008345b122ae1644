//! Always-on serving mode: a long-lived session that survives a kill.
//!
//! Builds the supervised goal rig behind the `simserve` step API, admits
//! it to a one-slot `simserve::Server`, feeds it a live sample stream,
//! and shows the full robustness loop: ingest samples, receive
//! directives, reconfigure the goal mid-flight, checkpoint, "crash"
//! (`Server::kill` drops the live session) and come back through the
//! slot's own recovery ladder — the newest generation frozen after the
//! last accepted batch — verifying the salvaged checkpoint digest
//! before serving on to the horizon.
//!
//! Run with: `cargo run --release --example serve_session`

use energy_adaptation::experiments::serve::build_session;
use energy_adaptation::simcore::SimDuration;
use energy_adaptation::simserve::{Directive, ReconfigCommand, Sample, Server};

/// The live input stream: a tick every 20 s out to 1200 s, a goal
/// revision at 300 s, and one corrupt sample the session must survive.
fn stream() -> Vec<Sample> {
    let mut samples = Vec::new();
    for t in (20..=1200).step_by(20) {
        samples.push(Sample::tick(t as f64));
        if t == 300 {
            samples.push(Sample::reconfig(
                300.5,
                ReconfigCommand::Goal(SimDuration::from_secs(1200)),
            ));
            samples.push(Sample::tick(f64::NAN)); // a malformed feed entry
        }
    }
    samples
}

fn describe(d: &Directive) -> Option<String> {
    let t = d.at().as_secs_f64();
    match d {
        Directive::Fidelity {
            pid,
            direction,
            level,
            ..
        } => Some(format!(
            "{t:7.1}s  fidelity: pid {pid} {direction} -> level {level}"
        )),
        Directive::ReconfigApplied { kind, value, .. } => {
            Some(format!("{t:7.1}s  reconfig applied: {kind} = {value}"))
        }
        Directive::ReconfigRejected { kind, reason, .. } => {
            Some(format!("{t:7.1}s  reconfig rejected: {kind} ({reason})"))
        }
        Directive::DeadLettered { reason, .. } => Some(format!("{t:7.1}s  dead letter: {reason}")),
        Directive::Checkpointed { seq, digest, .. } => Some(format!(
            "{t:7.1}s  checkpoint #{seq}: digest {digest:#018x}"
        )),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SEED: u64 = 42;
    let samples = stream();

    // --- Serve: ingest the stream, print what the control plane does.
    println!("serving the supervised goal rig (seed {SEED})...");
    let mut server = Server::new(1)?;
    let id = server.admit(Box::new(|| build_session(SEED)))?;
    let mut fed = 0;
    let mut salvage = None;
    for chunk in samples.chunks(8) {
        for d in server.ingest(id, chunk)? {
            if let Some(line) = describe(&d) {
                println!("  {line}");
            }
        }
        fed += chunk.len();
        // "Crash" once the third checkpoint is journaled. The slot froze
        // the session after this batch; the checkpoint is salvaged.
        salvage = server
            .session(id)?
            .checkpoints()
            .last()
            .copied()
            .filter(|c| c.seq >= 2);
        if salvage.is_some() {
            break;
        }
    }
    let salvage = salvage.ok_or("run ended before the third checkpoint")?;
    println!(
        "\n-- kill -9 after {fed} samples; salvaged checkpoint: t={:.0}s digest={:#018x}\n",
        salvage.t.as_secs_f64(),
        salvage.digest
    );

    // --- Resume: the kill drops the live session and the slot rebuilds
    // it from its newest generation that thaws (the older one is the
    // fallback); verify the salvaged digest, and serve on.
    server.kill(id)?;
    if server.session(id)?.checkpoints().last() != Some(&salvage) {
        return Err("resumed run diverged from the salvaged checkpoint".into());
    }
    let stats = server.stats(id)?;
    println!(
        "restored ({} restore, {} fallbacks); salvage point verified bit-identical",
        stats.restores, stats.fallbacks
    );
    server.ingest(id, &samples[fed..])?;
    let report = server.finish(id)?;
    println!(
        "  resumed to the horizon: end={:.0}s, consumed {:.0} J, residual {:.0} J",
        report.end.as_secs_f64(),
        report.total_j,
        report.residual_j
    );
    let resumed = server.session(id)?;
    println!(
        "  {} dead letters, latest checkpoint {:?}",
        resumed.dead_letters().map(|d| d.total()).unwrap_or(0),
        resumed.checkpoints().last()
    );
    Ok(())
}
