//! The host record printed with every result, and peak resident memory.

use std::process::Command;

/// What a reader needs to interpret a result: where and how it ran.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// Worker threads the workload was given.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` (the
    /// benchmark may run from a plain export of the tree).
    pub commit: String,
}

impl Host {
    /// Probes the host.
    pub fn probe(seed: u64, threads: usize) -> Host {
        Host {
            nproc: simcore::par::available_threads(),
            threads,
            seed,
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// True when a parallel speed-up can be measured at all.
    pub fn speedup_measurable(&self) -> bool {
        self.nproc > 1 && self.threads > 1
    }

    /// One `host:` line.
    pub fn render(&self) -> String {
        format!(
            "host: nproc={} threads={} seed={} rustc=\"{}\" commit={}{}",
            self.nproc,
            self.threads,
            self.seed,
            self.rustc,
            self.commit,
            if self.speedup_measurable() {
                ""
            } else {
                " (one thread: fig.*.speedup not measurable, reported as 0)"
            }
        )
    }
}

/// First line of a command's standard output, or `unknown`. The command
/// runs to completion before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn one_thread_marks_speedup_unmeasurable() {
        let h = Host {
            nproc: 1,
            threads: 1,
            seed: 3,
            rustc: "rustc x".into(),
            commit: "unknown".into(),
        };
        assert!(!h.speedup_measurable());
        assert!(h.render().contains("not measurable"));
        let h = Host {
            nproc: 2,
            threads: 2,
            ..h
        };
        assert!(h.speedup_measurable());
    }
}
