//! Correctness bookkeeping: every timed operation is one attempt, and
//! it fails when it errors or its answer disagrees with a reference
//! that does not come from the code under test.

use std::collections::BTreeMap;

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

const KEPT_FAILURES: usize = 8;

impl Checks {
    /// Records one operation's outcome.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(format!("{what}: {message}"));
            }
        }
    }

    /// Folds another thread's record into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `got` must equal `want`.
pub fn equal<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Two texts must be byte-equal; the error names the first
/// differing line.
pub fn same_text(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "{what}: differs from the reference at line {} ({} vs {} bytes)",
        line + 1,
        got.len(),
        want.len()
    ))
}

/// Two rendered diagnostic lists must be identical.
pub fn same_lines(what: &str, got: &[String], want: &[String]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.len().min(want.len()));
    Err(format!(
        "{what}: {} lines vs {} from the reference, first difference at {}",
        got.len(),
        want.len(),
        first
    ))
}

/// Per-rule counts of rendered diagnostics (`severity[rule] @ …`).
pub fn rule_counts(rendered: &[String]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for line in rendered {
        let rule = line
            .split_once('[')
            .and_then(|(_, rest)| rest.split_once(']'))
            .map_or("?", |(rule, _)| rule);
        *counts.entry(rule.to_string()).or_default() += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_answer_counts_as_failed() {
        let want = "net 1 A\nnet 2 B\n";
        let mut corrupted = want.to_string().into_bytes();
        corrupted[5] = b'9';
        let corrupted = String::from_utf8(corrupted).unwrap();

        let mut checks = Checks::default();
        checks.record("extract", same_text("wirelist", want, want));
        checks.record("extract", same_text("wirelist", &corrupted, want));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.failures[0].contains("line 1"));
        assert_eq!(checks.failed_ratio(), 0.5);

        let lines = vec!["error[floating-gate] @ (0, 0): x".to_string()];
        let mut dropped = lines.clone();
        dropped.pop();
        checks.record("lint", same_lines("lint", &dropped, &lines));
        checks.record("devices", equal("devices", 15, 16));
        assert_eq!((checks.attempted, checks.failed), (4, 3));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Checks::default();
        a.record("x", Ok(()));
        let mut b = Checks::default();
        b.record("y", Err("bad".into()));
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (2, 1));
        assert_eq!(a.failures, vec!["y: bad".to_string()]);
    }

    #[test]
    fn rule_counts_read_the_rule_out_of_each_render() {
        let lines: Vec<String> = [
            "warning[undriven-net] @ (1, 2): a",
            "error[floating-gate] @ (3, 4): b",
            "warning[undriven-net] @ (5, 6): c",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let counts = rule_counts(&lines);
        assert_eq!(counts["undriven-net"], 2);
        assert_eq!(counts["floating-gate"], 1);
    }
}
