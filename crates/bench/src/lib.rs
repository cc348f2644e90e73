//! Helpers shared by the dependency-free bench binaries (`hotpath`,
//! `sweep`, `fleet`): the median their JSON reports, and fail-fast flag
//! parsing.

use std::str::FromStr;

/// Median of a sample set (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample set");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A bench binary's command line. Every error names the offending flag
/// or value, prints the usage line, and exits with status 2.
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// The process arguments of `bin`, whose flags `usage` lists.
    pub fn new(bin: &'static str, usage: &'static str) -> Self {
        Self { bin, usage, args: std::env::args().skip(1) }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Report `msg` with the usage line and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: error: {msg}\nusage: {} {}", self.bin, self.bin, self.usage);
        std::process::exit(2);
    }

    /// The value operand of `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.raw(flag);
        v.parse().unwrap_or_else(|_| self.fail(&format!("{flag}: cannot parse {v:?}")))
    }

    /// The value operand of `flag` as a non-empty comma-separated list.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Vec<T> {
        let v = self.raw(flag);
        if v.trim().is_empty() {
            self.fail(&format!("{flag}: empty list"));
        }
        v.split(',')
            .map(|x| {
                x.trim()
                    .parse()
                    .unwrap_or_else(|_| self.fail(&format!("{flag}: cannot parse {x:?}")))
            })
            .collect()
    }

    /// Fail naming `flag` unless `ok`.
    pub fn require(&self, ok: bool, flag: &str, what: &str) {
        if !ok {
            self.fail(&format!("{flag}: {what}"));
        }
    }

    fn raw(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| self.fail(&format!("{flag} requires a value")))
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
