//! Wall-clock profiles: the host-time view that reconciles against the
//! simulated step counts.
//!
//! The step counters answer "how long would the PPA take"; a
//! [`MicroProfile`] answers "where did the *simulator* spend host time",
//! per micro-op class and backend, so a slow run can be attributed either
//! to genuinely many simulated steps or to expensive per-step host work
//! (large planes, costly word kernels).

use crate::json::Json;
use crate::metrics::Metrics;
use std::collections::BTreeMap;

/// Wall-clock and invocation tally of one micro-op class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassWall {
    /// Host nanoseconds attributed to the class.
    pub nanos: u64,
    /// Instructions of this class that were timed.
    pub count: u64,
}

/// Per-instruction-class wall-clock attribution for one execution backend.
///
/// `ppa-machine` wraps the post-issue mechanics of every costed primitive
/// in a timer and records the elapsed host nanoseconds under the
/// instruction's class label (`"alu"`, `"shift"`, ...), so each class's
/// `count` reconciles 1:1 with the controller's `steps.<class>` counters.
/// The profile identifies which backend executed (`"scalar"` or
/// `"packed"`), emits into a [`Metrics`] registry as
/// `exec.<backend>.<class>.ns` / `.count`, and renders as
/// `inferno`-compatible folded-stack lines for flamegraphs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MicroProfile {
    backend: String,
    classes: BTreeMap<String, ClassWall>,
}

impl MicroProfile {
    /// A fresh, empty profile for the named execution backend.
    pub fn new(backend: &str) -> Self {
        MicroProfile {
            backend: backend.to_owned(),
            classes: BTreeMap::new(),
        }
    }

    /// The execution backend this profile attributes time to.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Attributes `nanos` host time to one instruction of `class`.
    pub fn record(&mut self, class: &str, nanos: u64) {
        let w = self.classes.entry(class.to_owned()).or_default();
        w.nanos += nanos;
        w.count += 1;
    }

    /// The tally for one class, if any instruction of it was timed.
    pub fn class(&self, class: &str) -> Option<ClassWall> {
        self.classes.get(class).copied()
    }

    /// All recorded classes, sorted by name.
    pub fn classes(&self) -> impl Iterator<Item = (&str, ClassWall)> {
        self.classes.iter().map(|(k, &w)| (k.as_str(), w))
    }

    /// Totals across all classes.
    pub fn total(&self) -> ClassWall {
        let mut t = ClassWall::default();
        for w in self.classes.values() {
            t.nanos += w.nanos;
            t.count += w.count;
        }
        t
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Folds the profile into a metrics registry as
    /// `exec.<backend>.<class>.ns` and `exec.<backend>.<class>.count`
    /// counters, the form the baseline snapshots and introspection
    /// endpoints consume.
    pub fn emit(&self, metrics: &mut Metrics) {
        for (class, w) in &self.classes {
            metrics.inc(&format!("exec.{}.{class}.ns", self.backend), w.nanos);
            metrics.inc(&format!("exec.{}.{class}.count", self.backend), w.count);
        }
    }

    /// Renders the profile as `inferno`-compatible folded-stack lines
    /// (`backend;class <nanos>`, one per class, sorted), suitable for
    /// `inferno-flamegraph` or any folded-stack consumer.
    pub fn folded_lines(&self) -> String {
        let mut out = String::new();
        for (class, w) in &self.classes {
            out.push_str(&format!("{};{} {}\n", self.backend, class, w.nanos));
        }
        out
    }

    /// Serializes the profile to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("backend", self.backend.as_str().into()),
            (
                "classes",
                Json::Object(
                    self.classes
                        .iter()
                        .map(|(k, w)| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    ("nanos", w.nanos.into()),
                                    ("count", w.count.into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Parses folded-stack text (`frame;frame;... <count>` per line) into
/// `(stack, count)` pairs, validating the `inferno` line grammar: at
/// least one frame, no empty frames, and a trailing unsigned integer
/// separated by a single space.
///
/// # Errors
/// A description of the first malformed line (1-based line number).
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no count separator"))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {lineno}: count `{count}` not a u64"))?;
        let frames: Vec<String> = stack.split(';').map(str::to_owned).collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {lineno}: empty frame in `{stack}`"));
        }
        out.push((frames, count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_profile_accumulates_per_class() {
        let mut p = MicroProfile::new("packed");
        p.record("alu", 100);
        p.record("alu", 50);
        p.record("bus-or", 7);
        assert_eq!(p.backend(), "packed");
        assert_eq!(
            p.class("alu"),
            Some(ClassWall {
                nanos: 150,
                count: 2
            })
        );
        assert_eq!(
            p.total(),
            ClassWall {
                nanos: 157,
                count: 3
            }
        );
        assert!(!p.is_empty());
        assert!(MicroProfile::new("scalar").is_empty());
    }

    #[test]
    fn micro_profile_emits_exec_counters() {
        let mut p = MicroProfile::new("packed");
        p.record("shift", 40);
        p.record("shift", 2);
        let mut m = Metrics::new();
        p.emit(&mut m);
        assert_eq!(m.counter("exec.packed.shift.ns"), 42);
        assert_eq!(m.counter("exec.packed.shift.count"), 2);
    }

    #[test]
    fn folded_lines_parse_as_inferno_stacks() {
        let mut p = MicroProfile::new("packed");
        p.record("alu", 123);
        p.record("bus-or", 9);
        let folded = p.folded_lines();
        let stacks = parse_folded(&folded).unwrap();
        assert_eq!(
            stacks,
            vec![
                (vec!["packed".to_owned(), "alu".to_owned()], 123),
                (vec!["packed".to_owned(), "bus-or".to_owned()], 9),
            ]
        );
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no-count-here").is_err());
        assert!(parse_folded("a;b x").is_err());
        assert!(parse_folded("a;;b 3").is_err());
        assert_eq!(parse_folded("").unwrap(), vec![]);
        assert_eq!(
            parse_folded("a;b;c 5\n").unwrap(),
            vec![(vec!["a".to_owned(), "b".to_owned(), "c".to_owned()], 5u64)]
        );
    }

    #[test]
    fn micro_profile_json_shape() {
        let mut p = MicroProfile::new("scalar");
        p.record("global-or", 11);
        let j = p.to_json();
        assert_eq!(j.get("backend").unwrap().as_str(), Some("scalar"));
        let class = j.get("classes").unwrap().get("global-or").unwrap();
        assert_eq!(class.get("nanos").unwrap().as_u64(), Some(11));
        assert_eq!(class.get("count").unwrap().as_u64(), Some(1));
    }
}
