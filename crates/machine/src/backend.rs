//! Runtime backend selection: one value names the host executor.
//!
//! The simulated machine is one SIMD controller issuing one instruction
//! stream; how the host executes that stream — the scalar reference, packed
//! bit-plane words, or packed words sharded over a thread pool, at 64 or 256
//! bits per word — never changes results or step counts. [`BackendSpec`]
//! carries that choice as a plain value (parsed from a CLI flag, stored in
//! a service config, drawn by a test harness), and
//! [`BackendSpec::dispatch`] is the single place that turns it into a
//! concrete [`Executor`]. The match runs once per machine build; the
//! visitor's body is monomorphised per executor, so the kernels it drives
//! never pay for the indirection.

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;

use crate::isa::{Executor, ScalarBackend};
use crate::packed::PackedBackend;
use crate::threaded::ThreadedBackend;
use crate::word::{WordWidth, W256, W64};

/// A host execution backend, chosen at run time. Only meaningful
/// combinations are expressible: the scalar reference has no machine word,
/// and only the threaded backend has a pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// The scalar reference backend ([`ScalarBackend`]).
    Scalar,
    /// Packed bit-plane words ([`PackedBackend`]).
    Packed {
        /// Machine-word width.
        word: WordWidth,
    },
    /// Packed words sharded across a persistent pool ([`ThreadedBackend`]).
    Threaded {
        /// Pool width: spawned workers plus the issuing thread.
        threads: NonZeroUsize,
        /// Machine-word width.
        word: WordWidth,
    },
}

/// A computation generic over the execution backend; see
/// [`BackendSpec::dispatch`].
pub trait BackendVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation on a fresh executor.
    fn run<E: Executor>(self, exec: E) -> Self::Output;
}

impl BackendSpec {
    /// Hands `visitor` a fresh executor of the kind this spec names.
    pub fn dispatch<V: BackendVisitor>(self, visitor: V) -> V::Output {
        match self {
            BackendSpec::Scalar => visitor.run(ScalarBackend),
            BackendSpec::Packed {
                word: WordWidth::W64,
            } => visitor.run(PackedBackend::<W64>::new()),
            BackendSpec::Packed {
                word: WordWidth::W256,
            } => visitor.run(PackedBackend::<W256>::new()),
            BackendSpec::Threaded {
                threads,
                word: WordWidth::W64,
            } => visitor.run(ThreadedBackend::<W64>::new(threads.get())),
            BackendSpec::Threaded {
                threads,
                word: WordWidth::W256,
            } => visitor.run(ThreadedBackend::<W256>::new(threads.get())),
        }
    }

    /// The backend kind without its parameters: `scalar`, `packed`, or
    /// `threaded` (the wire protocol's `backend` string).
    pub fn kind(self) -> &'static str {
        match self {
            BackendSpec::Scalar => "scalar",
            BackendSpec::Packed { .. } => "packed",
            BackendSpec::Threaded { .. } => "threaded",
        }
    }

    /// Assembles a spec from its three command-line spellings: the kind
    /// (`scalar|packed|threaded`), the word width (`64|256`), and the
    /// thread count. All three are validated whatever the kind; a kind
    /// that has no word or pool ignores those values.
    ///
    /// # Errors
    /// A message naming the unknown kind, the unknown width, or the
    /// invalid thread count.
    pub fn from_flags(kind: &str, word: &str, threads: &str) -> Result<Self, String> {
        let word: WordWidth = word.parse()?;
        let threads: NonZeroUsize = threads
            .parse()
            .map_err(|_| format!("thread count must be a positive integer, got `{threads}`"))?;
        match kind {
            "scalar" => Ok(BackendSpec::Scalar),
            "packed" => Ok(BackendSpec::Packed { word }),
            "threaded" => Ok(BackendSpec::Threaded { threads, word }),
            other => Err(format!(
                "unknown backend `{other}` (expected scalar|packed|threaded)"
            )),
        }
    }
}

impl fmt::Display for BackendSpec {
    /// `scalar`, `packed/<word>`, or `threaded/<word>x<threads>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Scalar => f.write_str("scalar"),
            BackendSpec::Packed { word } => write!(f, "packed/{word}"),
            BackendSpec::Threaded { threads, word } => write!(f, "threaded/{word}x{threads}"),
        }
    }
}

impl FromStr for BackendSpec {
    type Err = String;

    /// Parses exactly the [`Display`](fmt::Display) form.
    fn from_str(s: &str) -> Result<Self, String> {
        let (kind, config) = s.split_once('/').unwrap_or((s, "64"));
        let (word, threads) = config.split_once('x').unwrap_or((config, "1"));
        let spec = BackendSpec::from_flags(kind, word, threads)?;
        if spec.to_string() == s {
            Ok(spec)
        } else {
            Err(format!(
                "malformed backend spec `{s}` (expected scalar, packed/<64|256>, or threaded/<64|256>x<threads>)"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_spec() -> Vec<BackendSpec> {
        let mut specs = vec![BackendSpec::Scalar];
        for word in [WordWidth::W64, WordWidth::W256] {
            specs.push(BackendSpec::Packed { word });
            for threads in [1, 4, 8] {
                let threads = NonZeroUsize::new(threads).unwrap();
                specs.push(BackendSpec::Threaded { threads, word });
            }
        }
        specs
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for spec in every_spec() {
            let text = spec.to_string();
            assert_eq!(text.parse::<BackendSpec>(), Ok(spec), "{text}");
        }
        assert_eq!(BackendSpec::Scalar.to_string(), "scalar");
        let four = NonZeroUsize::new(4).unwrap();
        let threaded = BackendSpec::Threaded {
            threads: four,
            word: WordWidth::W256,
        };
        assert_eq!(threaded.to_string(), "threaded/256x4");
    }

    #[test]
    fn parser_rejects_unknown_kinds_widths_and_zero_threads() {
        let kind = BackendSpec::from_flags("pakced", "64", "4").unwrap_err();
        assert!(kind.contains("unknown backend `pakced`"), "{kind}");
        let width = BackendSpec::from_flags("packed", "128", "4").unwrap_err();
        assert!(width.contains("unknown word width '128'"), "{width}");
        let zero = BackendSpec::from_flags("threaded", "64", "0").unwrap_err();
        assert!(zero.contains("thread count"), "{zero}");
        // Validation does not depend on whether the kind uses the value.
        assert!(BackendSpec::from_flags("scalar", "64", "0").is_err());
        for bad in [
            "pakced/64",
            "packed/128",
            "threaded/64x0",
            "packed",
            "scalar/64",
        ] {
            assert!(bad.parse::<BackendSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn flags_build_the_spec_their_kind_names() {
        assert_eq!(
            BackendSpec::from_flags("scalar", "256", "8"),
            Ok(BackendSpec::Scalar)
        );
        assert_eq!(
            BackendSpec::from_flags("packed", "256", "8"),
            Ok(BackendSpec::Packed {
                word: WordWidth::W256
            })
        );
        let spec = BackendSpec::from_flags("threaded", "64", "8").unwrap();
        assert_eq!(spec.kind(), "threaded");
        assert_eq!(spec.to_string(), "threaded/64x8");
    }

    /// Reports the executor's backend name, so dispatch can be checked
    /// against the spec that chose it.
    struct Name;

    impl BackendVisitor for Name {
        type Output = &'static str;

        fn run<E: Executor>(self, _exec: E) -> &'static str {
            E::NAME
        }
    }

    #[test]
    fn dispatch_builds_the_named_executor() {
        let names: Vec<&str> = every_spec().into_iter().map(|s| s.dispatch(Name)).collect();
        assert_eq!(
            names,
            [
                "scalar",
                "packed",
                "threaded",
                "threaded",
                "threaded",
                "packed256",
                "threaded256",
                "threaded256",
                "threaded256",
            ]
        );
    }
}
