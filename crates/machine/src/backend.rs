//! Runtime backend selection: one value names the host executor.
//!
//! The simulated machine is one SIMD controller issuing one instruction
//! stream; how the host executes that stream — the scalar reference or
//! packed bit-plane words — never changes results or step counts.
//! [`BackendSpec`] carries that choice as a plain value (parsed from a CLI
//! flag, stored in a service config, drawn by a test harness), and
//! [`BackendSpec::dispatch`] is the single place that turns it into a
//! concrete [`Executor`]. The match runs once per machine build; the
//! visitor's body is monomorphised per executor, so the kernels it drives
//! never pay for the indirection.

use std::fmt;
use std::str::FromStr;

use crate::isa::{Executor, ScalarBackend};
use crate::packed::PackedBackend;

/// A host execution backend, chosen at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// The scalar reference backend ([`ScalarBackend`]).
    Scalar,
    /// Packed 64-PE bit-plane words ([`PackedBackend`]).
    Packed,
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
            BackendSpec::Packed => visitor.run(PackedBackend::new()),
        }
    }
}

impl fmt::Display for BackendSpec {
    /// `scalar` or `packed` — also the wire protocol's `backend` string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendSpec::Scalar => "scalar",
            BackendSpec::Packed => "packed",
        })
    }
}

impl FromStr for BackendSpec {
    type Err = String;

    /// Parses exactly the [`Display`](fmt::Display) form.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(BackendSpec::Scalar),
            "packed" => Ok(BackendSpec::Packed),
            other => Err(format!(
                "unknown backend `{other}` (expected scalar|packed)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_SPEC: [BackendSpec; 2] = [BackendSpec::Scalar, BackendSpec::Packed];

    #[test]
    fn display_round_trips_through_from_str() {
        for spec in EVERY_SPEC {
            let text = spec.to_string();
            assert_eq!(text.parse::<BackendSpec>(), Ok(spec), "{text}");
        }
        assert_eq!(BackendSpec::Scalar.to_string(), "scalar");
        assert_eq!(BackendSpec::Packed.to_string(), "packed");
    }

    #[test]
    fn parser_rejects_everything_but_the_two_kinds() {
        for bad in [
            "pakced",
            "threaded",
            "threaded/64x4",
            "packed/64",
            "packed/256",
            "scalar/64",
            "",
        ] {
            let err = bad.parse::<BackendSpec>().unwrap_err();
            assert!(err.contains(&format!("unknown backend `{bad}`")), "{err}");
            assert!(err.contains("scalar|packed"), "{err}");
        }
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
        for spec in EVERY_SPEC {
            assert_eq!(spec.dispatch(Name), spec.to_string());
        }
    }
}
