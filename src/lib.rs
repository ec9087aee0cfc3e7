//! # ppa-suite — reproduction of the IPPS'98 PPA minimum-cost-path system
//!
//! Umbrella crate re-exporting the whole workspace; the root package also
//! hosts the cross-crate integration tests (`tests/`) and the runnable
//! examples (`examples/`). See the individual crates for the real APIs:
//!
//! * [`machine`] — the Polymorphic Processor Array simulator;
//! * [`ppc`] — the Polymorphic Parallel C runtime;
//! * [`lang`] — the PPC language front end and interpreter;
//! * [`mcp`] — the paper's minimum-cost-path algorithm and extensions;
//! * [`graph`] — weight matrices, generators, sequential oracles;
//! * [`baselines`] — hypercube / GCN / plain-mesh / sequential comparators.
//!
//! ## Quickstart
//!
//! ```
//! use ppa_suite::prelude::*;
//!
//! let w = WeightMatrix::from_edges(3, &[(0, 1, 2), (1, 2, 2), (0, 2, 9)]);
//! let out = minimum_cost_path_auto(&w, 2).unwrap();
//! assert_eq!(out.sow, vec![4, 2, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ppa_baselines as baselines;
pub use ppa_graph as graph;
pub use ppa_machine as machine;
pub use ppa_mcp as mcp;
pub use ppa_ppc as ppc;
pub use ppc_lang as lang;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use ppa_baselines::{all_solvers, BaselineResult, McpSolver};
    pub use ppa_graph::{gen, reference, validate, Weight, WeightMatrix, INF};
    pub use ppa_machine::{Coord, Dim, Direction, StepReport, ThreadedBackend};
    pub use ppa_mcp::apsp::{all_pairs, single_source};
    pub use ppa_mcp::closure::{reachability, transitive_closure};
    pub use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path, minimum_cost_path_auto};
    pub use ppa_mcp::path::{all_paths, extract_path, max_hops, path_cost};
    pub use ppa_mcp::{McpError, McpOutput, McpStats};
    pub use ppa_ppc::{Parallel, Ppa, PpcError};
    pub use ppc_lang::programs::{run_minimum_cost_path, InterpretedMcp};
}
