//! # ppa-machine — a functional simulator of the Polymorphic Processor Array
//!
//! The Polymorphic Processor Array (PPA) is a massively parallel SIMD
//! architecture built around an `n x n` mesh of processing elements (PEs).
//! Every PE carries a *switch box* that connects its four ports to two bus
//! systems — one horizontal bus per row and one vertical bus per column.
//! At every instruction the central SIMD controller selects a single global
//! *data movement direction* (North, East, South or West); each PE then
//! locally chooses one of two switch configurations:
//!
//! * **Short** — the bus passes through the PE, letting data propagate along
//!   the line;
//! * **Open** — the bus is cut at the PE and the PE itself drives the
//!   downstream segment.
//!
//! The Open nodes therefore partition every row/column bus into independent
//! sub-buses ("clusters") and each cluster receives, in a single controller
//! step, the value injected by its Open head. This crate models that
//! machine faithfully enough to carry the complexity claims of the paper
//! *"A Parallel Algorithm for Minimum Cost Path Computation on Polymorphic
//! Processor Array"* (Baglietto, Maresca, Migliardi — IPPS 1998):
//!
//! * [`Plane`] — a rectangular register plane holding one value per PE;
//! * [`Direction`]/[`Dim`]/[`Coord`] — mesh geometry ([`geometry`]);
//! * [`bus`] — the reconfigurable bus semantics (broadcast, wired-OR);
//! * [`Controller`] — SIMD step accounting: every controller instruction
//!   (parallel ALU op, shift, broadcast, bus OR, global OR) costs one step;
//! * [`Machine`] — the assembled machine: geometry + execution backend +
//!   controller, exposing the primitive instruction set;
//! * [`BackendSpec`] — the runtime choice of host execution backend
//!   (the scalar reference or packed bit-plane words), dispatched to a
//!   concrete [`Executor`] in one place (backends only affect host
//!   wall-clock, never the simulated step counts);
//! * [`render`] — ASCII visualization of switch settings and bus clusters
//!   (used to reproduce Figure 1 of the paper).
//!
//! ## Bus model
//!
//! Buses are modeled as *circular* (wrap-around) lines: a cluster is an Open
//! node plus the Short nodes that follow it in the data-movement direction,
//! in cyclic order up to (and excluding) the next Open node. The paper's
//! algorithm requires this totality (e.g. statement 16 of
//! `minimum_cost_path` broadcasts from diagonal PEs southwards and reads the
//! result in row `d`, which may lie *above* the injecting PE). A line with
//! no Open node has no driver: [`Machine::broadcast`] reports it as a
//! [`error::MachineError::BusFault`], while the wired-OR treats the whole
//! line as a single cluster.
//!
//! ## Quick example
//!
//! ```
//! use ppa_machine::{Machine, Direction, Plane};
//!
//! let mut m = Machine::new(4, 4);
//! // Row index plane: value r at every PE of row r.
//! let src = Plane::from_fn(m.dim(), |c| c.row as i64);
//! // Open the switch on row 2 only and broadcast southwards: every column
//! // is one cluster driven by the row-2 PE.
//! let open = Plane::from_fn(m.dim(), |c| c.row == 2);
//! let got = m.broadcast(&src, Direction::South, &open).unwrap();
//! assert!(got.iter().all(|&v| v == 2));
//! assert_eq!(m.controller().total_steps(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod budget;
pub mod bus;
pub mod controller;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod isa;
pub mod lane;
pub mod machine;
pub mod packed;
pub mod plane;
pub mod render;
pub mod switch;

pub use backend::{BackendSpec, BackendVisitor};
pub use budget::CancelToken;
pub use controller::{Controller, Op, StepReport};
pub use error::MachineError;
pub use faults::{FaultMap, FaultReport, SwitchFault, TransientFaults};
pub use geometry::{Axis, Coord, Dim, Direction};
pub use isa::{ExecStats, Executor, Fill, MicroOp, ScalarBackend};
pub use lane::LaneLayout;
pub use machine::Machine;
pub use packed::{PackedBackend, PackedMask};
pub use plane::Plane;
pub use ppa_obs::OccupancySampling;
pub use switch::SwitchConfig;
