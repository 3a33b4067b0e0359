//! RTL emission and cycle-accurate verification for generated designs.
//!
//! The paper emits synthesizable Verilog through SpinalHDL and verifies its
//! performance model against RTL simulation (§VI-A). This crate plays both
//! roles without external tooling:
//!
//! * [`verilog`] — a structural Verilog-2001 emitter over the backend DAG;
//! * [`sim`] — an *edge-accurate* simulator over the ADG: tensor values
//!   travel only through the planned interconnections (read ports, wires,
//!   delay FIFOs with their per-dataflow programmed depths, and the systolic
//!   timestamp biases), each datum tagged with its tensor index so a wrong
//!   topology or depth is caught as a delivery failure, not a silent
//!   coincidence. The computed output is compared against the workload's
//!   reference loop nest in the integration tests. [`simulate`] runs the
//!   ADG, not the lowered DAG and not the emitted Verilog, so it does not
//!   check what [`emit_verilog`] prints.

pub mod sim;
pub mod verilog;

pub use sim::{simulate, SimOutput, SimStats};
pub use verilog::emit_verilog;
