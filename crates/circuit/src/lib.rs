//! # tdsigma-circuit — behavioral mixed-signal simulation substrate
//!
//! This crate stands in for the commercial transistor-level simulator the
//! paper used for post-layout verification. It provides continuous-time
//! behavioral models of every analog block in the proposed ADC:
//!
//! * [`vco::VcoParams`] — the ring oscillator modelled as a phase-domain
//!   integrator (`dφ/dt = 2π(f0 + K_vco·V_ctrl)`) with white-FM phase
//!   noise and per-instance mismatch,
//! * [`comparator::ClockedComparator`] — a clocked regenerative comparator
//!   with offset, input-referred noise and a metastability window; models
//!   both the proposed NOR3-based SAFF and a strongARM reference,
//! * [`noise`] & [`mismatch`] — reproducible stochastic plumbing on top of
//!   a seeded RNG,
//! * [`transient`] — drift-free clocking for fixed-step transients.
//!
//! The crate knows nothing about the ADC architecture; `tdsigma-core` wires
//! these blocks into slices, solves the resistive V_CTRL summing nodes, and
//! closes the delta-sigma loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comparator;
pub mod mismatch;
pub mod noise;
pub mod transient;
pub mod vco;

pub use comparator::ClockedComparator;
pub use mismatch::MismatchModel;
pub use noise::SimRng;
pub use transient::{Clock, EdgeKind};
