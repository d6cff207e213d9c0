//! # fred-bench — experiment harness
//!
//! Shared workload builders and experiment runners used by both the
//! `repro` binary (which prints every table and figure of the paper) and
//! the Criterion benches (which time the same regeneration code paths).
//!
//! Experiment index (see `DESIGN.md` / `EXPERIMENTS.md`):
//!
//! | id | paper artifact | runner |
//! |----|----------------|--------|
//! | T1-T4 | Tables I-IV (running example) | [`tables::render_all`] |
//! | F2 | Figure 2 fuzzy system | [`tables::figure2_demo`] |
//! | F4 | `(P∘P′)` vs k | [`figures::figure_sweep`] |
//! | F5 | `(P∘P̂)` vs k | [`figures::figure_sweep`] |
//! | F6 | gain `G` vs k | [`figures::figure_sweep`] |
//! | F7 | utility `U_k` vs k | [`figures::figure_sweep`] |
//! | F8 | `H` vs k, `k_opt` | [`figures::figure8`] |
//! | A1-A4 | ablations | [`ablations`] |

#![warn(missing_docs)]

pub mod ablations;
pub mod ckpt;
pub mod codec;
pub mod compare;
pub mod figures;
pub mod perf;
pub mod stages;
pub mod tables;
pub mod world;

pub use world::{faculty_world, World, WorldConfig};
