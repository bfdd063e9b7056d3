//! # dpod-data
//!
//! Workload generation for the `dp-odmatrix` experiments (§6.1 of the
//! paper):
//!
//! * [`dist`] — from-scratch samplers (Box–Muller normal, inverse-CDF
//!   Zipf) so the whole data path is under this workspace's tests;
//! * [`gaussian`] — the paper's synthetic *Gaussian* frequency matrices
//!   (uniform cluster centre, variance-controlled skew);
//! * [`zipf`] — the paper's synthetic *Zipf* matrices (skew parameter `a`);
//! * [`city`] — a seeded generative population model standing in for the
//!   proprietary Veraset data (DESIGN.md §5 documents the substitution),
//!   with presets for New York, Denver and Detroit density archetypes;
//! * [`trajectory`] — origin/stop/destination trip synthesis over a city;
//! * [`od`] — OD-matrix construction from trajectories at any granularity
//!   and stop count (§2.3).
//!
//! Everything is deterministic given a seed.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod city;
pub mod dist;
pub mod gaussian;
pub mod od;
pub mod timeframe;
pub mod trajectory;
pub mod zipf;

pub use city::{City, CityModel, Hotspot};
pub use gaussian::GaussianConfig;
pub use od::OdMatrixBuilder;
pub use trajectory::{Trajectory, TrajectoryConfig};
pub use zipf::ZipfConfig;
