//! Shared pieces of the repo benchmark: seeded generation, output
//! checks, statistics, `/proc` readers, spans and the metric catalogue.
//! The timed `harness` and the leaf-layer `probe` are the two bins built
//! on it; README.md in this directory is the guide.

pub mod gen;
pub mod metrics;
pub mod model;
pub mod procstat;
pub mod spans;
pub mod stats;
