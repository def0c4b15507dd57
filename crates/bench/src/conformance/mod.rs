//! The declarative conformance suite.
//!
//! Every paper figure/table claim in this reproduction is pinned by a
//! *spec* — a JSON file under `specs/` declaring a scenario (binary,
//! arguments) plus the assertions its report must
//! satisfy — rather than by hand-written test code. The pieces:
//!
//! * [`spec`] — the [`ScenarioSpec`]/[`Assertion`] schema, parsed
//!   strictly (unknown fields rejected) via the vendored serde
//!   stand-in.
//! * [`diff`] — field-level comparison with f64 **bit** equality and
//!   dotted-path lookup.
//! * [`runner`] — spec discovery plus sandboxed parallel execution;
//!   the [`SuiteReport`] is byte-identical at any worker count.
//!
//! The `conformance` binary (and `./kick-tires.sh`) front this module;
//! `crates/bench/tests/conformance_suite.rs` runs the shipped specs
//! under `cargo test`.

pub mod diff;
pub mod runner;
pub mod spec;

pub use diff::{diff_values, lookup_path};
pub use runner::{
    discover_specs, run_spec, run_suite, BinPaths, RunnerOptions, SpecOutcome, SuiteReport,
};
pub use spec::{Assertion, ScenarioSpec, SPEC_FIELDS};
