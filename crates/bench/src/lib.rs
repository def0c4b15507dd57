//! # ev-bench — benchmark harness for the Ev-Edge reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§6):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_sparsity_ops` | Figure 1 — event sparsity vs operations |
//! | `fig2_representations` | Figure 2 — event-representation compute/memory survey |
//! | `fig3_frame_density` | Figure 3 — per-network frame density |
//! | `fig5_temporal_density` | Figure 5 — temporal event density |
//! | `fig8_single_task` | Figure 8 — single-task speedups |
//! | `fig9_multi_task` | Figure 9 — multi-task mapping comparison |
//! | `fig10_search` | Figure 10 — search convergence & vs random |
//! | `ext_sweep_grid` | Extension — parallel NMP configuration-sweep grid |
//! | `table1_networks` | Table 1 — network summary |
//! | `table2_accuracy` | Table 2 — accuracy baseline vs Ev-Edge |
//! | `conformance` | All of the above, as declarative `specs/*.json` |
//!
//! Each binary accepts `--quick` (reduced budget) and `--json <path>`
//! (machine-readable artifact). Host-time measurement lives in the
//! separate `perfbench` crate. The [`conformance`] module pins every
//! artifact claim as a data-driven spec; `./kick-tires.sh` at the repo
//! root reproduces everything in one command.

#![warn(missing_docs)]

pub mod conformance;
pub mod experiments;
pub mod report;
