//! Experiment harness regenerating every table and figure of the RobustHD
//! paper (DAC 2022).
//!
//! Each experiment module builds its workload from the synthetic dataset
//! generators, trains the models involved, applies the paper's fault
//! models, and returns typed result rows; [`paper`] renders them in the
//! layout of the paper's tables. The `robusthd` CLI is the crate's one
//! front end: its `paper` subcommand prints the artifacts, its `soak`,
//! `advsoak`, `throughput`, `trainbench` and `kernelbench` subcommands
//! call the extension modules, and its `servebench` and `fleetbench`
//! subcommands drive the serving harnesses in `robusthd-serve` directly.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — HDC quality loss vs noise, dimension, precision |
//! | [`table3`] | Table 3 — DNN/SVM/AdaBoost/HDC under random & targeted attack |
//! | [`table4`] | Table 4 — quality loss with/without RobustHD recovery |
//! | [`fig2`]   | Figure 2 — PIM efficiency of DNN and HDC vs GPU |
//! | [`fig3`]   | Figure 3 — recovery vs confidence threshold and substitution rate |
//! | [`fig4a`]  | Figure 4a — PIM lifetime under endurance wear |
//! | [`fig4b`]  | Figure 4b — DRAM refresh relaxation |
//! | [`ablation`] | Design-choice ablations (DESIGN.md §5/§8) |
//! | [`soak`]   | Extension — chaos soak of the closed-loop resilience supervisor |
//! | [`throughput`] | Extension — batched inference throughput across thread counts |
//! | [`trainbench`] | Extension — bit-sliced training throughput (bundle/retrain) across thread counts |
//! | [`kernelbench`] | Extension — execution-tier kernel throughput (reference vs wide) per kernel family |
//! | [`advsim`] | Extension — adversarial input-space attacks, disagreement hunting, joint soak |
//!
//! Experiments default to a laptop-scale subsample of the paper's datasets
//! (exact feature/class geometry, reduced split sizes); see
//! [`workload::Scale`].

#![forbid(unsafe_code)]

pub mod ablation;
pub mod advsim;
pub mod attack;
pub mod fig2;
pub mod fig3;
pub mod fig4a;
pub mod fig4b;
mod format;
pub mod kernelbench;
pub mod paper;
pub mod soak;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod throughput;
pub mod timing;
pub mod trainbench;
pub mod workload;

pub use workload::{EncodedWorkload, Scale};
