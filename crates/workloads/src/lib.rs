//! # mapro-workloads — the paper's concrete programs
//!
//! Generators for every example and benchmark workload of the paper, each
//! packaged with its attribute handles and (where the paper discusses
//! them) intent compilers, counter placement and invariants:
//!
//! * `gwlb` — the cloud gateway & load balancer (Fig. 1, Table 1,
//!   Fig. 4): exact figure instance plus the §5 parametric N×M form.
//! * `l3` — the L3 forwarding pipeline (Fig. 2).
//! * `vlan` — the Fig. 3 counterexample table.
//! * `sdx` — the appendix's SDX use case (Fig. 5).
//! * `random_tables` — random tables with planted dependencies for
//!   property tests.
//! * `enterprise` — a composed ACL → NAT → L3 edge pipeline (extension):
//!   per-stage normalization in a program whose rewrites feed later
//!   matches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod enterprise;
pub(crate) mod gwlb;
pub(crate) mod l3;
pub(crate) mod random_tables;
pub(crate) mod sdx;
pub(crate) mod vlan;

pub use enterprise::Enterprise;
pub use gwlb::{weighted_split, Gwlb, Service};
pub use l3::L3;
pub use random_tables::{random_table, RandomSpec, RandomTable};
pub use sdx::Sdx;
pub use vlan::Vlan;
