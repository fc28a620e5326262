//! One module per reproduced table/figure. See DESIGN.md §3 for the
//! experiment index.

pub mod extensions;
pub mod figures_accuracy;
pub mod figures_perf;
pub mod figures_study;
pub mod inv;
pub mod tables;
pub mod util;
