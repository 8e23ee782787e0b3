//! kNDS — k-Nearest Document Search (Section 5 of the EDBT 2014 paper).
//!
//! The second core contribution of *Efficient Concept-based Document
//! Ranking*: an early-termination, branch-and-bound top-k algorithm that
//! evaluates both query types of Section 3.3 —
//!
//! * **RDS** (Relevant Document Search): top-k documents minimizing the
//!   document-query distance `Ddq` (Equation 2);
//! * **SDS** (Similar Document Search): top-k documents minimizing the
//!   symmetric document-document distance `Ddd` (Equation 3) —
//!
//! without any distance precomputation. The algorithm runs a parallel,
//! valid-path-constrained breadth-first expansion of the ontology from
//! every query concept, maintains per-document partial distances
//! (Equations 5/7) and lower bounds (Equations 6/8), and probes an exact
//! distance only when the **error estimate**
//! `εd = 1 − Dpartial/D⁻` (Equation 9) drops to the configured threshold
//! `εθ`. It terminates when the lower bound of every unexamined document
//! exceeds the distance of the current k-th result (`D⁻ ≥ D⁺ₖ`). An exact
//! probe joins the document's distance field with the query's ancestor
//! closure, where the paper runs DRC (`cbr-dradix`): the same distances,
//! from one routine that also builds the SDS query's field.
//!
//! Baselines from the paper's evaluation live alongside:
//!
//! * [`baseline`] — the no-pruning comparator of Section 6.2 (the exact
//!   distance of *every* document), and the exact distance of one pair;
//! * [`ta`] — a Threshold Algorithm comparator for RDS over
//!   distance-sorted postings, the Section 4.1 strawman the paper argues
//!   is impractical for SDS (implemented here to let the benches test that
//!   argument).
//!
//! Engineering extensions around the core algorithm:
//!
//! * [`weighted`] — kNDS over weighted edges (bucketed Dijkstra), the
//!   Section 7 future-work variant: the same Algorithm 2 loop as
//!   [`Knds`] under a different frontier policy;
//! * [`tuner`] — automatic `εθ` selection (the Figure 7 procedure);
//! * [`trace`] — structured search traces (the Table 2 walkthrough);
//! * progressive streaming ([`Hooks::on_final`] through [`Knds::run`],
//!   the one query entry point) per Section 5.3, optimization 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod ta;
pub mod trace;
pub mod tuner;
pub mod util;
pub mod weighted;
pub mod workspace;

pub use config::KndsConfig;
pub use engine::{Hooks, Knds, QueryKind, QueryResult, RankedDoc};
pub use metrics::QueryMetrics;
pub use trace::TraceEvent;
pub use tuner::tune_error_threshold;
pub use weighted::WeightedKnds;
pub use workspace::KndsWorkspace;
