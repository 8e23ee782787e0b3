//! Structured search traces — the paper's Table 2, as a feature.
//!
//! Table 2 of the paper walks through kNDS state (the queue `Ec`, the
//! candidate list `Ld`, the heap `Hk`, the bounds `D⁻`/`D⁺ₖ`) iteration by
//! iteration. [`TraceEvent`] streams the same information from a live
//! search, for debugging, teaching, and the `algorithm_trace` example.

use cbr_corpus::DocId;

/// One step of a kNDS search. Events arrive in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A breadth-first level (or Dijkstra bucket) begins.
    LevelStart {
        /// Distance of the states about to be processed.
        level: u32,
        /// Number of states in the frontier.
        frontier: usize,
    },
    /// A document's candidate entry (the `Md` bookkeeping of Equation 5)
    /// as the level's examination finds it: emitted from the
    /// one linear pass over the candidate rows, so once per still-unexamined
    /// document per level, in row (first-touch) order, before the level's
    /// first `Examined` event. Tracing adds no ordering pass of its own.
    Candidate {
        /// The document.
        doc: DocId,
        /// Query concepts covered so far.
        covered: u32,
        /// Current forward partial distance (Equation 5 numerator state).
        partial: u64,
    },
    /// A document was examined: its exact distance was determined.
    Examined {
        /// The document.
        doc: DocId,
        /// Its lower bound at examination time (Equation 6; for SDS
        /// Equation 8 with the exact reverse half).
        lower_bound: f64,
        /// Its error estimate (Equation 9, over the forward half).
        error: f64,
        /// The exact distance.
        exact: f64,
        /// Whether an exact probe was needed — the paper's DRC call
        /// (`false` = finalized from complete partial information,
        /// Section 5.3 optimization 3).
        via_drc: bool,
    },
    /// The examination loop stopped for this level.
    ExamineBreak {
        /// Smallest lower bound left unexamined (`D⁻` candidate part).
        min_unexamined: f64,
        /// Current k-th distance (`D⁺ₖ`).
        threshold: f64,
    },
    /// The search terminated early: `D⁻ ≥ D⁺ₖ`.
    Terminated {
        /// Level at which termination fired.
        level: u32,
        /// The final `D⁻`.
        d_minus: f64,
        /// The final `D⁺ₖ`.
        threshold: f64,
    },
    /// The expansion exhausted the reachable ontology; remaining candidates
    /// were finalized from their (now exact) partial distances.
    Exhausted {
        /// Number of candidates finalized in the drain.
        finalized: usize,
    },
}

/// A sink receiving [`TraceEvent`]s.
pub type TraceSink<'a> = Box<dyn FnMut(TraceEvent) + 'a>;
