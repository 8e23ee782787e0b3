//! The concurrency facade the workspace's engine code imports instead of
//! `std::sync` / `parking_lot` / `crossbeam`.
//!
//! * Default build: thin zero-cost wrappers over the real primitives
//!   (the private `real` module).
//! * With the `model` feature: instrumented versions whose every visible
//!   operation is a scheduler-controlled sync point (the private `model`
//!   module). On
//!   threads that are not part of an active model execution the
//!   instrumented primitives pass straight through to the real ones, so
//!   feature-unified workspace builds behave identically outside
//!   [`crate::explore`].
//!
//! Both implementations expose the same poison-free API surface:
//! `Mutex`, `RwLock`, `Condvar`, `AtomicUsize`, `AtomicU64`, `Ordering`,
//! `Arc`, `SegQueue` (with a [`SegQueue::pooled`] constructor that opts a
//! queue into the pool-leak analysis), `spawn`, `scope`, `yield_now`, and
//! `available_parallelism`.
//!
//! [`Published`]/[`Cached`] — the epoch-published snapshot cell — are
//! built *on top of* the facade primitives in the private `published` module and therefore
//! compile once for both variants: the real build gets a plain
//! atomic-epoch cell, the model build gets every publish/load as a
//! scheduler-visible sync point for free.

pub use std::sync::Arc;

mod published;
pub use published::{Cached, Published};

#[cfg(not(feature = "model"))]
mod real;
#[cfg(not(feature = "model"))]
pub use real::*;

#[cfg(feature = "model")]
mod model;
#[cfg(feature = "model")]
pub use model::*;
