//! # diesel-simnet — deterministic cluster simulation substrate
//!
//! The paper evaluates DIESEL on a 16-machine Infiniband cluster. This
//! crate replaces that hardware with a deterministic simulated-time model
//! so the cluster-scale experiments (Figs. 6, 9–12, 14, 15) reproduce the
//! paper's *shapes* on a laptop.
//!
//! Methodology (see DESIGN.md §6): every simulated actor (an I/O worker,
//! a training process) carries its own clock. Shared bottlenecks — a
//! metadata server, a KV instance, a NIC, a storage device — are
//! [`Resource`]s: k-server FIFO queues over simulated time. Executing an
//! operation means computing its *service time* from a device model and
//! asking each resource it crosses for a grant; queueing delays emerge
//! naturally when many actors hit one resource.
//!
//! The driver, [`run_actors`], is a closed loop: a deterministic,
//! bit-reproducible event loop that always advances the actor with the
//! smallest clock.
//!
//! Resources are internally synchronized, so real-thread drivers can
//! share them too when determinism is not required.

pub mod driver;
pub mod resource;
pub mod time;

pub use driver::{run_actors, SimActor, SimReport};
pub use resource::{Grant, Resource};
pub use time::SimTime;
