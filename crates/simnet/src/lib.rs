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
//! Two drivers are provided, both bit-reproducible:
//!
//! * [`run_actors`] — closed loop: a deterministic event-loop that always
//!   advances the actor with the smallest clock.
//! * [`run_multi_tenant_observed`] — open loop: seeded Poisson streams, one per
//!   tenant, merged in arrival order against a shared pool (one tenant
//!   is the single-stream case).
//!
//! Resources are internally synchronized, so real-thread drivers can
//! share them too when determinism is not required. Latency
//! distributions are [`diesel_obs::Histogram`]s over nanoseconds.

pub mod driver;
pub mod multitenant;
pub mod resource;
pub mod telemetry;
pub mod time;

pub use driver::{run_actors, SimActor, SimReport};
pub use multitenant::{
    run_multi_tenant_observed, MultiTenantConfig, MultiTenantReport, OpClass, OpMix, OpOutcome,
    ServiceModel, SimAdmission, TenantReport, TenantSpec,
};
pub use resource::{Grant, Resource};
pub use telemetry::{
    noisy_neighbour_config, run_telemetry, SloTransition, TelemetryConfig, TelemetryOutcome,
};
pub use time::SimTime;
