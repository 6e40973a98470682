//! Deterministic telemetry scenarios: replay a multi-tenant simulation
//! through the observability plane.
//!
//! The flight recorder, SLO monitor and Prometheus renderer
//! (`diesel-obs`) are all clock-driven, so a simulation on a `MockClock`
//! exercises the *entire* telemetry plane deterministically: the same
//! seed produces a byte-identical recording, the same breach/recover
//! event sequence, and the same final health gauges. That is what lets
//! CI assert telemetry behavior exactly instead of sleeping and hoping.
//!
//! [`run_telemetry`] merges the per-op stream of
//! [`run_multi_tenant_observed`]
//! into a [`Registry`]: each arrival advances the mock clock, records
//! `server.read_latency{dataset=…}` / admission counters, and every
//! `tick` of simulated time the recorder samples the registry and the
//! SLO monitor re-evaluates its burn rates. The acceptance scenario of
//! DESIGN.md §15 runs here: a light tenant beside a 10× neighbour keeps
//! `slo.health{dataset=light} == 1` when admission control caps the
//! neighbour, and goes to `0` when admission is disabled and the shared
//! pool collapses.

use std::collections::BTreeMap;
use std::sync::Arc;

use diesel_obs::{FlightRecorder, RecorderConfig, Registry, SloMonitor, SloReport, SloTarget};
use diesel_util::{Clock, MockClock};

use crate::multitenant::{run_multi_tenant_observed, MultiTenantConfig, MultiTenantReport};
use crate::time::SimTime;

/// A telemetry replay scenario: the simulation to run and the cadence /
/// windows of the observability plane, all in simulated time.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// The multi-tenant workload to simulate.
    pub sim: MultiTenantConfig,
    /// Recorder sampling cadence.
    pub tick: SimTime,
    /// Fast burn-rate window of the SLO monitor.
    pub fast_window: SimTime,
    /// Slow burn-rate window of the SLO monitor.
    pub slow_window: SimTime,
    /// Per-tenant SLO targets evaluated on every tick.
    pub targets: Vec<SloTarget>,
}

/// One `slo.breach` / `slo.recovered` transition, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloTransition {
    /// `"slo.breach"` or `"slo.recovered"`.
    pub scope: String,
    /// Tenant the transition belongs to.
    pub dataset: String,
    /// Objective name (`read_p99`, `error_ratio`, …).
    pub slo: String,
}

/// Everything a telemetry replay produced.
#[derive(Debug, Clone)]
pub struct TelemetryOutcome {
    /// The simulation's own per-tenant accounting.
    pub report: MultiTenantReport,
    /// The flight recorder's full encoded recording — byte-identical
    /// across runs of the same config.
    pub recording: String,
    /// Final `slo.health{dataset=…}` gauge per tenant (1 = healthy).
    pub health: BTreeMap<String, u64>,
    /// Every breach/recover transition, in emission order.
    pub transitions: Vec<SloTransition>,
    /// The monitor's reports from the final evaluation.
    pub final_reports: Vec<SloReport>,
    /// The Prometheus exposition of the final registry snapshot.
    pub scrape: String,
}

impl TelemetryOutcome {
    /// True when the tenant finished the run with every objective Ok.
    pub fn healthy(&self, dataset: &str) -> bool {
        self.health.get(dataset).copied() == Some(1)
    }
}

/// Replay `cfg.sim` through a registry + flight recorder + SLO monitor
/// on a fresh `MockClock`, ticking every `cfg.tick` of simulated time.
///
/// Per admitted op the replay records, labelled `{dataset=<tenant>}`:
/// `server.file_reads` and `server.tenant.admitted` counters and the
/// `server.read_latency` histogram (response = queueing + service, the
/// latency a client would see). Throttled arrivals increment
/// `server.tenant.throttled`. Those are exactly the series the
/// [`SloMonitor`] binds, so declarative targets drive real breaches.
///
/// Latency is recorded at *arrival* processing time (the simulation
/// streams ops in arrival order); a real server records at completion,
/// but for burn-rate windows much wider than one response time the
/// difference is immaterial — and arrival order is what keeps the
/// recording byte-identical.
pub fn run_telemetry(cfg: &TelemetryConfig) -> TelemetryOutcome {
    assert!(cfg.tick > SimTime::ZERO, "tick cadence must be positive");
    let clock = Arc::new(MockClock::new());
    let registry = Arc::new(Registry::new(clock.clone()));
    let recorder = Arc::new(FlightRecorder::new(registry.clone(), RecorderConfig::default()));
    let monitor = SloMonitor::with_windows(
        registry.clone(),
        recorder.clone(),
        cfg.targets.clone(),
        cfg.fast_window.as_nanos(),
        cfg.slow_window.as_nanos(),
    );

    recorder.tick(); // baseline frame at t=0
    let mut next_tick = cfg.tick;
    let mut final_reports: Vec<SloReport> = monitor.evaluate();

    let report = run_multi_tenant_observed(&cfg.sim, |op| {
        // Sample the plane at every tick boundary the workload crossed;
        // idle gaps still produce (empty, delta-encoded) frames, exactly
        // like a wall-clock recorder would.
        while op.arrival >= next_tick {
            advance_to(&clock, next_tick);
            recorder.tick();
            final_reports = monitor.evaluate();
            next_tick += cfg.tick;
        }
        advance_to(&clock, op.arrival);
        let labels = &[("dataset", op.tenant)][..];
        if op.admitted {
            registry.counter("server.tenant.admitted", labels).inc();
            registry.counter("server.file_reads", labels).inc();
            registry.histogram("server.read_latency", labels).record_ns(op.response.as_nanos());
        } else {
            registry.counter("server.tenant.throttled", labels).inc();
        }
    });

    // One closing tick past the last arrival so the final window sees
    // the whole workload.
    advance_to(&clock, next_tick);
    recorder.tick();
    final_reports = monitor.evaluate();

    let snap = registry.snapshot();
    let mut health = BTreeMap::new();
    for target in &cfg.targets {
        health.insert(
            target.dataset.clone(),
            snap.gauge(&format!("slo.health{{dataset={}}}", target.dataset)),
        );
    }
    let transitions = snap
        .events
        .iter()
        .filter(|e| e.scope == "slo.breach" || e.scope == "slo.recovered")
        .map(|e| {
            let field = |k: &str| {
                e.kv.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()).unwrap_or_default()
            };
            SloTransition { scope: e.scope.clone(), dataset: field("dataset"), slo: field("slo") }
        })
        .collect();

    TelemetryOutcome {
        report,
        recording: recorder.encode(),
        health,
        transitions,
        final_reports,
        scrape: diesel_obs::render_prometheus(&snap),
    }
}

/// Advance the mock clock forward to `t` of simulated time (no-op if
/// already there — the clock never moves backwards).
fn advance_to(clock: &MockClock, t: SimTime) {
    let now = clock.now_ns();
    if t.as_nanos() > now {
        clock.advance(t.as_nanos() - now);
    }
}

/// The canonical noisy-neighbour scenario (DESIGN.md §15): a light
/// tenant at `light_rate` ops/s beside a neighbour offering 10× that,
/// on a pool sized for roughly half the combined load. With `admission`
/// the per-tenant cap keeps the light tenant's read p99 inside `slo`;
/// without it the shared queue collapses and the p99 target burns.
pub fn noisy_neighbour_config(admission: bool) -> TelemetryConfig {
    use crate::multitenant::{ServiceModel, SimAdmission, TenantSpec};
    let slo = SimTime::from_millis(20);
    TelemetryConfig {
        sim: MultiTenantConfig {
            tenants: vec![
                TenantSpec::new("light", 800.0, 4_000),
                TenantSpec::new("heavy", 8_000.0, 40_000),
            ],
            servers: 4,
            service: ServiceModel::default(),
            slo,
            admission: admission.then_some(SimAdmission { rate_per_sec: 3_000.0, burst: 50.0 }),
            seed: 11,
        },
        tick: SimTime::from_millis(250),
        fast_window: SimTime::from_millis(1_000),
        slow_window: SimTime::from_millis(3_000),
        targets: vec![
            SloTarget { read_p99_ns: Some(slo.as_nanos()), ..SloTarget::new("light") },
            SloTarget { read_p99_ns: Some(slo.as_nanos()), ..SloTarget::new("heavy") },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_byte_identical_across_runs() {
        let cfg = noisy_neighbour_config(true);
        let a = run_telemetry(&cfg);
        let b = run_telemetry(&cfg);
        assert_eq!(a.recording, b.recording, "same seed must record identically");
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.health, b.health);
        assert!(a.recording.starts_with("diesel-recorder v1"));
    }

    #[test]
    fn admission_keeps_the_light_tenant_green() {
        let fair = run_telemetry(&noisy_neighbour_config(true));
        assert!(
            fair.healthy("light"),
            "light tenant must stay green under admission: {:?}",
            fair.final_reports
        );
        // The cap was actually active: the heavy tenant got throttled.
        let heavy = fair.report.tenant("heavy").unwrap();
        assert!(heavy.throttled > 0);
        // No breach event was ever emitted for the light tenant.
        assert!(!fair.transitions.iter().any(|t| t.dataset == "light" && t.scope == "slo.breach"));
    }

    #[test]
    fn without_admission_the_light_tenant_breaches() {
        let open = run_telemetry(&noisy_neighbour_config(false));
        assert!(
            !open.healthy("light"),
            "overloaded pool must breach the light tenant's p99: {:?}",
            open.final_reports
        );
        assert!(open
            .transitions
            .iter()
            .any(|t| t.dataset == "light" && t.scope == "slo.breach" && t.slo == "read_p99"));
        // The scrape carries the red gauge in Prometheus form.
        let samples = diesel_obs::parse_prometheus(&open.scrape).expect("scrape parses");
        let health = samples
            .iter()
            .find(|s| s.name == "slo_health" && s.label("dataset") == Some("light"))
            .expect("health gauge exported");
        assert_eq!(health.value, 0.0);
    }

    #[test]
    fn replayed_counters_match_simulation_accounting() {
        // The final scrape's counters must equal the simulation's own
        // per-tenant accounting — the replay loses nothing on the way
        // through registry, recorder and renderer.
        let out = run_telemetry(&noisy_neighbour_config(true));
        for t in &out.report.tenants {
            assert!(
                out.final_reports.iter().any(|r| r.dataset == t.name),
                "every tenant has a target in this scenario"
            );
            assert_eq!(scraped(&out, "server_tenant_admitted", &t.name), t.admitted, "{}", t.name);
            assert_eq!(
                scraped(&out, "server_tenant_throttled", &t.name),
                t.throttled,
                "{}",
                t.name
            );
        }
    }

    /// Value of a counter sample for one dataset in the outcome's scrape.
    fn scraped(out: &TelemetryOutcome, name: &str, dataset: &str) -> u64 {
        diesel_obs::parse_prometheus(&out.scrape)
            .expect("scrape parses")
            .into_iter()
            .find(|s| s.name == name && s.label("dataset") == Some(dataset))
            .map(|s| s.value as u64)
            .unwrap_or(0)
    }
}
