//! Multi-tenant open-loop workloads: merged Poisson streams, per-tenant
//! admission, goodput and fairness accounting.
//!
//! An *open-loop* driver offers work at a rate independent of
//! completions — the model that exposes queueing collapse: at
//! utilization ρ → 1 latency blows up even though throughput looks
//! fine. One tenant is the single-stream case ("what does one offered
//! rate do to one queue"). The multi-tenant questions of §4 — does one
//! tenant's burst destroy another tenant's latency, and does admission
//! control put a floor under the light tenant — need several
//! independent arrival processes *merged in time order* against the same
//! shared serving pool. This module provides exactly that:
//!
//! * each [`TenantSpec`] is its own seeded Poisson stream with a
//!   read/write/metadata [`OpMix`];
//! * streams are merged by arrival time and executed against one shared
//!   k-server [`Resource`] (the exec pool of a DIESEL front-end);
//! * an optional [`SimAdmission`] token bucket models the server-side
//!   admission controller: arrivals that find an empty bucket are
//!   *throttled* (the real client backs off and retries; the open-loop
//!   model drops and counts them);
//! * *goodput* counts only admitted operations that finished inside the
//!   latency SLO, so queueing collapse shows up as lost goodput even
//!   though raw throughput looks fine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use diesel_obs::Histogram;

use crate::resource::Resource;
use crate::time::SimTime;

/// Relative weights of the three operation classes a tenant issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of chunk/file reads.
    pub read: u32,
    /// Weight of writes (ingest).
    pub write: u32,
    /// Weight of metadata lookups.
    pub meta: u32,
}

impl Default for OpMix {
    /// Training traffic is read-dominated: 8 reads per write and per
    /// metadata lookup.
    fn default() -> Self {
        OpMix { read: 8, write: 1, meta: 1 }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.read + self.write + self.meta
    }
}

/// Service time of each operation class at the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Service time of a read.
    pub read: SimTime,
    /// Service time of a write.
    pub write: SimTime,
    /// Service time of a metadata lookup.
    pub meta: SimTime,
}

impl Default for ServiceModel {
    /// Defaults shaped like the paper's single-node numbers: ~0.5 ms
    /// cached chunk read, ~2 ms write, ~0.1 ms KV metadata lookup.
    fn default() -> Self {
        ServiceModel {
            read: SimTime::from_micros(500),
            write: SimTime::from_millis(2),
            meta: SimTime::from_micros(100),
        }
    }
}

/// One tenant's offered workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (the dataset it trains over).
    pub name: String,
    /// Offered Poisson rate, operations per simulated second.
    pub rate_per_sec: f64,
    /// Number of operations offered.
    pub ops: u64,
    /// Read/write/metadata mix.
    pub mix: OpMix,
}

impl TenantSpec {
    /// A read-mostly tenant offering `ops` operations at `rate_per_sec`.
    pub fn new(name: impl Into<String>, rate_per_sec: f64, ops: u64) -> Self {
        TenantSpec { name: name.into(), rate_per_sec, ops, mix: OpMix::default() }
    }
}

/// Per-tenant token-bucket admission, mirroring the server-side
/// `AdmissionController`: a tenant may burst to `burst` operations and
/// sustain `rate_per_sec` thereafter; arrivals beyond that are throttled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimAdmission {
    /// Sustained per-tenant admitted rate.
    pub rate_per_sec: f64,
    /// Bucket depth (burst allowance).
    pub burst: f64,
}

/// Full scenario description for [`run_multi_tenant_observed`].
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// The tenants sharing the pool.
    pub tenants: Vec<TenantSpec>,
    /// Number of identical servers in the shared pool.
    pub servers: usize,
    /// Service times per operation class.
    pub service: ServiceModel,
    /// Latency SLO: an admitted op slower than this is not goodput.
    pub slo: SimTime,
    /// Optional per-tenant admission control (applied to every tenant).
    pub admission: Option<SimAdmission>,
    /// Master seed; each tenant derives an independent stream from it.
    pub seed: u64,
}

/// What one tenant experienced during a [`run_multi_tenant_observed`] run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Operations offered (arrivals generated).
    pub offered: u64,
    /// Operations admitted past the token bucket.
    pub admitted: u64,
    /// Operations rejected by admission.
    pub throttled: u64,
    /// Admitted operations that completed within the SLO.
    pub good: u64,
    /// Response-time distribution of admitted operations.
    pub latency: Histogram,
    /// Completion time of this tenant's last admitted operation.
    pub last_completion: SimTime,
}

impl TenantReport {
    /// SLO-qualified operations per simulated second over this tenant's
    /// active window.
    #[cfg(test)]
    fn goodput(&self) -> f64 {
        if self.last_completion == SimTime::ZERO {
            0.0
        } else {
            self.good as f64 / self.last_completion.as_secs_f64()
        }
    }
}

/// Result of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// Per-tenant outcomes, in the order the tenants were specified.
    pub tenants: Vec<TenantReport>,
    /// Completion time of the last admitted operation overall.
    pub makespan: SimTime,
}

impl MultiTenantReport {
    /// Look up one tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// Operation class of one simulated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Chunk/file read.
    Read,
    /// Write (ingest).
    Write,
    /// Metadata lookup.
    Meta,
}

/// One simulated operation's outcome, streamed to the observer of
/// [`run_multi_tenant_observed`] in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome<'a> {
    /// Tenant that issued the operation.
    pub tenant: &'a str,
    /// Index of the tenant in the config's `tenants` list.
    pub tenant_index: usize,
    /// Operation class.
    pub class: OpClass,
    /// Arrival time.
    pub arrival: SimTime,
    /// False when the admission token bucket rejected the arrival.
    pub admitted: bool,
    /// Response time (queueing + service) of an admitted op;
    /// [`SimTime::ZERO`] when throttled.
    pub response: SimTime,
}

struct Bucket {
    tokens: f64,
    last: SimTime,
}

/// Run the merged multi-tenant open-loop scenario described by `cfg`.
///
/// Arrivals from all tenants are merged in time order (ties broken by
/// tenant index, then op index, so runs are deterministic given
/// `cfg.seed`) and executed FIFO against one shared pool. `observe` is
/// called once per arrival, in arrival order, with the op's admission
/// decision and response time. This is how the telemetry plane
/// ([`crate::telemetry`]) replays a simulation into a metric registry
/// without the simulation knowing about metrics.
pub fn run_multi_tenant_observed(
    cfg: &MultiTenantConfig,
    mut observe: impl FnMut(&OpOutcome<'_>),
) -> MultiTenantReport {
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    assert!(cfg.servers >= 1, "need at least one server");

    // Pre-generate every tenant's arrival stream and op classes from an
    // independent derived seed, so adding a tenant never perturbs the
    // others' streams.
    let mut streams: Vec<Vec<(SimTime, OpClass)>> = Vec::with_capacity(cfg.tenants.len());
    for (i, spec) in cfg.tenants.iter().enumerate() {
        assert!(spec.rate_per_sec > 0.0, "tenant {} offered rate must be positive", spec.name);
        assert!(spec.mix.total() > 0, "tenant {} op mix is empty", spec.name);
        let derived = cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(derived);
        let mut arrival = SimTime::ZERO;
        let mut ops = Vec::with_capacity(spec.ops as usize);
        for _ in 0..spec.ops {
            let u: f64 = rng.gen_range(1e-12..1.0);
            arrival += SimTime::from_secs_f64(-u.ln() / spec.rate_per_sec);
            let pick = rng.gen_range(0..spec.mix.total());
            let class = if pick < spec.mix.read {
                OpClass::Read
            } else if pick < spec.mix.read + spec.mix.write {
                OpClass::Write
            } else {
                OpClass::Meta
            };
            ops.push((arrival, class));
        }
        streams.push(ops);
    }

    let pool = Resource::new("tenant-pool", cfg.servers);
    let mut buckets: Vec<Bucket> = cfg
        .tenants
        .iter()
        .map(|_| Bucket { tokens: cfg.admission.map_or(0.0, |a| a.burst), last: SimTime::ZERO })
        .collect();
    let mut reports: Vec<TenantReport> = cfg
        .tenants
        .iter()
        .map(|spec| TenantReport {
            name: spec.name.clone(),
            offered: spec.ops,
            admitted: 0,
            throttled: 0,
            good: 0,
            latency: Histogram::new(),
            last_completion: SimTime::ZERO,
        })
        .collect();

    // Merge all streams least-arrival-first; (arrival, tenant, op) keys
    // make the ordering total and deterministic.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, usize)>> = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(t, s)| Reverse((s[0].0, t, 0)))
        .collect();
    let mut makespan = SimTime::ZERO;

    while let Some(Reverse((arrival, t, idx))) = heap.pop() {
        if idx + 1 < streams[t].len() {
            heap.push(Reverse((streams[t][idx + 1].0, t, idx + 1)));
        }
        let class = streams[t][idx].1;
        let admitted = match cfg.admission {
            None => true,
            Some(adm) => {
                let b = &mut buckets[t];
                let elapsed = (arrival - b.last).as_secs_f64();
                b.tokens = (b.tokens + elapsed * adm.rate_per_sec).min(adm.burst);
                b.last = arrival;
                if b.tokens >= 1.0 {
                    b.tokens -= 1.0;
                    true
                } else {
                    false
                }
            }
        };
        let report = &mut reports[t];
        if !admitted {
            report.throttled += 1;
            observe(&OpOutcome {
                tenant: &cfg.tenants[t].name,
                tenant_index: t,
                class,
                arrival,
                admitted: false,
                response: SimTime::ZERO,
            });
            continue;
        }
        report.admitted += 1;
        let service = match class {
            OpClass::Read => cfg.service.read,
            OpClass::Write => cfg.service.write,
            OpClass::Meta => cfg.service.meta,
        };
        let grant = pool.acquire(arrival, service);
        let response = grant.end - arrival;
        report.latency.record_ns(response.as_nanos());
        if response <= cfg.slo {
            report.good += 1;
        }
        report.last_completion = report.last_completion.max_of(grant.end);
        makespan = makespan.max_of(grant.end);
        observe(&OpOutcome {
            tenant: &cfg.tenants[t].name,
            tenant_index: t,
            class,
            arrival,
            admitted: true,
            response,
        });
    }

    MultiTenantReport { tenants: reports, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_multi_tenant(cfg: &MultiTenantConfig) -> MultiTenantReport {
        run_multi_tenant_observed(cfg, |_| {})
    }

    /// Closed-loop KV-ceiling sweep (Fig. 10a): `clients` synchronous
    /// clients each issue `ops_per_client` metadata lookups against a pool
    /// of `instances` KV instances, each serving `per_instance_qps`.
    /// Clients advance least-clock-first, so the result is deterministic.
    /// Returns the achieved aggregate QPS, which saturates near
    /// `instances × per_instance_qps` once `clients` is large enough.
    fn kv_closed_loop_qps(
        instances: usize,
        per_instance_qps: f64,
        clients: usize,
        ops_per_client: u64,
    ) -> f64 {
        assert!(instances >= 1, "need at least one KV instance");
        assert!(per_instance_qps > 0.0, "per-instance QPS must be positive");
        assert!(clients >= 1 && ops_per_client >= 1, "need work to measure");
        let service = SimTime::from_secs_f64(1.0 / per_instance_qps);
        let kv = Resource::new("kv-pool", instances);
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> =
            (0..clients).map(|c| Reverse((SimTime::ZERO, c))).collect();
        let mut remaining = vec![ops_per_client; clients];
        let mut makespan = SimTime::ZERO;
        let mut total = 0u64;
        while let Some(Reverse((now, c))) = heap.pop() {
            let grant = kv.acquire(now, service);
            total += 1;
            makespan = makespan.max_of(grant.end);
            remaining[c] -= 1;
            if remaining[c] > 0 {
                heap.push(Reverse((grant.end, c)));
            }
        }
        if makespan == SimTime::ZERO {
            0.0
        } else {
            total as f64 / makespan.as_secs_f64()
        }
    }

    fn two_tenant_cfg(admission: Option<SimAdmission>) -> MultiTenantConfig {
        MultiTenantConfig {
            tenants: vec![
                TenantSpec::new("light", 800.0, 4_000),
                TenantSpec::new("heavy", 8_000.0, 40_000),
            ],
            servers: 4,
            service: ServiceModel::default(),
            slo: SimTime::from_millis(20),
            admission,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut cfg = two_tenant_cfg(None);
            cfg.seed = seed;
            let r = run_multi_tenant(&cfg);
            (r.makespan, r.tenants.iter().map(|t| (t.good, t.admitted)).collect::<Vec<_>>())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn accounting_is_conserved() {
        let adm = SimAdmission { rate_per_sec: 3_000.0, burst: 50.0 };
        let r = run_multi_tenant(&two_tenant_cfg(Some(adm)));
        for t in &r.tenants {
            assert_eq!(t.offered, t.admitted + t.throttled, "tenant {}", t.name);
            assert!(t.good <= t.admitted);
            assert_eq!(t.latency.count(), t.admitted);
        }
        // The heavy tenant offers 10×; admission must actually bite it.
        let heavy = r.tenant("heavy").unwrap();
        assert!(heavy.throttled > heavy.offered / 2, "throttled {}", heavy.throttled);
        let light = r.tenant("light").unwrap();
        assert_eq!(light.throttled, 0, "light tenant under its cap is never throttled");
    }

    #[test]
    fn admission_puts_a_floor_under_the_light_tenant() {
        // Solo: the light tenant alone on the pool.
        let solo = run_multi_tenant(&MultiTenantConfig {
            tenants: vec![TenantSpec::new("light", 800.0, 4_000)],
            ..two_tenant_cfg(None)
        });
        let solo_good = solo.tenant("light").unwrap().goodput();
        assert!(solo_good > 700.0, "solo goodput {solo_good}");

        // Unthrottled 10× neighbour: the pool overloads (ρ > 1) and the
        // light tenant's SLO goodput collapses.
        let open = run_multi_tenant(&two_tenant_cfg(None));
        let open_good = open.tenant("light").unwrap().goodput();
        assert!(
            open_good < solo_good / 3.0,
            "unthrottled mix must degrade ≥3×: solo {solo_good} vs {open_good}"
        );

        // Throttled: per-tenant cap keeps ρ < 1; the light tenant stays
        // within 1.5× of its solo goodput.
        let adm = SimAdmission { rate_per_sec: 3_000.0, burst: 50.0 };
        let fair = run_multi_tenant(&two_tenant_cfg(Some(adm)));
        let fair_good = fair.tenant("light").unwrap().goodput();
        assert!(
            fair_good > solo_good / 1.5,
            "throttled mix must stay within 1.5×: solo {solo_good} vs {fair_good}"
        );
    }

    /// One read-only tenant against a single 1 ms server: the
    /// single-stream open-loop driver, i.e. an M/D/1 queue.
    fn single_stream(rate_per_sec: f64, ops: u64, seed: u64) -> TenantReport {
        let mut solo = TenantSpec::new("solo", rate_per_sec, ops);
        solo.mix = OpMix { read: 1, write: 0, meta: 0 };
        let report = run_multi_tenant(&MultiTenantConfig {
            tenants: vec![solo],
            servers: 1,
            service: ServiceModel { read: SimTime::from_millis(1), ..Default::default() },
            slo: SimTime::from_millis(20),
            admission: None,
            seed,
        });
        report.tenants.into_iter().next().unwrap()
    }

    fn mean_response_secs(t: &TenantReport) -> f64 {
        t.latency.summary().mean_ns as f64 / 1e9
    }

    #[test]
    fn single_tenant_latency_matches_md1_at_moderate_load() {
        // `Resource`'s FIFO queueing against the analytic M/D/1 mean
        // response s + ρ·s/(2(1−ρ)): ρ = 0.5 ⇒ 1 ms + 0.5 ms.
        let (rate, service_s) = (500.0, 1e-3);
        let rho = rate * service_s;
        let analytic = service_s + rho * service_s / (2.0 * (1.0 - rho));
        let mean = mean_response_secs(&single_stream(rate, 50_000, 7));
        assert!((mean - analytic).abs() / analytic < 0.15, "mean {mean:.6} vs M/D/1 {analytic:.6}");
    }

    #[test]
    fn single_tenant_saturation_blows_up_latency_not_throughput() {
        let light = single_stream(300.0, 20_000, 3);
        // ρ = 1.3: overloaded. Throughput caps at the 1000 ops/s service
        // rate…
        let heavy = single_stream(1_300.0, 20_000, 3);
        let throughput = heavy.admitted as f64 / heavy.last_completion.as_secs_f64();
        assert!(throughput > 950.0 && throughput < 1_050.0, "throughput {throughput}");
        // …while latency explodes relative to the light load.
        let (l_light, l_heavy) = (mean_response_secs(&light), mean_response_secs(&heavy));
        assert!(
            l_heavy > 50.0 * l_light,
            "overload must blow up latency: {l_light:.6} vs {l_heavy:.6}"
        );
    }

    #[test]
    fn kv_ceiling_saturates_near_instance_sum() {
        // 16 instances × 60 kQPS ≈ 0.96 MQPS ceiling (Fig. 10a).
        let qps = kv_closed_loop_qps(16, 60_000.0, 100_000, 2);
        assert!(qps > 0.90e6 && qps < 0.98e6, "qps {qps}");
        // A single client cannot exceed one instance's rate.
        let one = kv_closed_loop_qps(16, 60_000.0, 1, 1_000);
        assert!(one < 61_000.0, "one client {one}");
    }

    #[test]
    fn kv_ceiling_is_deterministic() {
        let a = kv_closed_loop_qps(4, 10_000.0, 5_000, 3);
        let b = kv_closed_loop_qps(4, 10_000.0, 5_000, 3);
        assert_eq!(a, b);
    }
}
