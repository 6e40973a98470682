//! Multi-tenant serving benchmark gate: the fixed suite behind
//! `BENCH_9.json`.
//!
//! The multi-tenant plane (DESIGN.md §14) earns its keep on isolation
//! numbers, pinned here over the deterministic simulator:
//!
//! * `light_solo_goodput` — SLO-qualified ops/s of the light tenant
//!   alone on the pool (the reference point)
//! * `light_slowdown_unthrottled` — solo ÷ in-mix goodput when a 10×
//!   neighbour shares the pool with no admission control; the pool
//!   overloads and this must be ≥ 3 (the failure mode the feature
//!   exists to fix)
//! * `light_slowdown_throttled` — same ratio with per-tenant token
//!   buckets in front of the pool; must stay ≤ 1.5
//! * `fairness_ratio_throttled` — max/min per-tenant goodput under the
//!   throttled skewed mix
//! * `kv_ceiling_mqps` — closed-loop KV sweep at 10⁶ simulated clients
//!   over 16 instances × 60 kQPS, reproducing the ~0.96 MQPS ceiling of
//!   Fig. 10a
//!
//! Every key is simulator-derived and therefore deterministic, so the
//! ratchet (`--check`: `current <= baseline * tolerance` per key) never
//! flakes; the isolation bounds are additionally asserted outright.

use diesel_bench::ledger::Ledger;
use diesel_simnet::{
    kv_closed_loop_qps, run_multi_tenant, MultiTenantConfig, OpMix, ServiceModel, SimAdmission,
    SimTime, TenantSpec,
};

const LIGHT_RATE: f64 = 800.0;
const HEAVY_RATE: f64 = 8_000.0; // the 10× skewed neighbour
const LIGHT_OPS: u64 = 8_000;
const HEAVY_OPS: u64 = 80_000;
const SERVERS: usize = 4;
const SEED: u64 = 9;

fn scenario(tenants: Vec<TenantSpec>, admission: Option<SimAdmission>) -> MultiTenantConfig {
    MultiTenantConfig {
        tenants,
        servers: SERVERS,
        service: ServiceModel::default(),
        slo: SimTime::from_millis(20),
        admission,
        seed: SEED,
    }
}

fn light() -> TenantSpec {
    TenantSpec {
        name: "light".into(),
        rate_per_sec: LIGHT_RATE,
        ops: LIGHT_OPS,
        mix: OpMix::default(),
    }
}

fn heavy() -> TenantSpec {
    TenantSpec {
        name: "heavy".into(),
        rate_per_sec: HEAVY_RATE,
        ops: HEAVY_OPS,
        mix: OpMix::default(),
    }
}

fn main() {
    let ledger = Ledger::from_args("mixed_tenants", "BENCH_9.json");

    // Reference: the light tenant alone on the pool.
    let solo = run_multi_tenant(&scenario(vec![light()], None));
    let solo_good = solo.tenant("light").unwrap().goodput();

    // Skewed mix, no admission control: the 10× neighbour overloads the
    // pool and the light tenant's SLO goodput collapses.
    let open = run_multi_tenant(&scenario(vec![light(), heavy()], None));
    let open_good = open.tenant("light").unwrap().goodput();
    let slowdown_open = if open_good > 0.0 { solo_good / open_good } else { f64::INFINITY };

    // Same mix behind per-tenant token buckets: the heavy tenant is
    // clamped to its share and the light tenant keeps its goodput.
    let adm = SimAdmission { rate_per_sec: 3_000.0, burst: 50.0 };
    let fair = run_multi_tenant(&scenario(vec![light(), heavy()], Some(adm)));
    let fair_good = fair.tenant("light").unwrap().goodput();
    let slowdown_fair = if fair_good > 0.0 { solo_good / fair_good } else { f64::INFINITY };

    // Closed-loop KV ceiling at a million simulated clients (Fig. 10a).
    let kv_mqps = kv_closed_loop_qps(16, 60_000.0, 1_000_000, 2) / 1e6;

    // The isolation contract, asserted outright (deterministic inputs,
    // so these are hard gates rather than tolerance-ratcheted).
    assert!(
        slowdown_open >= 3.0,
        "unthrottled 10x neighbour must degrade the light tenant >= 3x, got {slowdown_open:.2}"
    );
    assert!(
        slowdown_fair <= 1.5,
        "admission control must keep the light tenant within 1.5x of solo, got {slowdown_fair:.2}"
    );
    assert!(kv_mqps > 0.90 && kv_mqps < 0.98, "kv ceiling {kv_mqps:.3} MQPS out of range");

    let slowdown_open_key = if slowdown_open.is_finite() { slowdown_open } else { 1e9 };
    let current = [
        ("light_solo_goodput", solo_good),
        ("light_slowdown_unthrottled", slowdown_open_key),
        ("light_slowdown_throttled", slowdown_fair),
        ("fairness_ratio_throttled", fair.fairness_ratio()),
        ("kv_ceiling_mqps", kv_mqps),
    ];
    // Goodput and slowdown-headroom keys are floors, not costs; only
    // the cost-like keys ratchet against the baseline.
    ledger.record(&current, 28, |k| k != "light_solo_goodput" && k != "light_slowdown_unthrottled");
}
