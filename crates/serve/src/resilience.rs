//! Service-level fault policy: retry/backoff, quarantine, the
//! per-tenant circuit breaker, and load-aware overload shedding.
//!
//! Everything here is pure u64 arithmetic over the simulated clock plus
//! splitmix-derived jitter — no wall clock, no shared RNG — so every
//! decision is a function of `(workload, service seed)` alone and the
//! whole service stays host-thread invariant.
//!
//! ## Retry → quarantine
//!
//! A read job whose engine run fails (its fault domain exhausted the
//! engine-level retry budget) is re-admitted up to `retry_max` times.
//! Re-admission `k` (1-based) arrives `backoff_base_ns · 2^(k-1)` after
//! the failure, capped at [`BACKOFF_CAP_DOUBLINGS`] doublings and
//! jittered from the job's fault domain, and each attempt draws a fresh
//! per-`(job, attempt)` fault domain — retrying under the *same* seeded
//! schedule would fail forever. A job that fails `retry_max + 1` total
//! attempts is quarantined as poison ([`crate::JobStatus::Quarantined`]);
//! with `retry_max = 0` (the default) a failure is final
//! ([`crate::JobStatus::Failed`]) and nothing is re-admitted. Mutating
//! jobs are never service-retried: their failure may land after the
//! epoch boundary, and re-running would double-apply the batch.
//!
//! ## Circuit breaker
//!
//! `breaker_threshold` consecutive failures by one tenant trip that
//! tenant's breaker: until `breaker_cooldown_ns` elapses on the
//! simulated clock, the tenant's arrivals are dropped with
//! [`crate::ServeError::BreakerOpen`] instead of occupying queue space.
//! Any success (or an elapsed cool-down) closes it and resets the count.
//!
//! ## Overload shedding
//!
//! With a shed watermark configured, admission computes a service
//! *pressure* — the max of queue occupancy (percent of
//! `queue_capacity`) and projected deadline consumption (percent of
//! `deadline_ns` the job would spend waiting) — and sheds arrivals
//! whose priority-scaled watermark the pressure crosses, lowest
//! priority first. Shed jobs are data ([`crate::ServeError::Shed`]
//! inside a `Dropped` status), not errors.

use crate::ServeError;
use std::collections::BTreeMap;

/// Doublings after which exponential backoff stops growing
/// (`backoff_base_ns << 6` = 64× base).
pub const BACKOFF_CAP_DOUBLINGS: u32 = 6;

/// The service-level resilience knobs, all defaulting to *off* so a
/// plain serve run behaves exactly as before this layer existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Service-level re-admissions of a failed read job. 0 (default)
    /// makes the first failure final.
    pub retry_max: u32,
    /// Base of the capped exponential backoff between a failure and its
    /// re-admission, simulated ns.
    pub backoff_base_ns: u64,
    /// Consecutive per-tenant failures that trip the circuit breaker;
    /// 0 (default) disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds the tenant's arrivals,
    /// simulated ns.
    pub breaker_cooldown_ns: u64,
    /// Load-aware shedding watermark, percent (1..=100); `None`
    /// (default) disables shedding.
    pub shed_watermark_pct: Option<u32>,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            retry_max: 0,
            backoff_base_ns: 1_000_000,
            breaker_threshold: 0,
            breaker_cooldown_ns: 8_000_000,
            shed_watermark_pct: None,
        }
    }
}

impl ResilienceConfig {
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.backoff_base_ns == 0 {
            return Err(ServeError::Config("backoff_base_ns must be >= 1".into()));
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown_ns == 0 {
            return Err(ServeError::Config(
                "breaker_cooldown_ns must be >= 1".into(),
            ));
        }
        if let Some(pct) = self.shed_watermark_pct {
            if !(1..=100).contains(&pct) {
                return Err(ServeError::Config(format!(
                    "shed_watermark_pct {pct} must be in 1..=100"
                )));
            }
        }
        Ok(())
    }
}

/// One tenant's breaker: the consecutive-failure count and, when
/// tripped, the simulated instant it closes.
#[derive(Debug, Default, Clone)]
struct Breaker {
    consecutive: u32,
    open_until: Option<u64>,
}

/// The live policy state the scheduler threads through settlement, in
/// strict admission order — which is what keeps it deterministic.
#[derive(Debug)]
pub(crate) struct Resilience {
    cfg: ResilienceConfig,
    jitter_seed: u64,
    breakers: BTreeMap<String, Breaker>,
    /// Breaker trips, drained into telemetry by the scheduler.
    pub(crate) trips: u64,
}

impl Resilience {
    pub(crate) fn new(cfg: ResilienceConfig, jitter_seed: u64) -> Resilience {
        Resilience {
            cfg,
            jitter_seed,
            breakers: BTreeMap::new(),
            trips: 0,
        }
    }

    pub(crate) fn retry_max(&self) -> u32 {
        self.cfg.retry_max
    }

    /// The simulated delay before re-admission `attempt` (1-based count
    /// of service-level retries so far): capped exponential in the
    /// attempt, plus sub-base jitter drawn purely from
    /// `(jitter seed, job, attempt)`.
    pub(crate) fn backoff_ns(&self, job: u64, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base_ns;
        let exp = base << attempt.saturating_sub(1).min(BACKOFF_CAP_DOUBLINGS);
        let jitter = gts_faults::domain_seed(self.jitter_seed, job, u64::from(attempt)) % base;
        exp.saturating_add(jitter)
    }

    /// Gate an arrival on its tenant's breaker: `Err(BreakerOpen)` while
    /// tripped and inside the cool-down; closes (and resets the count)
    /// once the cool-down has elapsed.
    pub(crate) fn admission_gate(&mut self, tenant: &str, now: u64) -> Result<(), ServeError> {
        let Some(b) = self.breakers.get_mut(tenant) else {
            return Ok(());
        };
        match b.open_until {
            Some(until) if now < until => Err(ServeError::BreakerOpen {
                tenant: tenant.to_string(),
                failures: b.consecutive,
                until_ns: until,
            }),
            Some(_) => {
                *b = Breaker::default();
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Record a failed attempt by `tenant` at simulated time `now`,
    /// tripping the breaker at the configured threshold.
    pub(crate) fn record_failure(&mut self, tenant: &str, now: u64) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let b = self.breakers.entry(tenant.to_string()).or_default();
        b.consecutive += 1;
        if b.consecutive >= self.cfg.breaker_threshold && b.open_until.is_none() {
            b.open_until = Some(now + self.cfg.breaker_cooldown_ns);
            self.trips += 1;
        }
    }

    /// Record a success: any completion closes the tenant's breaker
    /// bookkeeping entirely.
    pub(crate) fn record_success(&mut self, tenant: &str) {
        self.breakers.remove(tenant);
    }

    /// Load-aware shedding decision for an arrival that would have to
    /// queue: `Some((pressure, watermark))` when the job must shed.
    /// `pressure` is the max of queue occupancy and projected deadline
    /// consumption (both percent); the watermark scales with the job's
    /// priority so the lowest classes shed first.
    pub(crate) fn shed(
        &self,
        prio: u32,
        waiting: usize,
        queue_capacity: usize,
        projected_wait_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Option<(u32, u32)> {
        let base = self.cfg.shed_watermark_pct?;
        let depth_pct = (waiting * 100 / queue_capacity.max(1)) as u32;
        let wait_pct = deadline_ns
            .map(|d| (projected_wait_ns.saturating_mul(100) / d.max(1)).min(100) as u32)
            .unwrap_or(0);
        let pressure = depth_pct.max(wait_pct);
        // prio 0 sheds at the base watermark; each higher priority gets
        // a quarter of the remaining headroom, so prio 3 sheds only at
        // near-total pressure.
        let watermark = base + prio.min(3) * (100 - base) / 4;
        (pressure >= watermark).then_some((pressure, watermark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(cfg: ResilienceConfig) -> Resilience {
        Resilience::new(cfg, 0xB0FF)
    }

    #[test]
    fn backoff_is_capped_exponential_with_seeded_jitter() {
        let r = policy(ResilienceConfig {
            retry_max: 8,
            backoff_base_ns: 1000,
            ..ResilienceConfig::default()
        });
        // Deterministic, growing, jitter strictly below the base.
        for attempt in 1..=8u32 {
            let d = r.backoff_ns(7, attempt);
            assert_eq!(d, r.backoff_ns(7, attempt));
            let exp = 1000u64 << attempt.saturating_sub(1).min(BACKOFF_CAP_DOUBLINGS);
            assert!(d >= exp && d < exp + 1000, "attempt {attempt}: {d}");
        }
        // Capped: attempts 7 and 8 share the exponential part.
        assert_eq!(r.backoff_ns(7, 7) / 1000, r.backoff_ns(7, 8) / 1000);
        // Jitter differs across jobs and attempts.
        assert_ne!(r.backoff_ns(1, 1), r.backoff_ns(2, 1));
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_and_cools_down() {
        let mut r = policy(ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooldown_ns: 100,
            ..ResilienceConfig::default()
        });
        assert!(r.admission_gate("a", 0).is_ok());
        r.record_failure("a", 10);
        assert!(r.admission_gate("a", 11).is_ok(), "one failure is not K");
        r.record_failure("a", 20);
        assert_eq!(r.trips, 1);
        let err = r.admission_gate("a", 50).unwrap_err();
        assert!(
            matches!(&err, ServeError::BreakerOpen { tenant, failures: 2, until_ns: 120 }
                if tenant == "a"),
            "{err}"
        );
        // Another tenant is unaffected; the cool-down closes it.
        assert!(r.admission_gate("b", 50).is_ok());
        assert!(r.admission_gate("a", 120).is_ok());
        assert!(r.admission_gate("a", 121).is_ok(), "count reset on close");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut r = policy(ResilienceConfig {
            breaker_threshold: 2,
            ..ResilienceConfig::default()
        });
        r.record_failure("a", 0);
        r.record_success("a");
        r.record_failure("a", 1);
        assert_eq!(r.trips, 0, "non-consecutive failures never trip");
    }

    #[test]
    fn shedding_orders_by_priority_and_watches_both_pressures() {
        let r = policy(ResilienceConfig {
            shed_watermark_pct: Some(40),
            ..ResilienceConfig::default()
        });
        // Queue 50% full: prio 0 sheds (watermark 40), prio 1 (55) not.
        assert_eq!(r.shed(0, 5, 10, 0, None), Some((50, 40)));
        assert_eq!(r.shed(1, 5, 10, 0, None), None);
        // Projected deadline consumption alone also sheds.
        assert_eq!(r.shed(0, 0, 10, 90, Some(100)), Some((90, 40)));
        // prio 3 holds its slot until near-total pressure (watermark 85).
        assert_eq!(r.shed(3, 8, 10, 0, None), None);
        assert_eq!(r.shed(3, 9, 10, 0, None), Some((90, 85)));
        // No watermark, no shedding.
        let off = policy(ResilienceConfig::default());
        assert_eq!(off.shed(0, 10, 10, 100, Some(1)), None);
    }

    #[test]
    fn config_validation_is_typed() {
        assert!(ResilienceConfig::default().validate().is_ok());
        let bad = ResilienceConfig {
            backoff_base_ns: 0,
            ..ResilienceConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
        for pct in [0, 101] {
            let bad = ResilienceConfig {
                shed_watermark_pct: Some(pct),
                ..ResilienceConfig::default()
            };
            assert!(
                matches!(bad.validate(), Err(ServeError::Config(_))),
                "{pct}"
            );
        }
        let bad = ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown_ns: 0,
            ..ResilienceConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::Config(_))));
    }
}
