//! Admission and the service-level fault policy: the FIFO queue, the
//! per-tenant circuit breaker, load-aware overload shedding, and
//! retry/backoff with quarantine.
//!
//! Everything here is pure u64 arithmetic over the simulated clock plus
//! splitmix-derived jitter — no wall clock, no shared RNG — so every
//! decision is a function of `(workload, service seed)` alone and the
//! whole service stays host-thread invariant. Backoff and shedding are
//! pure functions of [`ResilienceConfig`]; the queue and the breakers
//! are one state struct, `Admission`, with two mutators: `decide` an
//! arrival, `settle` an admitted attempt.
//!
//! ## Retry → quarantine
//!
//! A read job whose engine run fails (its fault domain exhausted the
//! engine-level retry budget) is re-admitted up to `retry_max` times.
//! Re-admission `k` (1-based) arrives `backoff_base_ns · 2^(k-1)` after
//! the failure, capped at [`BACKOFF_CAP_DOUBLINGS`] doublings and
//! jittered from the job's fault domain (saturating at `u64::MAX` for
//! bases too large to double), and each attempt draws a fresh
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
//! A cool-down too large for the clock keeps the breaker open to the
//! end of simulated time instead of wrapping.
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

use crate::scheduler::ServeConfig;
use crate::workload::JobSpec;
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

    /// The simulated delay before re-admission `attempt` (1-based count
    /// of service-level retries so far): capped exponential in the
    /// attempt, plus sub-base jitter drawn purely from
    /// `(jitter seed, job, attempt)`, saturating at `u64::MAX`.
    pub(crate) fn backoff_ns(&self, jitter_seed: u64, job: u64, attempt: u32) -> u64 {
        let base = self.backoff_base_ns;
        let doublings = attempt.saturating_sub(1).min(BACKOFF_CAP_DOUBLINGS);
        let exp = base.saturating_mul(1 << doublings);
        let jitter = gts_faults::domain_seed(jitter_seed, job, u64::from(attempt)) % base;
        exp.saturating_add(jitter)
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
        let base = self.shed_watermark_pct?;
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

/// One tenant's breaker: the consecutive-failure count and, when
/// tripped, the simulated instant it closes.
#[derive(Debug, Default, Clone)]
struct Breaker {
    consecutive: u32,
    open_until: Option<u64>,
}

/// The admission state on the simulated clock: the FIFO G/G/c queue
/// and every tenant's circuit breaker. `slots[i]` is the time slot *i*
/// becomes free; `waiting` are admitted-but-not-yet-started jobs, kept
/// so queue-occupancy checks at later arrivals see them — a job
/// occupies queue space from arrival until its start. Jobs doomed by
/// their deadline are dropped without ever occupying queue space.
///
/// Its two mutators are called in strict `(arrival, seq, attempt)`
/// order, which is what keeps admission deterministic.
#[derive(Debug)]
pub(crate) struct Admission<'a> {
    cfg: &'a ServeConfig,
    slots: Vec<u64>,
    waiting: Vec<(u64, String)>,
    breakers: BTreeMap<String, Breaker>,
    /// Breaker trips so far (`serve.breaker.trips`).
    pub(crate) trips: u64,
}

impl Admission<'_> {
    pub(crate) fn new(cfg: &ServeConfig) -> Admission<'_> {
        Admission {
            cfg,
            slots: vec![0; cfg.slots],
            waiting: Vec::new(),
            breakers: BTreeMap::new(),
            trips: 0,
        }
    }

    /// Decide an attempt of `spec` arriving at `arrival` (later than
    /// `spec.at_ns` for service-level re-admissions): its start time, or
    /// the typed drop. The tenant's breaker gates first — it refuses
    /// while open and closes once its cool-down has elapsed — then the
    /// queueing decision. Processing attempts in arrival order with
    /// `start = max(earliest-free, arrival)` *is* the FIFO simulation —
    /// dispatch order equals arrival order, so decisions depend only on
    /// already-settled attempts.
    pub(crate) fn decide(&mut self, arrival: u64, spec: &JobSpec) -> Result<u64, ServeError> {
        if let Some(b) = self.breakers.get(&spec.tenant) {
            match b.open_until {
                Some(until) if arrival < until => {
                    return Err(ServeError::BreakerOpen {
                        tenant: spec.tenant.clone(),
                        failures: b.consecutive,
                        until_ns: until,
                    });
                }
                Some(_) => {
                    self.breakers.remove(&spec.tenant);
                }
                None => {}
            }
        }
        let cfg = self.cfg;
        self.waiting.retain(|(until, _)| *until > arrival);
        let slot_free = if spec.mutate.is_some() {
            // Topology rewrite: every lane set must drain first.
            self.slots.iter().copied().max().unwrap_or(0)
        } else {
            self.slots.iter().copied().min().unwrap_or(0)
        };
        let start = slot_free.max(arrival);
        if start == arrival {
            return Ok(start); // a slot is free right now: no queueing
        }
        // An overloaded service refuses before capacity bookkeeping:
        // shedding is a pressure decision, not a queue-full accident.
        if let Some((pressure_pct, watermark_pct)) = cfg.resilience.shed(
            spec.priority,
            self.waiting.len(),
            cfg.queue_capacity,
            start - arrival,
            cfg.deadline_ns,
        ) {
            return Err(ServeError::Shed {
                class: spec.algorithm.clone(),
                pressure_pct,
                watermark_pct,
            });
        }
        let mine = self
            .waiting
            .iter()
            .filter(|(_, t)| *t == spec.tenant)
            .count();
        if mine >= cfg.tenant_queue_capacity {
            return Err(ServeError::Rejected {
                tenant: spec.tenant.clone(),
                waiting: mine,
                capacity: cfg.tenant_queue_capacity,
            });
        }
        if self.waiting.len() >= cfg.queue_capacity {
            return Err(ServeError::QueueFull {
                waiting: self.waiting.len(),
                capacity: cfg.queue_capacity,
            });
        }
        if let Some(deadline) = cfg.deadline_ns {
            if start - arrival > deadline {
                // Doomed at decision time: known dead now, so it frees
                // its queue slot immediately instead of crowding out
                // later arrivals until the deadline expires.
                return Err(ServeError::Deadline {
                    waited_ns: start - arrival,
                    deadline_ns: deadline,
                });
            }
        }
        self.waiting.push((start, spec.tenant.clone()));
        Ok(start)
    }

    /// Record a settled attempt of `spec` admitted at `start`: a
    /// completion (`Some(service_ns)`) occupies its slot time — every
    /// slot for a mutating job — and closes the tenant's breaker; a
    /// failure (`None`) charges no slot time and counts towards the
    /// breaker, tripping it at the configured threshold.
    pub(crate) fn settle(&mut self, start: u64, spec: &JobSpec, service_ns: Option<u64>) {
        let finish = start.saturating_add(service_ns.unwrap_or(0));
        if spec.mutate.is_some() {
            self.slots.iter_mut().for_each(|s| *s = finish);
        } else if let Some(s) = self.slots.iter_mut().min_by_key(|s| **s) {
            *s = finish;
        }
        let res = &self.cfg.resilience;
        if service_ns.is_some() {
            self.breakers.remove(&spec.tenant);
        } else if res.breaker_threshold > 0 {
            let b = self.breakers.entry(spec.tenant.clone()).or_default();
            b.consecutive += 1;
            if b.consecutive >= res.breaker_threshold && b.open_until.is_none() {
                b.open_until = Some(start.saturating_add(res.breaker_cooldown_ns));
                self.trips += 1;
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xB0FF;

    fn serve_cfg(resilience: ResilienceConfig) -> ServeConfig {
        ServeConfig {
            resilience,
            ..ServeConfig::default()
        }
    }

    fn job(tenant: &str) -> JobSpec {
        JobSpec::new(0, tenant, "bfs")
    }

    #[test]
    fn backoff_is_capped_exponential_with_seeded_jitter() {
        let r = ResilienceConfig {
            retry_max: 8,
            backoff_base_ns: 1000,
            ..ResilienceConfig::default()
        };
        // Deterministic, growing, jitter strictly below the base.
        for attempt in 1..=8u32 {
            let d = r.backoff_ns(SEED, 7, attempt);
            assert_eq!(d, r.backoff_ns(SEED, 7, attempt));
            let exp = 1000u64 << attempt.saturating_sub(1).min(BACKOFF_CAP_DOUBLINGS);
            assert!(d >= exp && d < exp + 1000, "attempt {attempt}: {d}");
        }
        // Capped: attempts 7 and 8 share the exponential part.
        assert_eq!(
            r.backoff_ns(SEED, 7, 7) / 1000,
            r.backoff_ns(SEED, 7, 8) / 1000
        );
        // Jitter differs across jobs and attempts.
        assert_ne!(r.backoff_ns(SEED, 1, 1), r.backoff_ns(SEED, 2, 1));
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_and_cools_down() {
        let cfg = serve_cfg(ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooldown_ns: 100,
            ..ResilienceConfig::default()
        });
        let mut adm = Admission::new(&cfg);
        let (a, b) = (job("a"), job("b"));
        assert_eq!(adm.decide(0, &a), Ok(0));
        adm.settle(10, &a, None);
        assert!(adm.decide(11, &a).is_ok(), "one failure is not K");
        adm.settle(20, &a, None);
        assert_eq!(adm.trips, 1);
        let err = adm.decide(50, &a).unwrap_err();
        assert!(
            matches!(&err, ServeError::BreakerOpen { tenant, failures: 2, until_ns: 120 }
                if tenant == "a"),
            "{err}"
        );
        // Another tenant is unaffected; the cool-down closes it.
        assert!(adm.decide(50, &b).is_ok());
        assert!(adm.decide(120, &a).is_ok());
        assert!(adm.decide(121, &a).is_ok(), "count reset on close");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let cfg = serve_cfg(ResilienceConfig {
            breaker_threshold: 2,
            ..ResilienceConfig::default()
        });
        let mut adm = Admission::new(&cfg);
        let a = job("a");
        adm.settle(0, &a, None);
        adm.settle(1, &a, Some(5));
        adm.settle(6, &a, None);
        assert_eq!(adm.trips, 0, "non-consecutive failures never trip");
    }

    /// Regression: a backoff base too large to double dropped its high
    /// bits (`2^60 << 4` wrapped to 0, so attempt 5 backed off by jitter
    /// only), and `now + breaker_cooldown_ns` overflowed for a large
    /// cool-down (a panic in debug builds, a breaker that closed at
    /// once in release). Both saturate at the end of simulated time.
    #[test]
    fn backoff_and_breaker_saturate_at_u64_extremes() {
        let r = ResilienceConfig {
            retry_max: 8,
            backoff_base_ns: 1 << 60,
            ..ResilienceConfig::default()
        };
        let delays: Vec<u64> = (1..=8).map(|k| r.backoff_ns(SEED, 7, k)).collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        assert!(delays[0] >= 1 << 60, "{delays:?}");
        assert_eq!(delays[4], u64::MAX);
        let max = ResilienceConfig {
            backoff_base_ns: u64::MAX,
            ..ResilienceConfig::default()
        };
        assert_eq!(max.backoff_ns(SEED, 7, 1), u64::MAX);

        let cfg = serve_cfg(ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown_ns: u64::MAX,
            ..ResilienceConfig::default()
        });
        let mut adm = Admission::new(&cfg);
        let a = job("a");
        adm.settle(10, &a, None);
        assert!(
            matches!(
                adm.decide(u64::MAX - 1, &a),
                Err(ServeError::BreakerOpen {
                    until_ns: u64::MAX,
                    ..
                })
            ),
            "the breaker stays open to the end of simulated time"
        );
    }

    #[test]
    fn shedding_orders_by_priority_and_watches_both_pressures() {
        let r = ResilienceConfig {
            shed_watermark_pct: Some(40),
            ..ResilienceConfig::default()
        };
        // Queue 50% full: prio 0 sheds (watermark 40), prio 1 (55) not.
        assert_eq!(r.shed(0, 5, 10, 0, None), Some((50, 40)));
        assert_eq!(r.shed(1, 5, 10, 0, None), None);
        // Projected deadline consumption alone also sheds.
        assert_eq!(r.shed(0, 0, 10, 90, Some(100)), Some((90, 40)));
        // prio 3 holds its slot until near-total pressure (watermark 85).
        assert_eq!(r.shed(3, 8, 10, 0, None), None);
        assert_eq!(r.shed(3, 9, 10, 0, None), Some((90, 85)));
        // No watermark, no shedding.
        let off = ResilienceConfig::default();
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
