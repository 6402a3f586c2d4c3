//! Churn streams: Poisson arrivals of control-plane intents (Fig. 4's
//! "atomically updating a random service port 100 times per second").

use mapro_core::UpdatePlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One scheduled intent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Arrival time in seconds from the run start.
    pub at_sec: f64,
    /// The compiled plan.
    pub(crate) plan: UpdatePlan,
}

/// Generate a Poisson stream of intents over `duration_sec` at `rate`
/// intents/second, compiling each with `make_plan(k)` (`k` = event
/// ordinal). Deterministic under `seed`.
pub fn poisson_stream(
    rate_per_sec: f64,
    duration_sec: f64,
    seed: u64,
    mut make_plan: impl FnMut(usize) -> UpdatePlan,
) -> Vec<ChurnEvent> {
    assert!(rate_per_sec >= 0.0 && duration_sec >= 0.0);
    let mut out = Vec::new();
    if rate_per_sec == 0.0 {
        return out;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut k = 0usize;
    loop {
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate_per_sec;
        if t >= duration_sec {
            return out;
        }
        out.push(ChurnEvent {
            at_sec: t,
            plan: make_plan(k),
        });
        k += 1;
    }
}

/// Summary statistics the switch-side stall model consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSummary {
    /// Events per second actually generated.
    pub rate: f64,
    /// Mean flow-mods per event.
    pub mean_flowmods: f64,
    /// Fraction of events needing a multi-entry atomic bundle.
    pub bundle_fraction: f64,
}

/// Summarize a stream.
pub fn summarize(events: &[ChurnEvent], duration_sec: f64) -> ChurnSummary {
    if events.is_empty() || duration_sec <= 0.0 {
        return ChurnSummary {
            rate: 0.0,
            mean_flowmods: 0.0,
            bundle_fraction: 0.0,
        };
    }
    let n = events.len() as f64;
    ChurnSummary {
        rate: n / duration_sec,
        mean_flowmods: events
            .iter()
            .map(|e| e.plan.touched_entries() as f64)
            .sum::<f64>()
            / n,
        bundle_fraction: events.iter().filter(|e| e.plan.needs_bundle()).count() as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::RuleUpdate;
    use mapro_core::Value;

    fn plan(n: usize) -> UpdatePlan {
        UpdatePlan {
            intent: format!("intent with {n} mods"),
            updates: (0..n)
                .map(|i| RuleUpdate::Delete {
                    table: "t".into(),
                    matches: vec![Value::Int(i as u64)],
                })
                .collect(),
        }
    }

    #[test]
    fn poisson_rate_approximately_respected() {
        let evs = poisson_stream(100.0, 10.0, 42, |_| plan(1));
        let s = summarize(&evs, 10.0);
        assert!((80.0..120.0).contains(&s.rate), "rate {}", s.rate);
        // Sorted arrival times within the window.
        for w in evs.windows(2) {
            assert!(w[0].at_sec <= w[1].at_sec);
        }
        assert!(evs.last().unwrap().at_sec < 10.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = poisson_stream(50.0, 2.0, 7, |_| plan(1));
        let b = poisson_stream(50.0, 2.0, 7, |_| plan(1));
        assert_eq!(a, b);
        let c = poisson_stream(50.0, 2.0, 8, |_| plan(1));
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rate_empty() {
        assert!(poisson_stream(0.0, 10.0, 1, |_| plan(1)).is_empty());
    }

    #[test]
    fn summary_fields() {
        let evs = vec![
            ChurnEvent {
                at_sec: 0.1,
                plan: plan(8),
            },
            ChurnEvent {
                at_sec: 0.2,
                plan: plan(1),
            },
        ];
        let s = summarize(&evs, 1.0);
        assert_eq!(s.rate, 2.0);
        assert_eq!(s.mean_flowmods, 4.5);
        assert_eq!(s.bundle_fraction, 0.5);
        let empty = summarize(&[], 1.0);
        assert_eq!(empty.rate, 0.0);
    }
}
