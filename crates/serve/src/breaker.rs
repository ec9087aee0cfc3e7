//! Per-backend circuit breaker: fast path with scalar fallback.
//!
//! The fast backend — the service's configured `backend` spec, packed by
//! default — shares one plan cache and arena across every job a worker
//! runs; if it ever misbehaves (a corruption
//! burst that survives retries, or a divergence from the scalar
//! reference), the service must stop routing traffic to it *without*
//! stopping service. The breaker is the standard three-state machine:
//!
//! ```text
//!            failures >= threshold
//!   Closed ──────────────────────────▶ Open (cooldown_jobs countdown)
//!     ▲                                   │ countdown reaches 0
//!     │ divergence probe passes           ▼
//!     └────────────────────────────── HalfOpen (probe before trusting)
//!                 probe fails: back to Open
//! ```
//!
//! While Open (and HalfOpen, until the probe passes) every job runs on
//! the scalar backend. The probe is *differential*: solve a fixed
//! reference graph on the fast and scalar backends and compare results
//! bit-for-bit —
//! the same equivalence PR 3's differential suites assert statically,
//! run here as a live health check. Every transition is recorded by the
//! service under `serve.breaker.*` counters.

/// Breaker states (see module docs for the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Fast backend trusted: consecutive failures are counted.
    Closed,
    /// Fast backend banned; `cooldown_left` more jobs run scalar
    /// before the breaker half-opens.
    Open {
        /// Jobs left before probing is allowed.
        cooldown_left: u32,
    },
    /// Cooldown over: the next routing decision asks for a divergence
    /// probe before fast traffic resumes.
    HalfOpen,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive fast-attempt failures that trip Closed -> Open.
    pub failure_threshold: u32,
    /// Jobs routed scalar before Open -> HalfOpen.
    pub cooldown_jobs: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_jobs: 8,
        }
    }
}

/// The circuit breaker guarding the configured fast backend.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
}

/// What the breaker wants for the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Run the job on the configured fast backend (packed or threaded).
    Packed,
    /// Run the job on the scalar backend.
    Scalar,
    /// Run a divergence probe first; then route by its verdict
    /// (report it back via [`CircuitBreaker::probe_result`]).
    ProbeFirst,
}

impl CircuitBreaker {
    /// A closed (trusting) breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Routing decision for the next job. Advances the Open-state
    /// cooldown countdown as a side effect (each routed job is one tick).
    pub fn route(&mut self) -> Route {
        match self.state {
            BreakerState::Closed => Route::Packed,
            BreakerState::Open { cooldown_left } => {
                self.state = match cooldown_left.saturating_sub(1) {
                    0 => BreakerState::HalfOpen,
                    left => BreakerState::Open {
                        cooldown_left: left,
                    },
                };
                Route::Scalar
            }
            BreakerState::HalfOpen => Route::ProbeFirst,
        }
    }

    /// Records a packed-attempt failure of a kind that implicates the
    /// backend (corruption-class, per
    /// [`McpError::indicates_corruption`](ppa_mcp::McpError::indicates_corruption)).
    /// Returns `true` when this failure trips the breaker open.
    pub fn record_failure(&mut self) -> bool {
        if self.state != BreakerState::Closed {
            return false;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.config.failure_threshold {
            self.trip();
            true
        } else {
            false
        }
    }

    /// Records a successful packed attempt (resets the failure streak).
    pub fn record_success(&mut self) {
        if self.state == BreakerState::Closed {
            self.consecutive_failures = 0;
        }
    }

    /// Reports a divergence-probe verdict from the HalfOpen state:
    /// a passing probe closes the breaker, a failing one re-opens it
    /// for a fresh cooldown.
    pub fn probe_result(&mut self, passed: bool) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if passed {
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
        } else {
            self.trip();
        }
    }

    /// Forces the breaker open (used when a divergence is observed
    /// directly, outside the consecutive-failure path).
    pub fn trip(&mut self) {
        self.state = BreakerState::Open {
            cooldown_left: self.config.cooldown_jobs.max(1),
        };
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_jobs: cooldown,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker(3, 4);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(matches!(b.state(), BreakerState::Open { cooldown_left: 4 }));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = breaker(2, 4);
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure(), "streak was reset");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_counts_scalar_jobs_then_half_opens() {
        let mut b = breaker(1, 3);
        assert!(b.record_failure());
        assert_eq!(b.route(), Route::Scalar);
        assert_eq!(b.route(), Route::Scalar);
        assert_eq!(b.route(), Route::Scalar);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.route(), Route::ProbeFirst);
    }

    #[test]
    fn probe_verdict_closes_or_reopens() {
        let mut b = breaker(1, 1);
        b.trip();
        assert_eq!(b.route(), Route::Scalar); // burns the 1-job cooldown
        b.probe_result(false);
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.route(), Route::Scalar);
        b.probe_result(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.route(), Route::Packed);
    }

    #[test]
    fn failures_while_open_do_not_stack() {
        let mut b = breaker(1, 5);
        b.trip();
        assert!(!b.record_failure(), "already open");
        assert!(matches!(b.state(), BreakerState::Open { cooldown_left: 5 }));
    }
}
