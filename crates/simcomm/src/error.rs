//! Typed world-failure reporting.
//!
//! A simulated world can fail for reasons that are *expected* operational
//! events, not harness bugs: a rank's closure panics (possibly injected), the
//! scheduler detects a virtual deadlock, the host refuses to spawn another
//! rank thread, or a wall-clock deadline retires a stalled run.
//! [`WorldError`] gives supervisors (such as the `campaign` crate's runner) a
//! typed description of the first such failure, so they can classify and
//! retry runs without string-matching panic payloads.
//!
//! The panicking entry points ([`crate::run`], [`crate::Runner::run`]) remain
//! for callers that treat any world failure as fatal; they wrap
//! [`crate::Runner::try_run`] and panic with the error's display form.

use std::fmt;

/// Why a simulated world failed. Returned by [`crate::Runner::try_run`];
/// the panicking `run*` entry points embed the display form in their panic
/// message (`"simcomm world failed: {error}"`).
///
/// Only the *first* failure is reported: once a world is poisoned, the
/// secondary panics of the remaining ranks (woken to unwind) are not
/// recorded.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldError {
    /// A rank's closure panicked. This covers both genuine bugs in rank code
    /// and deliberately injected failures; the message is the panic payload.
    RankPanic {
        /// The rank whose closure panicked first.
        rank: usize,
        /// The panic payload (if it was a string; a placeholder otherwise).
        message: String,
    },
    /// The scheduler found every live rank blocked with no virtual event
    /// left that could wake any of them — e.g. a receive whose matching send
    /// was never posted.
    VirtualDeadlock {
        /// Live (not yet finished) ranks at detection time, all blocked.
        live: usize,
        /// The rank whose block (or exit) completed the deadlock.
        rank: usize,
        /// The blocking site of that rank (`"Mailbox"`, `"Collective"`, or
        /// `"rank-exit"` when the deadlock surfaced at a rank's retirement).
        site: String,
        /// That rank's virtual clock when the deadlock was detected.
        clock: f64,
    },
    /// The host operating system refused to spawn a rank's backing thread
    /// (e.g. `EAGAIN` from a pid or mapping limit at high rank counts).
    SpawnFailed {
        /// The first rank whose thread could not be spawned.
        rank: usize,
        /// Requested world size.
        nranks: usize,
        /// The OS error text.
        message: String,
    },
    /// The run's wall-clock deadline (see [`crate::Runner::deadline`])
    /// elapsed before the world completed; the watchdog poisoned the world to
    /// retire it. The recorded seconds are the *configured* limit, never a
    /// measured duration, so the error is deterministic for a given
    /// configuration.
    DeadlineExceeded {
        /// The configured wall-clock limit in seconds.
        seconds: f64,
    },
}

impl WorldError {
    /// Short machine-readable failure class: `"panic"`, `"deadlock"`,
    /// `"spawn"` or `"deadline"`. Stable — supervisors journal and aggregate
    /// on these.
    pub fn kind(&self) -> &'static str {
        match self {
            WorldError::RankPanic { .. } => "panic",
            WorldError::VirtualDeadlock { .. } => "deadlock",
            WorldError::SpawnFailed { .. } => "spawn",
            WorldError::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            WorldError::VirtualDeadlock { live, rank, site, clock } => write!(
                f,
                "virtual deadlock: all {live} live ranks are blocked \
                 (rank {rank} last, on {site} at t={clock:.9}); \
                 no virtual event can wake any of them"
            ),
            WorldError::SpawnFailed { rank, nranks, message } => write!(
                f,
                "could not spawn the host thread of rank {rank} \
                 (world of {nranks} ranks): {message}"
            ),
            WorldError::DeadlineExceeded { seconds } => write!(
                f,
                "wall-clock deadline of {seconds} s exceeded: the world was poisoned and retired"
            ),
        }
    }
}

impl std::error::Error for WorldError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let cases: [(WorldError, &str); 4] = [
            (WorldError::RankPanic { rank: 3, message: "boom".into() }, "panic"),
            (
                WorldError::VirtualDeadlock {
                    live: 2,
                    rank: 1,
                    site: "Mailbox".into(),
                    clock: 0.5,
                },
                "deadlock",
            ),
            (WorldError::SpawnFailed { rank: 9, nranks: 4096, message: "EAGAIN".into() }, "spawn"),
            (WorldError::DeadlineExceeded { seconds: 2.0 }, "deadline"),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            // Every display form mentions enough to debug without the enum.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn deadline_display_uses_configured_limit_only() {
        let err = WorldError::DeadlineExceeded { seconds: 1.5 };
        assert_eq!(
            err.to_string(),
            "wall-clock deadline of 1.5 s exceeded: the world was poisoned and retired"
        );
    }
}
