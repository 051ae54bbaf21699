//! The fuzz-case interface: what the fuzz loop, the corpus and the
//! replay tests need from one kind of test case.
//!
//! Two kinds implement [`FuzzCase`]:
//!
//! * [`Instance`] — one offline problem, checked by the full oracle
//!   battery ([`check_instance`]) and minimized by the five-pass instance
//!   shrinker ([`shrink`]);
//! * [`OnlineScript`] — a seed instance plus an event stream, checked by
//!   the online-vs-offline differential ([`check_online`]) and minimized
//!   by tail truncation and event / seed-task drops ([`shrink_online`]).
//!
//! A case is deterministic given the RNG state it was drawn from and
//! round-trips through JSON, so every repro the loop writes replays
//! exactly.

use crate::gen::gen_instance;
use crate::instance::Instance;
use crate::online::{check_online, gen_online, shrink_online, OnlineScript};
use crate::oracles::{check_instance, OracleClass, OracleViolation};
use crate::shrink::shrink;
use esched_obs::json::{parse, FromJson, JsonError, ToJson};
use esched_obs::rng::ChaCha8;

/// One kind of fuzz case.
pub trait FuzzCase: Send + ToJson + FromJson {
    /// Draw one adversarial case. Deterministic given the RNG state.
    fn generate(rng: &mut ChaCha8) -> Self;

    /// Run the oracle battery and collect every violation. Panics inside
    /// the pipeline surface as [`OracleClass::Panic`] violations.
    fn check(&self) -> Vec<OracleViolation>;

    /// Greedily minimize the case while [`FuzzCase::check`] keeps
    /// reporting a violation of `class`, spending at most `max_evals`
    /// oracle evaluations.
    fn shrink(&self, class: OracleClass, max_evals: usize) -> Shrunk<Self>;

    /// Compact human-readable summary (`n=3 m=2 …`).
    fn summary(&self) -> String;

    /// Parse a case from its JSON text.
    ///
    /// # Errors
    /// [`JsonError`] on malformed text or an invalid case.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&parse(text)?)
    }
}

/// A shrunk repro plus the oracle-evaluation budget it consumed.
#[derive(Debug, Clone)]
pub struct Shrunk<C> {
    /// The minimized case (still failing for the target class).
    pub case: C,
    /// Oracle evaluations spent.
    pub evals: usize,
}

impl FuzzCase for Instance {
    fn generate(rng: &mut ChaCha8) -> Self {
        gen_instance(rng)
    }

    fn check(&self) -> Vec<OracleViolation> {
        check_instance(self)
    }

    fn shrink(&self, class: OracleClass, max_evals: usize) -> Shrunk<Self> {
        shrink(self, class, max_evals)
    }

    /// `n=3 m=2 alpha=3 p0=0.2`.
    fn summary(&self) -> String {
        format!(
            "n={} m={} alpha={} p0={}",
            self.tasks.len(),
            self.cores,
            self.power.alpha,
            self.power.p0
        )
    }
}

impl FuzzCase for OnlineScript {
    fn generate(rng: &mut ChaCha8) -> Self {
        gen_online(rng)
    }

    fn check(&self) -> Vec<OracleViolation> {
        check_online(self)
    }

    fn shrink(&self, class: OracleClass, max_evals: usize) -> Shrunk<Self> {
        shrink_online(self, class, max_evals)
    }

    /// `n=3 m=2 events=5`.
    fn summary(&self) -> String {
        format!(
            "n={} m={} events={}",
            self.instance.tasks.len(),
            self.instance.cores,
            self.events.len()
        )
    }
}
