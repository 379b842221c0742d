//! The engine's old names, each a thin delegate to its replacement, kept
//! only for the benchmark package's call sites and hidden from the docs.

// ROADMAP T21(d) moves `perf` onto the new names; the change after it deletes this file.

use crate::{EngineConfig, Ledger, Replica, Scenario, ScenarioReport};
use at_model::Amount;
use at_net::VirtualTime;

/// Old name of [`Replica`].
#[doc(hidden)]
pub type ShardedReplica<B> = Replica<B>;

/// Old home of [`Ledger::uniform`].
#[doc(hidden)]
pub struct ShardedLedger;

impl ShardedLedger {
    /// [`Ledger::uniform`]; `_shards` is ignored.
    #[doc(hidden)]
    pub fn uniform(n: usize, amount: Amount, _shards: usize) -> Ledger {
        Ledger::uniform(n, amount)
    }
}

impl EngineConfig {
    /// [`EngineConfig::batched`]; `_shards` is ignored.
    #[doc(hidden)]
    pub fn sharded_batched(_shards: usize, batch_size: usize, window: VirtualTime) -> Self {
        EngineConfig::batched(batch_size, window)
    }
}

/// Old wrapper of an [`EngineConfig`].
#[doc(hidden)]
pub struct ConsensuslessEngine {
    /// The configuration [`Engine::run`] runs.
    pub config: EngineConfig,
}

impl ConsensuslessEngine {
    /// Wraps `config`.
    pub fn new(config: EngineConfig) -> Self {
        ConsensuslessEngine { config }
    }
}

/// Old driver trait; its one implementation is [`ConsensuslessEngine`].
#[doc(hidden)]
pub trait Engine {
    /// [`EngineConfig::run`].
    fn run(&self, scenario: &Scenario) -> ScenarioReport;
}

impl Engine for ConsensuslessEngine {
    fn run(&self, scenario: &Scenario) -> ScenarioReport {
        self.config.run(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_suite;

    #[test]
    fn old_config_name_is_batched() {
        let window = VirtualTime::from_micros(500);
        assert_eq!(
            EngineConfig::sharded_batched(4, 16, window),
            EngineConfig::batched(16, window)
        );
    }

    #[test]
    fn old_ledger_name_builds_the_same_ledger() {
        let amount = Amount::new(1_000);
        assert_eq!(
            ShardedLedger::uniform(64, amount, 4).digest(),
            Ledger::uniform(64, amount).digest()
        );
    }

    #[test]
    fn old_engine_runs_what_the_config_runs() {
        let config = EngineConfig::standard();
        let scenario = &standard_suite(7)[0];
        assert_eq!(
            ConsensuslessEngine::new(config).run(scenario),
            config.run(scenario)
        );
    }
}
