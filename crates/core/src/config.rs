//! Agent configuration.

/// Tunables for the StegHide agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentConfig {
    /// Safety bound on the number of block-selection iterations in the
    /// Figure 6 update loop. The expected number is `N/D` (Section 4.1.5), so
    /// this bound is only hit when the volume has essentially no dummy blocks
    /// left.
    pub max_update_iterations: u32,
    /// Number of dummy updates issued per idle tick
    /// ([`crate::NonVolatileAgent::tick_idle`] /
    /// [`crate::ConcurrentVolatileAgent::tick_idle`]).
    pub dummy_updates_per_tick: u32,
    /// Whether real updates relocate the block (Figure 6). Disabling this
    /// keeps the dummy-update stream but rewrites data in place; it exists
    /// for the ablation experiment showing that dummy updates alone do *not*
    /// defeat update analysis (Section 4.1.4's motivation).
    pub relocate_on_update: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            max_update_iterations: 100_000,
            dummy_updates_per_tick: 1,
            relocate_on_update: true,
        }
    }
}

impl AgentConfig {
    /// Configuration with relocation disabled (ablation).
    pub fn without_relocation(mut self) -> Self {
        self.relocate_on_update = false;
        self
    }

    /// Override the number of dummy updates per idle tick.
    pub fn with_dummy_updates_per_tick(mut self, n: u32) -> Self {
        self.dummy_updates_per_tick = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_relocation() {
        let cfg = AgentConfig::default();
        assert!(cfg.relocate_on_update);
        assert!(cfg.max_update_iterations > 1000);
    }

    #[test]
    fn builders_modify_fields() {
        let cfg = AgentConfig::default()
            .without_relocation()
            .with_dummy_updates_per_tick(5);
        assert!(!cfg.relocate_on_update);
        assert_eq!(cfg.dummy_updates_per_tick, 5);
    }
}
