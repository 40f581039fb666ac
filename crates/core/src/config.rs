//! Configuration of the CYCLOSA protection and deployment.

/// Capacity of the in-enclave table of past queries used as fakes.
pub const PAST_QUERY_CAPACITY: usize = 2_000;

/// Parameters of the adaptive query protection (paper §V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionConfig {
    /// Maximum number of fake queries (`kmax`). The paper evaluates with
    /// `kmax = 7` for privacy (Fig. 5, Fig. 7) and `k = 3` for the system
    /// experiments.
    pub k_max: usize,
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        Self { k_max: 7 }
    }
}

impl ProtectionConfig {
    /// The configuration used by the system experiments (k fixed small).
    pub fn with_k_max(k_max: usize) -> Self {
        Self { k_max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let config = ProtectionConfig::default();
        assert_eq!(config.k_max, 7);
    }

    #[test]
    fn with_k_max_overrides_only_k() {
        let config = ProtectionConfig::with_k_max(3);
        assert_eq!(config.k_max, 3);
        assert_eq!(
            ProtectionConfig::with_k_max(ProtectionConfig::default().k_max),
            ProtectionConfig::default()
        );
    }
}
