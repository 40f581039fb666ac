//! Configuration of the CYCLOSA protection and deployment.

/// Parameters of the adaptive query protection (paper §V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionConfig {
    /// Maximum number of fake queries (`kmax`). The paper evaluates with
    /// `kmax = 7` for privacy (Fig. 5, Fig. 7) and `k = 3` for the system
    /// experiments.
    pub k_max: usize,
    /// Capacity of the in-enclave table of past queries used as fakes.
    pub past_query_capacity: usize,
    /// Smoothing factor of the linkability assessment.
    pub linkability_alpha: f64,
    /// Number of top terms taken from each LDA topic when building the
    /// semantic dictionaries.
    pub lda_terms_per_topic: usize,
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        Self {
            k_max: 7,
            past_query_capacity: 2_000,
            linkability_alpha: 0.7,
            lda_terms_per_topic: 6,
        }
    }
}

impl ProtectionConfig {
    /// The configuration used by the system experiments (k fixed small).
    pub fn with_k_max(k_max: usize) -> Self {
        Self {
            k_max,
            ..Self::default()
        }
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
            config.past_query_capacity,
            ProtectionConfig::default().past_query_capacity
        );
    }
}
