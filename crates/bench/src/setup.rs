//! Shared experimental fixtures.

use cyclosa::config::ProtectionConfig;
use cyclosa::mechanism::Cyclosa;
use cyclosa::sensitivity::build_categorizer;
use cyclosa_baselines::{GooPir, Peas, Tor, TrackMeNot, XSearch};
use cyclosa_mechanism::Mechanism;
use cyclosa_nlp::categorizer::{CategorizerMethod, QueryCategorizer};
use cyclosa_nlp::lexicon::Lexicon;
use cyclosa_search_engine::corpus::CorpusGenerator;
use cyclosa_search_engine::{Index, SearchEngine};
use cyclosa_util::rng::Xoshiro256StarStar;
use cyclosa_workload::generator::{
    LabeledQuery, QueryLog, UserTrace, WorkloadConfig, WorkloadGenerator,
};
use cyclosa_workload::topics::{seed_queries, sensitive_corpus, synthetic_lexicon, TopicCatalog};
use std::sync::OnceLock;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small and fast — used by unit/integration tests and Criterion.
    Small,
    /// The default for `repro` runs: statistically stable, minutes of CPU.
    Default,
    /// The paper-scale setting (198 most-active users).
    Paper,
}

impl ExperimentScale {
    /// The workload configuration for this scale.
    pub(crate) fn workload_config(self) -> WorkloadConfig {
        match self {
            ExperimentScale::Small => WorkloadConfig {
                users: 24,
                mean_queries_per_user: 40,
            },
            ExperimentScale::Default => WorkloadConfig {
                users: 100,
                mean_queries_per_user: 60,
            },
            ExperimentScale::Paper => WorkloadConfig::default(),
        }
    }

    /// Documents per topic in the search-engine corpus.
    pub(crate) fn documents_per_topic(self) -> usize {
        match self {
            ExperimentScale::Small => 40,
            ExperimentScale::Default => 120,
            ExperimentScale::Paper => 250,
        }
    }

    /// Size of the sensitive-subject LDA training corpus.
    pub(crate) fn sensitive_corpus_size(self) -> usize {
        match self {
            ExperimentScale::Small => 80,
            ExperimentScale::Default => 300,
            ExperimentScale::Paper => 800,
        }
    }
}

impl std::str::FromStr for ExperimentScale {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_lowercase().as_str() {
            "small" => Ok(ExperimentScale::Small),
            "default" => Ok(ExperimentScale::Default),
            "paper" => Ok(ExperimentScale::Paper),
            other => Err(format!(
                "unknown scale {other} (expected small|default|paper)"
            )),
        }
    }
}

/// Everything the experiments need, built once from a seed.
pub struct ExperimentSetup {
    /// The topic catalogue.
    pub(crate) catalog: TopicCatalog,
    /// The synthetic WordNet-like lexicon.
    pub(crate) lexicon: Lexicon,
    /// The sensitive-subject LDA training corpus.
    pub(crate) sensitive_corpus: Vec<String>,
    /// Trend-style seed queries for bootstrap / TrackMeNot feeds.
    pub seed_queries: Vec<String>,
    /// The full query log.
    pub log: QueryLog,
    /// Training traces (adversary knowledge / user histories).
    pub train: Vec<UserTrace>,
    /// Testing queries flattened in arrival order.
    pub test_queries: Vec<LabeledQuery>,
    /// The simulated search engine.
    pub engine: SearchEngine,
    /// The base seed.
    pub(crate) seed: u64,
    /// The categorizer, trained on first use and cloned from then on.
    categorizer: OnceLock<QueryCategorizer>,
}

impl ExperimentSetup {
    /// Builds the shared fixtures at the given scale.
    pub fn new(scale: ExperimentScale, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let catalog = TopicCatalog::default_catalog();
        let lexicon = synthetic_lexicon(&catalog);
        let corpus = sensitive_corpus(&catalog, scale.sensitive_corpus_size(), &mut rng);
        let seeds = seed_queries(&catalog, 200, &mut rng);

        let generator = WorkloadGenerator::new(catalog.clone(), scale.workload_config());
        let log = generator.generate(&mut rng);
        let (train, test) = log.train_test_split(2.0 / 3.0);
        let test_queries = QueryLog::interleave(&test);

        let documents = CorpusGenerator::new(catalog.as_corpus_topics(), 14)
            .generate(scale.documents_per_topic(), &mut rng);
        let engine = SearchEngine::new(Index::build(&documents));

        Self {
            catalog,
            lexicon,
            sensitive_corpus: corpus,
            seed_queries: seeds,
            log,
            train,
            test_queries,
            engine,
            seed,
            categorizer: OnceLock::new(),
        }
    }

    /// A fresh deterministic RNG for one experiment, derived from the base
    /// seed and a label.
    pub fn rng(&self, label: u64) -> Xoshiro256StarStar {
        let mut root = Xoshiro256StarStar::seed_from_u64(self.seed ^ 0xEC5E);
        root.fork(label)
    }

    /// The per-user categorizer built the way CYCLOSA clients do, covering
    /// all four default sensitive topics. LDA is trained on the first call
    /// only (its RNG label never changes, so neither does the result); every
    /// call returns a clone that shares the compiled table. It does not read
    /// `_protection`; the parameter stays for the `benchmarks/` package,
    /// which passes it.
    pub fn categorizer(&self, _protection: &ProtectionConfig) -> QueryCategorizer {
        self.categorizer
            .get_or_init(|| {
                build_categorizer(
                    &self.lexicon,
                    &["health", "politics", "religion", "sexuality"],
                    &self.sensitive_corpus,
                    &mut self.rng(0xCA7),
                )
            })
            .clone()
    }

    /// Builds a fully seeded CYCLOSA mechanism with `k_max`.
    pub fn cyclosa(&self, k_max: usize) -> Cyclosa {
        let config = ProtectionConfig::with_k_max(k_max);
        let mut cyclosa = Cyclosa::new(
            config.clone(),
            self.categorizer(&config),
            CategorizerMethod::Combined,
        );
        cyclosa.seed_fake_pool(self.seed_queries.iter().map(|s| s.as_str()));
        for trace in &self.train {
            cyclosa.register_user_history(
                trace.user,
                trace.queries.iter().map(|q| q.query.text.as_str()),
            );
        }
        cyclosa
    }

    /// Builds the TrackMeNot baseline (RSS feed = trending seed queries).
    pub(crate) fn trackmenot(&self, fakes_per_query: usize) -> TrackMeNot {
        TrackMeNot::new(fakes_per_query, self.seed_queries.clone())
    }

    /// Builds the GooPIR baseline (dictionary = the whole topic vocabulary).
    pub(crate) fn goopir(&self, k: usize) -> GooPir {
        let dictionary: Vec<String> = self
            .catalog
            .topics()
            .iter()
            .flat_map(|t| t.terms.iter().map(|s| s.to_string()))
            .collect();
        GooPir::new(k, dictionary)
    }

    /// Builds the PEAS baseline, seeding its issuer with the training
    /// queries of all users (its co-occurrence knowledge).
    pub(crate) fn peas(&self, k: usize) -> Peas {
        let mut peas = Peas::new(k);
        for trace in &self.train {
            peas.seed_with_queries(trace.queries.iter().map(|q| q.query.text.as_str()));
        }
        peas
    }

    /// Builds the X-SEARCH baseline, seeding its proxy with the training
    /// queries of all users.
    pub(crate) fn xsearch(&self, k: usize) -> XSearch {
        let mut xsearch = XSearch::with_default_platform(k);
        for trace in &self.train {
            xsearch.seed_with_queries(trace.queries.iter().map(|q| q.query.text.as_str()));
        }
        xsearch
    }

    /// The TOR baseline.
    pub(crate) fn tor(&self) -> Tor {
        Tor::new()
    }

    /// The seven mechanisms of Fig. 5 at `k`, in the figure's order, each
    /// with its row name and the label of its RNG stream
    /// (`rng(0xF15 ^ label)`). Each is built when the iterator reaches it.
    pub fn fig5_mechanisms(
        &self,
        k: usize,
    ) -> impl Iterator<Item = (&'static str, u64, Box<dyn Mechanism>)> + '_ {
        type Build = fn(&ExperimentSetup, usize) -> Box<dyn Mechanism>;
        let rows: [(&'static str, Build); 7] = [
            ("TOR", |s, _| Box::new(s.tor())),
            ("TrackMeNot", |s, k| Box::new(s.trackmenot(k))),
            ("GooPIR", |s, k| Box::new(s.goopir(k))),
            ("PEAS", |s, k| Box::new(s.peas(k))),
            ("X-SEARCH", |s, k| Box::new(s.xsearch(k))),
            ("CYCLOSA", |s, k| Box::new(s.cyclosa(k).with_fixed_k())),
            ("CYCLOSA (adaptive)", |s, k| Box::new(s.cyclosa(k))),
        ];
        (1..)
            .zip(rows)
            .map(move |(label, (name, build))| (name, label, build(self, k)))
    }
}
