//! Topic vocabularies, the sensitive-subject corpus, the synthetic lexicon
//! and trending seed queries.
//!
//! The vocabularies double as (a) the source of user queries in the
//! generator, (b) the source of the synthetic document corpus indexed by the
//! search engine, and (c) the raw material of the WordNet-like lexicon and
//! the LDA training corpus used by the sensitivity categorizer — exactly the
//! coupling that exists in the real evaluation, where queries, documents and
//! dictionaries all come from the same natural language.

use cyclosa_nlp::lexicon::{Lexicon, LexiconBuilder};

/// One query topic with its vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topic {
    /// Topic name (doubles as the lexicon domain label).
    pub(crate) name: &'static str,
    /// Whether the topic belongs to the default sensitive set (health,
    /// politics, religion, sexuality — per Google's definition cited in
    /// §V-A1).
    pub(crate) sensitive: bool,
    /// Vocabulary of the topic.
    pub terms: &'static [&'static str],
}

/// The catalogue of topics used by the synthetic workload.
#[derive(Debug, Clone, Default)]
pub struct TopicCatalog {
    topics: Vec<Topic>,
}

const HEALTH: &[&str] = &[
    "diabetes",
    "insulin",
    "glucose",
    "chemotherapy",
    "tumor",
    "oncology",
    "migraine",
    "asthma",
    "inhaler",
    "depression",
    "anxiety",
    "therapy",
    "antidepressant",
    "hiv",
    "std",
    "symptoms",
    "treatment",
    "diagnosis",
    "prescription",
    "dosage",
    "cardiology",
    "arrhythmia",
    "biopsy",
    "dermatology",
    "psoriasis",
    "arthritis",
    "ibuprofen",
    "vaccine",
    "allergy",
    "fertility",
    "pregnancy",
    "contraception",
    "hepatitis",
    "cholesterol",
    "hypertension",
    "insomnia",
];

const POLITICS: &[&str] = &[
    "election",
    "senate",
    "congress",
    "ballot",
    "referendum",
    "campaign",
    "candidate",
    "democrat",
    "republican",
    "socialist",
    "conservative",
    "liberal",
    "immigration",
    "asylum",
    "protest",
    "impeachment",
    "lobbying",
    "parliament",
    "coalition",
    "minister",
    "legislation",
    "veto",
    "primaries",
    "caucus",
    "gerrymandering",
    "populism",
    "sanctions",
    "diplomacy",
    "treaty",
];

const RELIGION: &[&str] = &[
    "church",
    "mosque",
    "synagogue",
    "temple",
    "prayer",
    "scripture",
    "bible",
    "quran",
    "torah",
    "pastor",
    "imam",
    "rabbi",
    "baptism",
    "ramadan",
    "easter",
    "pilgrimage",
    "atheism",
    "faith",
    "communion",
    "sermon",
    "monastery",
    "meditation",
    "karma",
    "theology",
    "convert",
    "worship",
];

const SEXUALITY: &[&str] = &[
    "erotic",
    "fetish",
    "lingerie",
    "escort",
    "swinger",
    "orientation",
    "bisexual",
    "transgender",
    "kink",
    "bdsm",
    "sexting",
    "libido",
    "intimacy",
    "seduction",
    "nudity",
    "webcam",
    "hookup",
    "polyamory",
    "aphrodisiac",
    "tantra",
    "burlesque",
    "strip",
    "adultery",
    "dominatrix",
];

const TRAVEL: &[&str] = &[
    "flights",
    "hotel",
    "booking",
    "hostel",
    "itinerary",
    "luggage",
    "visa",
    "passport",
    "resort",
    "beach",
    "cruise",
    "backpacking",
    "airline",
    "airport",
    "train",
    "roadtrip",
    "camping",
    "sightseeing",
    "museum",
    "tour",
    "paris",
    "geneva",
    "barcelona",
    "zurich",
    "lisbon",
    "tokyo",
];

const SHOPPING: &[&str] = &[
    "coupon",
    "discount",
    "deal",
    "sneakers",
    "laptop",
    "headphones",
    "furniture",
    "mattress",
    "jacket",
    "handbag",
    "jewelry",
    "watch",
    "returns",
    "refund",
    "delivery",
    "marketplace",
    "auction",
    "wishlist",
    "checkout",
    "voucher",
    "clearance",
    "outlet",
    "brand",
    "review",
];

const SPORTS: &[&str] = &[
    "football",
    "basketball",
    "tennis",
    "marathon",
    "cycling",
    "playoffs",
    "transfer",
    "league",
    "championship",
    "olympics",
    "score",
    "fixture",
    "goalkeeper",
    "quarterback",
    "homerun",
    "skiing",
    "snowboard",
    "climbing",
    "swimming",
    "triathlon",
    "stadium",
    "coach",
    "referee",
];

const TECHNOLOGY: &[&str] = &[
    "laptop",
    "smartphone",
    "android",
    "linux",
    "windows",
    "driver",
    "firmware",
    "router",
    "bandwidth",
    "programming",
    "python",
    "javascript",
    "database",
    "compiler",
    "encryption",
    "firewall",
    "malware",
    "backup",
    "cloud",
    "server",
    "graphics",
    "processor",
    "keyboard",
];

const ENTERTAINMENT: &[&str] = &[
    "movie",
    "trailer",
    "netflix",
    "series",
    "episode",
    "actor",
    "actress",
    "soundtrack",
    "concert",
    "festival",
    "album",
    "lyrics",
    "playlist",
    "celebrity",
    "gossip",
    "premiere",
    "boxoffice",
    "streaming",
    "podcast",
    "comedy",
    "thriller",
    "documentary",
    "anime",
];

const FINANCE: &[&str] = &[
    "mortgage",
    "refinance",
    "savings",
    "dividend",
    "portfolio",
    "broker",
    "etf",
    "pension",
    "budget",
    "invoice",
    "taxes",
    "deduction",
    "audit",
    "insurance",
    "premium",
    "loan",
    "interest",
    "credit",
    "debit",
    "bankruptcy",
    "crypto",
    "bitcoin",
    "exchange",
    "inflation",
];

const FOOD: &[&str] = &[
    "recipe",
    "pasta",
    "risotto",
    "fondue",
    "sourdough",
    "barbecue",
    "vegan",
    "vegetarian",
    "gluten",
    "dessert",
    "chocolate",
    "espresso",
    "restaurant",
    "reservation",
    "takeaway",
    "brunch",
    "smoothie",
    "casserole",
    "marinade",
    "airfryer",
    "paella",
    "tapas",
    "sushi",
    "ramen",
];

/// Terms that are evidence of a sensitive topic in some readings but appear
/// in harmless queries too — the polysemy that drags down the precision of
/// the lexicon-only categorizer (Table II).
const AMBIGUOUS_SEXUALITY: &[&str] = &["adult", "model", "massage", "dating", "toys", "escorts"];
const AMBIGUOUS_HEALTH: &[&str] = &["virus", "clinic", "drug", "dose", "pain"];
const AMBIGUOUS_POLITICS: &[&str] = &["party", "vote", "border", "union"];
const AMBIGUOUS_RELIGION: &[&str] = &["cross", "mass", "fast", "saint"];

impl TopicCatalog {
    /// The default catalogue: four sensitive topics and eight non-sensitive
    /// ones, which yields roughly the paper's 15.74 % sensitive-query rate
    /// under the default user-profile mix.
    pub fn default_catalog() -> Self {
        Self {
            topics: vec![
                Topic {
                    name: "health",
                    sensitive: true,
                    terms: HEALTH,
                },
                Topic {
                    name: "politics",
                    sensitive: true,
                    terms: POLITICS,
                },
                Topic {
                    name: "religion",
                    sensitive: true,
                    terms: RELIGION,
                },
                Topic {
                    name: "sexuality",
                    sensitive: true,
                    terms: SEXUALITY,
                },
                Topic {
                    name: "travel",
                    sensitive: false,
                    terms: TRAVEL,
                },
                Topic {
                    name: "shopping",
                    sensitive: false,
                    terms: SHOPPING,
                },
                Topic {
                    name: "sports",
                    sensitive: false,
                    terms: SPORTS,
                },
                Topic {
                    name: "technology",
                    sensitive: false,
                    terms: TECHNOLOGY,
                },
                Topic {
                    name: "entertainment",
                    sensitive: false,
                    terms: ENTERTAINMENT,
                },
                Topic {
                    name: "finance",
                    sensitive: false,
                    terms: FINANCE,
                },
                Topic {
                    name: "food",
                    sensitive: false,
                    terms: FOOD,
                },
            ],
        }
    }

    /// All topics.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// The sensitive topics.
    pub(crate) fn sensitive_topics(&self) -> Vec<&Topic> {
        self.topics.iter().filter(|t| t.sensitive).collect()
    }

    /// The non-sensitive topics.
    pub(crate) fn non_sensitive_topics(&self) -> Vec<&Topic> {
        self.topics.iter().filter(|t| !t.sensitive).collect()
    }

    /// Looks a topic up by name.
    pub(crate) fn topic(&self, name: &str) -> Option<&Topic> {
        self.topics.iter().find(|t| t.name == name)
    }

    /// `(name, vocabulary)` pairs in the form the corpus generator of
    /// `cyclosa-search-engine` expects.
    pub fn as_corpus_topics(&self) -> Vec<(String, Vec<String>)> {
        self.topics
            .iter()
            .map(|t| {
                (
                    t.name.to_owned(),
                    t.terms.iter().map(|s| s.to_string()).collect(),
                )
            })
            .collect()
    }
}

/// Builds the synthetic WordNet-like lexicon: every sensitive-topic term is
/// a synset in its topic's domain, and the ambiguous terms additionally
/// belong to the `general` domain. A small fraction of sensitive terms is
/// deliberately *omitted* (the lexicon is incomplete), which is what keeps
/// the lexicon-based categorizer's recall below 1 as in Table II.
pub fn synthetic_lexicon(catalog: &TopicCatalog) -> Lexicon {
    let mut builder = LexiconBuilder::new();
    for topic in catalog.sensitive_topics() {
        // Cover only part of each sensitive vocabulary (roughly 60 %): real
        // lexica miss slang and recent coinages, which is what keeps the
        // WordNet-only detector's recall at 0.83 in Table II.
        let covered: Vec<&str> = topic
            .terms
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 < 3)
            .map(|(_, t)| *t)
            .collect();
        builder = builder.domain_terms(topic.name, covered);
    }
    builder = builder.ambiguous_terms("sexuality", "general", AMBIGUOUS_SEXUALITY.iter().copied());
    builder = builder.ambiguous_terms("health", "general", AMBIGUOUS_HEALTH.iter().copied());
    builder = builder.ambiguous_terms("politics", "general", AMBIGUOUS_POLITICS.iter().copied());
    builder = builder.ambiguous_terms("religion", "general", AMBIGUOUS_RELIGION.iter().copied());
    builder.build()
}

/// The ambiguous terms associated with a sensitive topic (used by the
/// generator to inject them into *non-sensitive* queries, creating the
/// false-positive pressure measured in Table II).
pub(crate) fn ambiguous_terms(topic: &str) -> &'static [&'static str] {
    match topic {
        "sexuality" => AMBIGUOUS_SEXUALITY,
        "health" => AMBIGUOUS_HEALTH,
        "politics" => AMBIGUOUS_POLITICS,
        "religion" => AMBIGUOUS_RELIGION,
        _ => &[],
    }
}

/// A small corpus of documents about the sensitive subject (the stand-in
/// for the 2 M adult-video titles the paper trains its LDA model on).
/// Returns raw texts; the categorizer trains LDA on them.
pub fn sensitive_corpus(
    catalog: &TopicCatalog,
    documents: usize,
    rng: &mut impl cyclosa_util::rng::Rng,
) -> Vec<String> {
    let sexuality = catalog.topic("sexuality").expect("catalogue has sexuality");
    let ambiguous = AMBIGUOUS_SEXUALITY;
    let mut corpus = Vec::with_capacity(documents);
    for _ in 0..documents {
        let len = 4 + rng.gen_index(4);
        let mut terms = Vec::with_capacity(len);
        for _ in 0..len {
            // Mostly core sensitive vocabulary with some ambiguous terms
            // mixed in, as real adult-content titles do.
            if rng.gen_bool(0.9) {
                terms.push(*rng.choose(sexuality.terms).expect("non-empty"));
            } else {
                terms.push(*rng.choose(ambiguous).expect("non-empty"));
            }
        }
        corpus.push(terms.join(" "));
    }
    corpus
}

/// Trend-style seed queries used to prefill the fake-query table at
/// bootstrap (paper §V-D cites Google Trends). All seeds are non-sensitive.
pub fn seed_queries(
    catalog: &TopicCatalog,
    count: usize,
    rng: &mut impl cyclosa_util::rng::Rng,
) -> Vec<String> {
    let topics = catalog.non_sensitive_topics();
    let mut seeds = Vec::with_capacity(count);
    for _ in 0..count {
        let topic = topics[rng.gen_index(topics.len())];
        let len = 2 + rng.gen_index(2);
        let mut terms = Vec::with_capacity(len);
        for _ in 0..len {
            terms.push(*rng.choose(topic.terms).expect("non-empty"));
        }
        seeds.push(terms.join(" "));
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::rng::Xoshiro256StarStar;

    #[test]
    fn catalogue_has_expected_structure() {
        let catalog = TopicCatalog::default_catalog();
        assert_eq!(catalog.sensitive_topics().len(), 4);
        assert!(catalog.non_sensitive_topics().len() >= 6);
        assert!(catalog.topic("health").unwrap().sensitive);
        assert!(!catalog.topic("travel").unwrap().sensitive);
        assert!(catalog.topic("nonexistent").is_none());
        // Vocabularies are non-trivial.
        for t in catalog.topics() {
            assert!(t.terms.len() >= 20, "topic {} too small", t.name);
        }
    }

    #[test]
    fn lexicon_covers_most_but_not_all_sensitive_terms() {
        let catalog = TopicCatalog::default_catalog();
        let lexicon = synthetic_lexicon(&catalog);
        let health = catalog.topic("health").unwrap();
        let covered = health
            .terms
            .iter()
            .filter(|t| lexicon.word_in_domain(t, "health"))
            .count();
        assert!(covered > health.terms.len() / 2, "coverage too low");
        assert!(
            covered < health.terms.len() * 7 / 10,
            "coverage should be incomplete"
        );
        // Ambiguous terms are present but not exclusive.
        assert!(lexicon.word_in_domain("adult", "sexuality"));
        assert!(!lexicon.word_exclusively_in_domain("adult", "sexuality"));
    }

    #[test]
    fn sensitive_corpus_uses_sensitive_vocabulary() {
        let catalog = TopicCatalog::default_catalog();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let corpus = sensitive_corpus(&catalog, 50, &mut rng);
        assert_eq!(corpus.len(), 50);
        let sexuality: std::collections::BTreeSet<&str> = catalog
            .topic("sexuality")
            .unwrap()
            .terms
            .iter()
            .copied()
            .collect();
        let ambiguous: std::collections::BTreeSet<&str> =
            AMBIGUOUS_SEXUALITY.iter().copied().collect();
        for doc in &corpus {
            for term in doc.split_whitespace() {
                assert!(
                    sexuality.contains(term) || ambiguous.contains(term),
                    "stray term {term}"
                );
            }
        }
    }

    #[test]
    fn seed_queries_are_non_sensitive() {
        let catalog = TopicCatalog::default_catalog();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let seeds = seed_queries(&catalog, 30, &mut rng);
        assert_eq!(seeds.len(), 30);
        let sensitive_terms: std::collections::BTreeSet<&str> = catalog
            .sensitive_topics()
            .iter()
            .flat_map(|t| t.terms.iter().copied())
            .collect();
        for seed in &seeds {
            for term in seed.split_whitespace() {
                assert!(
                    !sensitive_terms.contains(term),
                    "sensitive term {term} in seed"
                );
            }
        }
    }

    #[test]
    fn ambiguous_terms_lookup() {
        assert!(!ambiguous_terms("sexuality").is_empty());
        assert!(ambiguous_terms("travel").is_empty());
    }

    #[test]
    fn corpus_topics_conversion() {
        let catalog = TopicCatalog::default_catalog();
        let corpus_topics = catalog.as_corpus_topics();
        assert_eq!(corpus_topics.len(), catalog.topics().len());
        assert!(corpus_topics.iter().all(|(_, v)| !v.is_empty()));
    }
}
