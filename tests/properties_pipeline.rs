//! Property-based tests over the generative layers: synthetic population,
//! name-noise channel, page extraction and fusion estimates.

use proptest::prelude::*;

use fred_suite::attack::{FusionSystem, FuzzyFusion, FuzzyFusionConfig, LinearFusion};
use fred_suite::data::{Schema, Table, Value};
use fred_suite::linkage::NameNormalizer;
use fred_suite::synth::{generate_population, rng_from_seed, PopulationConfig};
use fred_suite::web::{extract, NameNoise, PageKind, WebPage};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------- population ----------

    #[test]
    fn population_invariants(seed in 0u64..10_000, size in 1usize..80) {
        let cfg = PopulationConfig { size, seed, ..PopulationConfig::default() };
        let people = generate_population(&cfg);
        prop_assert_eq!(people.len(), size);
        let mut names = std::collections::HashSet::new();
        for (i, p) in people.iter().enumerate() {
            prop_assert_eq!(p.id, i);
            prop_assert!(p.income >= cfg.income_range.0 && p.income <= cfg.income_range.1);
            prop_assert!(p.property_sqft > 0.0);
            prop_assert!(!p.name.trim().is_empty());
            prop_assert!(names.insert(p.name.clone()), "duplicate name {}", p.name);
        }
    }

    // ---------- name noise ----------

    #[test]
    fn corrupted_names_stay_linkable_in_form(seed in 0u64..5_000) {
        let mut rng = rng_from_seed(seed);
        let noise = NameNoise::default();
        let original = "Robert Smith";
        let corrupted = noise.corrupt(&mut rng, original);
        // Never empty, never loses every alphabetic character.
        prop_assert!(!corrupted.trim().is_empty());
        prop_assert!(corrupted.chars().any(|c| c.is_alphabetic()));
        // The normalized token count stays small (no runaway growth).
        let n = NameNormalizer::new();
        let tokens = n.tokens(&corrupted);
        prop_assert!(tokens.len() <= 3, "{corrupted} -> {tokens:?}");
    }

    // ---------- extraction ----------

    #[test]
    fn extraction_recovers_clean_page_facts(
        sqft in 300.0f64..9_000.0,
        kind_idx in 0usize..PageKind::ALL.len(),
    ) {
        let kind = PageKind::ALL[kind_idx];
        let page = WebPage::render(0, Some(1), kind, "Alice Walker", "Manager", "Verizon", Some(sqft));
        let record = extract(&page);
        prop_assert_eq!(record.name, "Alice Walker");
        match kind {
            PageKind::Directory | PageKind::Homepage | PageKind::Blog => {
                prop_assert_eq!(record.title, Some("Manager"));
                prop_assert_eq!(record.seniority_level, Some(2));
                prop_assert_eq!(record.employer, Some("Verizon"));
            }
            PageKind::News => {
                prop_assert_eq!(record.employer, Some("Verizon"));
                prop_assert_eq!(record.title, None);
            }
            PageKind::PropertyRecord => {
                let got = record.property_sqft.expect("property page carries sqft");
                prop_assert!((got - sqft).abs() <= 0.5, "{got} vs {sqft}");
            }
        }
    }

    // ---------- fusion ----------

    #[test]
    fn fusion_estimates_bounded_and_monotone_in_valuation(
        v1 in 1.0f64..10.0,
        v2 in 1.0f64..10.0,
    ) {
        let schema = Schema::builder()
            .identifier("Name")
            .quasi_numeric("Valuation")
            .sensitive_numeric("Income")
            .build()
            .unwrap();
        let release = Table::with_rows(
            schema,
            vec![
                vec![Value::Text("a".into()), Value::Float(v1), Value::Missing],
                vec![Value::Text("b".into()), Value::Float(v2), Value::Missing],
            ],
        )
        .unwrap();
        let config = FuzzyFusionConfig::default();
        let (lo, hi) = config.income_range;
        for fusion in [
            Box::new(FuzzyFusion::new(config.clone()).unwrap()) as Box<dyn FusionSystem>,
            Box::new(LinearFusion::new(config.clone()).unwrap()),
        ] {
            let est = fusion.estimate(&release, &[None, None]).unwrap();
            prop_assert!(est.iter().all(|e| (lo..=hi).contains(e)), "{est:?}");
            // Higher valuation never yields a lower estimate.
            if v1 > v2 + 1e-9 {
                prop_assert!(est[0] >= est[1] - 1e-6, "{v1} {v2} -> {est:?}");
            }
        }
    }
}
