//! Property tests pinning the parallel/optimized fast paths to their
//! sequential reference semantics: the rayon-backed batch estimate, the
//! parallel k-sweep, the rewritten MDAV partitioner, the parallel harvest,
//! the streaming (chunked) release sweep, the top-k searcher and the
//! composition intersection engine must return *exactly* (bit-for-bit)
//! what the naive sequential code returns.

use proptest::prelude::*;

use fred_suite::anon::{build_release, Anonymizer, Mdav, QiStyle, Release};
use fred_suite::attack::{
    harvest_auxiliary, harvest_auxiliary_reference_sampled, harvest_auxiliary_sequential,
    reference_sample_rows, FusionSystem, FuzzyFusion, FuzzyFusionConfig, HarvestConfig,
    MidpointEstimator,
};
use fred_suite::core::{dissimilarity, information_gain, sweep, SweepConfig};
use fred_suite::data::{Schema, Table, Value};
use fred_suite::synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
use fred_suite::web::{build_corpus, CorpusConfig, NameNoise, PageKind, SearchEngine, WebPage};

fn world(size: usize, seed: u64) -> (fred_suite::data::Table, SearchEngine) {
    let people = generate_population(&PopulationConfig {
        size,
        web_presence_rate: 0.9,
        seed,
        ..PopulationConfig::default()
    });
    let table = customer_table(&people, &CustomerConfig::default());
    let web = build_corpus(
        &people,
        &CorpusConfig {
            noise: NameNoise::none(),
            pages_per_person: (1, 3),
            seed: seed ^ 0xBEEF,
            ..CorpusConfig::default()
        },
    );
    (table, web)
}

/// A random numeric quasi-identifier table: `n` rows over `dims`
/// continuous columns of differing scales. Continuous draws make distance
/// ties (the only place the optimized MDAV's incremental centroid could
/// diverge from the reference's fresh fold by an ulp) a measure-zero
/// event, mirroring real attribute data.
fn random_qi_table(n: usize, dims: usize, seed: u64) -> Table {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut builder = Schema::builder();
    for d in 0..dims {
        builder = builder.quasi_numeric(format!("q{d}"));
    }
    let schema = builder.build().unwrap();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            (0..dims)
                .map(|d| Value::Float(next() * 10f64.powi(d as i32 + 1)))
                .collect()
        })
        .collect();
    Table::with_rows(schema, rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn optimized_mdav_equals_reference_partition(
        n in 4usize..300,
        dims in 1usize..5,
        seed in 0u64..1_000_000,
        k in 2usize..11,
        normalize in any::<bool>(),
    ) {
        prop_assume!(k <= n);
        let table = random_qi_table(n, dims, seed);
        let mdav = if normalize {
            Mdav::new()
        } else {
            Mdav::without_normalization()
        };
        let fast = mdav.partition(&table, k).unwrap();
        let reference = mdav.partition_reference(&table, k).unwrap();
        prop_assert_eq!(fast, reference, "n={} dims={} k={} normalize={}", n, dims, k, normalize);
    }

    #[test]
    fn parallel_harvest_equals_sequential_record_for_record(
        size in 8usize..48,
        seed in 0u64..1_000,
        noisy in any::<bool>(),
    ) {
        let people = generate_population(&PopulationConfig {
            size,
            web_presence_rate: 0.85,
            seed,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: if noisy { NameNoise::default() } else { NameNoise::none() },
                pages_per_person: (1, 3),
                seed: seed ^ 0xF00D,
                ..CorpusConfig::default()
            },
        );
        let release = table.suppress_sensitive();
        let config = HarvestConfig::default();
        // The parallel path is the cached one: agreement memo + score
        // floor + deduplicated page-name keys. The sequential reference
        // computes every feature of every hit. They must agree on every
        // record, every accepted link, every counter — and therefore on
        // harvest precision.
        let parallel = harvest_auxiliary(&release, &web, &config).unwrap();
        let sequential = harvest_auxiliary_sequential(&release, &web, &config).unwrap();
        prop_assert_eq!(parallel.records.len(), sequential.records.len());
        for (i, (p, s)) in parallel.records.iter().zip(&sequential.records).enumerate() {
            prop_assert_eq!(p, s, "record {} differs", i);
        }
        prop_assert_eq!(&parallel.linked, &sequential.linked);
        prop_assert_eq!(parallel.pages_inspected, sequential.pages_inspected);
        prop_assert_eq!(parallel.pages_linked, sequential.pages_linked);
        let ids: Vec<usize> = people.iter().map(|p| p.id).collect();
        let precision_cached =
            fred_suite::attack::harvest_precision(&parallel, &web, &ids).unwrap();
        let precision_reference =
            fred_suite::attack::harvest_precision(&sequential, &web, &ids).unwrap();
        prop_assert_eq!(precision_cached.to_bits(), precision_reference.to_bits());
    }

    #[test]
    fn sampled_reference_equals_the_full_reference_on_its_rows(
        size in 8usize..40,
        seed in 0u64..1_000,
        sample_rows in 1usize..48,
        sample_seed in 0u64..1_000,
        noisy in any::<bool>(),
    ) {
        // The sampled exhaustive reference carries the large bench's
        // equality assert; this pins the carrier itself: whatever rows
        // the seed picks, the sampled run must agree record-for-record
        // and link-for-link with the full exhaustive reference — and
        // therefore (by the reference-equivalence property above) with
        // the parallel cached path the bench actually checks.
        let people = generate_population(&PopulationConfig {
            size,
            web_presence_rate: 0.85,
            seed,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: if noisy { NameNoise::default() } else { NameNoise::none() },
                pages_per_person: (1, 3),
                seed: seed ^ 0x5A5A,
                ..CorpusConfig::default()
            },
        );
        let release = table.suppress_sensitive();
        let config = HarvestConfig::default();
        let full = harvest_auxiliary_sequential(&release, &web, &config).unwrap();
        let (rows, sampled) = harvest_auxiliary_reference_sampled(
            &release, &web, &config, sample_rows, sample_seed,
        )
        .unwrap();
        prop_assert_eq!(&rows, &reference_sample_rows(size, sample_rows, sample_seed));
        prop_assert_eq!(rows.len(), sample_rows.min(size));
        prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "distinct ascending rows");
        prop_assert_eq!(sampled.records.len(), rows.len());
        for (i, &row) in rows.iter().enumerate() {
            prop_assert_eq!(&sampled.records[i], &full.records[row], "row {}", row);
            prop_assert_eq!(&sampled.linked[i], &full.linked[row], "row {}", row);
        }
        // The parallel cached path agrees on the same rows, so the
        // bench's sampled assert is as strong on those rows as the full
        // one used to be.
        let parallel = harvest_auxiliary(&release, &web, &config).unwrap();
        for (i, &row) in rows.iter().enumerate() {
            prop_assert_eq!(&sampled.records[i], &parallel.records[row], "row {}", row);
            prop_assert_eq!(&sampled.linked[i], &parallel.linked[row], "row {}", row);
        }
    }

    #[test]
    fn cached_floor_classification_equals_reference_decisions(
        size in 4usize..24,
        seed in 0u64..1_000,
        noisy in any::<bool>(),
    ) {
        use fred_suite::linkage::{
            compare_prepared, default_name_model, AgreementCache, AgreementScratch, LinkKey,
            NameNormalizer, ScoreFloor,
        };
        // Release names against every distinct corpus display name — the
        // exact pair population the harvest classifies — through the
        // score floor and the agreement memo (each pair twice, so the
        // replay path is exercised), versus the full feature vector.
        let people = generate_population(&PopulationConfig {
            size,
            web_presence_rate: 0.9,
            seed,
            ..PopulationConfig::default()
        });
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: if noisy { NameNoise::heavy() } else { NameNoise::none() },
                pages_per_person: (1, 2),
                seed: seed ^ 0xACE,
                ..CorpusConfig::default()
            },
        );
        let normalizer = NameNormalizer::new();
        let model = default_name_model();
        let floor = ScoreFloor::new(&model);
        let mut scratch = AgreementScratch::default();
        let mut cache = AgreementCache::new();
        let queries: Vec<LinkKey> = people
            .iter()
            .map(|p| LinkKey::prepare(&normalizer, &p.name))
            .collect();
        let (_, distinct) = web.distinct_display_names();
        let candidates: Vec<LinkKey> = distinct
            .iter()
            .map(|n| LinkKey::prepare(&normalizer, n))
            .collect();
        for (qi, query) in queries.iter().enumerate() {
            for (ci, candidate) in candidates.iter().enumerate() {
                let expected = model.classify(
                    &compare_prepared(query.prepared(), candidate.prepared()).agreement_vector(),
                );
                for round in 0..2 {
                    let got = cache.classify(
                        qi as u32,
                        ci as u32,
                        &floor,
                        query,
                        candidate,
                        &mut scratch,
                    );
                    prop_assert_eq!(
                        got, expected,
                        "round {}: {:?} vs {:?}",
                        round, query.prepared().joined, candidate.prepared().joined
                    );
                }
            }
        }
        prop_assert!(cache.hit_rate() > 0.49, "every pair ran twice");
    }

    #[test]
    fn topk_search_equals_exhaustive_search(
        size in 8usize..40,
        seed in 0u64..1_000,
        limit in 1usize..12,
        noisy in any::<bool>(),
    ) {
        let people = generate_population(&PopulationConfig {
            size,
            web_presence_rate: 0.9,
            seed,
            ..PopulationConfig::default()
        });
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: if noisy { NameNoise::default() } else { NameNoise::none() },
                pages_per_person: (1, 3),
                seed: seed ^ 0xCAFE,
                ..CorpusConfig::default()
            },
        );
        let mut scratch = web.scratch();
        let mut cache = web.term_cache();
        // Real release names plus stress queries: single tokens,
        // duplicates, unknown terms.
        let mut queries: Vec<String> = people.iter().map(|p| p.name.clone()).collect();
        queries.push("Robert".into());
        queries.push("Robert Robert Smith".into());
        queries.push("zzyzx unknown".into());
        for q in &queries {
            let exhaustive = web.search(q, limit);
            let fast = web.search_topk_with(q, limit, &mut scratch, &mut cache);
            prop_assert_eq!(fast.len(), exhaustive.len(), "query {:?}", q);
            for (a, b) in fast.iter().zip(&exhaustive) {
                prop_assert_eq!(a.page, b.page, "query {:?}", q);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {:?}", q);
            }
        }
    }

    #[test]
    fn topk_search_equals_exhaustive_search_on_tie_heavy_corpora(
        n_pages in 8usize..120,
        vocab in 2usize..6,
        seed in 0u64..100_000,
        limit in 1usize..12,
        mirror in any::<bool>(),
    ) {
        // A handful of tokens over many pages, mostly one token per page
        // (three in four) at tf = 1: long equal-contribution runs whose
        // pages tie at the top-k boundary, the case the searcher's
        // tie-break skip exists for. `mirror` appends every page again
        // with token t renamed to vocab - 1 - t, so mirrored tokens share
        // df (hence IDF) and pages of different lists tie exactly.
        let mut state = seed | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let token = |t: usize| format!("tok{t}");
        let mut texts: Vec<Vec<usize>> = (0..n_pages)
            .map(|_| {
                (0..1 + next(4) / 3)
                    .flat_map(|_| {
                        let t = next(vocab);
                        let tf = if next(4) == 0 { 2 + next(2) } else { 1 };
                        std::iter::repeat_n(t, tf)
                    })
                    .collect()
            })
            .collect();
        if mirror {
            let mirrored: Vec<Vec<usize>> = texts
                .iter()
                .map(|ts| ts.iter().map(|&t| vocab - 1 - t).collect())
                .collect();
            texts.extend(mirrored);
        }
        let pages: Vec<WebPage> = texts
            .iter()
            .enumerate()
            .map(|(id, ts)| WebPage {
                id,
                person_id: None,
                display_name: String::new(),
                kind: PageKind::News,
                text: ts.iter().map(|&t| token(t)).collect::<Vec<_>>().join(" "),
            })
            .collect();
        let web = SearchEngine::build(pages);
        let mut queries: Vec<String> = (0..vocab).map(token).collect();
        for a in 0..vocab {
            for b in 0..vocab {
                queries.push(format!("{} {}", token(a), token(b)));
            }
        }
        queries.push(format!("{} {} {}", token(0), token(1), token(0)));
        queries.push(format!("{} zzyzx", token(vocab - 1)));
        let mut scratch = web.scratch();
        let mut cache = web.term_cache();
        for q in &queries {
            let exhaustive = web.search(q, limit);
            let before = scratch.postings_scanned();
            let fast = web.search_topk_with(q, limit, &mut scratch, &mut cache);
            prop_assert_eq!(fast.len(), exhaustive.len(), "query {:?}", q);
            for (a, b) in fast.iter().zip(&exhaustive) {
                prop_assert_eq!(a.page, b.page, "query {:?}", q);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {:?}", q);
            }
            if !q.contains(' ') {
                // One term: every posting past the k-th either ties the
                // k-th with a larger page id or sits in a lower run, so
                // the scan reads exactly min(limit, df) postings.
                let df = web.search(q, usize::MAX).len();
                prop_assert_eq!(
                    scratch.postings_scanned() - before,
                    limit.min(df) as u64,
                    "query {:?}",
                    q
                );
            }
        }
    }

    #[test]
    fn parallel_intersection_engine_equals_sequential_reference(
        size in 20usize..90,
        seed in 0u64..1_000,
        k in 2usize..6,
        releases in 1usize..5,
        overlap_pct in 30usize..80,
    ) {
        use fred_suite::anon::Mondrian;
        use fred_suite::composition::{
            candidate_counts, generate_scenario, intersect_releases,
            intersect_releases_sequential, ScenarioConfig,
        };
        let people = generate_population(&PopulationConfig {
            size,
            seed,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let anonymizers: [&dyn Anonymizer; 2] = [&Mdav::new(), &Mondrian::new()];
        for (anonymizer, styles) in anonymizers.into_iter().flat_map(|a| {
            [vec![QiStyle::Range], vec![QiStyle::Range, QiStyle::Centroid]].map(|s| (a, s))
        }) {
            let config = ScenarioConfig {
                releases,
                overlap: overlap_pct as f64 / 100.0,
                k,
                seed: seed ^ 0xD15C,
                styles,
                ..ScenarioConfig::default()
            };
            prop_assume!(((size as f64) * config.overlap).round() as usize >= k);
            let scenario = generate_scenario(&table, anonymizer, &config).unwrap();
            // The core targets, then every row outside the core: the
            // decoys the benchmark intersects, absent from some (or
            // every) source.
            let rows: Vec<usize> = scenario
                .targets
                .iter()
                .copied()
                .chain((0..size).filter(|r| scenario.targets.binary_search(r).is_err()))
                .collect();
            for chunk_rows in [1usize, 17, 1024] {
                let fast = intersect_releases(&scenario.sources, &rows, size, chunk_rows).unwrap();
                let reference =
                    intersect_releases_sequential(&scenario.sources, &rows, size, chunk_rows)
                        .unwrap();
                prop_assert_eq!(&fast, &reference, "chunk_rows={}", chunk_rows);
                let counts = candidate_counts(&scenario.sources, &rows, size, chunk_rows).unwrap();
                let lens: Vec<usize> = fast.iter().map(|t| t.candidate_rows.len()).collect();
                prop_assert_eq!(counts, lens);
            }
        }
    }

    #[test]
    fn hierarchical_mdav_equals_its_reference_and_collapses_on_one_shard(
        n in 4usize..200,
        dims in 1usize..4,
        seed in 0u64..1_000_000,
        k in 2usize..7,
        shards in 1usize..9,
    ) {
        use fred_suite::data::ShardPlan;
        prop_assume!(k <= n);
        let table = random_qi_table(n, dims, seed);
        let mdav = Mdav::new();
        let plan = ShardPlan::new(shards, seed ^ 0xD1);
        let fast = mdav.partition_hierarchical(&table, k, &plan).unwrap();
        let reference = mdav.partition_hierarchical_reference(&table, k, &plan).unwrap();
        prop_assert_eq!(&fast, &reference, "n={} k={} shards={}", n, k, shards);
        // A single-shard plan never splits, so the hierarchy degenerates
        // to the flat partitioner exactly.
        let flat = mdav.partition(&table, k).unwrap();
        let single = mdav
            .partition_hierarchical(&table, k, &ShardPlan::single())
            .unwrap();
        prop_assert_eq!(&single, &flat, "n={} k={}", n, k);
        // Every class still holds at least k rows regardless of how the
        // leaf split carved the table.
        prop_assert!(fast.classes().iter().all(|c| c.len() >= k));
    }

    #[test]
    fn intersection_equals_set_intersection_of_class_members(
        size in 20usize..80,
        seed in 0u64..1_000,
        k in 2usize..6,
        releases in 1usize..4,
        chunk_rows in 1usize..40,
    ) {
        use fred_suite::composition::{generate_scenario, intersect_releases, ScenarioConfig};
        use std::collections::BTreeSet;
        let people = generate_population(&PopulationConfig {
            size,
            seed,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let config = ScenarioConfig {
            releases,
            k,
            seed: seed ^ 0x5EAD,
            ..ScenarioConfig::default()
        };
        prop_assume!(((size as f64) * config.overlap).round() as usize >= k);
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        // Each source's classes as sets of master rows, read straight off
        // the partition: no class maps, no probing.
        let class_sets: Vec<Vec<BTreeSet<u32>>> = scenario
            .sources
            .iter()
            .map(|s| {
                s.partition
                    .classes()
                    .iter()
                    .map(|c| c.iter().map(|&l| s.global_rows[l] as u32).collect())
                    .collect()
            })
            .collect();
        let rows: Vec<usize> = (0..size).collect();
        let inters = intersect_releases(&scenario.sources, &rows, size, chunk_rows).unwrap();
        for inter in &inters {
            let row = inter.master_row as u32;
            let holding: Vec<&BTreeSet<u32>> = class_sets
                .iter()
                .filter_map(|classes| classes.iter().find(|c| c.contains(&row)))
                .collect();
            let expected: Vec<u32> = match holding.split_first() {
                None => Vec::new(),
                Some((first, rest)) => first
                    .iter()
                    .copied()
                    .filter(|r| rest.iter().all(|c| c.contains(r)))
                    .collect(),
            };
            prop_assert_eq!(&inter.candidate_rows, &expected, "row {}", row);
            prop_assert_eq!(inter.sources_seen, holding.len());
        }
    }

    #[test]
    fn streamed_release_chunks_equal_built_release(
        n in 4usize..120,
        dims in 1usize..4,
        seed in 0u64..1_000_000,
        k in 2usize..9,
        chunk_rows in 1usize..40,
    ) {
        prop_assume!(k <= n);
        let table = random_qi_table(n, dims, seed);
        let partition = Mdav::new().partition(&table, k).unwrap();
        for style in [QiStyle::Range, QiStyle::Centroid] {
            let full = build_release(&table, &partition, k, style).unwrap();
            let mut streamed: Vec<Vec<Value>> = Vec::new();
            for chunk in Release::chunks(&table, &partition, style, chunk_rows) {
                streamed.extend(chunk.unwrap().rows().iter().cloned());
            }
            prop_assert_eq!(&streamed, full.table.rows());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chunked_sweep_equals_materializing_sweep(
        size in 16usize..40,
        seed in 0u64..1_000,
        chunk_rows in 1usize..24,
    ) {
        let (table, web) = world(size, seed);
        let before = MidpointEstimator::default();
        let after = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let run = |chunk: Option<usize>| {
            sweep(
                &table,
                &web,
                &Mdav::new(),
                &before,
                &after,
                &SweepConfig { k_min: 2, k_max: 6, chunk_rows: chunk, ..SweepConfig::default() },
            )
            .unwrap()
        };
        prop_assert_eq!(run(Some(chunk_rows)), run(None));
    }

    #[test]
    fn parallel_batch_estimate_equals_sequential_interpreted(
        size in 12usize..48,
        seed in 0u64..1_000,
        k in 2usize..6,
    ) {
        let (table, web) = world(size, seed);
        let partition = Mdav::new().partition(&table, k).unwrap();
        let release = build_release(&table, &partition, k, QiStyle::Range).unwrap();
        let harvest =
            harvest_auxiliary(&release.table, &web, &HarvestConfig::default()).unwrap();
        for fusion in [
            FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap(),
            FuzzyFusion::release_only(),
        ] {
            let parallel = fusion.estimate(&release.table, &harvest.records).unwrap();
            let sequential = fusion
                .estimate_interpreted(&release.table, &harvest.records)
                .unwrap();
            prop_assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                prop_assert_eq!(p.to_bits(), s.to_bits(), "row {} differs: {} vs {}", i, p, s);
            }
        }
    }

    #[test]
    fn parallel_sweep_equals_sequential_reference(
        size in 16usize..40,
        seed in 0u64..1_000,
    ) {
        let (table, web) = world(size, seed);
        let before = MidpointEstimator::default();
        let after = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let config = SweepConfig { k_min: 2, k_max: 6, ..SweepConfig::default() };
        let report = sweep(&table, &web, &Mdav::new(), &before, &after, &config).unwrap();

        // Sequential reference: the same per-level pipeline in a plain
        // loop over k, with the shared harvest the sweep documents.
        let reference_release = {
            let partition = Mdav::new().partition(&table, config.k_min).unwrap();
            build_release(&table, &partition, config.k_min, config.style).unwrap()
        };
        let harvest =
            harvest_auxiliary(&reference_release.table, &web, &config.harvest).unwrap();
        let sens = table.sensitive_columns()[0];
        let truth = table.numeric_column(sens).unwrap();

        let rows = report.rows();
        let ks: Vec<usize> = (config.k_min..=config.k_max.min(table.len())).collect();
        prop_assert_eq!(report.ks(), ks.clone());
        for (row, &k) in rows.iter().zip(&ks) {
            let partition = Mdav::new().partition(&table, k).unwrap();
            let release = build_release(&table, &partition, k, config.style).unwrap();
            let est_before = before.estimate(&release.table, &harvest.records).unwrap();
            let est_after = after
                .estimate_interpreted(&release.table, &harvest.records)
                .unwrap();
            let dissim_before = dissimilarity(&truth, &est_before).unwrap();
            let dissim_after = dissimilarity(&truth, &est_after).unwrap();
            prop_assert_eq!(row.k, k);
            prop_assert_eq!(row.dissim_before.to_bits(), dissim_before.to_bits());
            prop_assert_eq!(row.dissim_after.to_bits(), dissim_after.to_bits());
            prop_assert_eq!(
                row.gain.to_bits(),
                information_gain(dissim_before, dissim_after).to_bits()
            );
            prop_assert_eq!(row.aux_coverage, harvest.coverage());
        }
    }
}
