//! The benchmark world: the paper's faculty table plus the employees' web
//! pages, built from the benchmark seed with each layer timed.

use fred_data::Table;
use fred_synth::{
    faculty_table, generate_population, FacultyConfig, PersonProfile, PopulationConfig,
};
use fred_web::{build_corpus, CorpusConfig, NameNoise, SearchEngine};

use crate::report::Values;
use crate::util::time_ms;

/// One built world.
pub struct World {
    /// The private table `P` (sensitive salary present).
    pub table: Table,
    /// The adversary-visible corpus and its search index.
    pub web: SearchEngine,
    /// Ground-truth person id of each table row.
    pub person_ids: Vec<usize>,
}

/// Builds the world exactly as the repository's experiment harness does
/// (`fred_bench::faculty_world`), timing the population
/// (`synth.population_ms`) and the corpus with its index (`web.corpus_ms`).
pub fn build(size: usize, seed: u64) -> (World, Values) {
    let ((people, table), population_ms) = time_ms(|| {
        let people: Vec<PersonProfile> = generate_population(&PopulationConfig {
            web_presence_rate: 0.9,
            ..PopulationConfig::faculty(size, seed)
        });
        let table = faculty_table(
            &people,
            &FacultyConfig {
                score_noise: 0.8,
                seed: seed ^ 0xFAC,
                ..FacultyConfig::default()
            },
        );
        (people, table)
    });
    let (web, corpus_ms) = time_ms(|| {
        build_corpus(
            &people,
            &CorpusConfig {
                seed: seed ^ 0x3EB,
                noise: NameNoise::default(),
                ..CorpusConfig::default()
            },
        )
    });
    let person_ids = people.iter().map(|p| p.id).collect();
    (
        World {
            table,
            web,
            person_ids,
        },
        Values::from([
            ("synth.population_ms", population_ms),
            ("web.corpus_ms", corpus_ms),
        ]),
    )
}
