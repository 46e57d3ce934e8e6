//! Quickstart: build a tiny social-tagging dataset by hand, run the full
//! CubeLSI offline pipeline, and search it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cubelsi::core::{CubeLsi, CubeLsiConfig};
use cubelsi::folksonomy::FolksonomyBuilder;

fn main() {
    // 1. Assemble a folksonomy: (user, tag, resource) assignments.
    //    Three music lovers and two photographers tag five resources.
    let mut builder = FolksonomyBuilder::new();
    for (user, tag, resource) in [
        ("alice", "audio", "song1"),
        ("alice", "mp3", "song1"),
        ("alice", "audio", "song2"),
        ("bob", "music", "song1"),
        ("bob", "music", "song2"),
        ("bob", "audio", "album1"),
        ("carol", "mp3", "song2"),
        ("carol", "music", "album1"),
        ("dave", "photo", "shot1"),
        ("dave", "camera", "shot1"),
        ("dave", "photo", "shot2"),
        ("erin", "camera", "shot2"),
        ("erin", "photo", "shot1"),
        ("erin", "exposure", "shot2"),
    ] {
        builder.add(user, tag, resource);
    }
    let folksonomy = builder.build();
    println!("dataset: {}", folksonomy.stats());

    // 2. Run the offline component: tensor → Tucker → purified distances →
    //    concept distillation → tf-idf concept index.
    let config = CubeLsiConfig {
        // Tiny corpus: keep the full core (no trimming) and ask for the
        // two obvious concepts (music vs photography).
        core_dims: Some((5, 6, 5)),
        num_concepts: Some(2),
        sigma: Some(1.0),
        max_als_iters: 20,
        ..Default::default()
    };
    let engine = CubeLsi::build(&folksonomy, &config).expect("pipeline builds");
    println!(
        "tucker fit = {:.4}, {} concepts distilled",
        engine.tag_model().fit(),
        engine.concepts().num_concepts()
    );
    for summary in engine.concepts().summaries(&folksonomy) {
        println!("  {summary}");
    }

    // 3. Online search. "mp3" never annotates album1, but CubeLSI bridges
    //    the vocabulary through the shared music concept.
    for query in [vec!["mp3"], vec!["camera"], vec!["music", "photo"]] {
        let hits = engine.search(&query, 5);
        println!("query {query:?}:");
        for hit in hits {
            println!(
                "  {}  (score {:.3})",
                folksonomy.resource_name(hit.resource),
                hit.score
            );
        }
    }
}
