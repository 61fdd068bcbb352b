//! Criterion micro-benches for the string-matching substrate: the operators
//! spend their local CPU here (the naive baseline's hidden cost in §6 is
//! exactly the bounded check over every stored value).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sqo_strsim::edit::{levenshtein, levenshtein_bounded, Verifier};
use sqo_strsim::qgram::qgrams;
use sqo_strsim::qsample::qsamples;

fn bench_edit_distance(c: &mut Criterion) {
    let pairs = [
        ("short", "words", "worst"),
        ("medium", "similarityquery", "similaritygueries"),
        (
            "title",
            "portrait of a young woman with a pearl necklace in blue",
            "portrait of a young women with pearl necklaces in blue",
        ),
    ];
    let mut g = c.benchmark_group("edit_distance");
    for (name, a, b) in pairs {
        g.bench_with_input(BenchmarkId::new("full", name), &(a, b), |bench, (a, b)| {
            bench.iter(|| levenshtein(black_box(a), black_box(b)))
        });
        g.bench_with_input(BenchmarkId::new("bounded_d2", name), &(a, b), |bench, (a, b)| {
            bench.iter(|| levenshtein_bounded(black_box(a), black_box(b), 2))
        });
        // The operators' form: the query compiled once, checked per candidate.
        let verifier = Verifier::new(a, 2);
        g.bench_with_input(BenchmarkId::new("compiled_d2", name), &b, |bench, b| {
            bench.iter(|| black_box(&verifier).distance(black_box(b)))
        });
    }
    // The naive baseline's dominant case: bounded check rejecting on length.
    g.bench_function("bounded_length_reject", |bench| {
        bench.iter(|| levenshtein_bounded(black_box("short"), black_box("muchlongerstring"), 2))
    });
    g.finish();
}

fn bench_gram_extraction(c: &mut Criterion) {
    let word = "similarity";
    let title = "the persistence of memory and other landscapes of the mind";
    let mut g = c.benchmark_group("gram_extraction");
    g.bench_function("qgrams_word_q3", |b| b.iter(|| qgrams(black_box(word), 3)));
    g.bench_function("qgrams_title_q3", |b| b.iter(|| qgrams(black_box(title), 3)));
    g.bench_function("qsamples_title_q3_d3", |b| b.iter(|| qsamples(black_box(title), 3, 3)));
    g.finish();
}

criterion_group!(benches, bench_edit_distance, bench_gram_extraction);
criterion_main!(benches);
