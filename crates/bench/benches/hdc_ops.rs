//! Criterion microbenchmarks of the core HDC kernels: encode, similarity
//! search, recovery observation, and the execution-tier kernels
//! (reference vs wide, crossed with block-boundary dimensions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypervector::random::HypervectorSampler;
use hypervector::similarity::PackedClasses;
use hypervector::tier::{self, KernelTier};
use robusthd::{Encoder, HdcConfig, RecordEncoder, RecoveryConfig, RecoveryEngine, TrainedModel};
use std::hint::black_box;
use synthdata::{DatasetSpec, GeneratorConfig};

fn setup(
    dim: usize,
) -> (
    RecordEncoder,
    TrainedModel,
    Vec<hypervector::BinaryHypervector>,
) {
    let spec = DatasetSpec::ucihar().with_sizes(120, 60);
    let data = GeneratorConfig::new(1).generate(&spec);
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(1)
        .build()
        .expect("valid");
    let encoder = RecordEncoder::new(&config, spec.features);
    let encoded: Vec<_> = data
        .train
        .iter()
        .map(|s| encoder.encode(&s.features))
        .collect();
    let labels: Vec<_> = data.train.iter().map(|s| s.label).collect();
    let model = TrainedModel::train(&encoded, &labels, spec.classes, &config);
    let queries: Vec<_> = data
        .test
        .iter()
        .map(|s| encoder.encode(&s.features))
        .collect();
    (encoder, model, queries)
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_encode");
    for dim in [4_096usize, 10_000] {
        let (encoder, _, _) = setup(dim);
        let features = vec![0.42; 561];
        group.bench_with_input(BenchmarkId::new("fast", dim), &dim, |b, _| {
            b.iter(|| encoder.encode(black_box(&features)))
        });
        group.bench_with_input(BenchmarkId::new("reference", dim), &dim, |b, _| {
            b.iter(|| encoder.encode_reference(black_box(&features)))
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_predict");
    for dim in [4_096usize, 10_000] {
        let (_, model, queries) = setup(dim);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| model.predict(black_box(&queries[0])))
        });
    }
    group.finish();
}

fn bench_recovery_observe(c: &mut Criterion) {
    let (_, model, queries) = setup(4_096);
    let config = RecoveryConfig::builder()
        .confidence_threshold(0.0)
        .build()
        .expect("valid");
    c.bench_function("recovery_observe", |b| {
        b.iter_batched(
            || (model.clone(), RecoveryEngine::new(config.clone(), 128.0)),
            |(mut m, mut engine)| engine.observe(&mut m, black_box(&queries[0])),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_tier_hamming(c: &mut Criterion) {
    // Tier-crossed pairwise distance: every tier x dimensions straddling
    // the wide tier's 8-word (512-bit) block boundary, plus a large
    // steady-state size. The tiers are bit-identical; only the time may
    // differ.
    let mut group = c.benchmark_group("tier_hamming");
    let mut sampler = HypervectorSampler::seed_from(71);
    for dim in [511usize, 512, 513, 10_000] {
        let a = sampler.binary(dim);
        let b = sampler.flip_noise(&a, 0.3);
        for tier in KernelTier::ALL {
            group.bench_with_input(BenchmarkId::new(tier.name(), dim), &dim, |bench, _| {
                bench.iter(|| {
                    tier::hamming_words(
                        tier,
                        black_box(a.bits().words()),
                        black_box(b.bits().words()),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_tier_hamming_all(c: &mut Criterion) {
    // Tier-crossed class-major scoring — the serving hot loop. Includes an
    // all-tie complement pair among the classes so the scored distances
    // span the full [0, dim] range.
    let mut group = c.benchmark_group("tier_hamming_all");
    let mut sampler = HypervectorSampler::seed_from(72);
    for dim in [513usize, 10_000] {
        let mut classes: Vec<_> = (0..10).map(|_| sampler.binary(dim)).collect();
        let complement = hypervector::BinaryHypervector::from_fn(dim, |i| !classes[0].get(i));
        classes.push(complement);
        let packed = PackedClasses::from_classes(&classes);
        let query = sampler.flip_noise(&classes[4], 0.2);
        let mut out = Vec::with_capacity(classes.len());
        for tier in KernelTier::ALL {
            group.bench_with_input(BenchmarkId::new(tier.name(), dim), &dim, |bench, _| {
                bench.iter(|| {
                    tier::hamming_all_into_words(
                        tier,
                        black_box(packed_words(&packed)),
                        packed_words(&packed).len() / classes.len(),
                        classes.len(),
                        black_box(query.bits().words()),
                        &mut out,
                    );
                    out.len()
                })
            });
        }
    }
    group.finish();
}

/// The packed class-major word buffer (classes are contiguous, equal-width).
fn packed_words(packed: &PackedClasses) -> &[u64] {
    packed.words()
}

fn bench_tier_majority(c: &mut Criterion) {
    // Tier-crossed carry-save ripple: bundle 64 vectors into bit-planes.
    let mut group = c.benchmark_group("tier_majority");
    let mut sampler = HypervectorSampler::seed_from(73);
    for dim in [513usize, 10_000] {
        let inputs: Vec<_> = (0..64).map(|_| sampler.binary(dim)).collect();
        let words = dim.div_ceil(64);
        for tier in KernelTier::ALL {
            group.bench_with_input(BenchmarkId::new(tier.name(), dim), &dim, |bench, _| {
                bench.iter(|| {
                    let mut planes = vec![vec![0u64; words]; 8];
                    for hv in &inputs {
                        tier::ripple_add(tier, &mut planes, black_box(hv.bits().words()));
                    }
                    planes
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encode, bench_predict, bench_recovery_observe,
        bench_tier_hamming, bench_tier_hamming_all, bench_tier_majority
}
criterion_main!(benches);
