//! E12 — heuristic runtime on instances beyond exact reach.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpwf_algo::heuristics::{
    annealing::Annealing, local_search::LocalSearch, random_search::RandomSearch,
    single_interval::best_single_interval, split_dp,
};
use rpwf_algo::Objective;
use rpwf_core::prelude::*;
use rpwf_gen::{PipelineGen, PlatformGen};
use std::hint::black_box;

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    for &(n, m) in &[(8usize, 16usize), (16, 32)] {
        let pipeline = PipelineGen::balanced(n).sample(&mut rng);
        let platform = PlatformGen::new(
            m,
            PlatformClass::CommHomogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        // A loose-but-binding threshold: halfway between the latency floor
        // and the all-replica ceiling.
        let floor = rpwf_algo::mono::minimize_latency_comm_homog(&pipeline, &platform)
            .expect("comm-homog")
            .latency;
        let ceiling = rpwf_algo::mono::minimize_failure(&pipeline, &platform).latency;
        let objective = Objective::MinFpUnderLatency((floor + ceiling) / 2.0);

        group.bench_with_input(
            BenchmarkId::new("single_interval", format!("n{n}m{m}")),
            &(n, m),
            |b, _| b.iter(|| black_box(best_single_interval(&pipeline, &platform, objective))),
        );
        group.bench_with_input(
            BenchmarkId::new("split_dp", format!("n{n}m{m}")),
            &(n, m),
            |b, _| b.iter(|| black_box(split_dp::solve(&pipeline, &platform, objective))),
        );
        group.bench_with_input(
            BenchmarkId::new("random_search_2k", format!("n{n}m{m}")),
            &(n, m),
            |b, _| {
                let rs = RandomSearch {
                    samples: 2000,
                    seed: 1,
                };
                b.iter(|| black_box(rs.solve(&pipeline, &platform, objective)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("local_search", format!("n{n}m{m}")),
            &(n, m),
            |b, _| {
                let ls = LocalSearch {
                    random_restarts: 2,
                    max_steps: 40,
                    seed: 1,
                };
                b.iter(|| black_box(ls.solve(&pipeline, &platform, objective)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("annealing", format!("n{n}m{m}")),
            &(n, m),
            |b, _| {
                let sa = Annealing {
                    epochs: 20,
                    moves_per_epoch: 40,
                    seed: 1,
                    ..Default::default()
                };
                b.iter(|| black_box(sa.solve(&pipeline, &platform, objective)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_heuristics);
criterion_main!(benches);
