//! Property-based tests on the core model invariants.
//!
//! Strategies generate coherent (pipeline, platform, mapping) triples and
//! check the structural facts every solver in the workspace relies on:
//! formula agreement (eq. 1 vs eq. 2), monotonicity of replication, the
//! merge direction of Lemma 1's proof, and Pareto-front consistency.

use proptest::prelude::*;
use rpwf_core::num::approx_eq;
use rpwf_core::prelude::*;

const REL_TOL: f64 = 1e-9;

/// Strategy: a pipeline with `n` stages, works in [0, 100], deltas in [0, 100].
fn pipeline_strategy(n: usize) -> impl Strategy<Value = Pipeline> {
    (
        proptest::collection::vec(0.0f64..100.0, n),
        proptest::collection::vec(0.0f64..100.0, n + 1),
    )
        .prop_map(|(works, deltas)| Pipeline::new(works, deltas).expect("valid by construction"))
}

/// Strategy: a communication-homogeneous platform with `m` processors.
fn comm_homog_platform_strategy(m: usize) -> impl Strategy<Value = Platform> {
    (
        proptest::collection::vec(0.1f64..50.0, m),
        0.1f64..20.0,
        proptest::collection::vec(0.0f64..=1.0, m),
    )
        .prop_map(|(speeds, b, fps)| {
            Platform::comm_homogeneous(speeds, b, fps).expect("valid by construction")
        })
}

/// Strategy: a fully heterogeneous platform with `m` processors.
fn fully_het_platform_strategy(m: usize) -> impl Strategy<Value = Platform> {
    let n = m + 2;
    (
        proptest::collection::vec(0.1f64..50.0, m),
        proptest::collection::vec(0.0f64..=1.0, m),
        proptest::collection::vec(0.1f64..20.0, n * n),
    )
        .prop_map(move |(speeds, fps, bws)| {
            let mut builder = PlatformBuilder::new(m)
                .speeds(speeds)
                .expect("len matches")
                .failure_probs(fps)
                .expect("len matches");
            let verts: Vec<Vertex> = (0..m)
                .map(|i| Vertex::Proc(ProcId::new(i)))
                .chain([Vertex::In, Vertex::Out])
                .collect();
            for (i, &a) in verts.iter().enumerate() {
                for (j, &b) in verts.iter().enumerate() {
                    if i < j {
                        builder = builder.bandwidth(a, b, bws[i * n + j]);
                    }
                }
            }
            builder.build().expect("valid by construction")
        })
}

/// Strategy: a valid interval mapping for `n` stages on `m` processors.
/// Draws a boundary mask and a permutation prefix to allocate disjoint
/// replica sets.
fn mapping_strategy(n: usize, m: usize) -> impl Strategy<Value = IntervalMapping> {
    (
        0u64..(1u64 << (n - 1).min(20)),
        proptest::collection::vec(0usize..1000, m),
        1usize..=m,
    )
        .prop_map(move |(mask, perm_keys, used)| {
            // Intervals from mask.
            let mut intervals = Vec::new();
            let mut start = 0usize;
            for i in 0..n - 1 {
                if mask & (1 << i) != 0 {
                    intervals.push(Interval::new(start, i).unwrap());
                    start = i + 1;
                }
            }
            intervals.push(Interval::new(start, n - 1).unwrap());
            // At most m intervals can receive disjoint non-empty allocations:
            // merge surplus tail intervals into the last kept one.
            if intervals.len() > m {
                let last_end = intervals.last().unwrap().end();
                intervals.truncate(m);
                let tail_start = intervals.pop().unwrap().start();
                intervals.push(Interval::new(tail_start, last_end).unwrap());
            }
            let p = intervals.len();

            // Random processor order.
            let mut procs: Vec<usize> = (0..m).collect();
            procs.sort_by_key(|&i| (perm_keys[i], i));
            let used = used.max(p).min(m);

            // Deal `used` processors into p non-empty groups round-robin.
            let mut alloc: Vec<Vec<ProcId>> = vec![Vec::new(); p];
            for (idx, &proc) in procs[..used].iter().enumerate() {
                alloc[idx % p].push(ProcId::new(proc));
            }
            IntervalMapping::new(intervals, alloc, n, m).expect("valid by construction")
        })
}

/// Bundle strategy: coherent sizes for (pipeline, platform, mapping).
fn scene_comm_homog() -> impl Strategy<Value = (Pipeline, Platform, IntervalMapping)> {
    (2usize..7, 2usize..7).prop_flat_map(|(n, m)| {
        (
            pipeline_strategy(n),
            comm_homog_platform_strategy(m),
            mapping_strategy(n, m),
        )
    })
}

fn scene_fully_het() -> impl Strategy<Value = (Pipeline, Platform, IntervalMapping)> {
    (2usize..6, 2usize..6).prop_flat_map(|(n, m)| {
        (
            pipeline_strategy(n),
            fully_het_platform_strategy(m),
            mapping_strategy(n, m),
        )
    })
}

/// The linear-scan `ParetoFront::insert` that the binary-search rejection
/// replaced, kept as the reference on `(latency, fp, id)` triples.
fn reference_insert(points: &mut Vec<(f64, f64, usize)>, l: f64, fp: f64, id: usize) -> bool {
    let dominates =
        |a: (f64, f64), b: (f64, f64)| a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1);
    for &(pl, pfp, _) in points.iter() {
        if dominates((pl, pfp), (l, fp)) || (pl == l && pfp == fp) {
            return false;
        }
    }
    points.retain(|&(pl, pfp, _)| !dominates((l, fp), (pl, pfp)));
    let pos = points.partition_point(|q| q.0.total_cmp(&l).is_lt());
    points.insert(pos, (l, fp, id));
    true
}

/// A front's points as `(latency bits, fp bits, id)`, so ±0.0 differ.
fn bits(front: &ParetoFront<usize>) -> Vec<(u64, u64, usize)> {
    front
        .iter()
        .map(|p| (p.latency.to_bits(), p.failure_prob.to_bits(), p.payload))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eq1_equals_eq2_on_comm_homog((pipe, pf, mapping) in scene_comm_homog()) {
        let e1 = latency_eq1(&mapping, &pipe, &pf).unwrap();
        let e2 = latency_eq2(&mapping, &pipe, &pf);
        prop_assert!(approx_eq(e1, e2, REL_TOL), "eq1 {e1} != eq2 {e2}");
    }

    #[test]
    fn failure_probability_is_a_probability((_, pf, mapping) in scene_fully_het()) {
        let fp = failure_probability(&mapping, &pf);
        prop_assert!((0.0..=1.0).contains(&fp), "fp = {fp}");
        let rel = reliability(&mapping, &pf);
        prop_assert!(approx_eq(fp + rel, 1.0, 1e-9), "fp {fp} + rel {rel} != 1");
    }

    #[test]
    fn latency_is_positive_and_finite((pipe, pf, mapping) in scene_fully_het()) {
        let l = latency(&mapping, &pipe, &pf);
        prop_assert!(l.is_finite());
        prop_assert!(l >= 0.0);
    }

    #[test]
    fn adding_a_replica_never_increases_fp((_, pf, mapping) in scene_comm_homog()) {
        // Find a free processor; add it to interval 0's allocation.
        let used = mapping.used_processors();
        let free = pf.procs().find(|pid| !used.contains(pid));
        if let Some(extra) = free {
            let mut alloc: Vec<Vec<ProcId>> =
                (0..mapping.n_intervals()).map(|j| mapping.alloc(j).to_vec()).collect();
            alloc[0].push(extra);
            let bigger = IntervalMapping::new(
                mapping.intervals().to_vec(),
                alloc,
                mapping.n_stages(),
                pf.n_procs(),
            )
            .unwrap();
            let fp_before = failure_probability(&mapping, &pf);
            let fp_after = failure_probability(&bigger, &pf);
            prop_assert!(
                fp_after <= fp_before + 1e-12,
                "adding a replica increased FP: {fp_before} -> {fp_after}"
            );
        }
    }

    #[test]
    fn merging_adjacent_intervals_never_increases_fp((_, pf, mapping) in scene_comm_homog()) {
        // Lemma 1's proof direction: merging two adjacent intervals and
        // pooling their replicas only improves reliability.
        if mapping.n_intervals() >= 2 {
            let iv0 = mapping.interval(0);
            let iv1 = mapping.interval(1);
            let merged_iv = Interval::new(iv0.start(), iv1.end()).unwrap();
            let mut intervals = vec![merged_iv];
            intervals.extend(mapping.intervals()[2..].iter().copied());
            let mut alloc = vec![[mapping.alloc(0), mapping.alloc(1)].concat()];
            alloc.extend((2..mapping.n_intervals()).map(|j| mapping.alloc(j).to_vec()));
            let merged = IntervalMapping::new(
                intervals,
                alloc,
                mapping.n_stages(),
                pf.n_procs(),
            ).unwrap();
            let fp_split = failure_probability(&mapping, &pf);
            let fp_merged = failure_probability(&merged, &pf);
            prop_assert!(
                fp_merged <= fp_split + 1e-12,
                "merge increased FP: {fp_split} -> {fp_merged}"
            );
        }
    }

    #[test]
    fn log_space_matches_linear_space((_, pf, mapping) in scene_comm_homog()) {
        // Linear-space recomputation of FP for cross-checking the log-space
        // implementation.
        let mut success = 1.0f64;
        for (_, procs) in mapping.iter() {
            let all_fail: f64 = procs.iter().map(|&u| pf.failure_prob(u)).product();
            success *= 1.0 - all_fail;
        }
        let fp = failure_probability(&mapping, &pf);
        prop_assert!(approx_eq(fp, 1.0 - success, 1e-9), "{fp} vs {}", 1.0 - success);
    }

    #[test]
    fn breakdown_total_consistent((pipe, pf, mapping) in scene_fully_het()) {
        let bd = latency_eq2_breakdown(&mapping, &pipe, &pf);
        let recomputed: f64 = bd.input_comm
            + bd.interval_costs.iter().map(|c| c.compute + c.out_comm).sum::<f64>();
        prop_assert!(approx_eq(bd.total, recomputed, 1e-9));
        prop_assert!(approx_eq(bd.total, latency(&mapping, &pipe, &pf), REL_TOL));
    }

    #[test]
    fn general_mapping_agrees_with_interval_form(
        (pipe, pf, _) in scene_fully_het(),
        seed in 0u64..1_000_000,
    ) {
        // Build an interval-based general mapping (distinct processor per
        // run) and compare both latency evaluators.
        let n = pipe.n_stages();
        let m = pf.n_procs();
        if m >= n {
            // stage k -> processor (seed + k) % m, forced distinct by stride 1.
            let procs: Vec<ProcId> =
                (0..n).map(|k| ProcId::new((seed as usize + k) % m)).collect();
            let distinct = procs.iter().collect::<std::collections::HashSet<_>>().len() == n;
            if distinct {
                let g = GeneralMapping::new(procs, m).unwrap();
                if g.is_interval_based(m) {
                    let im = g.to_interval_mapping(m).unwrap();
                    let lg = general_latency(&g, &pipe, &pf);
                    let li = latency(&im, &pipe, &pf);
                    prop_assert!(approx_eq(lg, li, REL_TOL), "{lg} vs {li}");
                }
            }
        }
    }

    #[test]
    fn pareto_front_stays_consistent(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..200)
    ) {
        let mut front = ParetoFront::new();
        for (i, &(l, fp)) in points.iter().enumerate() {
            front.insert(l, fp, i);
        }
        prop_assert!(front.invariant_holds());
        for &(l, fp) in &points {
            let covered = front.iter().any(|q| q.latency <= l && q.failure_prob <= fp);
            prop_assert!(covered);
        }
        // Threshold queries agree with a linear scan.
        let threshold = points[0].0;
        let best = front.min_fp_under_latency(threshold).map(|p| p.failure_prob);
        let scan = front
            .iter()
            .filter(|q| q.latency <= threshold)
            .map(|q| q.failure_prob)
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.min(v))));
        prop_assert_eq!(best, scan);
    }

    #[test]
    fn fast_insert_matches_the_linear_reference(
        offers in proptest::collection::vec((-3i32..5, 0u8..2, -2i32..4, 0u8..2), 0..80)
    ) {
        // A coarse grid makes equal latencies, equal FPs and exact
        // duplicates common; a zero coordinate is drawn as -0.0 half the
        // time.
        let coord = |v: i32, neg_zero: u8| {
            if v == 0 && neg_zero == 1 { -0.0 } else { f64::from(v) * 0.5 }
        };
        let mut reference = Vec::new();
        let mut plain = ParetoFront::new();
        let mut lazy = ParetoFront::new();
        for (id, &(l, l_sign, fp, fp_sign)) in offers.iter().enumerate() {
            let (l, fp) = (coord(l, l_sign), coord(fp, fp_sign));
            let joined = reference_insert(&mut reference, l, fp, id);
            prop_assert_eq!(plain.insert(l, fp, id), joined, "insert, offer {}", id);
            let mut built = false;
            let lazy_joined = lazy.insert_with(l, fp, || {
                built = true;
                id
            });
            prop_assert_eq!(lazy_joined, joined, "insert_with, offer {}", id);
            prop_assert_eq!(built, joined, "payload built exactly on acceptance");
            let expected: Vec<(u64, u64, usize)> = reference
                .iter()
                .map(|&(l, fp, id)| (f64::to_bits(l), f64::to_bits(fp), id))
                .collect();
            prop_assert_eq!(bits(&plain), expected.clone());
            prop_assert_eq!(bits(&lazy), expected);
        }
    }

    #[test]
    fn nearest_accessors_agree_with_linear_scans(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 0..200),
        l_bound in -10.0f64..120.0,
        fp_bound in -0.2f64..1.2,
    ) {
        let mut front = ParetoFront::new();
        for (i, &(l, fp)) in points.iter().enumerate() {
            front.insert(l, fp, i);
        }
        // nearest_above: smallest latency strictly greater than the bound.
        let scan = front
            .iter()
            .filter(|q| q.latency > l_bound)
            .map(|q| q.latency)
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.min(v))));
        prop_assert_eq!(front.nearest_above(l_bound).map(|p| p.latency), scan);
        // nearest_below: smallest failure probability strictly greater
        // than the bound.
        let scan = front
            .iter()
            .filter(|q| q.failure_prob > fp_bound)
            .map(|q| q.failure_prob)
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.min(v))));
        prop_assert_eq!(front.nearest_below(fp_bound).map(|p| p.failure_prob), scan);
    }

    #[test]
    fn pareto_merge_is_order_insensitive(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 2..120),
        cut_seed in 0usize..1000,
    ) {
        // The same point set, split into chunks and merged in different
        // orders, must produce the same front *coordinates* (payloads may
        // differ on exact duplicates — "duplicates keep the incumbent").
        let cut = 1 + cut_seed % (points.len() - 1);
        let build = |chunk: &[(f64, f64)]| {
            let mut f = ParetoFront::new();
            for &(l, fp) in chunk {
                f.insert(l, fp, ());
            }
            f
        };
        let coords = |f: &ParetoFront<()>| -> Vec<(f64, f64)> {
            f.iter().map(|p| (p.latency, p.failure_prob)).collect()
        };

        let mut ab = build(&points[..cut]);
        ab.merge(build(&points[cut..]));
        let mut ba = build(&points[cut..]);
        ba.merge(build(&points[..cut]));
        let whole = build(&points);

        prop_assert!(ab.invariant_holds());
        prop_assert_eq!(coords(&ab), coords(&ba));
        prop_assert_eq!(coords(&ab), coords(&whole));

        // Merging point-by-point in reverse insertion order too.
        let mut rev = ParetoFront::new();
        for &(l, fp) in points.iter().rev() {
            rev.insert(l, fp, ());
        }
        prop_assert_eq!(coords(&rev), coords(&whole));
    }

    #[test]
    fn interval_partitions_are_valid(n in 1usize..10) {
        let mut count = 0u64;
        for part in IntervalPartitions::new(n) {
            count += 1;
            let mut expected = 0usize;
            for iv in &part {
                prop_assert_eq!(iv.start(), expected);
                expected = iv.end() + 1;
            }
            prop_assert_eq!(expected, n);
        }
        prop_assert_eq!(u128::from(count), count_partitions(n));
    }

    #[test]
    fn period_lower_bounds_latency((pipe, pf, mapping) in scene_comm_homog()) {
        let per = period(&mapping, &pipe, &pf).unwrap();
        let lat = latency(&mapping, &pipe, &pf);
        prop_assert!(per <= lat + 1e-9, "period {per} > latency {lat}");
    }
}
