//! Property-style tests on the core data structures and invariants: Morton
//! codes, permutations, box geometry, the redistribution operations, the
//! parallel sorts under arbitrary inputs, and phase-span attribution.
//!
//! Cases are generated from a deterministic splitmix64 stream (the workspace
//! builds offline with no external crates, so no proptest): every run checks
//! the same inputs, and a failing case is reproducible from its loop index.

use particles::systems::splitmix64;
use particles::{invert_permutation, scatter, SystemBox, Vec3};

/// Deterministic generator for test case construction.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n.max(1)
    }
    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
    fn vec_u64(&mut self, max_len: u64) -> Vec<u64> {
        let len = self.below(max_len + 1) as usize;
        (0..len).map(|_| self.u64()).collect()
    }
}

#[test]
fn zorder_roundtrip() {
    let mut g = Gen::new(1);
    for _ in 0..512 {
        let (x, y, z) = (g.below(1 << 21) as u32, g.below(1 << 21) as u32, g.below(1 << 21) as u32);
        let k = particles::zorder::encode(x, y, z);
        assert_eq!(particles::zorder::decode(k), (x, y, z));
    }
}

#[test]
fn zorder_parent_child() {
    let mut g = Gen::new(2);
    for _ in 0..512 {
        let k = particles::zorder::encode(
            g.below(1 << 20) as u32,
            g.below(1 << 20) as u32,
            g.below(1 << 20) as u32,
        );
        let c = g.below(8) as u8;
        assert_eq!(particles::zorder::parent(particles::zorder::child(k, c)), k);
    }
}

#[test]
fn zorder_axis_monotone() {
    let mut g = Gen::new(3);
    for _ in 0..512 {
        let a = g.below(1 << 21) as u32;
        let b = g.below(1 << 21) as u32;
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        assert!(particles::zorder::encode(a, 0, 0) < particles::zorder::encode(b, 0, 0));
    }
}

#[test]
fn box_wrap_idempotent() {
    let mut g = Gen::new(4);
    for _ in 0..512 {
        let l = g.f64(1.0, 100.0);
        let bbox = SystemBox::cubic(l);
        let p = Vec3::new(g.f64(-1e3, 1e3), g.f64(-1e3, 1e3), g.f64(-1e3, 1e3));
        let w = bbox.wrap(p);
        assert!(bbox.contains(w), "{w:?} not in box of edge {l}");
        let w2 = bbox.wrap(w);
        assert!((w - w2).norm() < 1e-9 * l);
    }
}

#[test]
fn min_image_bounded() {
    let mut g = Gen::new(5);
    let bbox = SystemBox::cubic(50.0);
    for _ in 0..512 {
        let a = Vec3::new(g.f64(0.0, 50.0), g.f64(0.0, 50.0), g.f64(0.0, 50.0));
        let b = Vec3::new(g.f64(0.0, 50.0), g.f64(0.0, 50.0), g.f64(0.0, 50.0));
        let d = bbox.min_image(a, b);
        assert!(d.max_abs() <= 25.0 + 1e-9);
    }
}

#[test]
fn permutation_roundtrip() {
    let mut g = Gen::new(6);
    for _ in 0..128 {
        let n = 1 + g.below(200) as usize;
        let seed: Vec<u64> = (0..n).map(|_| g.below(1_000_000)).collect();
        // Build a permutation by arg-sorting random values.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (seed[i], i));
        let perm = invert_permutation(&idx); // idx is a permutation; invert for variety
        let data: Vec<u64> = (0..n as u64).collect();
        let there = scatter(&data, &perm);
        let back = scatter(&there, &invert_permutation(&perm));
        assert_eq!(back, data);
    }
}

#[test]
fn resort_index_roundtrip() {
    let mut g = Gen::new(7);
    for _ in 0..512 {
        let rank = g.below(u32::MAX as u64) as usize;
        let pos = g.below(u32::MAX as u64) as usize;
        let ix = atasp::encode_index(rank, pos);
        assert_eq!(atasp::decode_index(ix), (rank, pos));
    }
}

#[test]
fn balanced_dims_product() {
    let mut g = Gen::new(8);
    for _ in 0..512 {
        let n = 1 + g.below(10_000) as usize;
        let nd = 1 + g.below(5) as usize;
        let dims = simcomm::balanced_dims(n, nd);
        assert_eq!(dims.iter().product::<usize>(), n);
        assert_eq!(dims.len(), nd);
    }
}

#[test]
fn bspline_partition_of_unity() {
    let mut g = Gen::new(9);
    for _ in 0..512 {
        let p = 1 + g.below(5) as usize;
        let u = g.f64(0.0, 1e4);
        let mut w = vec![0.0; p];
        pmsolver::stencil(p, u, &mut w);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "order {p}, u {u}: {w:?}");
        assert!(w.iter().all(|&x| x >= -1e-12));
    }
}

#[test]
fn radix_sort_correct() {
    let mut g = Gen::new(10);
    for _ in 0..64 {
        let keys = g.vec_u64(500);
        let vals: Vec<u64> = keys.iter().map(|k| k.wrapping_mul(3)).collect();
        let mut k = keys.clone();
        let mut v = vals;
        psort::radix_sort_by_key(&mut k, &mut v);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(&k, &expect);
        for (key, val) in k.iter().zip(&v) {
            assert_eq!(*val, key.wrapping_mul(3));
        }
    }
}

/// Parallel-sort property: arbitrary per-rank data is globally sorted and
/// remains a permutation of the input, for both algorithms. (World creation
/// is relatively expensive, so the case count is bounded.)
#[test]
fn parallel_sorts_sort_anything() {
    let mut g = Gen::new(11);
    for case in 0..12 {
        let p = 1 + g.below(5) as usize;
        let data: Vec<Vec<u64>> = (0..p).map(|_| g.vec_u64(120)).collect();
        let data2 = data.clone();
        let out = simcomm::run(p, simcomm::MachineModel::ideal(), move |comm| {
            let keys = data2[comm.rank()].clone();
            let vals = keys.clone();
            let (pk, _, _) = psort::partition_sort_by_key(comm, keys.clone(), vals.clone());
            let (mk, _, _) = psort::merge_exchange_sort_by_key(comm, keys, vals);
            (pk, mk)
        });
        let mut expect: Vec<u64> = data.into_iter().flatten().collect();
        expect.sort_unstable();
        let mut got_p: Vec<u64> = Vec::new();
        let mut got_m: Vec<u64> = Vec::new();
        let mut prev_p: Option<u64> = None;
        let mut prev_m: Option<u64> = None;
        for (pk, mk) in out.results {
            assert!(pk.windows(2).all(|w| w[0] <= w[1]), "case {case}");
            assert!(mk.windows(2).all(|w| w[0] <= w[1]), "case {case}");
            if let (Some(l), Some(&f)) = (prev_p, pk.first()) {
                assert!(l <= f, "case {case}");
            }
            if let (Some(l), Some(&f)) = (prev_m, mk.first()) {
                assert!(l <= f, "case {case}");
            }
            prev_p = pk.last().copied().or(prev_p);
            prev_m = mk.last().copied().or(prev_m);
            got_p.extend(pk);
            got_m.extend(mk);
        }
        got_p.sort_unstable();
        got_m.sort_unstable();
        assert_eq!(&got_p, &expect, "case {case}");
        assert_eq!(&got_m, &expect, "case {case}");
    }
}

/// alltoall_specific delivers every element to its target exactly once.
#[test]
fn alltoall_specific_is_exact() {
    let mut g = Gen::new(12);
    for case in 0..16 {
        let targets: Vec<Vec<usize>> = (0..4)
            .map(|_| {
                let len = g.below(81) as usize;
                (0..len).map(|_| g.below(4) as usize).collect()
            })
            .collect();
        let targets2 = targets.clone();
        let out = simcomm::run(4, simcomm::MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let t = &targets2[me];
            let elements: Vec<u64> = (0..t.len()).map(|i| ((me as u64) << 32) | i as u64).collect();
            atasp::alltoall_specific(comm, &elements, t, &atasp::ExchangeMode::Collective)
        });
        // Every sent element appears exactly once, at its target.
        let mut received: Vec<u64> = Vec::new();
        for (rank, res) in out.results.iter().enumerate() {
            for &e in res {
                let src = (e >> 32) as usize;
                let idx = (e & 0xffff_ffff) as usize;
                assert_eq!(targets[src][idx], rank, "case {case}: element {e:#x} misrouted");
                received.push(e);
            }
        }
        received.sort_unstable();
        let mut expect: Vec<u64> = Vec::new();
        for (src, t) in targets.iter().enumerate() {
            for i in 0..t.len() {
                expect.push(((src as u64) << 32) | i as u64);
            }
        }
        assert_eq!(received, expect, "case {case}");
    }
}

/// Phase attribution property: under arbitrary interleavings of nested phase
/// spans, communication, and modelled compute, the clock spans of every rank
/// are time-ordered, non-overlapping and tile `[0, clock]`; the per-phase
/// aggregates decompose the clock exactly, and each phase's spans add up to
/// its aggregate (the untagged spans to the untagged remainder).
#[test]
fn phase_spans_never_overlap() {
    let mut g = Gen::new(13);
    for case in 0..8 {
        let p = 2 + g.below(3) as usize; // 2..=4 ranks
        let script: Vec<u64> = (0..40).map(|_| g.u64()).collect();
        let script2 = script.clone();
        let traced = simcomm::Runner::default().traced(true);
        let out = traced.run(p, simcomm::MachineModel::juropa_like(), move |comm| {
            const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
            let mut depth = 0usize;
            for (i, &op) in script2.iter().enumerate() {
                match op % 5 {
                    0 => {
                        comm.enter_phase(NAMES[(op >> 8) as usize % NAMES.len()]);
                        depth += 1;
                    }
                    1 if depth > 0 => {
                        comm.exit_phase();
                        depth -= 1;
                    }
                    2 => comm.compute(simcomm::Work::ParticleOp, (op % 1000) as f64),
                    3 => {
                        // Ring exchange: every rank sends and receives.
                        let right = (comm.rank() + 1) % comm.size();
                        let left = (comm.rank() + comm.size() - 1) % comm.size();
                        let _ =
                            comm.sendrecv(right, vec![op; 1 + (op % 7) as usize], left, i as u64);
                    }
                    _ => {
                        let _ = comm.allreduce(op, u64::wrapping_add);
                    }
                }
            }
            // Leave any open phases for rank-exit auto-close.
        });
        for (rank, (prof, trace)) in out.phases.iter().zip(&out.traces).enumerate() {
            let clock = out.clocks[rank];
            let spans = &trace.spans;
            for s in spans {
                assert!(
                    s.t_start <= s.t_end && s.t_start >= 0.0 && s.t_end <= clock + 1e-12,
                    "case {case} rank {rank}: span {s:?} outside [0, {clock}]"
                );
            }
            // The spans tile the clock: each starts where the last one ended.
            assert_eq!(spans.first().map(|s| s.t_start), Some(0.0), "case {case} rank {rank}");
            for w in spans.windows(2) {
                assert_eq!(w[0].t_end, w[1].t_start, "case {case} rank {rank}: spans {w:?}");
            }
            assert_eq!(spans.last().map(|s| s.t_end), Some(clock), "case {case} rank {rank}");
            // Exhaustive decomposition: tagged + untagged == totals.
            let tagged = prof.tagged_total();
            let untagged = prof.untagged(&out.stats[rank]);
            let sum = tagged.seconds() + untagged.seconds();
            assert!(
                (sum - clock).abs() < 1e-9 * clock.max(1.0),
                "case {case} rank {rank}: phases sum to {sum}, clock {clock}"
            );
            // The spans of each phase add up to its aggregate seconds.
            let span_sum = |phase: &str| -> f64 {
                spans.iter().filter(|s| s.phase == phase).map(|s| s.t_end - s.t_start).sum()
            };
            for ph in prof.phases.iter().chain([&untagged]) {
                let phase = if ph.name == simcomm::UNTAGGED { "" } else { ph.name };
                assert!(
                    (span_sum(phase) - ph.seconds()).abs() < 1e-9 * clock.max(1.0),
                    "case {case} rank {rank} phase {}: spans {} vs stats {}",
                    ph.name,
                    span_sum(phase),
                    ph.seconds()
                );
            }
        }
    }
}
