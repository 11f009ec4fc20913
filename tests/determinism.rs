//! Determinism of the full MD workloads: every figure-style configuration
//! must reproduce, **bit for bit**, the output the deleted thread-per-rank
//! engine produced — same per-rank virtual clocks, same traffic statistics,
//! same step records (physics *and* timing fields), same final particle
//! state — with and without an injected [`simcomm::FaultPlan`], at any host
//! width.
//!
//! The simcomm crate's own `determinism` suite checks the primitives (sends,
//! collectives, traces, payload bytes); this integration suite closes the
//! loop at the application layer, where the solvers, the resort paths, the
//! plan cache, and the recovery driver all run on top of the scheduler.
//!
//! Each world is folded into a 64-bit digest and compared with a constant
//! captured from the `Threaded` variant of `simcomm::Engine` at commit
//! `cf18bdf` (the last one carrying it): run this file there with every
//! `Runner::default()` replaced by a `Runner::new` of that variant and copy
//! the digest each failing assertion printed.
//!
//! Since PR 25 every MD world is two digests, a *physics* half and a
//! *timing* half (see [`assert_frozen`]), so a change that moves only
//! virtual time shows as exactly that. Both halves were captured at commit
//! `f59653f`, where they hashed what the single digests above had pinned.
//! PR 25 (the FMM's kept locally essential tree plan and 32-byte ghosts)
//! re-froze the timing halves of the FMM worlds once; every physics half,
//! every P2NFFT and faulted half and the redistribution digest stayed.
//! The P2NFFT far field's index-free exchanges at the stencil's reach, with
//! 32-byte P2NFFT ghosts, re-froze the timing halves of the four P2NFFT
//! worlds and the faulted world once; every physics half, every FMM half and
//! the redistribution digest stayed.
//! The quiet FMM step — the merge sort closing on one gather whose spans
//! feed cell alignment, alignment without an exchange when no cell is split,
//! identity resorts that send nothing — re-froze the timing halves of the
//! seven FMM worlds (Method A and B + movement on both machine models, and
//! the three order/level worlds) and of the redistribution world once; every
//! physics half, the redistribution payload half and every P2NFFT and faulted
//! half stayed.
//! The P2NFFT far field on pencils only — a `[P, 1]` transform grid at these
//! worlds' 8 ranks, whose inverse transform runs along x, y, z where the slab
//! ran x, z, y — re-froze the physics halves of the three P2NFFT worlds once:
//! Method B `0x0e9a_5a4b_8ee1_c2ce` → `0x1c08_5b70_c285_000a` and B + movement
//! `0x1827_35a8_df22_3ed0` → `0xf8f4_8bef_8ac1_3909` (on both machine models),
//! faulted `0x546b_2d96_95f1_b0b9` → `0x645e_ed2c_0d69_baaa`. Every timing
//! half, every FMM half and the redistribution digest stayed.
//! Posting every point-to-point exchange's sends to the partners above the
//! sender first re-froze the timing halves of the four P2NFFT worlds and the
//! faulted world once (the FMM worlds' exchanges finish no differently): `0xe7b8_b754_408e_9d1e` → `0x1288_f5ad_9170_5505`,
//! `0xad64_cbb6_81b6_da2b` → `0x5a54_fa41_c4f3_9882`, `0x285b_b34c_f100_9fc0` →
//! `0xfb41_4dcd_dd5d_1de1`, `0x22a5_f1a5_4289_21d7` → `0x611d_1b84_b314_c927`,
//! faulted `0x4ef6_f3ad_10d9_a1e0` → `0x2a35_eca2_0cec_6eb6`. Every physics
//! half, every FMM half and the redistribution digest stayed.
//! Keeping every self-addressed block out of the all-to-all-v — psort's
//! partition exchange, `atasp`'s collective redistributions and the P2NFFT
//! far field's four exchanges — re-froze every timing half once (all eight MD
//! worlds, the three FMM order/level worlds, the faulted world and the
//! redistribution world): `0xeb61_9a25_52a9_73ac` → `0x1cca_f807_c80f_ea39`,
//! `0xad38_b3de_6895_968f` → `0xf3d5_ee3d_1b67_5f6a`, `0x1288_f5ad_9170_5505`
//! → `0x50f0_9029_8b54_9b25`, `0x5a54_fa41_c4f3_9882` →
//! `0xcab6_3962_8da7_d871` (juropa-like), `0x0758_758d_0b3e_230f` →
//! `0x03ef_b03a_acdc_60c1`, `0x05bf_9d2c_f6ea_40be` → `0x3fb3_c770_e6ef_fe03`,
//! `0xfb41_4dcd_dd5d_1de1` → `0xf210_ebf4_2397_11fd`, `0x611d_1b84_b314_c927`
//! → `0x81af_cadd_9c8b_21fc` (juqueen-like), FMM order 2 / 4 / 6
//! `0x6269_feee_f0a1_75e2` → `0xcdef_1059_d8b8_0308`, `0xb8c6_9f84_6052_be5b`
//! → `0x9055_56b0_652d_3745`, `0xc790_351c_5d25_8e3a` →
//! `0x08be_b2b4_0fe5_b474`, faulted `0x2a35_eca2_0cec_6eb6` →
//! `0xb9e4_9727_fbd9_edd3`, redistribution `0x37e8_d086_7b69_ff96` →
//! `0x87ec_3aa6_23e5_51a4`. Every physics half and the redistribution payload
//! half stayed.
//! Closing each solver run on one collective — Method B's `(fits, quiet)`
//! allreduce in place of the barrier before it — and summing each step's
//! energy in the next collective the MD loop makes (the next movement
//! allreduce, the closing drift allreduce, or in the faulted world the
//! step's fault check), with the world's particle count summed once,
//! re-froze every MD timing half once: `0x1cca_f807_c80f_ea39` →
//! `0xf452_28e2_ce39_75d4`, `0xf3d5_ee3d_1b67_5f6a` →
//! `0x7a96_bc79_1df4_4d4c`, `0x50f0_9029_8b54_9b25` →
//! `0x4960_4168_71ad_754c`, `0xcab6_3962_8da7_d871` →
//! `0xee99_c252_d89b_776e` (juropa-like), `0x03ef_b03a_acdc_60c1` →
//! `0xa042_848e_f6cc_bf2b`, `0x3fb3_c770_e6ef_fe03` →
//! `0xec62_4e09_3b2f_d546`, `0xf210_ebf4_2397_11fd` →
//! `0x2a62_c327_9b6a_b2a4`, `0x81af_cadd_9c8b_21fc` →
//! `0x2a00_7203_7eb4_b302` (juqueen-like), FMM order 2 / 4 / 6
//! `0xcdef_1059_d8b8_0308` → `0x86ef_3d05_652d_62fb`,
//! `0x9055_56b0_652d_3745` → `0x1d22_fc44_3af4_3755`,
//! `0x08be_b2b4_0fe5_b474` → `0x3f85_d74d_78e0_50ea`, faulted
//! `0xb9e4_9727_fbd9_edd3` → `0x947e_0807_bda9_c6ef`. Every physics half
//! and both redistribution halves stayed.
//! The P2NFFT's Method B resorting along its owner redistribution's own
//! routes — no resort-index round, no 4-byte position in the resorted
//! records, and no barrier for the neighbourhood resort — re-froze the
//! timing halves of the P2NFFT Method B worlds once: B `0x4960_4168_71ad_754c`
//! → `0xb0f5_ead2_6c2f_fda7` and B + movement `0xee99_c252_d89b_776e` →
//! `0x469d_2c0e_7937_3b54` (juropa-like), B `0x2a62_c327_9b6a_b2a4` →
//! `0x02dc_5183_3c9a_843c` and B + movement `0x2a00_7203_7eb4_b302` →
//! `0xcfc9_ae17_ca9c_9e7f` (juqueen-like), faulted `0x947e_0807_bda9_c6ef` →
//! `0xbdd0_0e39_9dc4_79ea`. Every physics half, every FMM half and both
//! redistribution halves stayed.
//! The hand-back shipping only what the other end lacks — Method A's restore
//! as a resort plan over the origin codes that carries 36-byte records
//! (position, potential, field), closing on an allreduce of `home` that lets
//! an all-home restore place locally, and the FMM's Method B resort plan
//! built from its key owners with no resort-index round — re-froze the
//! timing halves of the seven FMM worlds once: Method A
//! `0xf452_28e2_ce39_75d4` → `0x7c46_d36a_2c2b_bb98` and B + movement
//! `0x7a96_bc79_1df4_4d4c` → `0xae58_4023_544b_4633` (juropa-like), Method A
//! `0xa042_848e_f6cc_bf2b` → `0xdc76_88e8_f09a_acdf` and B + movement
//! `0xec62_4e09_3b2f_d546` → `0x6a17_705c_3556_a54e` (juqueen-like), FMM
//! order 2 / 4 / 6 `0x86ef_3d05_652d_62fb` → `0x0296_9d65_6532_44f0`,
//! `0x1d22_fc44_3af4_3755` → `0x4426_8092_8a43_a047`,
//! `0x3f85_d74d_78e0_50ea` → `0x33ab_5a7a_c7bb_8bdc`. Every physics half,
//! every P2NFFT half (no Method A world runs it here), the faulted world and
//! both redistribution halves stayed.

#[path = "../crates/simcomm/tests/common/mod.rs"]
mod common;

use common::{digest, frozen_phases, splitmix64};
use fcs::SolverKind;
use mdsim::{simulate, SimConfig, SimResult};
use particles::{local_set, InitialDistribution, IonicCrystal};
use simcomm::{CartGrid, FaultPlan, MachineModel, RunOutput, Runner};

fn config(solver: SolverKind, resort: bool, exploit: bool, steps: usize) -> SimConfig {
    SimConfig {
        solver,
        resort,
        exploit_movement: exploit,
        steps,
        tolerance: 1e-2,
        dt: mdsim::suggested_dt(1.0, 1.0),
        ..SimConfig::default()
    }
}

/// The physics half of an MD world: what every rank computed — per step the
/// energy, the largest move and whether the solver's order came back, then
/// the final count, drift, state and recoveries — and nothing of how long
/// the modelled machine took to compute it.
fn physics_digest(out: &RunOutput<SimResult>) -> u64 {
    let ranks: Vec<_> = out
        .results
        .iter()
        .map(|r| {
            let steps: Vec<_> =
                r.records.iter().map(|s| (s.step, s.energy, s.max_move, s.resorted)).collect();
            (steps, r.final_local, r.rms_displacement, &r.final_state, r.recoveries)
        })
        .collect();
    digest(&ranks)
}

/// The timing half: clock bit patterns, traffic statistics, the step
/// records' timing fields, the final clocks, the plan counters and the phase
/// aggregates.
fn timing_digest(out: &RunOutput<SimResult>) -> u64 {
    let clock_bits: Vec<u64> = out.clocks.iter().map(|c| c.to_bits()).collect();
    let ranks: Vec<_> = out
        .results
        .iter()
        .map(|r| {
            let steps: Vec<_> =
                r.records.iter().map(|s| (s.sort, s.restore, s.resort, s.total)).collect();
            (steps, r.final_clock, r.plan_builds, r.plan_hits)
        })
        .collect();
    digest(&(clock_bits, &out.stats, ranks, frozen_phases(out)))
}

/// Assert that an MD world hashes to `want`: `[physics, timing]` (together
/// every field of every rank's [`SimResult`], the clocks, the statistics and
/// the phase aggregates). A change that moves only virtual time moves only
/// the second.
fn assert_frozen(out: &RunOutput<SimResult>, want: [u64; 2], what: &str) {
    let got = [physics_digest(out), timing_digest(out)];
    for (half, got, want) in [("physics", got[0], want[0]), ("timing", got[1], want[1])] {
        assert_eq!(
            got, want,
            "{what}: {half} digest {got:#018x} differs from the frozen {want:#018x}"
        );
    }
}

/// The batch widths every frozen digest is checked at: strictly one rank at
/// a time, two, more than this suite's hosts have cores, and the whole world
/// at once.
fn widths(p: usize) -> [usize; 4] {
    [1, 2, 8, p]
}

/// Run one MD configuration under the given runner.
fn md_world(
    runner: &Runner,
    p: usize,
    model: MachineModel,
    crystal: &IonicCrystal,
    dist: InitialDistribution,
    cfg: &SimConfig,
) -> RunOutput<SimResult> {
    let bbox = crystal.system_box();
    let crystal = crystal.clone();
    let cfg = cfg.clone();
    runner.run(p, model, move |comm| {
        let dims = CartGrid::balanced(p).dims();
        let set = local_set(&crystal, dist, comm.rank(), p, dims);
        simulate(comm, bbox, set, &cfg)
    })
}

#[test]
fn md_configs_match_frozen_digests() {
    let crystal = IonicCrystal::cubic(5, 1.0, 0.15, 7);
    let p = 8;
    // Fig. 6/7-style (random init, Method A vs B) and fig8-style (grid init,
    // movement-exploiting Method B) configurations, both solvers.
    let cases = [
        (SolverKind::Fmm, false, false, InitialDistribution::Random),
        (SolverKind::Fmm, true, true, InitialDistribution::Grid),
        (SolverKind::P2Nfft, true, false, InitialDistribution::Random),
        (SolverKind::P2Nfft, true, true, InitialDistribution::Grid),
    ];
    let frozen: [[[u64; 2]; 4]; 2] = [
        [
            [0xe3e7_f2ac_7ae3_deb5, 0x7c46_d36a_2c2b_bb98],
            [0xe36d_87b1_23fa_3d6c, 0xae58_4023_544b_4633],
            [0x1c08_5b70_c285_000a, 0xb0f5_ead2_6c2f_fda7],
            [0xf8f4_8bef_8ac1_3909, 0x469d_2c0e_7937_3b54],
        ],
        [
            [0xe3e7_f2ac_7ae3_deb5, 0xdc76_88e8_f09a_acdf],
            [0xe36d_87b1_23fa_3d6c, 0x6a17_705c_3556_a54e],
            [0x1c08_5b70_c285_000a, 0x02dc_5183_3c9a_843c],
            [0xf8f4_8bef_8ac1_3909, 0xcfc9_ae17_ca9c_9e7f],
        ],
    ];
    let models = [MachineModel::juropa_like(), MachineModel::juqueen_like()];
    for (model, frozen) in models.into_iter().zip(frozen) {
        for ((solver, resort, exploit, dist), want) in cases.into_iter().zip(frozen) {
            let cfg = config(solver, resort, exploit, 3);
            for width in widths(p) {
                let runner = Runner::default().host_parallelism(width);
                let out = md_world(&runner, p, model.clone(), &crystal, dist, &cfg);
                let what = format!(
                    "{} {solver:?} resort={resort} exploit={exploit} width={width}",
                    model.name
                );
                assert_frozen(&out, want, &what);
            }
        }
    }
}

/// One FMM world (grid start, Method B + movement, 2 steps, 8 ranks) whose
/// tolerance tunes to expansion order `order` at octree level `level`.
fn assert_fmm_world_frozen(cells: usize, tolerance: f64, order: usize, level: u32, want: [u64; 2]) {
    let crystal = IonicCrystal::cubic(cells, 1.0, 0.15, 11);
    let tuned = fmm::FmmConfig::tuned(crystal.n() as u64, tolerance);
    assert_eq!((tuned.order, tuned.level), (order, level));
    let cfg = SimConfig { tolerance, ..config(SolverKind::Fmm, true, true, 2) };
    for width in widths(8) {
        let runner = Runner::default().host_parallelism(width);
        let model = MachineModel::juropa_like();
        let out = md_world(&runner, 8, model, &crystal, InitialDistribution::Grid, &cfg);
        assert_frozen(&out, want, &format!("FMM order {order}, level {level}, width {width}"));
    }
}

/// An FMM world deep enough for M2L and M2M to matter: 15^3 = 3375 particles
/// tune to octree level 3, where 15 lattice sites over 8 cells per dimension
/// leave every cell with a net charge, so every multipole sum's rounding
/// depends on its order. (`md_configs_match_frozen_digests` stops at level 1,
/// where no translation runs; before the FMM tree moved to sorted slabs this
/// digest changed from run to run with the `HashMap` order of M2M children.)
#[test]
fn fmm_level3_non_neutral_cells_match_frozen_digest() {
    assert_fmm_world_frozen(15, 1e-2, 2, 3, [0x4e8a_08ef_7a8c_33a5, 0x0296_9d65_6532_44f0]);
}

// Every digest above runs the FMM at order 2 (10 coefficients). The two below
// pin the translation operators at the orders the figures use (35 and 84
// coefficients: other chunk tails, longer sums), again on lattices that leave
// every cell charged. Captured at commit `b3c7f3b`, before M2L moved from its
// pair list to the target-chunk-major table.

#[test]
fn fmm_order4_level3_matches_frozen_digest() {
    assert_fmm_world_frozen(15, 1e-3, 4, 3, [0xe419_593a_fe3d_019b, 0x4426_8092_8a43_a047]);
}

#[test]
fn fmm_order6_level2_matches_frozen_digest() {
    assert_fmm_world_frozen(9, 1e-4, 6, 2, [0x9d07_6195_fbde_7d4e, 0x33ab_5a7a_c7bb_8bdc]);
}

#[test]
fn faulted_md_matches_frozen_digest() {
    // The fault layer draws from seeded per-rank streams keyed by operation
    // counts — all schedule-independent state — so even under latency
    // spikes, send losses and a straggler every bit is reproducible,
    // including the fault counters themselves.
    let crystal = IonicCrystal::cubic(5, 1.0, 0.15, 19);
    let p = 8;
    let cfg = config(SolverKind::P2Nfft, true, true, 3);
    let plan = FaultPlan {
        seed: 0xfab,
        latency_spike_prob: 0.1,
        latency_spike_seconds: 25e-6,
        send_loss_prob: 0.08,
        retry_backoff_seconds: 5e-6,
        straggler_ranks: vec![1],
        straggler_factor: 1.4,
        ..FaultPlan::none()
    };
    for width in widths(p) {
        let runner = Runner::default().faulted(plan.clone()).host_parallelism(width);
        let model = MachineModel::juqueen_like();
        let out = md_world(&runner, p, model, &crystal, InitialDistribution::Grid, &cfg);
        let injected: u64 = out.stats.iter().map(|s| s.faults_injected).sum();
        assert!(injected > 0, "the fault plan must actually inject faults");
        assert_frozen(
            &out,
            [0x645e_ed2c_0d69_baaa, 0xbdd0_0e39_9dc4_79ea],
            &format!("faulted P2NFFT width {width}"),
        );
    }
}

/// One 48-byte record of the redistribution world below, all integers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Rec {
    id: u64,
    /// `encode_index(rank, position)` at the start of the current round.
    origin: u64,
    key0: u64,
    drift: i64,
    payload: [u64; 2],
}

impl Rec {
    fn key(&self, round: usize) -> u64 {
        self.key0.wrapping_add_signed(self.drift * round as i64)
    }
}

/// The redistribution layer on its own — no solver: 16 ranks × 256 records of
/// 48 bytes with random 40-bit keys that drift by about one record spacing
/// per round (the repository benchmark's `redist` shape, smaller). Three
/// Method A rounds (partition sort from the original distribution, restore
/// with `alltoall_specific`), then three Method B rounds (partition sort,
/// then planned merge-exchange sorts of the almost-sorted state, each
/// followed by `build_resort_indices` + `resort_planes` of an (id, vel, tag)
/// plane set under a kept plan), traced.
///
/// Two digests, like the MD worlds: a *payload* half over every rank's
/// sorted keys and records, resort indices and final plane bytes, and a
/// *timing* half over the clocks, statistics, trace records, phase profiles
/// and the sorts' reports. Until the split they were one digest, captured at
/// commit `da1d74b`, before `psort` moved to permutation-order kernels, so it
/// pinned their output, their `compute` charges and their message order to
/// the payload-moving radix sort, the heap merge and the full-union
/// compare-split they replaced. The payload half was captured at commit
/// `078155b`, where it hashed what that digest had pinned. The timing half
/// was re-frozen when the merge sort's cleanup folded its count gather into
/// the sortedness check, one collective fewer per merge sort.
#[test]
fn redistribution_world_matches_frozen_digest() {
    use atasp::{alltoall_specific, build_resort_indices, decode_index, encode_index};
    use atasp::{resort_planes, ExchangeMode};
    use particles::{PlaneSet, Vec3};

    const P: usize = 16;
    const PER_RANK: usize = 256;
    const ROUNDS: usize = 3;
    const KEY_BITS: u32 = 40;
    let max_drift = ((1u64 << KEY_BITS) / (P * PER_RANK) as u64) as i64;
    let original = move |rank: usize| -> Vec<Rec> {
        (0..PER_RANK)
            .map(|i| {
                let id = (rank * PER_RANK + i) as u64;
                let h = splitmix64(0x5eed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let h2 = splitmix64(h);
                Rec {
                    id,
                    origin: encode_index(rank, i),
                    key0: (1u64 << (KEY_BITS + 1)) + (h >> (64 - KEY_BITS)),
                    drift: (h2 % (2 * max_drift as u64 + 1)) as i64 - max_drift,
                    payload: [splitmix64(h2), !id],
                }
            })
            .collect()
    };

    let program = move |comm: &mut simcomm::Comm| {
        let me = comm.rank();
        let original = original(me);
        let mut payload: Vec<u64> = Vec::new();
        let mut reports: Vec<u64> = Vec::new();
        let mut merge_exchanges = 0;

        // Method A: sort for the solver, restore the original order after it.
        for t in 0..ROUNDS {
            let keys: Vec<u64> = original.iter().map(|r| r.key(t)).collect();
            let (keys, sorted, report) = psort::partition_sort_by_key(comm, keys, original.clone());
            payload.push(digest(&(&keys, &sorted)));
            reports.push(digest(&report));
            let targets: Vec<usize> = sorted.iter().map(|r| decode_index(r.origin).0).collect();
            let back = comm.with_phase("restore", |comm| {
                alltoall_specific(comm, &sorted, &targets, &ExchangeMode::Collective)
            });
            let mut restored = vec![Rec::default(); original.len()];
            for r in &back {
                restored[decode_index(r.origin).1] = *r;
            }
            assert_eq!(restored, original, "rank {me}: Method A round {t} must restore");
        }

        // Method B: keep the solver's order, resort the additional data to it.
        let mut planes = PlaneSet::new();
        let id_plane = planes.register::<u64>("id");
        let vel_plane = planes.register::<Vec3>("vel");
        let tag_plane = planes.register::<u32>("tag");
        planes.resize(original.len());
        for (i, r) in original.iter().enumerate() {
            planes.plane_mut::<u64>(id_plane)[i] = r.id;
            planes.plane_mut::<Vec3>(vel_plane)[i] =
                Vec3::new(r.id as f64, -(r.payload[0] as f64), 0.5);
            planes.plane_mut::<u32>(tag_plane)[i] = r.payload[1] as u32;
        }
        let mut recs = original;
        let mut sort_plan = None;
        let mut resort_plan = None;
        for t in 0..ROUNDS {
            let len_before = recs.len();
            for (i, r) in recs.iter_mut().enumerate() {
                r.origin = encode_index(me, i);
            }
            let keys: Vec<u64> = recs.iter().map(|r| r.key(t)).collect();
            let (keys, sorted) = if t == 0 {
                let (keys, sorted, report) = psort::partition_sort_by_key(comm, keys, recs);
                reports.push(digest(&report));
                (keys, sorted)
            } else {
                let (keys, sorted, report, next) =
                    psort::merge_exchange_sort_by_key_planned(comm, keys, recs, sort_plan.as_ref());
                sort_plan = next;
                merge_exchanges += report.exchanges;
                reports.push(digest(&report));
                (keys, sorted)
            };
            let origin: Vec<u64> = sorted.iter().map(|r| r.origin).collect();
            comm.enter_phase("resort");
            let indices = build_resort_indices(comm, &origin, len_before);
            resort_planes(
                comm,
                &mut planes,
                &indices,
                sorted.len(),
                &ExchangeMode::Collective,
                &mut resort_plan,
            );
            comm.exit_phase();
            assert!(
                planes.plane::<u64>(id_plane).iter().eq(sorted.iter().map(|r| &r.id)),
                "rank {me}: Method B round {t} must resort the id plane to the sorted order"
            );
            payload.push(digest(&(&keys, &sorted, &indices)));
            recs = sorted;
        }
        let plane_bytes: Vec<&[u8]> = planes.ids().map(|id| planes.bytes(id)).collect();
        payload.push(digest(&plane_bytes));
        (payload, reports, merge_exchanges)
    };

    for width in widths(P) {
        let runner = Runner::default().traced(true).host_parallelism(width);
        let out = runner.run(P, MachineModel::juqueen_like(), program);
        let merge_exchanges: u64 = out.results.iter().map(|r| r.2).sum();
        assert!(merge_exchanges > 0, "the drift must make some compare-split exchange its runs");
        let payload: Vec<&Vec<u64>> = out.results.iter().map(|r| &r.0).collect();
        let reports: Vec<&Vec<u64>> = out.results.iter().map(|r| &r.1).collect();
        let clock_bits: Vec<u64> = out.clocks.iter().map(|c| c.to_bits()).collect();
        let got = [
            digest(&payload),
            digest(&(clock_bits, &out.stats, &out.traces, frozen_phases(&out), reports)),
        ];
        let want = [0x56ac_62ec_f386_4ca5u64, 0x87ec_3aa6_23e5_51a4];
        for (half, got, want) in [("payload", got[0], want[0]), ("timing", got[1], want[1])] {
            assert_eq!(
                got, want,
                "redistribution world at width {width}: {half} digest {got:#018x} differs from \
                 the frozen {want:#018x}"
            );
        }
    }
}
