//! Fault-masking integration: every figure-style configuration (fig6/7/8 —
//! Method A, Method B, and the movement-exploiting Method B variant, both
//! solvers) must complete under an adverse `FaultPlan` and reproduce the
//! unfaulted trajectory **bit for bit**. Faults delay — they never corrupt
//! payloads — and the movement-bound guards plus the driver's
//! rollback-and-replay recovery mask every injected violation.

use fcs::SolverKind;
use mdsim::{simulate, SimConfig, StepRecord};
use particles::{local_set, InitialDistribution, IonicCrystal};
use simcomm::{run, CartGrid, FaultPlan, MachineModel, Runner, StallSpec};

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

/// Transient losses, latency spikes and a straggler — time-only faults that
/// every configuration must mask without any trajectory deviation.
fn adverse_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        latency_spike_prob: 0.1,
        latency_spike_seconds: 25e-6,
        send_loss_prob: 0.08,
        retry_backoff_seconds: 5e-6,
        straggler_ranks: vec![1],
        straggler_factor: 1.4,
        ..FaultPlan::none()
    }
}

/// The physical (non-timing) content of a step record: energy and measured
/// movement must be bitwise identical between faulted and clean runs; the
/// timing fields legitimately differ (faults cost virtual time).
fn physical_bits(records: &[StepRecord]) -> Vec<(usize, u64, u64, bool)> {
    records.iter().map(|r| (r.step, r.energy.to_bits(), r.max_move.to_bits(), r.resorted)).collect()
}

#[test]
fn faulted_fig_configs_reproduce_unfaulted_trajectories() {
    let crystal = IonicCrystal::cubic(6, 1.0, 0.15, 23);
    let bbox = crystal.system_box();
    let p = 8;
    // Method A (fig6/7), Method B (fig7), and the movement-exploiting Method
    // B variant of fig8. The exploit configuration additionally suffers
    // movement-hint lies: the hint handed to the solver under-reports the
    // true movement by 1000x, so the movement-bound guard must detect the
    // violation and fall back to the general path instead of mis-routing.
    let configs = [
        (SolverKind::Fmm, false, false, false),
        (SolverKind::Fmm, true, false, false),
        (SolverKind::P2Nfft, true, false, false),
        (SolverKind::P2Nfft, true, true, true),
    ];
    for (solver, resort, exploit, lie) in configs {
        let cfg = config(solver, resort, exploit, 4);
        let mut plan = adverse_plan(0x5eed ^ solver as u64);
        if lie {
            plan.hint_lie_prob = 0.75;
            plan.hint_lie_factor = 1e-3;
        }

        let worker = {
            let crystal = crystal.clone();
            let cfg = cfg.clone();
            move |comm: &mut simcomm::Comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
                let out = simulate(comm, bbox, set, &cfg);
                (out.records, out.final_state, out.recoveries)
            }
        };
        let clean = run(p, MachineModel::juropa_like(), worker.clone());
        let faulted = Runner::default().faulted(plan).run(p, MachineModel::juropa_like(), worker);

        let injected: u64 = faulted.stats.iter().map(|s| s.faults_injected).sum();
        assert!(injected > 0, "{solver:?} resort={resort}: the plan must actually inject faults");
        for ((c_recs, c_state, _), (f_recs, f_state, _)) in
            clean.results.iter().zip(&faulted.results)
        {
            assert_eq!(
                physical_bits(c_recs),
                physical_bits(f_recs),
                "{solver:?} resort={resort} exploit={exploit}: faulted trajectory deviates"
            );
            assert_eq!(c_state, f_state, "{solver:?} resort={resort}: final state deviates");
        }
    }
}

#[test]
fn stall_and_timeouts_trigger_recovery_and_are_masked() {
    // An injected rank stall plus an aggressive wait-timeout threshold force
    // the driver's rollback-and-replay loop to fire; the replay must land on
    // the exact same trajectory (faults only perturb virtual time).
    let crystal = IonicCrystal::cubic(5, 1.0, 0.15, 41);
    let bbox = crystal.system_box();
    let p = 8;
    let cfg = config(SolverKind::P2Nfft, true, true, 5);
    let plan = FaultPlan {
        stall: Some(StallSpec { rank: 2, after_ops: 150, seconds: 0.2 }),
        wait_timeout_seconds: Some(1e-9),
        ..adverse_plan(97)
    };

    let worker = {
        let crystal = crystal.clone();
        let cfg = cfg.clone();
        move |comm: &mut simcomm::Comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
            let out = simulate(comm, bbox, set, &cfg);
            (out.records, out.final_state, out.recoveries)
        }
    };
    let clean = run(p, MachineModel::juropa_like(), worker.clone());
    let faulted = Runner::default().faulted(plan).run(p, MachineModel::juropa_like(), worker);

    let recoveries = faulted.results[0].2;
    assert!(recoveries >= 1, "the stall/timeouts must trigger at least one recovery");
    for (_, _, r) in &faulted.results {
        assert_eq!(*r, recoveries, "the recovery count is collective");
    }
    for ((c_recs, c_state, _), (f_recs, f_state, _)) in clean.results.iter().zip(&faulted.results) {
        assert_eq!(physical_bits(c_recs), physical_bits(f_recs));
        assert_eq!(c_state, f_state, "recovered trajectory deviates from the unfaulted run");
    }
}

#[test]
fn inert_fault_plan_matches_plain_run_bit_for_bit() {
    // A runner faulted with `FaultPlan::none()` is the plain runtime:
    // identical results, records (including every timing field) and final
    // clocks.
    let crystal = IonicCrystal::cubic(5, 1.0, 0.15, 13);
    let bbox = crystal.system_box();
    let p = 8;
    let cfg = config(SolverKind::P2Nfft, true, true, 4);
    let worker = {
        let crystal = crystal.clone();
        let cfg = cfg.clone();
        move |comm: &mut simcomm::Comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
            let out = simulate(comm, bbox, set, &cfg);
            (out.records, out.final_state, out.final_clock, out.recoveries)
        }
    };
    let plain = run(p, MachineModel::juropa_like(), worker.clone());
    let inert =
        Runner::default().faulted(FaultPlan::none()).run(p, MachineModel::juropa_like(), worker);

    for ((p_recs, p_state, p_clock, p_rec), (i_recs, i_state, i_clock, i_rec)) in
        plain.results.iter().zip(&inert.results)
    {
        assert_eq!(p_recs, i_recs, "records (timings included) must be identical");
        assert_eq!(p_state, i_state);
        assert_eq!(p_clock.to_bits(), i_clock.to_bits(), "clocks must be bitwise identical");
        assert_eq!(*p_rec, 0);
        assert_eq!(*i_rec, 0);
    }
}
