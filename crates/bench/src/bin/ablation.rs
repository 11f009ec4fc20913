//! Ablation studies for the design choices the paper calls out:
//!
//! 1. **Sorting**: partition-based vs merge-based parallel sorting on random
//!    vs almost-sorted keys (the FMM's Sect. III-B switch).
//! 2. **Exchange**: collective all-to-all-v vs neighbourhood point-to-point
//!    for 26-neighbour traffic on the switched vs torus machine models (the
//!    P2NFFT's Sect. III-B switch).
//! 3. **Ghost layer**: redistribution volume as a function of the cutoff
//!    radius (ghost-layer width) in the particle-mesh solver.
//!
//! Prints one table per study; virtual seconds.

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{banner, fmt_secs, outln, record_run, report_summary, RunReport, TimelineSink};
use particles::systems::splitmix64;
use simcomm::{CartGrid, MachineModel, Runner};

fn sort_ablation(
    per_rank: usize,
    analyze: bool,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) {
    let runner = Runner::default().traced(analyze);
    outln!("\n[1] partition-based vs merge-based parallel sort ({per_rank} keys/rank)");
    outln!(
        "{:<8} {:<14} {:>14} {:>14} {:>10}",
        "procs",
        "input",
        "partition",
        "merge-exch",
        "winner"
    );
    for p in [16usize, 64, 256] {
        for sortedness in ["random", "almost-sorted"] {
            let sorted = sortedness == "almost-sorted";
            let out = runner.run(p, MachineModel::juropa_like(), move |comm| {
                let me = comm.rank();
                let keys: Vec<u64> = (0..per_rank)
                    .map(|i| {
                        if sorted {
                            // Contiguous per-rank ranges with a few strays.
                            let base = (me * per_rank) as u64;
                            if i % 97 == 0 {
                                base + i as u64 + per_rank as u64 / 2
                            } else {
                                base + i as u64
                            }
                        } else {
                            splitmix64((me * per_rank + i) as u64)
                        }
                    })
                    .collect();
                let vals = keys.clone();
                let t0 = comm.clock();
                let _ = psort::partition_sort_by_key(comm, keys.clone(), vals.clone());
                let t_part = comm.clock() - t0;
                let t1 = comm.clock();
                let _ = psort::merge_exchange_sort_by_key(comm, keys, vals);
                let t_merge = comm.clock() - t1;
                (t_part, t_merge)
            });
            let part = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
            let merge = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
            record_run(format!("sort/p={p}/{sortedness}"), out, report, timeline);
            outln!(
                "{:<8} {:<14} {:>14} {:>14} {:>10}",
                p,
                sortedness,
                fmt_secs(part),
                fmt_secs(merge),
                if part <= merge { "partition" } else { "merge" }
            );
        }
    }
    outln!("(the paper's heuristic picks merge-exchange only for almost-sorted data)");
}

fn comm_ablation(bytes: usize, analyze: bool, report: &mut RunReport, timeline: &mut TimelineSink) {
    let runner = Runner::default().traced(analyze);
    outln!("\n[2] collective vs neighbourhood exchange (26 partners, {bytes} B each)");
    outln!("{:<10} {:<22} {:>14} {:>14} {:>10}", "procs", "machine", "alltoallv", "p2p", "winner");
    for p in [64usize, 1024, 4096] {
        for (name, model) in [
            ("juropa-like/switched", MachineModel::juropa_like()),
            ("juqueen-like/torus", MachineModel::juqueen_like()),
        ] {
            let out = runner.run(p, model, move |comm| {
                let grid = CartGrid::balanced(comm.size());
                let partners = grid.neighbors26(comm.rank());
                let payload = vec![0u8; bytes];
                let t0 = comm.clock();
                let sends: Vec<(usize, Vec<u8>)> =
                    partners.iter().map(|&q| (q, payload.clone())).collect();
                let _ = comm.alltoallv(sends);
                let coll = comm.clock() - t0;
                let t1 = comm.clock();
                let data: Vec<(usize, Vec<u8>)> =
                    partners.iter().map(|&q| (q, payload.clone())).collect();
                let _ = comm.neighbor_exchange(&partners, data, 7);
                let p2p = comm.clock() - t1;
                (coll, p2p)
            });
            let coll = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
            let p2p = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
            record_run(format!("exchange/p={p}/{name}"), out, report, timeline);
            outln!(
                "{:<10} {:<22} {:>14} {:>14} {:>10}",
                p,
                name,
                fmt_secs(coll),
                fmt_secs(p2p),
                if coll <= p2p { "coll" } else { "p2p" }
            );
        }
    }
    outln!("(the torus flips to p2p at scale — the paper's Fig. 9 right crossover)");
}

fn ghost_ablation(analyze: bool, report: &mut RunReport, timeline: &mut TimelineSink) {
    let runner = Runner::default().traced(analyze);
    outln!("\n[3] ghost-layer volume vs cutoff radius (particle-mesh solver)");
    outln!("{:<10} {:>12} {:>14} {:>14}", "rcut", "ghosts", "sort time", "near pairs");
    let c = particles::IonicCrystal::cubic(12, 1.0, 0.15, 3);
    let bbox = particles::ParticleSource::system_box(&c);
    let p = 8;
    for rcut in [1.0f64, 2.0, 3.0, 4.0] {
        let c = c.clone();
        let out = runner.run(p, MachineModel::juropa_like(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = particles::local_set(
                &c,
                particles::InitialDistribution::Grid,
                comm.rank(),
                p,
                dims,
            );
            let cfg = pmsolver::PmConfig::tuned(&bbox, 1e-2, rcut);
            let mut solver = pmsolver::PmSolver::new(bbox, cfg, p);
            let o = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                particles::RedistMethod::RestoreOriginal,
                None,
                usize::MAX,
            );
            (solver.last_report.ghosts_received, o.timings.sort, solver.last_report.near_pairs)
        });
        let ghosts: u64 = out.results.iter().map(|r| r.0).sum();
        let sort = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
        let pairs: u64 = out.results.iter().map(|r| r.2).sum();
        record_run(format!("ghost/rcut={rcut}"), out, report, timeline);
        outln!("{:<10} {:>12} {:>14} {:>14}", rcut, ghosts, fmt_secs(sort), pairs);
    }
    outln!("(a wider ghost layer trades redistribution volume for near-field work)");
}

fn main() {
    let cli = Cli::parse(
        "ablation",
        "design-choice ablations: sorting, exchange mode, ghost-layer width",
        &[
            Opt::new("keys", "N", "sort keys per rank (default 2000)"),
            Opt::new("bytes", "B", "payload bytes per exchange (default 4096)"),
        ],
        OBS_OPTS,
    );
    let keys: usize = cli.get("keys", 2000);
    let bytes: usize = cli.get("bytes", 4096);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    banner(
        "Ablations — design choices of the paper's Sect. III",
        "sorting algorithm switch, exchange-mode switch, ghost-layer width",
    );
    let mut report = RunReport::new("ablation", "mixed");
    report.param("keys", keys);
    report.param("bytes", bytes);
    sort_ablation(keys, analyze, &mut report, &mut timeline);
    comm_ablation(bytes, analyze, &mut report, &mut timeline);
    ghost_ablation(analyze, &mut report, &mut timeline);
    timeline.finish();
    report_summary(&report.write("ablation"), &report);
}
