//! Scale sweep: the paper's Fig. 9 exchange crossover at paper-scale process
//! counts.
//!
//! For each machine model and each process count the same fig9-style stencil
//! workload runs twice: every rank ships a fixed boundary payload to its 26
//! grid neighbours each step, once through the collective `alltoallv` and
//! once through the nonblocking point-to-point `neighbor_exchange`. The
//! interesting observable is the crossover (paper Sect. IV-D): on the
//! switched (JuRoPA-like) fabric the collective stays competitive at every
//! scale, while on the 5D-torus (Juqueen-like) model the point-to-point
//! neighbourhood exchange pulls ahead as the process count grows — the same
//! effect that makes Method B + movement the winning series in Fig. 9's
//! right panel.
//!
//! The default process list reaches 4096 ranks: the scheduler multiplexes
//! every rank onto a virtual-clock event queue with targeted wakeups and runs
//! the 4096-rank sweep in seconds.
//!
//! Writes `results/scale_report.json` (the run-report schema) next to a
//! `results/scale.csv` table, and fails loudly if the torus
//! crossover is absent at the largest process count.

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{banner, fmt_secs, outln, report_summary, write_csv, RunEntry, RunReport};
use simcomm::{CartGrid, Comm, MachineModel, RunOutput, Runner, Work};

/// Short machine label ("juropa-like") for run labels and table rows.
fn short_name(model: &MachineModel) -> &str {
    model.name.split_whitespace().next().unwrap_or(&model.name)
}

const TAG_GHOSTS: u64 = 0x7363_616c;

/// Which exchange primitive a sweep series uses.
#[derive(Clone, Copy, PartialEq)]
enum Series {
    Alltoallv,
    Neighbor,
}

/// One fig9-style stencil run: `steps` rounds of a 26-neighbour boundary
/// exchange of `bytes`-sized payloads, through the chosen primitive.
fn stencil(
    series: Series,
    procs: usize,
    bytes: usize,
    steps: usize,
    model: &MachineModel,
    traced: bool,
) -> RunOutput<u64> {
    Runner::default().traced(traced).run(procs, model.clone(), move |comm: &mut Comm| {
        let partners = CartGrid::balanced(procs).neighbors26(comm.rank());
        let mut received = 0u64;
        for _ in 0..steps {
            let data: Vec<(usize, Vec<u8>)> =
                partners.iter().map(|&q| (q, vec![comm.rank() as u8; bytes])).collect();
            comm.compute(Work::ByteCopy, (partners.len() * bytes) as f64);
            let got: u64 = match series {
                Series::Alltoallv => comm.alltoallv(data).iter().map(|(_, v)| v.len() as u64).sum(),
                Series::Neighbor => comm
                    .neighbor_exchange(&partners, data, TAG_GHOSTS)
                    .iter()
                    .map(|(_, v)| v.len() as u64)
                    .sum(),
            };
            received += got;
        }
        received
    })
}

fn main() {
    let cli = Cli::parse(
        "scale",
        "exchange-mode crossover sweep at paper-scale rank counts",
        &[
            Opt::new("procs", "P1,P2,...", "process counts to sweep (default 64,256,1024,4096)"),
            Opt::new("bytes", "B", "payload bytes per message (default 4096)"),
            Opt::new("steps", "N", "exchange steps per run (default 4)"),
        ],
        OBS_OPTS,
    );
    let procs_list = cli.list("procs", &[64, 256, 1024, 4096]);
    let bytes: usize = cli.get("bytes", 4096);
    let steps: usize = cli.get("steps", 4);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);

    banner(
        "Scale sweep — alltoallv vs neighbourhood p2p crossover at paper scale",
        &format!("procs {procs_list:?}, 26-partner stencil of {bytes} B payloads, {steps} steps"),
    );

    let mut report = RunReport::new("scale", "mixed");
    report.param("bytes", bytes);
    report.param("steps", steps);

    outln!("{:<14} {:<8} {:>14} {:>14} {:>10}", "machine", "procs", "alltoallv", "p2p", "winner");
    let mut rows = Vec::new();
    let mut torus_crossover = false;
    for (mi, model) in
        [MachineModel::juropa_like(), MachineModel::juqueen_like()].into_iter().enumerate()
    {
        let name = short_name(&model);
        for &p in &procs_list {
            let mut makespans = [0.0f64; 2];
            for (si, series) in [Series::Alltoallv, Series::Neighbor].into_iter().enumerate() {
                let out = stencil(series, p, bytes, steps, &model, analyze);
                let label = if series == Series::Alltoallv { "alltoallv" } else { "p2p" };
                let mut entry = RunEntry::from_run(&out);
                if analyze {
                    bench::attach_analysis(&mut entry, &out.traces);
                }
                makespans[si] = out.makespan();
                timeline.push(format!("{name}/p={p}/{label}"), out.traces);
                report.push(format!("{name}/p={p}/{label}"), entry);
            }
            let [coll, p2p] = makespans;
            if mi == 1 && p2p < coll {
                torus_crossover = true;
            }
            outln!(
                "{name:<14} {p:<8} {:>14} {:>14} {:>10}",
                fmt_secs(coll),
                fmt_secs(p2p),
                if coll <= p2p { "coll" } else { "p2p" }
            );
            rows.push(vec![mi as f64, p as f64, coll, p2p]);
        }
    }

    // The paper's Fig. 9 right-panel effect: on the torus the neighbourhood
    // point-to-point exchange must win somewhere in the sweep.
    assert!(
        torus_crossover,
        "no crossover on the torus model: neighbourhood p2p never beat \
         alltoallv over procs {procs_list:?}"
    );

    timeline.finish();
    let path = report.write("scale");
    let csv = write_csv("scale", "machine,procs,alltoallv,p2p", &rows);
    outln!("\nwrote {}", csv.display());
    outln!("(machine: 0 = juropa-like/switched, 1 = juqueen-like/torus)");
    report_summary(&path, &report);
}
