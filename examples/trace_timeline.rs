//! Record a communication trace of one coupled solver execution and write it
//! as CSV — a timeline of every point-to-point and collective operation in
//! virtual time, per rank.
//!
//! Run with: `cargo run --release --example trace_timeline`

use fcs::{Fcs, SolverKind};
use particles::{local_set, InitialDistribution, IonicCrystal};
use simcomm::{CartGrid, MachineModel, Runner, TraceKind};

fn main() {
    let crystal = IonicCrystal::cubic(8, 1.0, 0.15, 5);
    let bbox = crystal.system_box();
    let nprocs = 8;

    let out = Runner::default().traced(true).run(nprocs, MachineModel::juropa_like(), |comm| {
        let set = local_set(
            &crystal,
            InitialDistribution::Random,
            comm.rank(),
            comm.size(),
            CartGrid::balanced(comm.size()).dims(),
        );
        let mut h = Fcs::init(SolverKind::P2Nfft, comm.size());
        h.set_common(bbox);
        h.set_tolerance(1e-2);
        h.tune(comm, set.pos(), set.charge());
        h.set_resort(true);
        let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
        o.timings.total
    });

    // Summaries per rank.
    println!("communication timeline of one Method B solver execution\n");
    println!(
        "{:<6} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "rank", "events", "p2p time", "coll time", "total comm", "solver total"
    );
    for (r, tr) in out.traces.iter().enumerate() {
        let p2p = tr.time_in(TraceKind::Send) + tr.time_in(TraceKind::Recv);
        let coll = tr.time_in(TraceKind::Barrier)
            + tr.time_in(TraceKind::Bcast)
            + tr.time_in(TraceKind::Reduce)
            + tr.time_in(TraceKind::Gather)
            + tr.time_in(TraceKind::Alltoallv);
        println!(
            "{:<6} {:>8} {:>10.1}us {:>10.1}us {:>10.1}us {:>10.1}us",
            r,
            tr.events.len(),
            p2p * 1e6,
            coll * 1e6,
            (p2p + coll) * 1e6,
            out.results[r] * 1e6
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let f = std::fs::File::create("results/trace_timeline.csv").expect("create csv");
    simcomm::write_trace_csv(std::io::BufWriter::new(f), &out.traces).expect("write trace");
    println!(
        "\nwrote results/trace_timeline.csv (rank,kind,t_start,t_end,bytes,peer,nranks,phase,corr)"
    );
    println!("summarize it with: cargo run -p bench --bin commstats -- --trace results/trace_timeline.csv");
}
