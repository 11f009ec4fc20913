//! Redistribution before/after benchmark: the hot communication paths this
//! repository optimised with nonblocking requests and multi-field resorting,
//! measured as virtual makespans on both machine models.
//!
//! Two workload families:
//!
//! * **Neighbourhood exchange** (the paper's Fig. 9 pattern): every rank
//!   exchanges a fixed-size message with its 26-neighbourhood. `blocking`
//!   posts sends one at a time and receives in partner order (the previous
//!   implementation, kept as [`simcomm::Comm::neighbor_exchange_blocking`]);
//!   `nonblocking` posts all sends up front and drains receives in arrival
//!   order; `alltoallv` is the collective alternative for reference.
//! * **Multi-field resort** (the `fcs_resort_*` path): route three
//!   per-particle fields through the redistribution either as three
//!   sequential single-field resorts (`per-field`, the previous call
//!   pattern) or in one combined byte exchange round (`combined`,
//!   [`atasp::resort_planes`] over a three-plane [`particles::PlaneSet`]).
//!
//! Writes `BENCH_redistribution.json` (the run-report schema) at the
//! repository root, and fails loudly if the nonblocking exchange is slower
//! than the blocking one on either machine model.

use atasp::{encode_index, resort, resort_planes, ExchangeMode};
use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{banner, fmt_secs, record_run, RunReport, TimelineSink};
use particles::PlaneSet;
use simcomm::{Comm, MachineModel, Runner};

/// Short machine label ("juropa-like") for run labels and table rows.
fn short_name(model: &MachineModel) -> &str {
    model.name.split_whitespace().next().unwrap_or(&model.name)
}

/// Symmetric ring neighbourhood of `reach` ranks on each side (the 26
/// distinct partners of a 3×3×3 stencil when `reach` is 13).
fn ring_partners(comm: &Comm, reach: usize) -> Vec<usize> {
    let (me, p) = (comm.rank(), comm.size());
    let mut partners: Vec<usize> =
        (1..=reach).flat_map(|d| [(me + d) % p, (me + p - d) % p]).filter(|&q| q != me).collect();
    partners.sort_unstable();
    partners.dedup();
    partners
}

#[allow(clippy::too_many_arguments)]
fn exchange_workloads(
    model: &MachineModel,
    procs: usize,
    bytes: usize,
    analyze: bool,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) -> (f64, f64) {
    let runner = Runner::default().traced(analyze);
    let payloads = |partners: &[usize]| -> Vec<(usize, Vec<u8>)> {
        partners.iter().map(|&q| (q, vec![0u8; bytes])).collect()
    };
    let blocking = runner.run(procs, model.clone(), |comm| {
        let partners = ring_partners(comm, 13);
        let _ = comm.neighbor_exchange_blocking(&partners, payloads(&partners), 1);
    });
    let nonblocking = runner.run(procs, model.clone(), |comm| {
        let partners = ring_partners(comm, 13);
        let _ = comm.neighbor_exchange(&partners, payloads(&partners), 1);
    });
    let collective = runner.run(procs, model.clone(), |comm| {
        let partners = ring_partners(comm, 13);
        let _ = comm.alltoallv(payloads(&partners));
    });
    let name = short_name(model);
    println!(
        "{name:<14} exchange   blocking {:>12}  nonblocking {:>12}  alltoallv {:>12}",
        fmt_secs(blocking.makespan()),
        fmt_secs(nonblocking.makespan()),
        fmt_secs(collective.makespan())
    );
    let spans = (blocking.makespan(), nonblocking.makespan());
    record_run(format!("{name}/exchange/blocking"), blocking, report, timeline);
    record_run(format!("{name}/exchange/nonblocking"), nonblocking, report, timeline);
    record_run(format!("{name}/exchange/alltoallv"), collective, report, timeline);
    spans
}

#[allow(clippy::too_many_arguments)]
fn resort_workloads(
    model: &MachineModel,
    procs: usize,
    elems: usize,
    analyze: bool,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) -> (f64, f64) {
    let runner = Runner::default().traced(analyze);
    // Rotate every rank's block of elements to the next rank, positions
    // reversed — a valid global permutation exercising the full path.
    let indices = |comm: &Comm| -> Vec<u64> {
        let dst = (comm.rank() + 1) % comm.size();
        (0..elems).map(|i| encode_index(dst, elems - 1 - i)).collect()
    };
    let fields = |comm: &Comm| -> [Vec<f64>; 3] {
        let base = (comm.rank() * elems) as f64;
        let a: Vec<f64> = (0..elems).map(|i| base + i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.25).collect();
        let c: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        [a, b, c]
    };
    let per_field = runner.run(procs, model.clone(), |comm| {
        let ix = indices(comm);
        let [a, b, c] = fields(comm);
        for ch in [&a, &b, &c] {
            let _ = resort(comm, ch, &ix, elems, &ExchangeMode::Collective);
        }
    });
    let combined = runner.run(procs, model.clone(), |comm| {
        let ix = indices(comm);
        let [a, b, c] = fields(comm);
        let mut set = PlaneSet::new();
        for (name, data) in [("a", &a), ("b", &b), ("c", &c)] {
            let id = set.register::<f64>(name);
            set.resize(data.len());
            set.plane_mut::<f64>(id).copy_from_slice(data);
        }
        let mut plan = None;
        resort_planes(comm, &mut set, &ix, elems, &ExchangeMode::Collective, &mut plan);
    });
    let name = short_name(model);
    println!(
        "{name:<14} resort     per-field {:>11}  combined {:>15}",
        fmt_secs(per_field.makespan()),
        fmt_secs(combined.makespan())
    );
    let spans = (per_field.makespan(), combined.makespan());
    record_run(format!("{name}/resort/per-field"), per_field, report, timeline);
    record_run(format!("{name}/resort/combined"), combined, report, timeline);
    spans
}

fn main() {
    let cli = Cli::parse(
        "redistribution",
        "redistribution hot paths: blocking vs nonblocking, per-field vs combined",
        &[
            Opt::new("procs", "P", "simulated process count (default 64)"),
            Opt::new("bytes", "B", "payload bytes per message (default 4096)"),
            Opt::new("elems", "N", "elements per rank (default 2000)"),
        ],
        OBS_OPTS,
    );
    let procs: usize = cli.get("procs", 64);
    let bytes: usize = cli.get("bytes", 4096);
    let elems: usize = cli.get("elems", 2000);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    banner(
        "Redistribution hot paths — blocking vs nonblocking, per-field vs combined",
        &format!(
            "{procs} processes, 26-partner neighbourhood of {bytes} B messages, \
             {elems} elements x 3 fields per rank"
        ),
    );

    let mut report = RunReport::new("redistribution", "mixed");
    report.param("procs", procs);
    report.param("bytes", bytes);
    report.param("elems", elems);

    for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
        let (blocking, nonblocking) =
            exchange_workloads(&model, procs, bytes, analyze, &mut report, &mut timeline);
        assert!(
            nonblocking <= blocking * (1.0 + 1e-9),
            "{}: nonblocking neighbour exchange ({nonblocking} s) must not be \
             slower than the blocking baseline ({blocking} s)",
            model.name
        );
        resort_workloads(&model, procs, elems, analyze, &mut report, &mut timeline);
    }

    timeline.finish();
    let json = report.to_json().pretty();
    std::fs::write("BENCH_redistribution.json", &json).expect("write BENCH_redistribution.json");
    println!("\nwrote BENCH_redistribution.json");
    println!(
        "accounting max error: {:.1e} s (run `commstats --check --report \
         BENCH_redistribution.json` to verify)",
        report.decomposition_error().max(1e-15)
    );
}
