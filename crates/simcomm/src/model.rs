//! Machine models: virtual-time cost functions for communication and computation.
//!
//! A [`MachineModel`] maps *what a program did* (messages of given sizes between
//! given ranks, collective operations over a given process count, counted units
//! of computation) to *how long it would have taken* on a concrete parallel
//! machine. Two presets mirror the systems used in the paper's evaluation:
//!
//! * [`MachineModel::juropa_like`] — a commodity cluster with a switched fabric
//!   (QDR InfiniBand): point-to-point cost is distance-independent and the
//!   hardware performs collective all-to-all operations efficiently, so
//!   neighbourhood point-to-point exchange has no advantage (Sect. IV-D of the
//!   paper: "the switched communication network does not provide performance
//!   benefits for communication between neighboring processes").
//! * [`MachineModel::juqueen_like`] — a Blue Gene/Q-like torus: point-to-point
//!   cost grows with hop distance, and the effective per-rank bandwidth of
//!   global all-to-all traffic degrades with machine size (bisection limit),
//!   so at scale neighbourhood exchange between adjacent torus nodes is much
//!   cheaper than collective all-to-all.
//!
//! Absolute constants are calibrated to the same order of magnitude as the
//! paper's machines, but only the *relative* behaviour (who wins, where the
//! crossovers are) is claimed to be meaningful.

/// How ranks are connected; determines hop distances and collective scaling.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// Full-bisection switched fabric: every pair of ranks is one "hop" apart.
    Switched,
    /// A `ndims`-dimensional torus. The concrete extent of each dimension is
    /// derived from the world size with [`balanced_dims`].
    Torus {
        /// Number of torus dimensions (Blue Gene/Q uses 5).
        ndims: usize,
    },
}

/// Compute a balanced factorization of `n` into `ndims` factors, mimicking
/// `MPI_Dims_create`: factors are as close to each other as possible and are
/// returned in non-increasing order.
///
/// ```
/// assert_eq!(simcomm::balanced_dims(64, 3), vec![4, 4, 4]);
/// assert_eq!(simcomm::balanced_dims(24, 3), vec![4, 3, 2]);
/// assert_eq!(simcomm::balanced_dims(1, 3), vec![1, 1, 1]);
/// ```
pub fn balanced_dims(n: usize, ndims: usize) -> Vec<usize> {
    assert!(ndims >= 1, "ndims must be at least 1");
    let mut dims = vec![1usize; ndims];
    balanced_dims_into(n, &mut dims);
    dims
}

/// [`balanced_dims`] into caller storage (`dims.len()` is the dimension
/// count): no heap allocation, so a hop distance for an arbitrary world size
/// can be computed on the stack.
fn balanced_dims_into(n: usize, dims: &mut [usize]) {
    assert!(n >= 1, "n must be at least 1");
    dims.fill(1);
    // Trial division yields the prime factors in non-decreasing order; a
    // `usize` has fewer than 64 of them.
    let mut factors = [0usize; 64];
    let mut nf = 0;
    let mut m = n;
    let mut p = 2usize;
    while p * p <= m {
        while m.is_multiple_of(p) {
            factors[nf] = p;
            nf += 1;
            m /= p;
        }
        p += 1;
    }
    if m > 1 {
        factors[nf] = m;
        nf += 1;
    }
    // Repeatedly assign the largest remaining prime factor to the smallest dim.
    for &f in factors[..nf].iter().rev() {
        let i = (0..dims.len()).min_by_key(|&i| dims[i]).expect("ndims >= 1");
        dims[i] *= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    debug_assert_eq!(dims.iter().product::<usize>(), n);
}

/// Map a rank to torus coordinates (row-major order over `dims`).
pub fn torus_coords(rank: usize, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; dims.len()];
    let mut r = rank;
    for i in (0..dims.len()).rev() {
        coords[i] = r % dims[i];
        r /= dims[i];
    }
    coords
}

/// Wraparound distance between two coordinates of a torus dimension of
/// extent `d`.
#[inline]
fn ring_distance(x: usize, y: usize, d: usize) -> usize {
    let diff = x.abs_diff(y);
    diff.min(d - diff)
}

/// Minimal hop distance between two ranks on a torus with the given extents.
/// Peels the row-major coordinates off both ranks dimension by dimension, so
/// it allocates nothing.
pub fn torus_hops(a: usize, b: usize, dims: &[usize]) -> usize {
    let (mut ra, mut rb, mut hops) = (a, b, 0);
    for &d in dims.iter().rev() {
        hops += ring_distance(ra % d, rb % d, d);
        ra /= d;
        rb /= d;
    }
    hops
}

/// Hop distances of one world, precomputed: the torus coordinates of every
/// rank, rank-major, so a per-message distance is `ndims` subtractions and
/// neither divides nor allocates. Empty on switched fabrics, where every
/// pair of distinct ranks is one hop apart. 16 384 ranks on the 5D torus
/// take 320 KiB.
pub(crate) struct HopTable {
    dims: Vec<u32>,
    coords: Vec<u32>,
}

impl HopTable {
    /// Hop distance between ranks `a` and `b` of the world the table was
    /// built for; equals [`MachineModel::hops`] for that world size.
    #[inline]
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        let nd = self.dims.len();
        if nd == 0 {
            return usize::from(a != b);
        }
        let (ca, cb) = (&self.coords[a * nd..][..nd], &self.coords[b * nd..][..nd]);
        let mut hops = 0;
        for i in 0..nd {
            hops += ring_distance(ca[i] as usize, cb[i] as usize, self.dims[i] as usize);
        }
        hops
    }

    /// Per torus dimension: how many distinct coordinates `ranks` take.
    fn distinct_coords(&self, ranks: &[usize]) -> Vec<usize> {
        let nd = self.dims.len();
        (0..nd)
            .map(|i| {
                let mut seen = vec![false; self.dims[i] as usize];
                for &r in ranks {
                    seen[self.coords[r * nd + i] as usize] = true;
                }
                seen.iter().filter(|&&s| s).count()
            })
            .collect()
    }
}

/// The collective cost formulas of one model at one world size, with every
/// world-size-dependent term evaluated once ([`MachineModel::coll_terms`]):
/// a collective neither re-factorises the world size nor allocates. The
/// model's public `*_time(n, ..)` functions build the terms and call the same
/// methods, so both routes give the same bits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CollTerms {
    /// Tree stages for the communicator's ranks.
    stages: f64,
    /// Latency of one tree stage.
    stage: f64,
    /// [`MachineModel::p2p_bandwidth`].
    p2p_bandwidth: f64,
    /// Effective per-rank bandwidth for globally scattered traffic.
    alltoall_eff_bw: f64,
    /// Scan of all `n` count entries of a vector collective.
    alltoallv_scan: f64,
    /// [`MachineModel::alltoallv_msg_overhead`].
    alltoallv_msg_overhead: f64,
}

impl CollTerms {
    /// See [`MachineModel::barrier_time`].
    pub(crate) fn barrier(&self) -> f64 {
        self.stages * self.stage
    }

    /// A broadcast, reduction or allreduce of `bytes`: every tree stage
    /// pays its latency and the payload at point-to-point bandwidth.
    pub(crate) fn tree_coll(&self, bytes: u64) -> f64 {
        self.stages * (self.stage + bytes as f64 / self.p2p_bandwidth)
    }

    /// An allgather after which every rank holds `total_bytes`: a barrier's
    /// stages plus the volume at the all-to-all bandwidth.
    pub(crate) fn allgather(&self, total_bytes: u64) -> f64 {
        self.barrier() + total_bytes as f64 / self.alltoall_eff_bw
    }

    /// See [`MachineModel::alltoallv_time`].
    pub(crate) fn alltoallv(&self, s_msgs: u64, s_bytes: u64, r_msgs: u64, r_bytes: u64) -> f64 {
        let sync = self.barrier();
        // Within the collective, messages are aggregated and pipelined, so a
        // sparse message costs only the CPU-side handling — network latency is
        // paid once, in the synchronizing stages above. This is what makes the
        // collective competitive with separate point-to-point messages on a
        // switched fabric (paper, Sect. IV-D).
        let overhead = (s_msgs + r_msgs) as f64 * self.alltoallv_msg_overhead;
        let volume = (s_bytes.max(r_bytes)) as f64 / self.alltoall_eff_bw;
        self.alltoallv_scan + sync + overhead + volume
    }

    /// The part of [`CollTerms::alltoallv`] a rank's CPU spends — the count
    /// scan and the per-message handling —, which no computation between a
    /// nonblocking post and its wait can hide. The synchronizing stages and
    /// the volume run in the background (DESIGN.md, "Nonblocking
    /// collectives").
    pub(crate) fn alltoallv_cpu(&self, s_msgs: u64, r_msgs: u64) -> f64 {
        self.alltoallv_scan + (s_msgs + r_msgs) as f64 * self.alltoallv_msg_overhead
    }

    /// The part of [`CollTerms::alltoallv`] that runs in the background of a
    /// nonblocking post: the synchronizing stages and the volume term.
    pub(crate) fn alltoallv_background(&self, s_bytes: u64, r_bytes: u64) -> f64 {
        self.barrier() + (s_bytes.max(r_bytes)) as f64 / self.alltoall_eff_bw
    }
}

/// Calibrated per-unit costs (seconds) for the computation kinds the solvers
/// report. Virtual compute time is `units * rate`.
#[derive(Clone, Debug, PartialEq)]
pub struct ComputeRates {
    /// One near-field pair interaction (erfc/Coulomb kernel evaluation).
    pub interaction: f64,
    /// One multipole/local expansion term operation (P2M/M2M/M2L/L2L/L2P flop group).
    pub expansion_term: f64,
    /// One complex butterfly in an FFT (unit for `n log2 n` counting).
    pub fft_point: f64,
    /// One mesh-point operation (charge assignment / force interpolation).
    pub mesh_point: f64,
    /// One comparison-and-move in a local sort.
    pub sort_cmp: f64,
    /// Copying one byte in a local pack/unpack/permutation step.
    pub byte_copy: f64,
    /// One generic per-particle operation (integration update, key computation).
    pub particle_op: f64,
}

impl ComputeRates {
    /// Rates resembling a single ~3 GHz x86 core.
    pub fn xeon_293ghz() -> Self {
        ComputeRates {
            interaction: 25e-9,
            expansion_term: 2.0e-9,
            fft_point: 4.0e-9,
            mesh_point: 6.0e-9,
            sort_cmp: 3.0e-9,
            byte_copy: 0.25e-9,
            particle_op: 8.0e-9,
        }
    }

    /// Rates resembling one in-order PowerPC A2 core at 1.6 GHz (~3x slower).
    pub fn powerpc_a2() -> Self {
        let x = ComputeRates::xeon_293ghz();
        ComputeRates {
            interaction: x.interaction * 3.0,
            expansion_term: x.expansion_term * 3.0,
            fft_point: x.fft_point * 3.0,
            mesh_point: x.mesh_point * 3.0,
            sort_cmp: x.sort_cmp * 3.0,
            byte_copy: x.byte_copy * 3.0,
            particle_op: x.particle_op * 3.0,
        }
    }
}

/// A kind of counted computation; see [`ComputeRates`] for the unit meanings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Work {
    /// Near-field pair interaction.
    Interaction,
    /// Multipole/local expansion term operation.
    ExpansionTerm,
    /// FFT butterfly.
    FftPoint,
    /// Mesh-point operation.
    MeshPoint,
    /// Sort comparison/move.
    SortCmp,
    /// Byte copied in pack/unpack/permute.
    ByteCopy,
    /// Generic per-particle operation.
    ParticleOp,
}

/// Virtual-time cost model for a distributed-memory machine.
///
/// See the crate documentation for the modelling approach.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Human-readable machine name (appears in reports).
    pub name: String,
    /// Interconnect topology.
    pub topology: Topology,
    /// Base point-to-point latency in seconds (first byte, adjacent ranks).
    pub p2p_latency: f64,
    /// Additional latency per network hop (zero on switched fabrics).
    pub p2p_hop_latency: f64,
    /// Point-to-point bandwidth in bytes/second (per link).
    pub p2p_bandwidth: f64,
    /// CPU-side overhead per message send or receive, in seconds.
    pub p2p_overhead: f64,
    /// Per-message occupancy of the (shared) network interface, in seconds —
    /// the LogGP `g`: independent of message size, it bounds the node's
    /// message *rate*. Payload serialization ([`Self::injection_time`]) is
    /// charged on top.
    pub p2p_msg_gap: f64,
    /// Latency per stage of a tree-structured collective (barrier, bcast, ...).
    pub coll_latency: f64,
    /// Effective per-rank bandwidth for global all-to-all traffic on a
    /// full-bisection network, bytes/second.
    pub alltoall_bandwidth: f64,
    /// Per-destination bookkeeping cost of vector collectives
    /// (`MPI_Alltoallv` scans all `P` count entries even when most are zero).
    pub alltoallv_scan_cost: f64,
    /// Per non-empty message handling cost *inside* a vector collective.
    /// Lower than [`Self::p2p_overhead`]: the collective aggregates and
    /// pipelines, which is why it beats separate point-to-point messages on
    /// switched fabrics (paper Sect. IV-D).
    pub alltoallv_msg_overhead: f64,
    /// Ranks sharing one node (and its network interface): sustained
    /// per-rank bandwidths divide by this factor (JuRoPA ran 8 processes per
    /// node on one InfiniBand adapter, Juqueen 16 per node on a many-link
    /// torus router).
    pub node_share: f64,
    /// Computation rates for the cores of this machine.
    pub rates: ComputeRates,
}

impl MachineModel {
    /// A JuRoPA-like commodity cluster: Intel Xeon nodes on a switched QDR
    /// InfiniBand fabric. Distance-independent point-to-point, efficient
    /// hardware-assisted collectives.
    pub fn juropa_like() -> Self {
        MachineModel {
            name: "juropa-like (switched QDR IB, Xeon 2.93 GHz)".into(),
            topology: Topology::Switched,
            p2p_latency: 2.5e-6,
            p2p_hop_latency: 0.0,
            p2p_bandwidth: 2.5e9,
            p2p_overhead: 3.0e-6,
            // 8 ranks funnel through one HCA; the adapter's work-request rate
            // shared 8 ways gives a few microseconds of per-message occupancy.
            p2p_msg_gap: 4.0e-6,
            coll_latency: 4.0e-6,
            alltoall_bandwidth: 2.5e9,
            alltoallv_scan_cost: 18e-9,
            alltoallv_msg_overhead: 1.6e-6,
            node_share: 8.0,
            rates: ComputeRates::xeon_293ghz(),
        }
    }

    /// A Juqueen-like IBM Blue Gene/Q: PowerPC A2 nodes on a 5D torus.
    /// Hop-dependent point-to-point; global all-to-all bandwidth degrades
    /// with machine size (bisection limit), neighbourhood exchange stays cheap.
    pub fn juqueen_like() -> Self {
        MachineModel {
            name: "juqueen-like (5D torus, PowerPC A2 1.6 GHz)".into(),
            topology: Topology::Torus { ndims: 5 },
            p2p_latency: 2.8e-6,
            p2p_hop_latency: 40e-9,
            p2p_bandwidth: 1.8e9,
            p2p_overhead: 1.2e-6,
            // The torus router injects from dedicated hardware FIFOs at a high
            // message rate; per-message occupancy is far below the switched
            // fabric's shared-adapter cost.
            p2p_msg_gap: 0.8e-6,
            coll_latency: 2.5e-6,
            alltoall_bandwidth: 1.8e9,
            alltoallv_scan_cost: 40e-9,
            alltoallv_msg_overhead: 1.6e-6,
            node_share: 4.0,
            rates: ComputeRates::powerpc_a2(),
        }
    }

    /// A zero-cost model: all communication and modelled compute is free.
    /// Useful for correctness tests where virtual time is irrelevant.
    pub fn ideal() -> Self {
        MachineModel {
            name: "ideal (zero-cost)".into(),
            topology: Topology::Switched,
            p2p_latency: 0.0,
            p2p_hop_latency: 0.0,
            p2p_bandwidth: f64::INFINITY,
            p2p_overhead: 0.0,
            p2p_msg_gap: 0.0,
            coll_latency: 0.0,
            alltoall_bandwidth: f64::INFINITY,
            alltoallv_scan_cost: 0.0,
            alltoallv_msg_overhead: 0.0,
            node_share: 1.0,
            rates: ComputeRates {
                interaction: 0.0,
                expansion_term: 0.0,
                fft_point: 0.0,
                mesh_point: 0.0,
                sort_cmp: 0.0,
                byte_copy: 0.0,
                particle_op: 0.0,
            },
        }
    }

    /// Concrete torus extents for a world of `n` ranks (empty on switched fabrics).
    pub fn torus_dims(&self, n: usize) -> Vec<usize> {
        match &self.topology {
            Topology::Switched => Vec::new(),
            Topology::Torus { ndims } => balanced_dims(n, *ndims),
        }
    }

    /// Hop distance between two ranks in a world of `n` ranks.
    pub fn hops(&self, a: usize, b: usize, n: usize) -> usize {
        match &self.topology {
            Topology::Switched => usize::from(a != b),
            Topology::Torus { ndims } => {
                // Real tori have a handful of dimensions: factorise on the
                // stack, and fall back to the heap only beyond that.
                let mut stack = [1usize; 8];
                match stack.get_mut(..*ndims) {
                    Some(dims) if *ndims >= 1 => {
                        balanced_dims_into(n, dims);
                        torus_hops(a, b, dims)
                    }
                    _ => torus_hops(a, b, &balanced_dims(n, *ndims)),
                }
            }
        }
    }

    /// The hop-distance table of a world of `n` ranks.
    pub(crate) fn hop_table(&self, n: usize) -> HopTable {
        let dims = self.torus_dims(n);
        let narrow = |x: usize| u32::try_from(x).expect("torus extents fit in 32 bits");
        let nd = dims.len();
        let mut coords = vec![0u32; n * nd];
        for (rank, row) in coords.chunks_exact_mut(nd.max(1)).enumerate() {
            let mut r = rank;
            for i in (0..nd).rev() {
                row[i] = narrow(r % dims[i]);
                r /= dims[i];
            }
        }
        HopTable { dims: dims.into_iter().map(narrow).collect(), coords }
    }

    /// Average hop distance between two random ranks in a world of `n` ranks.
    pub fn avg_hops(&self, n: usize) -> f64 {
        match &self.topology {
            Topology::Switched => 1.0,
            Topology::Torus { ndims } => {
                // Expected per-dimension wraparound distance is ~dim/4.
                balanced_dims(n, *ndims).iter().map(|&d| d as f64 / 4.0).sum()
            }
        }
    }

    /// The collective cost terms of a world of `n` ranks.
    pub(crate) fn coll_terms(&self, n: usize) -> CollTerms {
        self.coll_terms_at(n, self.avg_hops(n))
    }

    /// The collective cost terms of a group of the world `hops` was built
    /// for: [`MachineModel::coll_terms`] over the member count, with
    /// [`MachineModel::avg_hops`]' formula applied to the number of distinct
    /// coordinates the members take along each torus dimension. A group of
    /// every rank takes every coordinate, so it costs what the world costs,
    /// bit for bit.
    pub(crate) fn group_coll_terms(&self, hops: &HopTable, members: &[usize]) -> CollTerms {
        let avg_hops = match &self.topology {
            Topology::Switched => 1.0,
            Topology::Torus { .. } => {
                hops.distinct_coords(members).iter().map(|&d| d as f64 / 4.0).sum()
            }
        };
        self.coll_terms_at(members.len(), avg_hops)
    }

    /// The collective cost terms of `n` ranks whose average route is
    /// `avg_hops` long.
    fn coll_terms_at(&self, n: usize, avg_hops: f64) -> CollTerms {
        let alltoall_eff_bw = match &self.topology {
            Topology::Switched => self.alltoall_bandwidth / self.node_share,
            // Average route length grows like avg_hops(n); the shared-link
            // contention divides the injection bandwidth accordingly.
            Topology::Torus { .. } => {
                self.alltoall_bandwidth / self.node_share / (1.0 + 0.5 * avg_hops)
            }
        };
        CollTerms {
            stages: (n.max(1) as f64).log2().ceil().max(0.0),
            stage: self.coll_latency + avg_hops * self.p2p_hop_latency,
            p2p_bandwidth: self.p2p_bandwidth,
            alltoall_eff_bw,
            alltoallv_scan: n as f64 * self.alltoallv_scan_cost,
            alltoallv_msg_overhead: self.alltoallv_msg_overhead,
        }
    }

    /// Approximate end-to-end time of a point-to-point message of `bytes`
    /// over `hops` hops (excludes the CPU-side [`Self::p2p_overhead`]).
    pub fn p2p_time(&self, bytes: u64, hops: usize) -> f64 {
        self.p2p_latency + hops as f64 * self.p2p_hop_latency + bytes as f64 / self.p2p_bandwidth
    }

    /// Sender-side serialization (injection) time of a message: consecutive
    /// sends from one rank share the node's NIC with `node_share - 1` other
    /// ranks, so payloads serialize at the shared bandwidth (LogGP `G`).
    pub fn injection_time(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.p2p_bandwidth / self.node_share)
    }

    /// Total NIC occupancy of one outgoing message: the per-message gap
    /// (LogGP `g`, [`Self::p2p_msg_gap`]) plus payload serialization
    /// ([`Self::injection_time`]). Consecutive sends from one rank occupy the
    /// NIC back to back for this long each, whether they are posted
    /// nonblocking or not — only the *CPU* gets to move on after
    /// [`Self::p2p_overhead`] in the nonblocking case.
    pub fn nic_occupancy(&self, bytes: u64) -> f64 {
        self.p2p_msg_gap + self.injection_time(bytes)
    }

    /// Completion-side cost of one point-to-point transfer that becomes ready
    /// (fully arrived, or fully drained from the sender's NIC) at virtual time
    /// `ready_at`: the CPU pays [`Self::p2p_overhead`] of communication time,
    /// and any remaining gap until `ready_at` is rendezvous wait. Returns the
    /// `(comm, wait)` split to charge at the current `clock`.
    ///
    /// This is the unit step of the runtime's **overlap accounting**: when a
    /// `waitall` completes several outstanding transfers in ready-time order,
    /// each transfer's wait only covers the gap *past the previous
    /// completion*, so concurrent transfers cost the **max** of their
    /// remaining latencies instead of the sum a blocking partner-order loop
    /// pays (see [`Self::overlap_completion`]).
    pub fn completion_cost(&self, clock: f64, ready_at: f64) -> (f64, f64) {
        let comm = self.p2p_overhead;
        let wait = (ready_at - (clock + comm)).max(0.0);
        (comm, wait)
    }

    /// Fold [`Self::completion_cost`] over a batch of concurrent outstanding
    /// transfers with the given ready times, completing them in ascending
    /// order (sort first; the order is what realizes the overlap). Returns
    /// `(clock, comm, wait)` after the whole batch.
    ///
    /// ```
    /// let m = simcomm::MachineModel::juropa_like();
    /// let ready = [5e-5, 1e-4, 2e-4];
    /// let (clock, _comm, wait) = m.overlap_completion(0.0, &ready);
    /// // The batch waits for the *latest* transfer only, not for the sum.
    /// assert!(clock >= 2e-4 && clock < 2.1e-4);
    /// assert!(wait < 2e-4);
    /// ```
    pub fn overlap_completion(&self, clock: f64, ready_at_ascending: &[f64]) -> (f64, f64, f64) {
        let (mut clock, mut comm, mut wait) = (clock, 0.0, 0.0);
        for &ready in ready_at_ascending {
            let (c, w) = self.completion_cost(clock, ready);
            clock += c + w;
            comm += c;
            wait += w;
        }
        (clock, comm, wait)
    }

    /// Wire transit latency over `hops` hops (payload time is paid at
    /// injection; see [`Self::injection_time`]).
    pub fn wire_latency(&self, hops: usize) -> f64 {
        self.p2p_latency + hops as f64 * self.p2p_hop_latency
    }

    /// Cost of a barrier over `n` ranks.
    pub fn barrier_time(&self, n: usize) -> f64 {
        self.coll_terms(n).barrier()
    }

    /// Effective per-rank bandwidth for globally scattered traffic in a world
    /// of `n`: constant on switched fabrics, bisection-degraded on tori.
    pub fn alltoall_eff_bw(&self, n: usize) -> f64 {
        self.coll_terms(n).alltoall_eff_bw
    }

    /// Cost charged to one rank for its part of a (sparse) all-to-all-v:
    /// `s_msgs`/`s_bytes` sent, `r_msgs`/`r_bytes` received, world size `n`.
    ///
    /// Includes the per-destination scan cost of vector collectives, the
    /// synchronizing tree stages, per-message overheads and the volume term at
    /// the (possibly bisection-degraded) all-to-all bandwidth.
    pub fn alltoallv_time(
        &self,
        n: usize,
        s_msgs: u64,
        s_bytes: u64,
        r_msgs: u64,
        r_bytes: u64,
    ) -> f64 {
        self.coll_terms(n).alltoallv(s_msgs, s_bytes, r_msgs, r_bytes)
    }

    /// Virtual compute time for `units` operations of the given [`Work`] kind.
    pub fn work_time(&self, kind: Work, units: f64) -> f64 {
        let r = &self.rates;
        let rate = match kind {
            Work::Interaction => r.interaction,
            Work::ExpansionTerm => r.expansion_term,
            Work::FftPoint => r.fft_point,
            Work::MeshPoint => r.mesh_point,
            Work::SortCmp => r.sort_cmp,
            Work::ByteCopy => r.byte_copy,
            Work::ParticleOp => r.particle_op,
        };
        units * rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_dims_products() {
        for n in 1..=512 {
            for nd in 1..=5 {
                let dims = balanced_dims(n, nd);
                assert_eq!(dims.len(), nd);
                assert_eq!(dims.iter().product::<usize>(), n, "n={n} nd={nd}");
            }
        }
    }

    #[test]
    fn balanced_dims_are_balanced() {
        assert_eq!(balanced_dims(64, 3), vec![4, 4, 4]);
        assert_eq!(balanced_dims(8, 3), vec![2, 2, 2]);
        assert_eq!(balanced_dims(16384, 5), vec![8, 8, 8, 8, 4]);
        let d = balanced_dims(256, 3);
        assert_eq!(d.iter().product::<usize>(), 256);
        assert!(d[0] / d[d.len() - 1] <= 2, "{d:?}");
    }

    #[test]
    fn torus_coords_roundtrip() {
        let dims = [4, 3, 2];
        for r in 0..24 {
            let c = torus_coords(r, &dims);
            let back = c[0] * 6 + c[1] * 2 + c[2];
            assert_eq!(back, r);
        }
    }

    #[test]
    fn torus_hops_wraparound() {
        let dims = [8];
        assert_eq!(torus_hops(0, 7, &dims), 1); // wraps around
        assert_eq!(torus_hops(0, 4, &dims), 4);
        assert_eq!(torus_hops(3, 3, &dims), 0);
    }

    #[test]
    fn torus_hops_symmetric() {
        let dims = [4, 4, 4];
        for a in 0..64 {
            for b in 0..64 {
                assert_eq!(torus_hops(a, b, &dims), torus_hops(b, a, &dims));
            }
        }
    }

    #[test]
    fn hop_table_equals_torus_hops_for_all_pairs() {
        // 1, 2, a prime, a three-factor and a paper-scale world, on both
        // topologies (the switched table is empty: 0 or 1 hop).
        for model in [MachineModel::juqueen_like(), MachineModel::juropa_like()] {
            for n in [1usize, 2, 13, 24, 4096] {
                let table = model.hop_table(n);
                let dims = model.torus_dims(n);
                for a in 0..n {
                    for b in 0..n {
                        let expect = if dims.is_empty() {
                            usize::from(a != b)
                        } else {
                            torus_hops(a, b, &dims)
                        };
                        assert_eq!(table.hops(a, b), expect, "{}: n={n} {a}->{b}", model.name);
                    }
                }
                // The public per-call route factorises `n` on the stack.
                for (a, b) in [(0, n - 1), (n / 2, n / 3), (n - 1, n - 1)] {
                    assert_eq!(model.hops(a, b, n), table.hops(a, b), "{}: n={n}", model.name);
                }
            }
        }
    }

    #[test]
    fn hop_table_stays_small_at_paper_scale() {
        let table = MachineModel::juqueen_like().hop_table(16384);
        let bytes = std::mem::size_of_val(&table.coords[..]);
        assert_eq!(table.coords.len(), 16384 * 5);
        assert!(bytes < (1 << 20) / 2, "{bytes} B for 16384 ranks x 5 dims");
    }

    #[test]
    fn torus_hops_matches_coordinate_distance() {
        let dims = [4, 3, 2];
        for a in 0..24 {
            for b in 0..24 {
                let (ca, cb) = (torus_coords(a, &dims), torus_coords(b, &dims));
                let by_coords: usize = (0..3).map(|i| ring_distance(ca[i], cb[i], dims[i])).sum();
                assert_eq!(torus_hops(a, b, &dims), by_coords);
            }
        }
        // Many dimensions take the heap route of `MachineModel::hops`.
        let wide =
            MachineModel { topology: Topology::Torus { ndims: 9 }, ..MachineModel::juqueen_like() };
        let dims = balanced_dims(512, 9);
        assert_eq!(wide.hops(3, 300, 512), torus_hops(3, 300, &dims));
    }

    #[test]
    fn collective_terms_keep_the_bits_of_the_per_call_formulas() {
        // The formulas as they were evaluated on every call, written out.
        for m in [MachineModel::juqueen_like(), MachineModel::juropa_like()] {
            for n in [1usize, 2, 7, 24, 64, 256, 4096] {
                let stages = (n.max(1) as f64).log2().ceil().max(0.0);
                let stage = m.coll_latency + m.avg_hops(n) * m.p2p_hop_latency;
                let eff_bw = match m.topology {
                    Topology::Switched => m.alltoall_bandwidth / m.node_share,
                    Topology::Torus { .. } => {
                        m.alltoall_bandwidth / m.node_share / (1.0 + 0.5 * m.avg_hops(n))
                    }
                };
                let t = m.coll_terms(n);
                let same =
                    |a: f64, b: f64| assert_eq!(a.to_bits(), b.to_bits(), "{} n={n}", m.name);
                same(t.barrier(), stages * stage);
                same(t.tree_coll(4096), stages * (stage + 4096.0 / m.p2p_bandwidth));
                same(t.allgather(1 << 20), stages * stage + (1u64 << 20) as f64 / eff_bw);
                same(m.alltoall_eff_bw(n), eff_bw);
                let (scan, sync) = (n as f64 * m.alltoallv_scan_cost, stages * stage);
                let overhead = (6 + 5) as f64 * m.alltoallv_msg_overhead;
                let volume = 7168f64 / eff_bw;
                same(t.alltoallv(6, 6144, 5, 7168), scan + sync + overhead + volume);
                same(m.alltoallv_time(n, 6, 6144, 5, 7168), scan + sync + overhead + volume);
            }
        }
    }

    #[test]
    fn switched_hops_are_distance_independent() {
        let m = MachineModel::juropa_like();
        assert_eq!(m.hops(0, 1, 1024), 1);
        assert_eq!(m.hops(0, 1023, 1024), 1);
        assert_eq!(m.hops(5, 5, 1024), 0);
    }

    #[test]
    fn torus_neighbor_cheaper_than_distant() {
        let m = MachineModel::juqueen_like();
        let near = m.p2p_time(1 << 20, m.hops(0, 1, 4096));
        let far = m.p2p_time(1 << 20, m.hops(0, 2048, 4096));
        assert!(near < far);
    }

    #[test]
    fn alltoall_bw_degrades_on_torus_only() {
        let t = MachineModel::juqueen_like();
        assert!(t.alltoall_eff_bw(16384) < t.alltoall_eff_bw(16));
        let s = MachineModel::juropa_like();
        assert_eq!(s.alltoall_eff_bw(16384), s.alltoall_eff_bw(16));
    }

    #[test]
    fn alltoallv_scales_with_world_size() {
        let m = MachineModel::juqueen_like();
        let small = m.alltoallv_time(64, 6, 6 << 10, 6, 6 << 10);
        let large = m.alltoallv_time(16384, 6, 6 << 10, 6, 6 << 10);
        assert!(
            large > 2.0 * small,
            "same sparse traffic must cost much more at scale: {small} vs {large}"
        );
    }

    #[test]
    fn neighborhood_beats_alltoallv_at_scale_on_torus() {
        // Executed comparison (includes injection serialization and message
        // overlap): a 26-partner neighbourhood exchange of 4 KiB messages.
        fn measure(model: MachineModel, n: usize) -> (f64, f64) {
            let out = crate::run(n, model, |comm| {
                let ring: Vec<usize> = (1..=13usize)
                    .flat_map(|d| {
                        [
                            (comm.rank() + d) % comm.size(),
                            (comm.rank() + comm.size() - d) % comm.size(),
                        ]
                    })
                    .collect();
                let mut partners: Vec<usize> =
                    ring.into_iter().filter(|&q| q != comm.rank()).collect();
                partners.sort_unstable();
                partners.dedup();
                let payload = vec![0u8; 4096];
                let t0 = comm.clock();
                let sends: Vec<(usize, Vec<u8>)> =
                    partners.iter().map(|&q| (q, payload.clone())).collect();
                let _ = comm.alltoallv(sends);
                let coll = comm.clock() - t0;
                let t1 = comm.clock();
                let data: Vec<(usize, Vec<u8>)> =
                    partners.iter().map(|&q| (q, payload.clone())).collect();
                let _ = comm.neighbor_exchange(&partners, data, 1);
                (coll, comm.clock() - t1)
            });
            (
                out.results.iter().map(|r| r.0).fold(0.0, f64::max),
                out.results.iter().map(|r| r.1).fold(0.0, f64::max),
            )
        }
        // Torus at scale: p2p must clearly beat the collective (Fig. 9 right).
        let (coll_t, p2p_t) = measure(MachineModel::juqueen_like(), 1024);
        assert!(2.0 * p2p_t < coll_t, "torus: p2p {p2p_t} must clearly beat alltoallv {coll_t}");
        // Switched fabric at moderate scale: the collective is comparable or
        // better (the paper observed a *small increase* when switching to
        // p2p on JuRoPA).
        let (coll_s, p2p_s) = measure(MachineModel::juropa_like(), 256);
        assert!(coll_s < 1.15 * p2p_s, "switched: coll {coll_s} must not lose to p2p {p2p_s}");
    }

    #[test]
    fn overlap_charges_max_not_sum_of_latencies() {
        let m = MachineModel::juropa_like();
        let ready: Vec<f64> = (1..=10).map(|i| i as f64 * 1e-5).collect();
        let (clock, comm, wait) = m.overlap_completion(0.0, &ready);
        let sum: f64 = ready.iter().sum();
        // The batch ends just past the *latest* ready time; a blocking loop
        // that re-waited for each transfer would accumulate far more wait.
        assert!(clock < 1.2e-4, "batch must end near max(ready), got {clock}");
        assert!(wait <= 1e-4 && wait < 0.5 * sum);
        assert!((comm - 10.0 * m.p2p_overhead).abs() < 1e-12);
    }

    #[test]
    fn nic_occupancy_bounds_message_rate() {
        let m = MachineModel::juropa_like();
        assert!(m.nic_occupancy(0) > 0.0, "empty messages still occupy the NIC");
        let big = m.nic_occupancy(1 << 20);
        assert!((big - (m.p2p_msg_gap + m.injection_time(1 << 20))).abs() < 1e-12);
        assert_eq!(MachineModel::ideal().nic_occupancy(1 << 20), 0.0);
    }

    #[test]
    fn work_time_linear() {
        let m = MachineModel::juropa_like();
        let one = m.work_time(Work::Interaction, 1.0);
        let many = m.work_time(Work::Interaction, 1000.0);
        assert!((many - 1000.0 * one).abs() < 1e-12);
    }

    #[test]
    fn ideal_model_is_free() {
        let m = MachineModel::ideal();
        assert_eq!(m.barrier_time(4096), 0.0);
        assert_eq!(m.p2p_time(1 << 30, 5), 0.0);
        assert_eq!(m.alltoallv_time(4096, 100, 1 << 30, 100, 1 << 30), 0.0);
        assert_eq!(m.work_time(Work::FftPoint, 1e9), 0.0);
    }
}
