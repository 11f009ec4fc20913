//! Cartesian Taylor multipole and local expansions for the Laplace kernel
//! `G(r) = 1/|r|`, with the standard FMM translation operators
//! (P2M, M2M, M2L, L2L, L2P).
//!
//! Conventions (multi-index `k = (k1, k2, k3)`, `|k| = k1+k2+k3 <= p`):
//!
//! * multipole about center `z`:  `M_k = sum_j q_j (x_j - z)^k / k!`
//! * potential:                   `phi(y) = sum_k M_k (-1)^{|k|} T_k(y - z)`
//!   with `T_k = D^k G`
//! * local expansion about `w`:   `phi(y) = sum_n L_n (y - w)^n`
//!   with `L_n = (1/n!) sum_k M_k (-1)^{|k|} T_{n+k}(w - z)`
//!
//! The derivative tensors `T_k` are produced by the recurrence
//! `n r^2 T_k = -(2n-1) sum_d r_d k_d T_{k-e_d} - (n-1) sum_d k_d (k_d-1) T_{k-2e_d}`
//! (`n = |k|`), verified in the tests against symbolic derivatives.

use particles::Vec3;

/// Local coefficients one M2L chunk accumulates side by side (see
/// [`ExpansionOps::m2l_with_tensor`]).
const M2L_LANES: usize = 5;

/// One source coefficient `k` of one M2L chunk: for each of the chunk's
/// [`M2L_LANES`] targets `n` the factor `(-1)^{|k|} / n!` and the index of
/// `T_{n+k}` (`u16`: at most `ncoeffs(2 * MAX_ORDER)` = 1771 tensor entries).
#[derive(Clone, Copy, Debug)]
struct M2lRow {
    factor: [f64; M2L_LANES],
    tensor: [u16; M2L_LANES],
}

/// Precomputed tables for expansions of order `p`: the multi-index
/// enumeration (graded ordering), inverse factorials, child/neighbour lookup
/// tables and translation tables.
#[derive(Clone, Debug)]
pub struct ExpansionOps {
    /// Expansion order (maximum total degree).
    pub order: usize,
    /// Multi-indices `(i, j, k)` with `i+j+k <= order`, graded by total degree.
    pub midx: Vec<[u8; 3]>,
    /// Multi-indices up to `2 * order` (for derivative tensors used in M2L).
    pub midx2: Vec<[u8; 3]>,
    /// Lookup: dense index of a multi-index up to `2*order`.
    lookup2: Vec<u32>,
    /// 1 / k! per multi-index of `midx`.
    pub inv_fact: Vec<f64>,
    /// M2L table, target-chunk-major: `len()` rows (one per source `k`,
    /// ascending) for each chunk of [`M2L_LANES`] consecutive targets. The last
    /// chunk is padded with zero-factor lanes.
    m2l_rows: Vec<M2lRow>,
    /// M2M pair list: (target k, source m, diff k-m). Factor 1/(k-m)! applied via inv_fact of diff.
    m2m_pairs: Vec<(u32, u32, u32)>,
    /// L2L pair list: (target n, source m, diff m-n, multinomial binom(m, n)).
    l2l_pairs: Vec<(u32, u32, u32, f64)>,
}

/// Number of multi-indices with total degree `<= p`.
pub const fn ncoeffs(p: usize) -> usize {
    (p + 1) * (p + 2) * (p + 3) / 6
}

/// Largest supported expansion order.
const MAX_ORDER: usize = 10;
/// Coefficients of an expansion of the largest supported order.
const MAX_COEFFS: usize = ncoeffs(MAX_ORDER);

fn gen_midx(p: usize) -> Vec<[u8; 3]> {
    let mut v = Vec::with_capacity(ncoeffs(p));
    for total in 0..=p {
        for i in (0..=total).rev() {
            for j in (0..=(total - i)).rev() {
                let k = total - i - j;
                v.push([i as u8, j as u8, k as u8]);
            }
        }
    }
    v
}

impl ExpansionOps {
    /// Build the tables for expansion order `p` (`p <= 10` supported).
    pub fn new(p: usize) -> Self {
        assert!(p <= MAX_ORDER, "expansion order too large");
        let midx = gen_midx(p);
        let midx2 = gen_midx(2 * p);
        // Dense lookup over (i, j, k) with each component <= 2p.
        let dim = 2 * p + 1;
        let mut lookup2 = vec![u32::MAX; dim * dim * dim];
        for (ix, m) in midx2.iter().enumerate() {
            let off = (m[0] as usize * dim + m[1] as usize) * dim + m[2] as usize;
            lookup2[off] = ix as u32;
        }
        // `midx` is a prefix of `midx2` (one graded enumeration), so for a
        // multi-index of degree <= p this is also its index in `midx`.
        let look = |m: [usize; 3]| -> u32 { lookup2[(m[0] * dim + m[1]) * dim + m[2]] };
        let fact = |n: u8| -> f64 { (1..=n as u64).product::<u64>() as f64 };
        let inv_fact: Vec<f64> =
            midx.iter().map(|m| 1.0 / (fact(m[0]) * fact(m[1]) * fact(m[2]))).collect();

        // M2L: L_n += (1/n!) * (-1)^{|k|} M_k T_{n+k}
        let mut m2l_rows = Vec::with_capacity(midx.len().div_ceil(M2L_LANES) * midx.len());
        for (targets, inv_nf) in midx.chunks(M2L_LANES).zip(inv_fact.chunks(M2L_LANES)) {
            for k in &midx {
                let sign = if (k[0] + k[1] + k[2]) % 2 == 0 { 1.0 } else { -1.0 };
                let mut row = M2lRow { factor: [0.0; M2L_LANES], tensor: [0; M2L_LANES] };
                for (lane, (n, inv_nf)) in targets.iter().zip(inv_nf).enumerate() {
                    let t = look([0, 1, 2].map(|c| (n[c] + k[c]) as usize));
                    row.factor[lane] = sign * inv_nf;
                    row.tensor[lane] = u16::try_from(t).expect("an index into `midx2`");
                }
                m2l_rows.push(row);
            }
        }

        // M2M: M'_k += M_m d^{k-m} / (k-m)!   (m <= k componentwise)
        let mut m2m_pairs = Vec::new();
        for (ki, k) in midx.iter().enumerate() {
            for (mi, m) in midx.iter().enumerate() {
                if m[0] <= k[0] && m[1] <= k[1] && m[2] <= k[2] {
                    let di = look([0, 1, 2].map(|c| (k[c] - m[c]) as usize));
                    m2m_pairs.push((ki as u32, mi as u32, di));
                }
            }
        }

        // L2L: L'_n += L_m binom(m, n) d^{m-n}   (n <= m componentwise)
        let binom = |a: u8, b: u8| -> f64 { (fact(a)) / (fact(b) * fact(a - b)) };
        let mut l2l_pairs = Vec::new();
        for (ni, n) in midx.iter().enumerate() {
            for (mi, m) in midx.iter().enumerate() {
                if n[0] <= m[0] && n[1] <= m[1] && n[2] <= m[2] {
                    let di = look([0, 1, 2].map(|c| (m[c] - n[c]) as usize));
                    let b = binom(m[0], n[0]) * binom(m[1], n[1]) * binom(m[2], n[2]);
                    l2l_pairs.push((ni as u32, mi as u32, di, b));
                }
            }
        }

        ExpansionOps { order: p, midx, midx2, lookup2, inv_fact, m2l_rows, m2m_pairs, l2l_pairs }
    }

    /// Number of coefficients of an order-`p` expansion.
    pub fn len(&self) -> usize {
        self.midx.len()
    }

    /// True if the expansion has no coefficients (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.midx.is_empty()
    }

    /// Powers `d[c]^e` of each component for `e <= order`.
    #[inline]
    fn powers(&self, d: Vec3) -> [[f64; 16]; 3] {
        let mut pw = [[0.0f64; 16]; 3];
        for (c, pwc) in pw.iter_mut().enumerate() {
            pwc[0] = 1.0;
            for e in 1..=self.order {
                pwc[e] = pwc[e - 1] * d[c];
            }
        }
        pw
    }

    /// Monomial powers `d^m` for all multi-indices `m` up to `order`, in the
    /// leading [`Self::len`] entries of a fixed-size array (no allocation).
    fn monomials(&self, d: Vec3) -> [f64; MAX_COEFFS] {
        let pw = self.powers(d);
        let mut mono = [0.0f64; MAX_COEFFS];
        for (mo, m) in mono.iter_mut().zip(&self.midx) {
            *mo = pw[0][m[0] as usize] * pw[1][m[1] as usize] * pw[2][m[2] as usize];
        }
        mono
    }

    /// Derivative tensors `T_k(r) = D^k (1/|r|)` for all `|k| <= 2*order`.
    pub fn derivative_tensor(&self, r: Vec3) -> Vec<f64> {
        let r2 = r.norm2();
        assert!(r2 > 0.0, "derivative tensor at the origin");
        let dim = 2 * self.order + 1;
        let look = |m: [i32; 3]| -> Option<u32> {
            if m.iter().any(|&c| c < 0) {
                return None;
            }
            let off = (m[0] as usize * dim + m[1] as usize) * dim + m[2] as usize;
            let ix = self.lookup2[off];
            (ix != u32::MAX).then_some(ix)
        };
        let mut t = vec![0.0f64; self.midx2.len()];
        t[0] = 1.0 / r2.sqrt();
        for (ix, m) in self.midx2.iter().enumerate().skip(1) {
            let n = (m[0] + m[1] + m[2]) as f64;
            let mut acc = 0.0;
            for d in 0..3usize {
                let kd = m[d] as f64;
                if m[d] >= 1 {
                    let mut e1 = [m[0] as i32, m[1] as i32, m[2] as i32];
                    e1[d] -= 1;
                    let prev = look(e1).expect("graded order guarantees presence");
                    acc += -(2.0 * n - 1.0) * r[d] * kd * t[prev as usize];
                }
                if m[d] >= 2 {
                    let mut e2 = [m[0] as i32, m[1] as i32, m[2] as i32];
                    e2[d] -= 2;
                    let prev = look(e2).expect("graded order guarantees presence");
                    acc += -(n - 1.0) * kd * (kd - 1.0) * t[prev as usize];
                }
            }
            t[ix] = acc / (n * r2);
        }
        t
    }

    /// P2M: accumulate a charge at position `x` into a multipole about `z`.
    pub fn p2m(&self, m: &mut [f64], z: Vec3, x: Vec3, q: f64) {
        debug_assert_eq!(m.len(), self.len());
        let pw = self.powers(x - z);
        for ((mm, k), inv_fact) in m.iter_mut().zip(&self.midx).zip(&self.inv_fact) {
            let mono = pw[0][k[0] as usize] * pw[1][k[1] as usize] * pw[2][k[2] as usize];
            *mm += q * mono * inv_fact;
        }
    }

    /// M2M: translate a child multipole (center `zc`) into the parent
    /// expansion (center `zp`), accumulating.
    pub fn m2m(&self, parent: &mut [f64], child: &[f64], zc: Vec3, zp: Vec3) {
        let mono = self.monomials(zc - zp);
        for &(ki, mi, di) in &self.m2m_pairs {
            parent[ki as usize] +=
                child[mi as usize] * mono[di as usize] * self.inv_fact[di as usize];
        }
    }

    /// M2L with a precomputed derivative tensor `t = T(w - z)` (use
    /// [`Self::derivative_tensor`]); accumulates into the local expansion.
    ///
    /// Every `local[n]` receives its terms `(f * M_k) * T_{n+k}` in ascending
    /// `k`, one rounded addition each — the summation-order contract. A chunk
    /// of five coefficients is held in registers across the whole `k` loop, so
    /// the additions of different coefficients overlap instead of each
    /// waiting on a store to `local`; chunking is layout, not order.
    pub fn m2l_with_tensor(&self, local: &mut [f64], multipole: &[f64], t: &[f64]) {
        let nc = self.len();
        assert!(local.len() == nc && multipole.len() == nc, "expansion length");
        let chunk = |mut acc: [f64; M2L_LANES], rows: &[M2lRow]| {
            for (row, &m) in rows.iter().zip(multipole) {
                for lane in 0..M2L_LANES {
                    acc[lane] += row.factor[lane] * m * t[row.tensor[lane] as usize];
                }
            }
            acc
        };
        let mut tables = self.m2l_rows.chunks_exact(nc);
        let mut full = local.chunks_exact_mut(M2L_LANES);
        for (out, rows) in (&mut full).zip(&mut tables) {
            let out: &mut [f64; M2L_LANES] = out.try_into().expect("an exact chunk");
            *out = chunk(*out, rows);
        }
        // One table chunk is left iff `tail` is not empty. Its padded lanes
        // accumulate `0 * M_k * T_0` and are never stored.
        let tail = full.into_remainder();
        if let Some(rows) = tables.next() {
            let mut acc = [0.0f64; M2L_LANES];
            acc[..tail.len()].copy_from_slice(tail);
            tail.copy_from_slice(&chunk(acc, rows)[..tail.len()]);
        }
    }

    /// M2L: convert a multipole about `z` into a local expansion about `w`.
    pub fn m2l(&self, local: &mut [f64], multipole: &[f64], z: Vec3, w: Vec3) {
        let t = self.derivative_tensor(w - z);
        self.m2l_with_tensor(local, multipole, &t);
    }

    /// L2L: translate a parent local expansion (center `wp`) into a child
    /// local expansion (center `wc`), accumulating.
    pub fn l2l(&self, child: &mut [f64], parent: &[f64], wp: Vec3, wc: Vec3) {
        let mono = self.monomials(wc - wp);
        for &(ni, mi, di, b) in &self.l2l_pairs {
            child[ni as usize] += parent[mi as usize] * mono[di as usize] * b;
        }
    }

    /// L2P: evaluate a local expansion about `w` at `y`; returns
    /// `(potential, field = -grad potential)`.
    pub fn l2p(&self, local: &[f64], w: Vec3, y: Vec3) -> (f64, Vec3) {
        let pw = self.powers(y - w);
        let mut phi = 0.0;
        let mut grad = Vec3::ZERO;
        for (i, m) in self.midx.iter().enumerate() {
            let l = local[i];
            let mono = pw[0][m[0] as usize] * pw[1][m[1] as usize] * pw[2][m[2] as usize];
            phi += l * mono;
            for c in 0..3usize {
                if m[c] >= 1 {
                    let mut mo = m[c] as f64;
                    mo *= pw[c][m[c] as usize - 1];
                    for o in 0..3usize {
                        if o != c {
                            mo *= pw[o][m[o] as usize];
                        }
                    }
                    grad[c] += l * mo;
                }
            }
        }
        (phi, -grad)
    }

    /// Evaluate the potential and field of a multipole about `z` directly at
    /// `y` (M2P; used for tests and far-away evaluation).
    pub fn m2p(&self, multipole: &[f64], z: Vec3, y: Vec3) -> (f64, Vec3) {
        // phi(y) = sum_k M_k (-1)^{|k|} T_k(y - z).
        // Build a tiny local expansion about y and evaluate at y: L_0 is the
        // potential; L_{e_d} the gradient components.
        let t = self.derivative_tensor(y - z);
        let mut phi = 0.0;
        let mut grad = Vec3::ZERO;
        let dim = 2 * self.order + 1;
        let look = |m: [usize; 3]| -> u32 { self.lookup2[(m[0] * dim + m[1]) * dim + m[2]] };
        for (ki, k) in self.midx.iter().enumerate() {
            let sign = if (k[0] + k[1] + k[2]) % 2 == 0 { 1.0 } else { -1.0 };
            phi += multipole[ki]
                * sign
                * t[look([k[0] as usize, k[1] as usize, k[2] as usize]) as usize];
            for c in 0..3usize {
                let mut kc = [k[0] as usize, k[1] as usize, k[2] as usize];
                kc[c] += 1;
                grad[c] += multipole[ki] * sign * t[look(kc) as usize];
            }
        }
        (phi, -grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::systems::splitmix64;

    fn ops(p: usize) -> ExpansionOps {
        ExpansionOps::new(p)
    }

    /// The target-major pair-list M2L that [`ExpansionOps::m2l_with_tensor`]
    /// replaced, kept as its oracle: one `local[n] +=` through memory per
    /// `(n, k)` pair.
    fn m2l_pair_list(o: &ExpansionOps, local: &mut [f64], multipole: &[f64], t: &[f64]) {
        let dim = 2 * o.order + 1;
        for (ni, n) in o.midx.iter().enumerate() {
            let inv_nf = o.inv_fact[ni];
            for (ki, k) in o.midx.iter().enumerate() {
                let nk = [0, 1, 2].map(|c| (n[c] + k[c]) as usize);
                let ti = o.lookup2[(nk[0] * dim + nk[1]) * dim + nk[2]];
                let sign = if (k[0] + k[1] + k[2]) % 2 == 0 { 1.0 } else { -1.0 };
                let f: f64 = sign * inv_nf;
                local[ni] += f * multipole[ki] * t[ti as usize];
            }
        }
    }

    /// splitmix64 stream of coefficients for the M2L property test.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        /// A signed value of magnitude 1e-3..1e3, or — one draw in eight — a
        /// signed zero or a subnormal.
        fn coeff(&mut self) -> f64 {
            let h = self.next();
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            match (h >> 1) % 16 {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(1 + (self.next() >> 13)),
                _ => sign * 10f64.powf(6.0 * unit - 3.0),
            }
        }

        fn coeffs(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.coeff()).collect()
        }
    }

    /// Bit patterns, with every NaN folded to one: which operand's payload a
    /// NaN-with-NaN operation keeps is the code generator's choice.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
    }

    #[test]
    fn chunked_m2l_matches_the_pair_list_bit_for_bit() {
        // Orders 0..=10 cover every shape of the last chunk, from one stored
        // lane to a full one.
        let mut tails = std::collections::BTreeSet::new();
        for p in 0..=MAX_ORDER {
            let o = ops(p);
            let nc = o.len();
            tails.insert(nc % M2L_LANES);
            let mut gen = Gen(0x6d32_6c00 + p as u64);
            for case in 0..24 {
                let mut multipole = gen.coeffs(nc);
                let mut tensor = gen.coeffs(o.midx2.len());
                // Non-finite inputs, among them `T_0` and the last source
                // coefficient — what the padded lanes of the last chunk
                // multiply by zero: their NaN must stay in the padding.
                let at = gen.next() as usize;
                match case {
                    20 => tensor[0] = f64::INFINITY,
                    21 => multipole[nc - 1] = f64::NEG_INFINITY,
                    22 => tensor[at % o.midx2.len()] = f64::NAN,
                    23 => {
                        tensor[0] = f64::NAN;
                        multipole[at % nc] = f64::INFINITY;
                    }
                    _ => {}
                }
                // A non-zero starting expansion, then two translations
                // accumulated back to back.
                let mut got = gen.coeffs(nc);
                let mut want = got.clone();
                for round in 0..2 {
                    o.m2l_with_tensor(&mut got, &multipole, &tensor);
                    m2l_pair_list(&o, &mut want, &multipole, &tensor);
                    assert_eq!(bits(&got), bits(&want), "order {p}, case {case}, round {round}");
                    multipole.reverse();
                    tensor.rotate_left(1);
                }
                if case < 20 {
                    assert!(got.iter().all(|x| x.is_finite()), "order {p}, case {case}");
                }
            }
        }
        assert!(tails.len() > 1, "no order leaves a partial last chunk");
    }

    #[test]
    fn ncoeffs_formula() {
        assert_eq!(ncoeffs(0), 1);
        assert_eq!(ncoeffs(1), 4);
        assert_eq!(ncoeffs(2), 10);
        assert_eq!(ncoeffs(4), 35);
        for p in 0..=MAX_ORDER {
            assert_eq!(gen_midx(p).len(), ncoeffs(p));
            // One enumeration at every order: M2M / L2L look differences of
            // order-p multi-indices up in the order-2p table.
            assert_eq!(gen_midx(p)[..], gen_midx(2 * p)[..ncoeffs(p)]);
        }
    }

    #[test]
    fn midx_graded_and_unique() {
        let m = gen_midx(5);
        let mut seen = std::collections::HashSet::new();
        let mut prev_total = 0;
        for x in &m {
            let total = x[0] + x[1] + x[2];
            assert!(total as usize <= 5);
            assert!(total >= prev_total, "graded ordering");
            prev_total = total;
            assert!(seen.insert(*x), "duplicate multi-index");
        }
    }

    #[test]
    fn derivative_tensor_matches_symbolic() {
        let o = ops(2);
        let r = Vec3::new(1.3, -0.7, 2.1);
        let t = o.derivative_tensor(r);
        let rn = r.norm();
        let get = |m: [u8; 3]| -> f64 {
            let ix = o.midx2.iter().position(|&x| x == m).unwrap();
            t[ix]
        };
        // T_0 = 1/r
        assert!((get([0, 0, 0]) - 1.0 / rn).abs() < 1e-12);
        // T_{e_x} = -x/r^3
        assert!((get([1, 0, 0]) - (-r.x() / rn.powi(3))).abs() < 1e-12);
        // T_{2e_x} = 3x^2/r^5 - 1/r^3
        assert!(
            (get([2, 0, 0]) - (3.0 * r.x() * r.x() / rn.powi(5) - 1.0 / rn.powi(3))).abs() < 1e-12
        );
        // T_{e_x + e_y} = 3xy/r^5
        assert!((get([1, 1, 0]) - 3.0 * r.x() * r.y() / rn.powi(5)).abs() < 1e-12);
        // Mixed third derivative via finite differences of T_{1,1,0}.
        let h = 1e-6;
        let o4 = ops(2);
        let tp = o4.derivative_tensor(r + Vec3::new(0.0, 0.0, h));
        let tm = o4.derivative_tensor(r - Vec3::new(0.0, 0.0, h));
        let ix110 = o4.midx2.iter().position(|&x| x == [1, 1, 0]).unwrap();
        let fd = (tp[ix110] - tm[ix110]) / (2.0 * h);
        let ix111 = o4.midx2.iter().position(|&x| x == [1, 1, 1]).unwrap();
        assert!((o4.derivative_tensor(r)[ix111] - fd).abs() < 1e-5);
    }

    #[test]
    fn p2m_then_m2p_approximates_potential() {
        let o = ops(6);
        let z = Vec3::new(0.5, 0.5, 0.5);
        // Sources clustered near z.
        let srcs = [
            (Vec3::new(0.4, 0.55, 0.45), 1.0),
            (Vec3::new(0.6, 0.5, 0.62), -2.0),
            (Vec3::new(0.52, 0.38, 0.5), 1.5),
        ];
        let mut m = vec![0.0; o.len()];
        for &(x, q) in &srcs {
            o.p2m(&mut m, z, x, q);
        }
        // Evaluate far away.
        let y = Vec3::new(3.0, -2.0, 4.0);
        let (phi, field) = o.m2p(&m, z, y);
        let mut want_phi = 0.0;
        let mut want_field = Vec3::ZERO;
        for &(x, q) in &srcs {
            let d = y - x;
            want_phi += q / d.norm();
            want_field += d * (q / d.norm().powi(3));
        }
        assert!((phi - want_phi).abs() < 1e-8 * want_phi.abs().max(1.0), "{phi} vs {want_phi}");
        assert!((field - want_field).norm() < 1e-7);
    }

    #[test]
    fn m2m_preserves_far_potential() {
        let o = ops(5);
        let zc = Vec3::new(0.25, 0.25, 0.25);
        let zp = Vec3::new(0.5, 0.5, 0.5);
        let mut mc = vec![0.0; o.len()];
        o.p2m(&mut mc, zc, Vec3::new(0.2, 0.3, 0.22), 2.0);
        o.p2m(&mut mc, zc, Vec3::new(0.31, 0.2, 0.28), -1.0);
        let mut mp = vec![0.0; o.len()];
        o.m2m(&mut mp, &mc, zc, zp);
        let y = Vec3::new(5.0, 4.0, -3.0);
        let (phi_c, _) = o.m2p(&mc, zc, y);
        let (phi_p, _) = o.m2p(&mp, zp, y);
        // Both truncated expansions approximate the same potential; they
        // agree up to the truncation error of the coarser (parent) center.
        assert!((phi_c - phi_p).abs() < 1e-6 * phi_c.abs().max(1e-12), "{phi_c} vs {phi_p}");
    }

    #[test]
    fn m2l_then_l2p_matches_direct() {
        let o = ops(8);
        let z = Vec3::new(0.0, 0.0, 0.0);
        let w = Vec3::new(4.0, 0.0, 0.0); // well separated
        let srcs = [(Vec3::new(0.2, -0.1, 0.3), 1.0), (Vec3::new(-0.3, 0.2, -0.1), -1.5)];
        let mut m = vec![0.0; o.len()];
        for &(x, q) in &srcs {
            o.p2m(&mut m, z, x, q);
        }
        let mut l = vec![0.0; o.len()];
        o.m2l(&mut l, &m, z, w);
        let y = w + Vec3::new(0.3, -0.2, 0.25);
        let (phi, field) = o.l2p(&l, w, y);
        let mut want_phi = 0.0;
        let mut want_field = Vec3::ZERO;
        for &(x, q) in &srcs {
            let d = y - x;
            want_phi += q / d.norm();
            want_field += d * (q / d.norm().powi(3));
        }
        assert!((phi - want_phi).abs() < 1e-6 * want_phi.abs().max(0.1), "{phi} vs {want_phi}");
        assert!((field - want_field).norm() < 1e-5, "{field:?} vs {want_field:?}");
    }

    #[test]
    fn l2l_preserves_evaluation() {
        let o = ops(5);
        let z = Vec3::ZERO;
        let wp = Vec3::new(4.0, 4.0, 4.0);
        let wc = Vec3::new(4.4, 3.8, 4.2);
        let mut m = vec![0.0; o.len()];
        o.p2m(&mut m, z, Vec3::new(0.1, 0.2, -0.1), 1.0);
        let mut lp = vec![0.0; o.len()];
        o.m2l(&mut lp, &m, z, wp);
        let mut lc = vec![0.0; o.len()];
        o.l2l(&mut lc, &lp, wp, wc);
        // Evaluate near the child center with both expansions: the child
        // expansion is the translated parent, so they agree exactly (same
        // truncation space for L2L).
        let y = wc + Vec3::new(0.05, -0.08, 0.02);
        let (phi_p, _) = o.l2p(&lp, wp, y);
        let (phi_c, _) = o.l2p(&lc, wc, y);
        assert!((phi_p - phi_c).abs() < 1e-9 * phi_p.abs().max(1e-12));
    }

    #[test]
    fn accuracy_improves_with_order() {
        let z = Vec3::ZERO;
        let w = Vec3::new(3.0, 1.0, 0.5);
        let src = (Vec3::new(0.3, -0.35, 0.25), 1.0);
        let y = w + Vec3::new(0.3, 0.3, -0.3);
        let exact = 1.0 / (y - src.0).norm();
        let mut errs = Vec::new();
        for p in [1usize, 3, 5, 7] {
            let o = ops(p);
            let mut m = vec![0.0; o.len()];
            o.p2m(&mut m, z, src.0, src.1);
            let mut l = vec![0.0; o.len()];
            o.m2l(&mut l, &m, z, w);
            let (phi, _) = o.l2p(&l, w, y);
            errs.push((phi - exact).abs() / exact.abs());
        }
        for win in errs.windows(2) {
            assert!(win[1] < win[0], "error must decrease with order: {errs:?}");
        }
        assert!(errs.last().unwrap() < &1e-4, "{errs:?}");
    }
}
