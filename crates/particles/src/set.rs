//! Particle containers.
//!
//! A [`ParticleSet`] is the structure-of-arrays view of the particle data the
//! coupling library transports: positions and charges on input, potential and
//! field values on output. Every particle carries a global id so tests can
//! verify ordering/distribution properties exactly; ids are also the basis of
//! the "consecutive numbering" the FMM solver uses to restore the original
//! order (paper, Sect. III-A).
//!
//! Since the byte-plane rework, a `ParticleSet` is a thin typed facade over a
//! [`PlaneSet`](crate::PlaneSet) with three registered planes (`"pos"`,
//! `"charge"`, `"id"`). The typed accessors ([`ParticleSet::pos`],
//! [`ParticleSet::charge`], [`ParticleSet::id`] and their `_mut` twins) are
//! zero-copy slice views into the plane slabs, and
//! [`ParticleSet::plane_set_mut`] hands the whole storage to layout-agnostic
//! redistribution code (`atasp::resort_planes`) so all three fields travel in
//! one byte exchange.

use crate::planes::{PlaneId, PlaneSet};
use crate::vec3::Vec3;

/// Structure-of-arrays particle data: positions, charges and global ids,
/// stored as three byte planes of a [`PlaneSet`].
#[derive(Clone, PartialEq)]
pub struct ParticleSet {
    planes: PlaneSet,
    pos: PlaneId,
    charge: PlaneId,
    id: PlaneId,
}

impl Default for ParticleSet {
    fn default() -> Self {
        let mut planes = PlaneSet::new();
        let pos = planes.register::<Vec3>("pos");
        let charge = planes.register::<f64>("charge");
        let id = planes.register::<u64>("id");
        ParticleSet { planes, pos, charge, id }
    }
}

impl ParticleSet {
    /// An empty set. (Capacity is a hint retained for API compatibility; the
    /// plane slabs grow amortized on push like `Vec`.)
    pub fn with_capacity(_n: usize) -> Self {
        ParticleSet::default()
    }

    /// Build a set from its three component arrays (which must be the same
    /// length).
    pub fn from_parts(pos: Vec<Vec3>, charge: Vec<f64>, id: Vec<u64>) -> Self {
        assert_eq!(pos.len(), charge.len(), "pos/charge length mismatch");
        assert_eq!(pos.len(), id.len(), "pos/id length mismatch");
        let mut s = ParticleSet::default();
        s.planes.resize(pos.len());
        s.pos_mut().copy_from_slice(&pos);
        s.charge_mut().copy_from_slice(&charge);
        s.id_mut().copy_from_slice(&id);
        s
    }

    /// Decompose the set into its three component arrays (copies the planes
    /// out into owned `Vec`s).
    pub fn into_parts(self) -> (Vec<Vec3>, Vec<f64>, Vec<u64>) {
        (self.pos().to_vec(), self.charge().to_vec(), self.id().to_vec())
    }

    /// Number of local particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Particle positions.
    #[inline]
    pub fn pos(&self) -> &[Vec3] {
        self.planes.plane::<Vec3>(self.pos)
    }

    /// Mutable particle positions.
    #[inline]
    pub fn pos_mut(&mut self) -> &mut [Vec3] {
        self.planes.plane_mut::<Vec3>(self.pos)
    }

    /// Particle charges.
    #[inline]
    pub fn charge(&self) -> &[f64] {
        self.planes.plane::<f64>(self.charge)
    }

    /// Mutable particle charges.
    #[inline]
    pub fn charge_mut(&mut self) -> &mut [f64] {
        self.planes.plane_mut::<f64>(self.charge)
    }

    /// Global particle ids (unique across all ranks).
    #[inline]
    pub fn id(&self) -> &[u64] {
        self.planes.plane::<u64>(self.id)
    }

    /// Mutable global particle ids.
    #[inline]
    pub fn id_mut(&mut self) -> &mut [u64] {
        self.planes.plane_mut::<u64>(self.id)
    }

    /// The underlying plane storage, for layout-agnostic redistribution
    /// (`atasp::resort_planes`). The three core planes are registered as
    /// `"pos"`, `"charge"` and `"id"`; callers may register additional
    /// payload planes, which then travel in the same byte exchange.
    pub fn plane_set_mut(&mut self) -> &mut PlaneSet {
        &mut self.planes
    }

    /// Append one particle.
    pub fn push(&mut self, pos: Vec3, charge: f64, id: u64) {
        let n = self.planes.len();
        self.planes.resize(n + 1);
        self.pos_mut()[n] = pos;
        self.charge_mut()[n] = charge;
        self.id_mut()[n] = id;
    }

    /// Append all particles of `other`.
    pub fn extend(&mut self, other: &ParticleSet) {
        let n = self.planes.len();
        let m = other.len();
        self.planes.resize(n + m);
        self.pos_mut()[n..].copy_from_slice(other.pos());
        self.charge_mut()[n..].copy_from_slice(other.charge());
        self.id_mut()[n..].copy_from_slice(other.id());
    }

    /// Drop all particles, keeping plane capacity.
    pub fn clear(&mut self) {
        self.planes.resize(0);
    }

    /// Total charge of the local particles.
    pub fn total_charge(&self) -> f64 {
        self.charge().iter().sum()
    }

    /// Reorder all planes in place so element `i` moves to position `perm[i]`
    /// (a "scatter" permutation). `perm` must be a permutation of `0..len`.
    pub fn scatter_permute(&mut self, perm: &[usize]) {
        self.planes.scatter_permute(perm);
    }

    /// Reorder all planes in place so position `i` receives element `order[i]`
    /// (a "gather" permutation). `order` must be a permutation of `0..len`.
    pub fn gather_permute(&mut self, order: &[usize]) {
        self.planes.gather_permute(order);
    }
}

impl std::fmt::Debug for ParticleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticleSet")
            .field("pos", &self.pos())
            .field("charge", &self.charge())
            .field("id", &self.id())
            .finish()
    }
}

/// `out[perm[i]] = data[i]` — scatter by target position.
pub fn scatter<T: Copy + Default>(data: &[T], perm: &[usize]) -> Vec<T> {
    debug_assert_eq!(data.len(), perm.len());
    let mut out = vec![T::default(); data.len()];
    for (i, &p) in perm.iter().enumerate() {
        out[p] = data[i];
    }
    out
}

/// `out[i] = data[order[i]]` — gather by source position.
pub fn gather<T: Copy + Default>(data: &[T], order: &[usize]) -> Vec<T> {
    debug_assert_eq!(data.len(), order.len());
    order.iter().map(|&o| data[o]).collect()
}

/// Invert a permutation: if `perm[i] = j`, the result maps `j -> i`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        debug_assert!(inv[p] == usize::MAX, "not a permutation");
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParticleSet {
        let mut s = ParticleSet::default();
        for i in 0..5 {
            s.push(Vec3::splat(i as f64), (-1.0f64).powi(i), 100 + i as u64);
        }
        s
    }

    #[test]
    fn push_and_len() {
        let s = sample();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.id(), &[100, 101, 102, 103, 104]);
        assert_eq!(s.total_charge(), 1.0);
    }

    #[test]
    fn scatter_gather_inverse() {
        let data = [10, 20, 30, 40];
        let perm = [2, 0, 3, 1];
        let scattered = scatter(&data, &perm);
        assert_eq!(scattered, vec![20, 40, 10, 30]);
        let back = gather(&scattered, &perm);
        assert_eq!(back, data.to_vec());
    }

    #[test]
    fn permutation_inversion() {
        let perm = [2, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        // scatter by perm == gather by inverse
        let data = [1, 2, 3, 4];
        assert_eq!(scatter(&data, &perm), gather(&data, &inv));
    }

    #[test]
    fn set_permutations_consistent_across_fields() {
        let mut s = sample();
        let perm = [4, 2, 0, 1, 3];
        s.scatter_permute(&perm);
        assert_eq!(s.id(), &[102, 103, 101, 104, 100]);
        assert_eq!(s.pos()[0], Vec3::splat(2.0));
        let inv = invert_permutation(&perm);
        s.scatter_permute(&inv);
        assert_eq!(s, sample());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = sample();
        let b = sample();
        a.extend(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.id()[5], 100);
    }

    #[test]
    fn parts_roundtrip() {
        let s = sample();
        let (pos, charge, id) = s.clone().into_parts();
        let back = ParticleSet::from_parts(pos, charge, id);
        assert_eq!(back, s);
    }

    #[test]
    fn core_planes_are_registered_by_name() {
        let mut s = sample();
        let ps = s.plane_set_mut();
        assert!(ps.id_of("pos").is_some());
        assert!(ps.id_of("charge").is_some());
        assert!(ps.id_of("id").is_some());
        assert_eq!(ps.element_bytes(), 24 + 8 + 8);
    }
}
