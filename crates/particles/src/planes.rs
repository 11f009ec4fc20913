//! Structure-of-arrays byte-plane storage: the layout layer of the
//! zero-per-step-allocation redistribution path.
//!
//! A [`PlaneSet`] holds `len` particles' worth of any number of registered
//! *planes* — one contiguous slab per per-particle field (position, velocity,
//! charge, a user payload, ...), each with a fixed element **stride** in
//! bytes. Typed access ([`PlaneSet::plane`] / [`PlaneSet::plane_mut`]) is a
//! zero-copy slice view; byte access ([`PlaneSet::bytes`] /
//! [`PlaneSet::bytes_mut`]) exposes the same memory to layout-agnostic code,
//! which is what lets the redistribution layer (`atasp::resort_planes`) pack
//! **every** registered plane into one partner-ordered byte exchange instead
//! of one monomorphized exchange per field type.
//!
//! Every plane is double-buffered: a *front* slab (the current data) and a
//! *back* slab (the landing zone of an in-flight redistribution). An exchange
//! writes received elements into the back slabs through [`PlaneMut`] views
//! and then flips all planes at once with [`PlaneSet::commit`] — a pointer
//! swap, so the steady-state resort path allocates nothing once both slabs
//! have reached their high-water size.
//!
//! ## Stride contract
//!
//! A plane's stride is `size_of::<T>()` of its registered element type, and
//! the slab layout is exactly `len` back-to-back elements with **no padding
//! between elements** — the same bytes `Vec<T>` would hold. Types register
//! through the [`PlaneElem`] marker trait, whose safety contract (no interior
//! padding, alignment ≤ 8, every bit pattern valid) is what makes the
//! byte-level views sound. Slabs are 8-byte aligned; strides need not be
//! multiples of 8 (an `f32` plane is 4 bytes per element).

use crate::vec3::Vec3;
use std::any::TypeId;
use std::borrow::Cow;

/// Marker trait for types that may live in a [`PlaneSet`] plane.
///
/// # Safety
///
/// Implementors must guarantee all of:
///
/// * **No padding**: every byte of the value is initialized (the byte views
///   read all `size_of::<T>()` bytes of each element).
/// * **Alignment ≤ 8**: slabs are backed by `u64` words, which is the
///   strongest alignment a plane can offer.
/// * **Any bit pattern is a valid value**: elements travel through untyped
///   byte exchanges and are reinterpreted on arrival (this rules out `bool`,
///   `char`, enums and types with niches).
/// * `Copy + Default + 'static`: elements are plain old data.
pub unsafe trait PlaneElem: Copy + Default + 'static {}

// SAFETY: primitive numeric types have no padding, no niches, and alignment
// of at most 8 on every supported platform.
unsafe impl PlaneElem for f32 {}
unsafe impl PlaneElem for f64 {}
unsafe impl PlaneElem for u32 {}
unsafe impl PlaneElem for u64 {}
unsafe impl PlaneElem for i32 {}
unsafe impl PlaneElem for i64 {}
// SAFETY: `Vec3` is `repr(transparent)` over `[f64; 3]` — 24 padding-free
// bytes, align 8, every bit pattern a valid (if possibly NaN) vector.
unsafe impl PlaneElem for Vec3 {}

/// Handle to one registered plane of a [`PlaneSet`] (an index; `Copy`, cheap
/// to store beside the set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneId(usize);

impl PlaneId {
    /// The plane's position in registration order (also its index in
    /// [`PlaneSet::ids`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One registered plane: name, stride, element type, and the double slabs.
/// Slabs are `Vec<u64>` so every plane is 8-byte aligned regardless of its
/// element type.
#[derive(Clone)]
struct Plane {
    name: Cow<'static, str>,
    stride: usize,
    ty: TypeId,
    ty_name: &'static str,
    front: Vec<u64>,
    back: Vec<u64>,
}

/// Slab words needed to hold `bytes` bytes.
#[inline]
fn words(bytes: usize) -> usize {
    bytes.div_ceil(8)
}

/// The first `n` bytes of a slab, viewed as bytes.
#[inline]
fn slab_bytes(slab: &[u64], n: usize) -> &[u8] {
    debug_assert!(n <= slab.len() * 8);
    // SAFETY: `u64` has no padding and alignment 8 ≥ 1; the length is within
    // the slab's initialized region.
    unsafe { std::slice::from_raw_parts(slab.as_ptr().cast::<u8>(), n) }
}

/// The first `n` bytes of a slab, viewed as mutable bytes.
#[inline]
fn slab_bytes_mut(slab: &mut [u64], n: usize) -> &mut [u8] {
    debug_assert!(n <= slab.len() * 8);
    // SAFETY: as `slab_bytes`, with exclusive access inherited from `slab`.
    unsafe { std::slice::from_raw_parts_mut(slab.as_mut_ptr().cast::<u8>(), n) }
}

/// Structure-of-arrays particle storage: any number of named, typed,
/// double-buffered byte planes sharing one element count. See the module
/// docs for the layout and exchange lifecycle.
#[derive(Clone, Default)]
pub struct PlaneSet {
    len: usize,
    planes: Vec<Plane>,
}

impl PlaneSet {
    /// An empty set with no planes registered.
    pub fn new() -> PlaneSet {
        PlaneSet::default()
    }

    /// Register a new plane of element type `T` under `name`. All planes
    /// share the set's element count: a plane registered on a non-empty set
    /// starts with `len` default elements. Names are diagnostic (and
    /// resolvable via [`PlaneSet::id_of`]); duplicates are rejected. A
    /// literal name is kept as it is, with no allocation.
    pub fn register<T: PlaneElem>(&mut self, name: impl Into<Cow<'static, str>>) -> PlaneId {
        let name = name.into();
        assert!(
            std::mem::align_of::<T>() <= 8,
            "plane element type {} has alignment {} > 8",
            std::any::type_name::<T>(),
            std::mem::align_of::<T>()
        );
        assert!(self.id_of(&name).is_none(), "plane {name:?} registered twice");
        let stride = std::mem::size_of::<T>();
        assert!(stride > 0, "zero-sized plane element type");
        self.planes.push(Plane {
            name,
            stride,
            ty: TypeId::of::<T>(),
            ty_name: std::any::type_name::<T>(),
            front: vec![0; words(self.len * stride)],
            back: Vec::new(),
        });
        PlaneId(self.planes.len() - 1)
    }

    /// Number of elements (particles) in every plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty (no elements)?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of registered planes.
    #[inline]
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// All plane ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = PlaneId> + '_ {
        (0..self.planes.len()).map(PlaneId)
    }

    /// The `i`-th plane's id, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= plane_count()`.
    pub fn id_at(&self, i: usize) -> PlaneId {
        assert!(i < self.planes.len(), "plane index {i} out of range");
        PlaneId(i)
    }

    /// Resolve a plane by name.
    pub fn id_of(&self, name: &str) -> Option<PlaneId> {
        self.planes.iter().position(|p| p.name == name).map(PlaneId)
    }

    /// The plane's registered name.
    pub fn name(&self, id: PlaneId) -> &str {
        &self.planes[id.0].name
    }

    /// The plane's element stride in bytes.
    #[inline]
    pub fn stride(&self, id: PlaneId) -> usize {
        self.planes[id.0].stride
    }

    /// Sum of all plane strides: the packed payload bytes one element
    /// contributes to a full-set exchange.
    pub fn element_bytes(&self) -> usize {
        self.planes.iter().map(|p| p.stride).sum()
    }

    fn check_type<T: PlaneElem>(&self, id: PlaneId) {
        let p = &self.planes[id.0];
        assert!(
            p.ty == TypeId::of::<T>(),
            "plane {:?} holds {} elements, accessed as {}",
            p.name,
            p.ty_name,
            std::any::type_name::<T>()
        );
    }

    /// Typed view of a plane's current (front) elements.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the plane's registered element type.
    pub fn plane<T: PlaneElem>(&self, id: PlaneId) -> &[T] {
        self.check_type::<T>(id);
        let p = &self.planes[id.0];
        // SAFETY: the slab holds `len` stride-sized elements written either
        // as `T` (via `plane_mut`) or as bytes; `PlaneElem` guarantees every
        // bit pattern is valid `T`, alignment 8 ≥ align_of::<T>.
        unsafe { std::slice::from_raw_parts(p.front.as_ptr().cast::<T>(), self.len) }
    }

    /// Mutable typed view of a plane's current (front) elements.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the plane's registered element type.
    pub fn plane_mut<T: PlaneElem>(&mut self, id: PlaneId) -> &mut [T] {
        self.check_type::<T>(id);
        let len = self.len;
        let p = &mut self.planes[id.0];
        // SAFETY: as `plane`, with exclusive access inherited from `self`.
        unsafe { std::slice::from_raw_parts_mut(p.front.as_mut_ptr().cast::<T>(), len) }
    }

    /// Byte view of a plane's current (front) elements: exactly
    /// `len * stride` bytes, element `i` at `i * stride`.
    pub fn bytes(&self, id: PlaneId) -> &[u8] {
        let p = &self.planes[id.0];
        slab_bytes(&p.front, self.len * p.stride)
    }

    /// Mutable byte view of a plane's current (front) elements.
    pub fn bytes_mut(&mut self, id: PlaneId) -> &mut [u8] {
        let len = self.len;
        let p = &mut self.planes[id.0];
        slab_bytes_mut(&mut p.front, len * p.stride)
    }

    /// Simultaneous mutable access to plane `a` and shared access to a
    /// *different* plane `b` — the split borrow an integrator needs to
    /// update one field from another (`vel[i] += accel[i] * dt`) without
    /// copying either plane out of the set.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` name the same plane or a type does not match
    /// its plane's registered element type.
    pub fn plane_pair_mut<A: PlaneElem, B: PlaneElem>(
        &mut self,
        a: PlaneId,
        b: PlaneId,
    ) -> (&mut [A], &[B]) {
        assert_ne!(a.0, b.0, "plane_pair_mut requires two distinct planes");
        self.check_type::<A>(a);
        self.check_type::<B>(b);
        let len = self.len;
        let (lo, hi) = self.planes.split_at_mut(a.0.max(b.0));
        let (pa, pb) = if a.0 < b.0 { (&mut lo[a.0], &hi[0]) } else { (&mut hi[0], &lo[b.0]) };
        // SAFETY: as `plane`/`plane_mut`; the split borrow guarantees the two
        // slabs are disjoint.
        unsafe {
            (
                std::slice::from_raw_parts_mut(pa.front.as_mut_ptr().cast::<A>(), len),
                std::slice::from_raw_parts(pb.front.as_ptr().cast::<B>(), len),
            )
        }
    }

    /// Read-only accessor over all planes (stride + front bytes), for
    /// layout-agnostic packing code.
    pub fn planes(&self) -> Planes<'_> {
        Planes { set: self }
    }

    /// Resize every plane to `n` elements; new elements are zero bytes
    /// (`T::default()` for all [`PlaneElem`] implementors).
    pub fn resize(&mut self, n: usize) {
        for p in &mut self.planes {
            p.front.resize(words(n * p.stride), 0);
            if !(n * p.stride).is_multiple_of(8) {
                // Clear the tail of the last word so byte-level comparisons
                // of equal sets are deterministic after shrink/grow cycles.
                let bytes = n * p.stride;
                let total = p.front.len() * 8;
                let tail = slab_bytes_mut(&mut p.front, total);
                tail[bytes..].fill(0);
            }
        }
        self.len = n;
    }

    /// Exchange view of one plane: the front bytes of the current `len`
    /// elements to pack *from*, and the back bytes of `new_len` elements to
    /// place *into*. Call once per plane, place the received elements, then
    /// flip all planes with [`PlaneSet::commit`]`(new_len)`.
    pub fn exchange_view(&mut self, id: PlaneId, new_len: usize) -> PlaneMut<'_> {
        let len = self.len;
        let p = &mut self.planes[id.0];
        p.back.resize(words(new_len * p.stride), 0);
        PlaneMut {
            front: slab_bytes(&p.front, len * p.stride),
            back: slab_bytes_mut(&mut p.back, new_len * p.stride),
            stride: p.stride,
        }
    }

    /// Flip every plane's back slab to the front and set the element count to
    /// `new_len` — the commit point of a redistribution. A pointer swap per
    /// plane: no bytes move, nothing allocates. The old front slabs become
    /// the next exchange's landing zones (they are *not* cleared; every
    /// position must be written by the next place pass).
    pub fn commit(&mut self, new_len: usize) {
        for p in &mut self.planes {
            p.back.resize(words(new_len * p.stride), 0);
            std::mem::swap(&mut p.front, &mut p.back);
        }
        self.len = new_len;
    }

    /// Reorder every plane in place so element `i` moves to position
    /// `perm[i]` (scatter semantics, like `set::scatter`). Uses the back
    /// slabs as scratch — no allocation in steady state.
    pub fn scatter_permute(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.len, "permutation length mismatch");
        let len = self.len;
        for p in &mut self.planes {
            p.back.resize(words(len * p.stride), 0);
            let src = slab_bytes(&p.front, len * p.stride);
            let dst = slab_bytes_mut(&mut p.back, len * p.stride);
            let s = p.stride;
            for (i, &t) in perm.iter().enumerate() {
                dst[t * s..(t + 1) * s].copy_from_slice(&src[i * s..(i + 1) * s]);
            }
            std::mem::swap(&mut p.front, &mut p.back);
        }
    }

    /// Reorder every plane in place so position `i` receives element
    /// `order[i]` (gather semantics, like `set::gather`). Uses the back
    /// slabs as scratch — no allocation in steady state.
    pub fn gather_permute(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.len, "permutation length mismatch");
        let len = self.len;
        for p in &mut self.planes {
            p.back.resize(words(len * p.stride), 0);
            let src = slab_bytes(&p.front, len * p.stride);
            let dst = slab_bytes_mut(&mut p.back, len * p.stride);
            let s = p.stride;
            for (i, &o) in order.iter().enumerate() {
                dst[i * s..(i + 1) * s].copy_from_slice(&src[o * s..(o + 1) * s]);
            }
            std::mem::swap(&mut p.front, &mut p.back);
        }
    }
}

impl PartialEq for PlaneSet {
    /// Logical equality: same element count, same planes (name, stride, type)
    /// in the same order, same front bytes. Back slabs and slab tail padding
    /// are storage details and do not participate.
    fn eq(&self, other: &PlaneSet) -> bool {
        self.len == other.len
            && self.planes.len() == other.planes.len()
            && self.planes.iter().zip(&other.planes).all(|(a, b)| {
                a.name == b.name
                    && a.stride == b.stride
                    && a.ty == b.ty
                    && slab_bytes(&a.front, self.len * a.stride)
                        == slab_bytes(&b.front, other.len * b.stride)
            })
    }
}

impl std::fmt::Debug for PlaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("PlaneSet");
        d.field("len", &self.len);
        for p in &self.planes {
            d.field(&p.name, &format_args!("{} x{}B", p.ty_name, p.stride));
        }
        d.finish()
    }
}

/// Read-only accessor over all planes of a [`PlaneSet`]: the layout-agnostic
/// face the packing side of a byte exchange programs against.
pub struct Planes<'a> {
    set: &'a PlaneSet,
}

impl Planes<'_> {
    /// Number of planes.
    pub fn count(&self) -> usize {
        self.set.plane_count()
    }

    /// Element count shared by all planes.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Is the underlying set empty?
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The `i`-th plane's stride in bytes (registration order).
    pub fn stride(&self, i: usize) -> usize {
        self.set.stride(PlaneId(i))
    }

    /// The `i`-th plane's front bytes (registration order).
    pub fn bytes(&self, i: usize) -> &[u8] {
        self.set.bytes(PlaneId(i))
    }

    /// Sum of all plane strides (packed payload bytes per element).
    pub fn element_bytes(&self) -> usize {
        self.set.element_bytes()
    }
}

/// Exchange view of one plane: pack outgoing elements from `front`, place
/// received elements into `back`, then [`PlaneSet::commit`]. Element `i` of
/// either side occupies `stride` bytes at offset `i * stride`.
pub struct PlaneMut<'a> {
    /// Current elements (the pack source), `len * stride` bytes.
    pub front: &'a [u8],
    /// Landing zone for the incoming elements, `new_len * stride` bytes.
    pub back: &'a mut [u8],
    /// Bytes per element.
    pub stride: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_typed_roundtrip() {
        let mut set = PlaneSet::new();
        let pos = set.register::<Vec3>("pos");
        let q = set.register::<f64>("charge");
        let id = set.register::<u64>("id");
        set.resize(3);
        set.plane_mut::<Vec3>(pos).copy_from_slice(&[
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::splat(4.0),
            Vec3::ZERO,
        ]);
        set.plane_mut::<f64>(q).copy_from_slice(&[-1.0, 1.0, 0.5]);
        set.plane_mut::<u64>(id).copy_from_slice(&[7, 8, 9]);
        assert_eq!(set.plane::<Vec3>(pos)[1], Vec3::splat(4.0));
        assert_eq!(set.plane::<f64>(q), &[-1.0, 1.0, 0.5]);
        assert_eq!(set.plane::<u64>(id), &[7, 8, 9]);
        assert_eq!(set.stride(pos), 24);
        assert_eq!(set.stride(q), 8);
        assert_eq!(set.element_bytes(), 24 + 8 + 8);
        assert_eq!(set.id_of("charge"), Some(q));
        assert_eq!(set.name(id), "id");
    }

    #[test]
    fn byte_view_matches_typed_view() {
        let mut set = PlaneSet::new();
        let q = set.register::<f64>("q");
        set.resize(2);
        set.plane_mut::<f64>(q).copy_from_slice(&[1.5, -2.5]);
        let bytes = set.bytes(q);
        assert_eq!(bytes.len(), 16);
        assert_eq!(&bytes[0..8], &1.5f64.to_le_bytes());
        assert_eq!(&bytes[8..16], &(-2.5f64).to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "accessed as")]
    fn typed_access_checks_element_type() {
        let mut set = PlaneSet::new();
        let q = set.register::<f64>("q");
        set.resize(1);
        let _ = set.plane::<u64>(q);
    }

    #[test]
    fn odd_stride_planes_pack_densely() {
        let mut set = PlaneSet::new();
        let a = set.register::<f32>("a");
        set.resize(3); // 12 bytes: not a multiple of the 8-byte slab word
        set.plane_mut::<f32>(a).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(set.bytes(a).len(), 12);
        assert_eq!(set.plane::<f32>(a), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn exchange_view_and_commit_flip_slabs() {
        let mut set = PlaneSet::new();
        let q = set.register::<f64>("q");
        let id = set.register::<u64>("id");
        set.resize(2);
        set.plane_mut::<f64>(q).copy_from_slice(&[10.0, 20.0]);
        set.plane_mut::<u64>(id).copy_from_slice(&[1, 2]);
        // "Exchange": reverse the elements into the back slabs, one extra row.
        for pid in [q, id] {
            let v = set.exchange_view(pid, 3);
            let s = v.stride;
            v.back[0..s].copy_from_slice(&v.front[s..2 * s]);
            v.back[s..2 * s].copy_from_slice(&v.front[0..s]);
            v.back[2 * s..3 * s].fill(0);
        }
        set.commit(3);
        assert_eq!(set.len(), 3);
        assert_eq!(set.plane::<f64>(q), &[20.0, 10.0, 0.0]);
        assert_eq!(set.plane::<u64>(id), &[2, 1, 0]);
    }

    #[test]
    fn permutations_match_set_module_semantics() {
        let mut set = PlaneSet::new();
        let id = set.register::<u64>("id");
        set.resize(4);
        set.plane_mut::<u64>(id).copy_from_slice(&[10, 20, 30, 40]);
        let perm = [2, 0, 3, 1];
        set.scatter_permute(&perm);
        assert_eq!(set.plane::<u64>(id), &[20, 40, 10, 30]);
        set.gather_permute(&perm);
        assert_eq!(set.plane::<u64>(id), &[10, 20, 30, 40]);
    }

    #[test]
    fn equality_is_logical_not_physical() {
        let mut a = PlaneSet::new();
        let qa = a.register::<f64>("q");
        a.resize(1);
        a.plane_mut::<f64>(qa)[0] = 3.5;
        // b reaches the same state through a grow/shrink cycle, leaving
        // different slab capacities behind.
        let mut b = PlaneSet::new();
        let qb = b.register::<f64>("q");
        b.resize(64);
        b.resize(1);
        b.plane_mut::<f64>(qb)[0] = 3.5;
        assert_eq!(a, b);
        b.plane_mut::<f64>(qb)[0] = -3.5;
        assert_ne!(a, b);
    }

    #[test]
    fn plane_pair_mut_splits_in_either_order() {
        let mut set = PlaneSet::new();
        let v = set.register::<Vec3>("vel");
        let q = set.register::<f64>("q");
        set.resize(2);
        set.plane_mut::<f64>(q).copy_from_slice(&[2.0, 3.0]);
        let (vel, charge) = set.plane_pair_mut::<Vec3, f64>(v, q);
        for (x, c) in vel.iter_mut().zip(charge) {
            *x = Vec3::splat(*c);
        }
        assert_eq!(set.plane::<Vec3>(v), &[Vec3::splat(2.0), Vec3::splat(3.0)]);
        let (charge, vel) = set.plane_pair_mut::<f64, Vec3>(q, v);
        for (c, x) in charge.iter_mut().zip(vel) {
            *c += x.x();
        }
        assert_eq!(set.plane::<f64>(q), &[4.0, 6.0]);
    }

    #[test]
    fn registering_on_nonempty_set_zero_fills() {
        let mut set = PlaneSet::new();
        let q = set.register::<f64>("q");
        set.resize(2);
        set.plane_mut::<f64>(q).copy_from_slice(&[1.0, 2.0]);
        let v = set.register::<Vec3>("vel");
        assert_eq!(set.plane::<Vec3>(v), &[Vec3::ZERO, Vec3::ZERO]);
        assert_eq!(set.plane::<f64>(q), &[1.0, 2.0]);
    }
}
