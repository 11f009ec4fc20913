//! A minimal 3D vector of `f64`, sized and laid out like `[f64; 3]` so whole
//! particle buffers can be shipped between ranks without conversion.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3D vector (position, velocity, acceleration, field value, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(transparent)]
pub struct Vec3(pub [f64; 3]);

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3([0.0; 3]);

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3([x, y, z])
    }

    /// All components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3([v, v, v])
    }

    /// The x component.
    #[inline]
    pub fn x(&self) -> f64 {
        self.0[0]
    }

    /// The y component.
    #[inline]
    pub fn y(&self) -> f64 {
        self.0[1]
    }

    /// The z component.
    #[inline]
    pub fn z(&self) -> f64 {
        self.0[2]
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, o: &Vec3) -> f64 {
        self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm2().sqrt()
    }

    /// Maximum absolute component (Chebyshev norm).
    #[inline]
    pub fn max_abs(&self) -> f64 {
        self.0.iter().map(|c| c.abs()).fold(0.0, f64::max)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.0[0] += o.0[0];
        self.0[1] += o.0[1];
        self.0[2] += o.0[2];
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.0[0] -= o.0[0];
        self.0[1] -= o.0[1];
        self.0[2] -= o.0[2];
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3([self.0[0] / s, self.0[1] / s, self.0[2] / s])
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3([-self.0[0], -self.0[1], -self.0[2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.norm2(), 14.0);
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
        assert_eq!(Vec3::new(-7.0, 2.0, 3.0).max_abs(), 7.0);
    }

    #[test]
    fn layout_matches_array() {
        assert_eq!(std::mem::size_of::<Vec3>(), 24);
        assert_eq!(std::mem::align_of::<Vec3>(), std::mem::align_of::<f64>());
    }

    #[test]
    fn index_access() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[1], 2.0);
        v[2] = 9.0;
        assert_eq!(v.z(), 9.0);
    }
}
