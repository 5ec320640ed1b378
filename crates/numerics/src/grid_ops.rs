//! Element-wise arithmetic operators for grids.
//!
//! Objective assembly combines many same-shaped fields (`G = α·G₁ +
//! β·G₂`, `D = Z − Z_t`, …). These `std::ops` impls keep that code close
//! to the math. All binary operators panic on shape mismatch, like every
//! other same-shape operation in this crate.

use crate::grid::Grid;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt, $t:ty) => {
        impl $trait for &Grid<$t> {
            type Output = Grid<$t>;
            /// # Panics
            ///
            /// Panics if the grid shapes differ.
            fn $method(self, rhs: &Grid<$t>) -> Grid<$t> {
                self.zip_map(rhs, |&a, &b| a $op b)
            }
        }
    };
}

elementwise_binop!(Add, add, +, f64);
elementwise_binop!(Sub, sub, -, f64);
elementwise_binop!(Mul, mul, *, f64);

macro_rules! elementwise_assign {
    ($trait:ident, $method:ident, $op:tt, $t:ty) => {
        impl $trait<&Grid<$t>> for Grid<$t> {
            /// # Panics
            ///
            /// Panics if the grid shapes differ.
            fn $method(&mut self, rhs: &Grid<$t>) {
                assert_eq!(self.dims(), rhs.dims(), "grid shape mismatch");
                for (a, b) in self.iter_mut().zip(rhs.iter()) {
                    *a $op *b;
                }
            }
        }
    };
}

elementwise_assign!(AddAssign, add_assign, +=, f64);
elementwise_assign!(SubAssign, sub_assign, -=, f64);
elementwise_assign!(MulAssign, mul_assign, *=, f64);

impl Mul<f64> for &Grid<f64> {
    type Output = Grid<f64>;
    fn mul(self, rhs: f64) -> Grid<f64> {
        self.map(|&v| v * rhs)
    }
}

impl Neg for &Grid<f64> {
    type Output = Grid<f64>;
    fn neg(self) -> Grid<f64> {
        self.map(|&v| -v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Grid<f64> {
        Grid::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).expect("2x2")
    }

    fn b() -> Grid<f64> {
        Grid::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]).expect("2x2")
    }

    #[test]
    fn real_binary_operators() {
        assert_eq!((&a() + &b()).as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!((&b() - &a()).as_slice(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!((&a() * &a()).as_slice(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!((&a() * 2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!((-&a()).as_slice(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn real_assign_operators() {
        let mut g = a();
        g += &b();
        assert_eq!(g.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        g -= &b();
        assert_eq!(g.as_slice(), a().as_slice());
        g *= &a();
        assert_eq!(g.as_slice(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let wide = Grid::<f64>::zeros(3, 1);
        let _ = &a() + &wide;
    }
}
