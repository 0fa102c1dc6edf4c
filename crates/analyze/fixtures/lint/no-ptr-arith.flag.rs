//! Fixture: a reference cast to a raw pointer of another type, the
//! first step of unchecked pointer arithmetic.

fn doubles(xs: &[(f64, f64)]) -> *const f64 {
    xs.as_ptr() as *const f64
}
