//! Fixture: a reference's own pointer, cast without `as`, is not
//! arithmetic; and where `unsafe` is banned, `.add(` is another type's
//! method, since a pointer's `add` is an `unsafe` fn.

struct Tally(u64);

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.0 += other.0;
    }
}

fn merge(total: &mut Tally, part: &Tally) {
    total.add(part);
}

fn doubles(pair: &[(f64, f64); 2]) -> *const f64 {
    pair.as_ptr().cast()
}
