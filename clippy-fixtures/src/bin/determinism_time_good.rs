//! A metering site: the wall-clock read is expected, with a reason.
//! Mentions of `Instant::now` in comments and strings never fire.

#![expect(clippy::disallowed_methods, reason = "fixture: a measurement")]

fn main() {
    let started = std::time::Instant::now();
    println!("Instant::now() measured {:?}", started.elapsed());
}
