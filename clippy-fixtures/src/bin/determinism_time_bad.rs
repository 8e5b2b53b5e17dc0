//! Fails with: clippy::disallowed_methods
//! Wall-clock reads outside a metering site (determinism-time).

fn main() {
    let started = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    println!("{:?}", started.elapsed());
}
