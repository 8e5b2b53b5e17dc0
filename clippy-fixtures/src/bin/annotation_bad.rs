//! Fails with: clippy::allow_attributes, clippy::allow_attributes_without_reason
//! A reason-less `#[allow]` (annotation).

#[allow(clippy::needless_range_loop)]
fn sum(xs: &[u64]) -> u64 {
    let mut s = 0;
    for i in 0..xs.len() {
        s += xs[i];
    }
    s
}

fn main() {
    println!("{}", sum(&[1, 2]));
}
