//! A fulfilled `#[expect]` with a reason.

#[expect(clippy::needless_range_loop, reason = "`i` is a worker id")]
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
