//! Fails with: unfulfilled_lint_expectations
//! An `#[expect]` whose lint no longer fires (annotation).

#[expect(clippy::needless_range_loop, reason = "the loop was rewritten since")]
fn sum(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

fn main() {
    println!("{}", sum(&[1, 2]));
}
