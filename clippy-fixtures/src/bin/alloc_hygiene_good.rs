//! Ordinary allocation goes through the global (counting) allocator.

fn main() {
    let mut v: Vec<u64> = Vec::with_capacity(8);
    v.push(1);
    println!("{v:?} {}", Box::new(2));
}
