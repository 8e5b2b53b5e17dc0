//! Fails with: clippy::disallowed_types
//! Hash containers feeding emitted lines (determinism-iteration).

use std::collections::{HashMap, HashSet};

fn main() {
    let lines: HashMap<&str, u64> = [("a", 1), ("b", 2)].into();
    let seen: HashSet<u64> = lines.values().copied().collect();
    for (k, v) in &lines {
        println!("{k}={v} seen={}", seen.len());
    }
}
