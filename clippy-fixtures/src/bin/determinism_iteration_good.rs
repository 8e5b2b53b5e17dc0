//! Ordered containers: emitted lines are order-stable by construction.

use std::collections::BTreeMap;

fn main() {
    let lines: BTreeMap<&str, u64> = [("a", 1), ("b", 2)].into();
    for (k, v) in &lines {
        println!("{k}={v}");
    }
}
