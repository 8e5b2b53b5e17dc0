// Known-bad fixture: a reason-less allow (malformed), an allow naming a
// rule that does not exist, and one naming a rule clippy now owns.
fn f() {
    // lint: allow(atomics-ordering)
    X.load(Ordering::Relaxed);
    // lint: allow(no-such-rule) looks fine but the rule id is unknown
    let _ = 1;
    // lint: allow(panic-hygiene) clippy::unwrap_used enforces this now
    let _ = 2;
}
