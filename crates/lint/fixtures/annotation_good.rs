// Known-good fixture: a well-formed allow suppresses the finding on the
// next line and shows up in the suppression summary.
fn f() {
    // lint: allow(atomics-ordering) fixture: pure statistical counter
    X.fetch_add(1, Ordering::Relaxed);
    Y.load(Ordering::Relaxed); // lint: allow(atomics-ordering) fixture: same-line form
}
