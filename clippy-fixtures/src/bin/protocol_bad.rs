//! Fails with: clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants
//! Wildcard arms that would swallow a new variant (protocol-conformance):
//! one in a receive loop, one in a codec covering a single variant.

enum Msg {
    Work(u32),
    Probe,
    Ack,
    Stop,
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn run_worker(inbox: Vec<Msg>) -> u32 {
    let mut done = 0;
    for msg in inbox {
        match msg {
            Msg::Work(n) => done += n,
            Msg::Stop => break,
            _ => {}
        }
    }
    done
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn wire_size(msg: &Msg) -> usize {
    match msg {
        Msg::Work(_) => 5,
        Msg::Probe | Msg::Ack => 1,
        _ => 1,
    }
}

fn main() {
    let inbox = vec![Msg::Work(1), Msg::Probe, Msg::Ack, Msg::Stop];
    println!("{} {}", wire_size(&inbox[0]), run_worker(inbox));
}
