//! Every variant has an explicit arm; grouping variants in a named
//! log-and-drop arm is fine, only wildcards are not.

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
            Msg::Probe | Msg::Ack => eprintln!("dropping a control message"),
        }
    }
    done
}

fn main() {
    let inbox = vec![Msg::Work(1), Msg::Probe, Msg::Ack, Msg::Stop];
    println!("{}", run_worker(inbox));
}
