//! Fails with: clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable
//! Panics and unwraps in a message loop (panic-hygiene).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

fn mailbox(inbox: &[Option<u32>]) -> u32 {
    let first = inbox[0].unwrap();
    let second = inbox[1].expect("second message");
    match first + second {
        0 => panic!("empty batch"),
        n if n > 100 => unreachable!("batches are bounded"),
        n => n,
    }
}

fn main() {
    println!("{}", mailbox(&[Some(1), Some(2)]));
}
