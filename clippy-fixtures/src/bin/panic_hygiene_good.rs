//! Typed errors and defensive fallbacks; `unwrap_or` and strings that
//! say "panic!" never fire.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

fn mailbox(inbox: &[Option<u32>]) -> Result<u32, String> {
    let first = inbox.first().copied().flatten().ok_or("mailbox closed")?;
    let hint = inbox.get(1).copied().flatten().unwrap_or_default();
    Ok(first + hint)
}

fn main() {
    println!("do not panic! here: {:?}", mailbox(&[Some(1), None]));
}
