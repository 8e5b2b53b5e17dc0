//! Fails with: clippy::disallowed_methods, clippy::disallowed_types
//! Raw channel and socket machinery outside `cluster` (metering).

fn main() {
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let _ = tx.send(vec![1]);
    let listener = std::net::TcpListener::bind("127.0.0.1:0");
    println!("{:?} {}", rx.try_recv(), listener.is_ok());
}
