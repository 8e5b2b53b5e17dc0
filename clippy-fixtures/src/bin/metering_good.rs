//! The metered transport owns its sockets, with a reasoned expectation.
//! Naming "TcpStream" or "mpsc::channel" in comments or strings is fine.

#![expect(clippy::disallowed_types, reason = "fixture: the metered transport")]

fn main() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0");
    println!("TcpStream over mpsc::channel? {}", listener.is_ok());
}
