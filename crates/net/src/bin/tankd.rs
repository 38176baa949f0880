//! `tankd` — a Storage Tank lease/lock/metadata server on UDP.
//!
//! ```sh
//! tankd [BIND_ADDR] [--recover] [--incarnation N]
//! ```
//!
//! Defaults to `127.0.0.1:4800`, incarnation 1. Serves the
//! control-network protocol: sessions, metadata, data locks with
//! demand/revocation, and the paper's passive lease authority.
//!
//! `--recover` starts the server inside the fail-stop recovery grace
//! window: lock grants and the mutations admitted against the lock table
//! (delete, truncate, block allocation, rename) are refused for `τ(1+ε)`
//! so every lease the previous incarnation might have granted has
//! expired on its holder's clock first. Creates and reads are served. Pass it (with a bumped
//! `--incarnation`) whenever this address may have served before.

use tank_net::server::{LeaseServer, NetServerConfig};

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:4800".to_string();
    let mut cfg = NetServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--recover" => cfg.recover = true,
            "--incarnation" => {
                let n = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--incarnation needs a number");
                    std::process::exit(2);
                });
                cfg.incarnation = n;
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}\nusage: tankd [BIND_ADDR] [--recover] [--incarnation N]"
                );
                std::process::exit(2);
            }
            other => addr = other.to_string(),
        }
    }
    let handle = LeaseServer::spawn(&addr, cfg)?;
    eprintln!("tankd listening on {} (ctrl-c to stop)", handle.addr);
    // The server runs on its own thread; park forever (ctrl-c kills us).
    loop {
        std::thread::park();
    }
}
