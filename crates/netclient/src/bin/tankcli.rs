//! `tankcli` — a one-shot command-line client for `tankd`. Each command
//! is one file-system operation on a path, run by a [`TankClient`].
//!
//! ```sh
//! tankcli 127.0.0.1:4800 mkdir /docs
//! tankcli 127.0.0.1:4800 create /docs/a.txt
//! tankcli 127.0.0.1:4800 ls /docs
//! tankcli 127.0.0.1:4800 stat /docs/a.txt
//! tankcli 127.0.0.1:4800 rm /docs/a.txt
//! tankcli 127.0.0.1:4800 lock /docs/a.txt SECS  # hold X for SECS
//! tankcli 127.0.0.1:4800 bench 1000             # `stat /` round trips
//! ```

use std::time::{Duration, Instant};

use tank_client::{FsData, FsOp};
use tank_core::LeaseConfig;
use tank_net::FaultConfig;
use tank_netclient::TankClient;

fn usage() -> ! {
    eprintln!(
        "usage: tankcli ADDR (ls|stat|create|mkdir|rm) PATH | ADDR lock PATH SECS | ADDR bench N"
    );
    std::process::exit(2);
}

/// The operation a one-path command names.
fn path_op(cmd: &str, path: String) -> Option<FsOp> {
    Some(match cmd {
        "ls" => FsOp::List { path },
        "stat" => FsOp::Stat { path },
        "create" => FsOp::Create { path },
        "mkdir" => FsOp::Mkdir { path },
        "rm" => FsOp::Delete { path },
        _ => return None,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [addr, cmd, arg, ..] = args.as_slice() else {
        usage()
    };
    let op = path_op(cmd, arg.clone());
    if op.is_none() && cmd != "lock" && cmd != "bench" {
        usage();
    }
    let mut cfg = TankClient::config(LeaseConfig::default());
    // `lock` takes its lock with a read, which then asks for Exclusive.
    cfg.shared_read = false;
    let client = TankClient::connect(addr, cfg, FaultConfig::none(), None)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let run = |op| client.run(op).map_err(|e| format!("{cmd} {arg}: {e:?}"));
    if let Some(op) = op {
        match run(op)? {
            FsData::Entries(names) => names.iter().for_each(|n| println!("{n}")),
            FsData::Attr {
                size,
                is_dir,
                version,
            } => {
                let kind = if is_dir { "dir" } else { "file" };
                println!("{arg}: size={size} version={version} {kind}");
            }
            FsData::Unit | FsData::Bytes(_) => println!("{cmd} {arg}: ok"),
        }
    } else if cmd == "lock" {
        let secs: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(30);
        let (path, offset, len) = (arg.clone(), 0, 0);
        run(FsOp::Read { path, offset, len })?;
        println!("holding X lock on {arg} for {secs}s");
        println!("(lock it from another tankcli: this client hands it over on demand)");
        std::thread::sleep(Duration::from_secs(secs));
        run(FsOp::Release { path: arg.clone() })?;
    } else {
        let n: u32 = arg.parse()?;
        let start = Instant::now();
        for _ in 0..n {
            run(FsOp::Stat { path: "/".into() })?;
        }
        let total = start.elapsed();
        let renewals = client.inspect(|node| node.lease().renewal_count());
        println!(
            "{n} request round-trips in {total:?} ({:.1} µs/req); lease renewals: {renewals}",
            total.as_micros() as f64 / f64::from(n.max(1))
        );
    }
    Ok(())
}
