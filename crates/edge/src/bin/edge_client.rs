//! Command-line client for the edge cache server.
//!
//! ```text
//! edge-client --addr HOST:PORT health
//! edge-client --addr HOST:PORT smoke      # one batched insert/lookup/gossip round-trip
//! edge-client --addr HOST:PORT shutdown
//! ```
//!
//! `smoke` is what `ci.sh` drives: it asserts the round-trip answered
//! every frame correctly and exits nonzero otherwise.

use std::process::ExitCode;

use features::FeatureVector;

use edge::{BatchRequest, EdgeClient, Frame, Reply};

fn key(components: Vec<f32>) -> Option<FeatureVector> {
    FeatureVector::from_vec(components).ok()
}

fn smoke(client: &EdgeClient) -> Result<(), String> {
    let k = key(vec![0.25, -0.5, 1.0, 0.125]).ok_or("key construction failed")?;
    let request = BatchRequest {
        device: 1,
        frames: vec![
            Frame::Insert {
                key: k.clone(),
                label: 42,
                confidence: 0.9,
            },
            Frame::Lookup { key: k.clone() },
            Frame::GossipAd {
                key: key(vec![9.0, 9.0, 9.0, 9.0]).ok_or("key construction failed")?,
                label: 7,
                confidence: 0.6,
            },
        ],
    };
    let response = client.batch(&request).map_err(|e| e.to_string())?;
    if response.replies.len() != 3 {
        return Err(format!(
            "expected 3 replies, got {}",
            response.replies.len()
        ));
    }
    if response.replies[0] != Reply::Accepted {
        return Err(format!("insert not accepted: {:?}", response.replies[0]));
    }
    match response.replies[1] {
        Reply::Hit(hit) if hit.label == 42 => {}
        other => return Err(format!("lookup did not hit label 42: {other:?}")),
    }
    if response.replies[2] != Reply::Accepted {
        return Err(format!("gossip ad not accepted: {:?}", response.replies[2]));
    }
    println!("smoke ok: insert accepted, lookup hit label 42, gossip accepted");
    Ok(())
}

fn run() -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut command: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr expects a value")?),
            other if command.is_none() => command = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let client = EdgeClient::new(addr);
    match command.as_deref() {
        Some("health") => {
            let line = client.health().map_err(|e| e.to_string())?;
            print!("{line}");
            Ok(())
        }
        Some("smoke") => smoke(&client),
        Some("shutdown") => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown");
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}")),
        None => Err("missing command (health | smoke | shutdown)".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("edge-client: {e}");
            ExitCode::FAILURE
        }
    }
}
