//! Loopback integration: the real TCP server must answer a batched
//! lookup/insert/gossip session byte-identically to the in-process
//! `EdgeCache`, and overload must surface as `503`, never as blocking.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use features::FeatureVector;
use simcore::SimTime;

use edge::server::MAX_HEAD;
use edge::{
    BatchRequest, ClientError, EdgeCache, EdgeCacheConfig, EdgeClient, EdgeServer, Frame, Reply,
    ServerConfig,
};

fn key(components: &[f32]) -> FeatureVector {
    FeatureVector::from_vec(components.to_vec()).unwrap()
}

fn session_batches() -> Vec<BatchRequest> {
    vec![
        BatchRequest {
            device: 1,
            frames: vec![
                Frame::Lookup {
                    key: key(&[0.0, 0.0, 0.0]),
                },
                Frame::Insert {
                    key: key(&[0.0, 0.0, 0.0]),
                    label: 11,
                    confidence: 0.95,
                },
            ],
        },
        BatchRequest {
            device: 2,
            frames: vec![
                Frame::Lookup {
                    key: key(&[0.05, 0.0, 0.0]),
                },
                Frame::GossipAd {
                    key: key(&[5.0, 5.0, 5.0]),
                    label: 3,
                    // Above the default 0.8 peer-confidence admission
                    // floor, so the ad actually lands.
                    confidence: 0.9,
                },
            ],
        },
        BatchRequest {
            device: 1,
            frames: vec![
                Frame::Lookup {
                    key: key(&[5.0, 5.05, 5.0]),
                },
                Frame::Lookup {
                    key: key(&[100.0, -100.0, 0.0]),
                },
            ],
        },
    ]
}

#[test]
fn tcp_session_matches_in_process_cache_byte_for_byte() {
    let config = EdgeCacheConfig {
        capacity: 64,
        distance_threshold: 1.0,
        queue_limit: 128,
    };
    let served = EdgeCache::new(config).unwrap();
    let reference = EdgeCache::new(config).unwrap();

    let server = EdgeServer::start("127.0.0.1:0", served.clone(), ServerConfig::default())
        .expect("bind ephemeral port");
    let client = EdgeClient::new(server.addr().to_string()).with_timeout(Duration::from_secs(10));

    for (i, batch) in session_batches().iter().enumerate() {
        let over_tcp = client.batch(batch).expect("tcp batch");
        let in_process = reference
            .apply_batch(batch, SimTime::from_millis(i as u64))
            .expect("in-process batch");
        // The replies must agree on the wire, bit for bit.
        assert_eq!(
            over_tcp.encode().to_vec(),
            in_process.encode().to_vec(),
            "batch {i} diverged between TCP and in-process"
        );
    }

    // Both caches saw the same traffic.
    let tcp_counters = served.counters();
    let ref_counters = reference.counters();
    assert_eq!(tcp_counters, ref_counters);
    assert_eq!(tcp_counters.batches, 3);
    assert_eq!(tcp_counters.hits, 2, "second and third lookups hit");

    // Health reports the same counters over HTTP.
    let health = client.health().expect("health");
    assert!(
        health.starts_with("ok:"),
        "unexpected health line: {health}"
    );

    server.stop();
}

#[test]
fn overload_returns_503_not_blocking() {
    let config = EdgeCacheConfig {
        capacity: 64,
        distance_threshold: 1.0,
        queue_limit: 2,
    };
    let cache = EdgeCache::new(config).unwrap();
    let server = EdgeServer::start("127.0.0.1:0", cache.clone(), ServerConfig::default())
        .expect("bind ephemeral port");
    let client = EdgeClient::new(server.addr().to_string()).with_timeout(Duration::from_secs(10));

    // Three frames against a queue limit of two must be shed.
    let oversized = BatchRequest {
        device: 9,
        frames: (0..3)
            .map(|i| Frame::Lookup {
                key: key(&[i as f32, 0.0, 0.0]),
            })
            .collect(),
    };
    let started = std::time::Instant::now();
    match client.batch(&oversized) {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "overload must answer immediately, not block"
    );
    assert_eq!(cache.counters().overloads, 1);

    // A fitting batch still succeeds afterwards.
    let small = BatchRequest {
        device: 9,
        frames: vec![Frame::Lookup {
            key: key(&[0.0, 0.0, 0.0]),
        }],
    };
    match client.batch(&small).expect("small batch").replies[0] {
        Reply::Miss => {}
        other => panic!("expected a miss on an empty cache, got {other:?}"),
    }

    server.stop();
}

#[test]
fn malformed_bodies_get_400_and_unknown_routes_404() {
    let cache = EdgeCache::new(EdgeCacheConfig::default()).unwrap();
    let server = EdgeServer::start("127.0.0.1:0", cache, ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Hand-rolled request with a garbage body.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 404"), "got: {reply}");

    server.stop();
}

#[test]
fn wrong_dimension_batch_gets_400_and_costs_no_worker_or_queue_slot() {
    let config = EdgeCacheConfig {
        capacity: 64,
        distance_threshold: 1.0,
        queue_limit: 4,
    };
    let cache = EdgeCache::new(config).unwrap();
    let workers = 2;
    let server = EdgeServer::start(
        "127.0.0.1:0",
        cache.clone(),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let client = EdgeClient::new(server.addr().to_string()).with_timeout(Duration::from_secs(10));

    let insert = BatchRequest {
        device: 1,
        frames: vec![Frame::Insert {
            key: key(&[0.0, 0.0, 0.0]),
            label: 11,
            confidence: 0.95,
        }],
    };
    client.batch(&insert).expect("valid insert");

    // Well-formed on the wire, but the key has two components where the
    // cached keys have three. More of them than the server has workers
    // or the queue has slots: on the parent each one killed a worker and
    // kept its slot, and the server answered nothing afterwards.
    let wrong = BatchRequest {
        device: 2,
        frames: vec![Frame::Lookup {
            key: key(&[0.0, 0.0]),
        }],
    };
    for _ in 0..(workers + config.queue_limit + 1) {
        match client.batch(&wrong) {
            Err(ClientError::Http { status: 400, body }) => {
                assert!(body.contains("key dimension 2"), "unexpected body: {body}");
            }
            other => panic!("expected 400, got {other:?}"),
        }
    }

    assert!(client.health().expect("health").starts_with("ok:"));
    let lookup = BatchRequest {
        device: 2,
        frames: (0..config.queue_limit)
            .map(|_| Frame::Lookup {
                key: key(&[0.0, 0.05, 0.0]),
            })
            .collect(),
    };
    let replies = client.batch(&lookup).expect("valid batch").replies;
    assert!(replies.iter().all(|r| matches!(r, Reply::Hit(_))));
    assert_eq!(cache.in_flight(), 0);
    let counters = cache.counters();
    assert_eq!(counters.overloads, 0);
    assert_eq!(counters.batches, 2, "refused batches are not counted");

    server.stop();
}

#[test]
fn shutdown_route_is_gated_and_clean() {
    let cache = EdgeCache::new(EdgeCacheConfig::default()).unwrap();

    // Without the flag, /shutdown is a 404 and the server stays up.
    let server = EdgeServer::start("127.0.0.1:0", cache.clone(), ServerConfig::default())
        .expect("bind ephemeral port");
    let client = EdgeClient::new(server.addr().to_string());
    assert!(matches!(
        client.shutdown(),
        Err(ClientError::Http { status: 404, .. })
    ));
    assert!(client.health().is_ok(), "server must still answer");
    server.stop();

    // With the flag, /shutdown drains the server; wait() returns.
    let server = EdgeServer::start(
        "127.0.0.1:0",
        cache,
        ServerConfig {
            allow_shutdown: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let client = EdgeClient::new(server.addr().to_string());
    client.shutdown().expect("shutdown acknowledged");
    server.wait();
}

#[test]
fn a_head_without_a_newline_is_refused_at_the_cap_not_the_timeout() {
    let cache = EdgeCache::new(EdgeCacheConfig::default()).unwrap();
    let server = EdgeServer::start("127.0.0.1:0", cache, ServerConfig::default())
        .expect("bind ephemeral port");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let started = Instant::now();
    // One byte past the cap and no newline; the socket stays open.
    let sent = stream.write_all(&vec![b'a'; MAX_HEAD + 1]);
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "the worker held the connection for {waited:?}"
    );
    let reset = |kind: ErrorKind| {
        matches!(
            kind,
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
        )
    };
    match (sent, read) {
        (Ok(()), Ok(_)) => assert!(
            response.starts_with(b"HTTP/1.1 400"),
            "{}",
            String::from_utf8_lossy(&response)
        ),
        (Err(e), _) | (_, Err(e)) => assert!(reset(e.kind()), "{e}"),
    }
    // The worker is free again.
    let client = EdgeClient::new(server.addr().to_string()).with_timeout(Duration::from_secs(10));
    assert!(client.health().expect("health").starts_with("ok:"));
    server.stop();
}
