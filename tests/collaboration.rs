//! Integration tests for cross-device collaboration mechanics.

use approx_caching::cache::{ApproxCache, CacheConfig, EntrySource, LookupResult};
use approx_caching::keys::FeatureVector;
use approx_caching::network::{LinkSpec, P2pMessage, Transport, WireEntry};
use approx_caching::runtime::{SimRng, SimTime};
use approx_caching::vision::ClassId;

// Kept in seed formatting.
#[rustfmt::skip]
#[test]
fn wire_protocol_carries_cache_entries_between_caches() {
    // Device A caches a result, serializes it, "sends" it through the
    // transport, and device B admits it — the advertisement path end to
    // end, without the simulator in the way.
    let mut a: ApproxCache<ClassId> = ApproxCache::new(CacheConfig::new(16));
    let key = FeatureVector::from_vec(vec![0.5; 64]).unwrap();
    a.insert(key.clone(), ClassId(7), 0.92, EntrySource::LocalInference, SimTime::ZERO);
    let entry = &a.hottest(1)[0];

    let message = P2pMessage::Advertise {
        entries: vec![WireEntry {
            key: entry.key.clone(),
            label: entry.label.0,
            confidence: entry.confidence,
        }],
    };
    let encoded = message.encode();

    let mut transport = Transport::new(LinkSpec::wifi_direct());
    let mut rng = SimRng::seed(1);
    let delay = transport.send_one_way(encoded.len(), &mut rng);
    assert!(delay.is_some());

    let decoded = P2pMessage::decode(&encoded).unwrap();
    let P2pMessage::Advertise { entries } = decoded else {
        panic!("wrong message type");
    };
    let mut b: ApproxCache<ClassId> = ApproxCache::new(CacheConfig::new(16));
    let received = &entries[0];
    b.insert(
        received.key.clone(),
        ClassId(received.label),
        received.confidence,
        EntrySource::Peer,
        SimTime::from_millis(10),
    );
    let hit = b.lookup(&key, SimTime::from_millis(20));
    assert_eq!(hit.label(), Some(&ClassId(7)));
}

// Kept in seed formatting.
#[rustfmt::skip]
#[test]
fn peer_entries_respect_stricter_admission() {
    let mut cache: ApproxCache<ClassId> = ApproxCache::new(CacheConfig::new(16));
    let key = FeatureVector::from_vec(vec![1.0; 8]).unwrap();
    // Default peer floor is 0.8: a 0.77-confidence peer entry is refused,
    // the same result from local inference is accepted.
    let refused = cache.insert(key.clone(), ClassId(1), 0.77, EntrySource::Peer, SimTime::ZERO);
    assert_eq!(refused, approx_caching::cache::InsertOutcome::Rejected);
    let accepted = cache.insert(key, ClassId(1), 0.77, EntrySource::LocalInference, SimTime::ZERO);
    assert!(matches!(accepted, approx_caching::cache::InsertOutcome::Inserted(_)));
}

// Kept in seed formatting.
#[rustfmt::skip]
#[test]
fn query_reply_round_trip_over_lossy_link() {
    // A full query/reply exchange: the querying side encodes, the remote
    // cache answers, the reply decodes — with transport loss handled.
    let mut remote: ApproxCache<ClassId> = ApproxCache::new(CacheConfig::new(16));
    let key = FeatureVector::from_vec(vec![2.0; 32]).unwrap();
    remote.insert(key.clone(), ClassId(3), 0.9, EntrySource::LocalInference, SimTime::ZERO);

    let query = P2pMessage::Query {
        query_id: 99,
        key: key.clone(),
    };
    let decoded = P2pMessage::decode(&query.encode()).unwrap();
    let P2pMessage::Query { query_id, key: remote_key } = decoded else {
        panic!("wrong message type");
    };
    assert_eq!(query_id, 99);

    let hit = match remote.lookup(&remote_key, SimTime::from_millis(5)) {
        LookupResult::Hit { label, nearest_distance, .. } => Some(approx_caching::network::RemoteHit {
            label: label.0,
            confidence: 0.9,
            distance: nearest_distance,
        }),
        LookupResult::Miss(_) => None,
    };
    let reply = P2pMessage::Reply { query_id, hit };
    let reply_decoded = P2pMessage::decode(&reply.encode()).unwrap();
    let P2pMessage::Reply { hit: Some(h), .. } = reply_decoded else {
        panic!("expected a hit reply");
    };
    assert_eq!(h.label, 3);
    assert!(h.distance < 1e-6);

    // Lossy transport: over many exchanges some fail, and the failure rate
    // matches the link spec.
    let lossy = LinkSpec {
        loss_prob: 0.2,
        ..LinkSpec::ble()
    };
    let mut transport = Transport::new(lossy);
    let mut rng = SimRng::seed(7);
    let mut failures = 0;
    for _ in 0..2_000 {
        if transport
            .round_trip(query.encoded_len(), reply.encoded_len(), &mut rng)
            .is_none()
        {
            failures += 1;
        }
    }
    let rate = failures as f64 / 2_000.0;
    assert!((rate - 0.36).abs() < 0.05, "round-trip failure rate {rate}");
}

// Kept in seed formatting.
#[rustfmt::skip]
#[test]
fn shared_projection_makes_keys_compatible_across_devices() {
    // Two devices must produce identical keys for identical frames, or
    // peer lookups would compare apples to oranges.
    use approx_caching::keys::RandomProjection;
    let mut rng = SimRng::seed(11);
    let descriptor =
        FeatureVector::from_vec((0..256).map(|_| rng.uniform(-1.0, 1.0) as f32).collect())
            .unwrap();
    let device_a = RandomProjection::new(256, 64, 0xcafe);
    let device_b = RandomProjection::new(256, 64, 0xcafe);
    assert_eq!(device_a.project(&descriptor), device_b.project(&descriptor));
}
