//! Property tests over the wire codec: encode→decode identity for every
//! frame and reply type, and totality of both decoders over arbitrary
//! bytes (typed errors, never a panic).

use proptest::prelude::*;

use features::FeatureVector;

use edge::{BatchRequest, BatchResponse, EdgeHit, Frame, Reply};

fn arb_key() -> impl Strategy<Value = FeatureVector> {
    proptest::collection::vec(-100.0f32..100.0, 1..48)
        .prop_map(|v| FeatureVector::from_vec(v).unwrap())
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_key().prop_map(|key| Frame::Lookup { key }),
        (arb_key(), any::<u32>(), 0.0f64..1.0).prop_map(|(key, label, confidence)| {
            Frame::Insert {
                key,
                label,
                confidence,
            }
        }),
        (arb_key(), any::<u32>(), 0.0f64..1.0).prop_map(|(key, label, confidence)| {
            Frame::GossipAd {
                key,
                label,
                confidence,
            }
        }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<u32>(), 0.0f64..1.0, 0.0f64..100.0).prop_map(|(label, confidence, distance)| {
            Reply::Hit(EdgeHit {
                label,
                confidence,
                distance,
            })
        }),
        Just(Reply::Miss),
        Just(Reply::Accepted),
    ]
}

proptest! {
    #[test]
    fn request_round_trips(
        device in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let request = BatchRequest { device, frames };
        let wire = request.encode();
        prop_assert_eq!(wire.len(), request.encoded_len());
        prop_assert_eq!(BatchRequest::decode(&wire).unwrap(), request);
    }

    #[test]
    fn response_round_trips(replies in proptest::collection::vec(arb_reply(), 0..8)) {
        let response = BatchResponse { replies };
        let wire = response.encode();
        prop_assert_eq!(wire.len(), response.encoded_len());
        prop_assert_eq!(BatchResponse::decode(&wire).unwrap(), response);
    }

    #[test]
    fn decoders_are_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any byte soup must yield Ok or a typed error — never a panic.
        let _ = BatchRequest::decode(&data);
        let _ = BatchResponse::decode(&data);
    }

    #[test]
    fn truncated_valid_requests_error(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        fraction in 0.0f64..1.0,
    ) {
        let request = BatchRequest { device: 7, frames };
        let wire = request.encode();
        let cut = ((wire.len() as f64) * fraction) as usize;
        if cut < wire.len() {
            prop_assert!(BatchRequest::decode(&wire[..cut]).is_err());
        }
    }

}
