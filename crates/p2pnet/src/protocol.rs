//! The peer wire protocol and its binary codec.
//!
//! Three message types carry all collaboration:
//!
//! - [`P2pMessage::Query`] — "does your cache answer this key?"
//! - [`P2pMessage::Reply`] — the hit (label + confidence + distance) or a
//!   miss.
//! - [`P2pMessage::Advertise`] — unsolicited sharing of fresh entries
//!   (key + label + confidence) after a device runs a full inference.
//!
//! The codec is a compact hand-rolled binary format (tag byte, little-
//! endian fields, `f32` key components) so that the byte counts the
//! transport charges — and hence peer latency and radio energy — are
//! realistic for the payloads actually exchanged.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use features::FeatureVector;

/// Magic byte prefix guarding against cross-protocol messages.
const MAGIC: u8 = 0xAC;

const TAG_QUERY: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_ADVERTISE: u8 = 3;
// Tag 4 is retired (it carried 8-bit-quantized advertisements) and now
// decodes as `BadTag(4)`; a new message takes 5.

/// A cache hit as reported by a remote peer. Labels travel as raw `u32`
/// (the label space is shared deployment-wide).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemoteHit {
    /// The peer's cached label.
    pub label: u32,
    /// The peer's confidence in that label.
    pub confidence: f64,
    /// Distance between the query and the peer's nearest entry.
    pub distance: f64,
}

/// One shareable cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEntry {
    /// The feature-space key.
    pub key: FeatureVector,
    /// The label.
    pub label: u32,
    /// Producer confidence.
    pub confidence: f64,
}

/// A peer-to-peer message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum P2pMessage {
    /// Ask a peer to run its hit test on `key`.
    Query {
        /// Correlates the reply.
        query_id: u64,
        /// The lookup key.
        key: FeatureVector,
    },
    /// Answer to a [`P2pMessage::Query`].
    Reply {
        /// Echoes the query's id.
        query_id: u64,
        /// The hit, or `None` for a miss.
        hit: Option<RemoteHit>,
    },
    /// Push fresh entries to a neighbour.
    Advertise {
        /// The shared entries.
        entries: Vec<WireEntry>,
    },
}

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// The first byte was not the protocol magic.
    BadMagic(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A decoded field was structurally invalid (e.g. non-finite float,
    /// empty key).
    BadField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadField(which) => write!(f, "invalid field: {which}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl P2pMessage {
    /// Encodes the message to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u8(MAGIC);
        match self {
            P2pMessage::Query { query_id, key } => {
                buf.put_u8(TAG_QUERY);
                buf.put_u64_le(*query_id);
                put_key(&mut buf, key);
            }
            P2pMessage::Reply { query_id, hit } => {
                buf.put_u8(TAG_REPLY);
                buf.put_u64_le(*query_id);
                match hit {
                    None => buf.put_u8(0),
                    Some(h) => {
                        buf.put_u8(1);
                        buf.put_u32_le(h.label);
                        buf.put_f64_le(h.confidence);
                        buf.put_f64_le(h.distance);
                    }
                }
            }
            P2pMessage::Advertise { entries } => {
                buf.put_u8(TAG_ADVERTISE);
                buf.put_u16_le(entries.len() as u16);
                for e in entries {
                    put_key(&mut buf, &e.key);
                    buf.put_u32_le(e.label);
                    buf.put_f64_le(e.confidence);
                }
            }
        }
        buf.freeze()
    }

    /// The exact number of bytes [`encode`](Self::encode) produces — what
    /// the transport charges without materializing the buffer.
    pub fn encoded_len(&self) -> usize {
        2 + match self {
            P2pMessage::Query { key, .. } => 8 + 2 + 4 * key.dim(),
            P2pMessage::Reply { hit, .. } => 8 + 1 + if hit.is_some() { 20 } else { 0 },
            P2pMessage::Advertise { entries } => {
                2 + entries
                    .iter()
                    .map(|e| 2 + 4 * e.key.dim() + 4 + 8)
                    .sum::<usize>()
            }
        }
    }

    /// Decodes a message from bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, foreign or corrupt input.
    pub fn decode(mut data: &[u8]) -> Result<P2pMessage, DecodeError> {
        let buf = &mut data;
        let magic = take_u8(buf)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let tag = take_u8(buf)?;
        let message = match tag {
            TAG_QUERY => {
                let query_id = take_u64(buf)?;
                let key = take_key(buf)?;
                P2pMessage::Query { query_id, key }
            }
            TAG_REPLY => {
                let query_id = take_u64(buf)?;
                let has_hit = take_u8(buf)?;
                let hit = match has_hit {
                    0 => None,
                    1 => {
                        let label = take_u32(buf)?;
                        let confidence = take_f64(buf)?;
                        let distance = take_f64(buf)?;
                        if !confidence.is_finite() || !distance.is_finite() {
                            return Err(DecodeError::BadField("reply floats"));
                        }
                        Some(RemoteHit {
                            label,
                            confidence,
                            distance,
                        })
                    }
                    _ => return Err(DecodeError::BadField("hit flag")),
                };
                P2pMessage::Reply { query_id, hit }
            }
            TAG_ADVERTISE => {
                let count = take_u16(buf)? as usize;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = take_key(buf)?;
                    let label = take_u32(buf)?;
                    let confidence = take_f64(buf)?;
                    if !confidence.is_finite() {
                        return Err(DecodeError::BadField("advertise confidence"));
                    }
                    entries.push(WireEntry {
                        key,
                        label,
                        confidence,
                    });
                }
                P2pMessage::Advertise { entries }
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        Ok(message)
    }
}

fn put_key(buf: &mut BytesMut, key: &FeatureVector) {
    buf.put_u16_le(key.dim() as u16);
    for &c in key.as_slice() {
        buf.put_f32_le(c);
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u8())
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn take_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_f64_le())
}

fn take_key(buf: &mut &[u8]) -> Result<FeatureVector, DecodeError> {
    let dim = take_u16(buf)? as usize;
    if dim == 0 {
        return Err(DecodeError::BadField("key dimension"));
    }
    if buf.remaining() < 4 * dim {
        return Err(DecodeError::Truncated);
    }
    let mut components = Vec::with_capacity(dim);
    for _ in 0..dim {
        components.push(buf.get_f32_le());
    }
    FeatureVector::from_vec(components).map_err(|_| DecodeError::BadField("key components"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    #[test]
    fn query_round_trip() {
        let m = P2pMessage::Query {
            query_id: 42,
            key: key(&[1.5, -2.5, 0.0]),
        };
        let encoded = m.encode();
        assert_eq!(encoded.len(), m.encoded_len());
        assert_eq!(P2pMessage::decode(&encoded).unwrap(), m);
    }

    #[test]
    fn reply_round_trips_both_variants() {
        let hit = P2pMessage::Reply {
            query_id: 7,
            hit: Some(RemoteHit {
                label: 3,
                confidence: 0.875,
                distance: 0.25,
            }),
        };
        let miss = P2pMessage::Reply {
            query_id: 8,
            hit: None,
        };
        for m in [hit, miss] {
            let encoded = m.encode();
            assert_eq!(encoded.len(), m.encoded_len());
            assert_eq!(P2pMessage::decode(&encoded).unwrap(), m);
        }
    }

    #[test]
    fn advertise_round_trips() {
        let m = P2pMessage::Advertise {
            entries: vec![
                WireEntry {
                    key: key(&[0.1; 64]),
                    label: 5,
                    confidence: 0.9,
                },
                WireEntry {
                    key: key(&[-0.5; 64]),
                    label: 6,
                    confidence: 0.8,
                },
            ],
        };
        let encoded = m.encode();
        assert_eq!(encoded.len(), m.encoded_len());
        assert_eq!(P2pMessage::decode(&encoded).unwrap(), m);
    }

    #[test]
    fn empty_advertise_is_legal() {
        let m = P2pMessage::Advertise { entries: vec![] };
        assert_eq!(P2pMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn sizes_are_compact() {
        // A 64-dim query is ~268 bytes; a miss reply is 11.
        let query = P2pMessage::Query {
            query_id: 1,
            key: key(&[0.0; 64]),
        };
        assert_eq!(query.encoded_len(), 2 + 8 + 2 + 256);
        let miss = P2pMessage::Reply {
            query_id: 1,
            hit: None,
        };
        assert_eq!(miss.encoded_len(), 11);
    }

    #[test]
    fn rejects_bad_magic_and_tag() {
        assert_eq!(
            P2pMessage::decode(&[0x00, 1]),
            Err(DecodeError::BadMagic(0))
        );
        assert_eq!(
            P2pMessage::decode(&[MAGIC, 99]),
            Err(DecodeError::BadTag(99))
        );
        // The retired compact-advertisement tag is not reused.
        assert_eq!(P2pMessage::decode(&[MAGIC, 4]), Err(DecodeError::BadTag(4)));
        assert_eq!(P2pMessage::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let m = P2pMessage::Query {
            query_id: 42,
            key: key(&[1.0, 2.0]),
        };
        let encoded = m.encode();
        for len in 0..encoded.len() {
            let err = P2pMessage::decode(&encoded[..len]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadField(_)),
                "prefix of {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_nan_floats() {
        let m = P2pMessage::Reply {
            query_id: 1,
            hit: Some(RemoteHit {
                label: 0,
                confidence: 0.5,
                distance: 0.5,
            }),
        };
        let mut raw = m.encode().to_vec();
        // Corrupt the confidence (offset: magic 1 + tag 1 + id 8 + flag 1 +
        // label 4 = 15).
        raw[15..23].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            P2pMessage::decode(&raw),
            Err(DecodeError::BadField("reply floats"))
        );
    }

    #[test]
    fn rejects_zero_dim_key() {
        let mut raw = vec![MAGIC, TAG_QUERY];
        raw.extend_from_slice(&42u64.to_le_bytes());
        raw.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            P2pMessage::decode(&raw),
            Err(DecodeError::BadField("key dimension"))
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "message truncated");
        assert_eq!(DecodeError::BadTag(9).to_string(), "unknown message tag 9");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = FeatureVector> {
        proptest::collection::vec(-100.0f32..100.0, 1..32)
            .prop_map(|v| FeatureVector::from_vec(v).unwrap())
    }

    fn arb_message() -> impl Strategy<Value = P2pMessage> {
        prop_oneof![
            (any::<u64>(), arb_key())
                .prop_map(|(query_id, key)| P2pMessage::Query { query_id, key }),
            (
                any::<u64>(),
                proptest::option::of((any::<u32>(), 0.0f64..1.0, 0.0f64..10.0))
            )
                .prop_map(|(query_id, hit)| P2pMessage::Reply {
                    query_id,
                    hit: hit.map(|(label, confidence, distance)| RemoteHit {
                        label,
                        confidence,
                        distance
                    }),
                }),
            proptest::collection::vec(
                (arb_key(), any::<u32>(), 0.0f64..1.0).prop_map(|(key, label, confidence)| {
                    WireEntry {
                        key,
                        label,
                        confidence,
                    }
                }),
                0..5
            )
            .prop_map(|entries| P2pMessage::Advertise { entries }),
        ]
    }

    proptest! {
        /// encode → decode is the identity, and encoded_len is exact.
        #[test]
        fn round_trip(m in arb_message()) {
            let encoded = m.encode();
            prop_assert_eq!(encoded.len(), m.encoded_len());
            prop_assert_eq!(P2pMessage::decode(&encoded).unwrap(), m);
        }

        /// Arbitrary byte soup never panics the decoder.
        #[test]
        fn decoder_is_total(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = P2pMessage::decode(&data);
        }
    }
}
