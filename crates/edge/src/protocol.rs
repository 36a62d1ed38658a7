//! The edge-tier wire protocol.
//!
//! Devices talk to the edge cache in *batches*: one [`BatchRequest`]
//! carries any mix of lookup, insert, and gossip-advertisement frames,
//! and the server answers with one [`BatchResponse`] holding a reply per
//! frame in order. Batching amortizes the WAN round-trip — the dominant
//! cost of the tier — exactly as FluxShard-style edge offload does.
//!
//! The codec is hand-rolled over `bytes` and fully self-describing:
//! a magic byte, a version byte, a kind byte, then varint-framed
//! payloads. Feature-vector keys are the bulk of the traffic, so they
//! are XOR-delta coded: each component's `f32` bit pattern is XORed
//! with the previous component's and the result LEB128-varint encoded.
//! Components of similar magnitude share sign/exponent/high-mantissa
//! bits, so the deltas carry leading zeros and the varints shrink.
//!
//! Decoding is *total*: any byte slice either parses or returns a typed
//! [`DecodeError`] — never a panic, never unbounded allocation (frame
//! and dimension counts are capped before any buffer is reserved).

use features::FeatureVector;

use bytes::{BufMut, BytesMut};

/// First byte of every edge message (distinct from p2pnet's `0xAC`).
pub const MAGIC: u8 = 0xEC;
/// Wire-format version.
pub const VERSION: u8 = 1;

/// Kind byte of a [`BatchRequest`].
const KIND_REQUEST: u8 = 0x01;
/// Kind byte of a [`BatchResponse`].
const KIND_RESPONSE: u8 = 0x02;

/// Frame tags inside a request.
const TAG_LOOKUP: u8 = 0x10;
const TAG_INSERT: u8 = 0x11;
const TAG_GOSSIP_AD: u8 = 0x12;

/// Reply tags inside a response.
const TAG_HIT: u8 = 0x20;
const TAG_MISS: u8 = 0x21;
const TAG_ACCEPTED: u8 = 0x22;

/// Most frames a decoder will accept in one batch. A real client never
/// comes close; the cap keeps corrupt length prefixes from reserving
/// gigabytes.
pub const MAX_FRAMES: usize = 65_536;
/// Most key components a decoder will accept.
pub const MAX_KEY_DIM: usize = 4_096;

/// Why a byte slice failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the message did.
    Truncated,
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// An unknown kind or frame tag.
    BadTag(u8),
    /// A field held an impossible value (NaN confidence, zero-dim key,
    /// over-cap count, overlong varint...).
    BadField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02X}"),
            DecodeError::BadVersion(b) => write!(f, "unsupported version {b}"),
            DecodeError::BadTag(b) => write!(f, "unknown tag 0x{b:02X}"),
            DecodeError::BadField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One operation inside a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// "Does the edge cache recognise this key?"
    Lookup {
        /// The feature-space query key.
        key: FeatureVector,
    },
    /// "I ran full inference; cache the result." First-party results the
    /// edge stores with local-inference provenance.
    Insert {
        /// The feature-space key.
        key: FeatureVector,
        /// The recognized class.
        label: u32,
        /// Producer confidence in `[0, 1]`.
        confidence: f64,
    },
    /// "A nearby peer gave me this result; you may want it too." Relayed
    /// results the edge stores with peer provenance (admission may hold
    /// them to a higher bar).
    GossipAd {
        /// The feature-space key.
        key: FeatureVector,
        /// The advertised class.
        label: u32,
        /// Confidence the original producer attached.
        confidence: f64,
    },
}

/// A cache answer to one [`Frame::Lookup`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeHit {
    /// The cached class.
    pub label: u32,
    /// Confidence of the serving entry.
    pub confidence: f64,
    /// Distance from the query to the nearest neighbour.
    pub distance: f64,
}

/// Reply to one request frame, in frame order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// The lookup hit.
    Hit(EdgeHit),
    /// The lookup missed.
    Miss,
    /// The insert / gossip ad was applied (or absorbed by admission —
    /// the device does not care which).
    Accepted,
}

/// A batch of operations from one device.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Stable id of the sending device.
    pub device: u64,
    /// The operations, answered in order.
    pub frames: Vec<Frame>,
}

/// The server's answers, one per request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    /// Replies in frame order.
    pub replies: Vec<Reply>,
}

// ---------------------------------------------------------------------
// varint + key coding
// ---------------------------------------------------------------------

/// Appends an LEB128 varint.
fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Encoded size of an LEB128 varint.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    match buf.split_first() {
        Some((&b, rest)) => {
            *buf = rest;
            Ok(b)
        }
        None => Err(DecodeError::Truncated),
    }
}

/// Reads an LEB128 varint (at most 10 bytes; the 10th may only carry the
/// final bit of a `u64`).
fn take_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let byte = take_u8(buf)?;
        let payload = u64::from(byte & 0x7F);
        if i == 9 && payload > 1 {
            return Err(DecodeError::BadField("varint overflow"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::BadField("varint too long"))
}

fn take_f64(buf: &mut &[u8], field: &'static str) -> Result<f64, DecodeError> {
    if buf.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[..8]);
    *buf = &buf[8..];
    let v = f64::from_le_bytes(raw);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(DecodeError::BadField(field))
    }
}

/// Appends an XOR-delta varint-coded key: dimension, then each
/// component's `f32` bits XORed with the previous component's bits.
fn put_key(buf: &mut BytesMut, key: &FeatureVector) {
    let components = key.as_slice();
    put_varint(buf, components.len() as u64);
    let mut prev: u32 = 0;
    for &x in components {
        let bits = x.to_bits();
        put_varint(buf, u64::from(bits ^ prev));
        prev = bits;
    }
}

/// Exact encoded size of [`put_key`]'s output.
fn key_len(key: &FeatureVector) -> usize {
    let components = key.as_slice();
    let mut n = varint_len(components.len() as u64);
    let mut prev: u32 = 0;
    for &x in components {
        let bits = x.to_bits();
        n += varint_len(u64::from(bits ^ prev));
        prev = bits;
    }
    n
}

fn take_key(buf: &mut &[u8]) -> Result<FeatureVector, DecodeError> {
    let dim = take_varint(buf)?;
    if dim == 0 {
        return Err(DecodeError::BadField("key dimension zero"));
    }
    if dim > MAX_KEY_DIM as u64 {
        return Err(DecodeError::BadField("key dimension over cap"));
    }
    let dim = dim as usize;
    let mut components = Vec::with_capacity(dim);
    let mut prev: u32 = 0;
    for _ in 0..dim {
        let delta = take_varint(buf)?;
        let delta = u32::try_from(delta).map_err(|_| DecodeError::BadField("key delta"))?;
        let bits = delta ^ prev;
        prev = bits;
        components.push(f32::from_bits(bits));
    }
    FeatureVector::from_vec(components).map_err(|_| DecodeError::BadField("key not finite"))
}

// ---------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------

impl Frame {
    /// The feature-space key every frame kind carries.
    pub fn key(&self) -> &FeatureVector {
        match self {
            Frame::Lookup { key } | Frame::Insert { key, .. } | Frame::GossipAd { key, .. } => key,
        }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Frame::Lookup { key } => {
                buf.put_u8(TAG_LOOKUP);
                put_key(buf, key);
            }
            Frame::Insert {
                key,
                label,
                confidence,
            } => {
                buf.put_u8(TAG_INSERT);
                put_key(buf, key);
                put_varint(buf, u64::from(*label));
                buf.put_f64_le(*confidence);
            }
            Frame::GossipAd {
                key,
                label,
                confidence,
            } => {
                buf.put_u8(TAG_GOSSIP_AD);
                put_key(buf, key);
                put_varint(buf, u64::from(*label));
                buf.put_f64_le(*confidence);
            }
        }
    }

    /// Exact encoded size of this frame.
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Lookup { key } => 1 + key_len(key),
            Frame::Insert { key, label, .. } | Frame::GossipAd { key, label, .. } => {
                1 + key_len(key) + varint_len(u64::from(*label)) + 8
            }
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Frame, DecodeError> {
        let tag = take_u8(buf)?;
        match tag {
            TAG_LOOKUP => Ok(Frame::Lookup {
                key: take_key(buf)?,
            }),
            TAG_INSERT | TAG_GOSSIP_AD => {
                let key = take_key(buf)?;
                let label64 = take_varint(buf)?;
                let label =
                    u32::try_from(label64).map_err(|_| DecodeError::BadField("label over u32"))?;
                let confidence = take_f64(buf, "confidence not finite")?;
                if !(0.0..=1.0).contains(&confidence) {
                    return Err(DecodeError::BadField("confidence outside [0, 1]"));
                }
                if tag == TAG_INSERT {
                    Ok(Frame::Insert {
                        key,
                        label,
                        confidence,
                    })
                } else {
                    Ok(Frame::GossipAd {
                        key,
                        label,
                        confidence,
                    })
                }
            }
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

impl Reply {
    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Reply::Hit(hit) => {
                buf.put_u8(TAG_HIT);
                put_varint(buf, u64::from(hit.label));
                buf.put_f64_le(hit.confidence);
                buf.put_f64_le(hit.distance);
            }
            Reply::Miss => buf.put_u8(TAG_MISS),
            Reply::Accepted => buf.put_u8(TAG_ACCEPTED),
        }
    }

    /// Exact encoded size of this reply.
    pub fn encoded_len(&self) -> usize {
        match self {
            Reply::Hit(hit) => 1 + varint_len(u64::from(hit.label)) + 16,
            Reply::Miss | Reply::Accepted => 1,
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Reply, DecodeError> {
        let tag = take_u8(buf)?;
        match tag {
            TAG_HIT => {
                let label64 = take_varint(buf)?;
                let label =
                    u32::try_from(label64).map_err(|_| DecodeError::BadField("label over u32"))?;
                let confidence = take_f64(buf, "confidence not finite")?;
                if !(0.0..=1.0).contains(&confidence) {
                    return Err(DecodeError::BadField("confidence outside [0, 1]"));
                }
                let distance = take_f64(buf, "distance not finite")?;
                if distance < 0.0 {
                    return Err(DecodeError::BadField("distance negative"));
                }
                Ok(Reply::Hit(EdgeHit {
                    label,
                    confidence,
                    distance,
                }))
            }
            TAG_MISS => Ok(Reply::Miss),
            TAG_ACCEPTED => Ok(Reply::Accepted),
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

fn check_header(buf: &mut &[u8], kind: u8) -> Result<(), DecodeError> {
    let magic = take_u8(buf)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = take_u8(buf)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let got = take_u8(buf)?;
    if got != kind {
        return Err(DecodeError::BadTag(got));
    }
    Ok(())
}

impl BatchRequest {
    /// Encodes to the wire format.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_REQUEST);
        put_varint(&mut buf, self.device);
        put_varint(&mut buf, self.frames.len() as u64);
        for frame in &self.frames {
            frame.encode_into(&mut buf);
        }
        buf
    }

    /// Exact size [`encode`](BatchRequest::encode) will produce.
    pub fn encoded_len(&self) -> usize {
        3 + varint_len(self.device)
            + varint_len(self.frames.len() as u64)
            + self.frames.iter().map(Frame::encoded_len).sum::<usize>()
    }

    /// Decodes a full message; trailing bytes are an error.
    pub fn decode(mut buf: &[u8]) -> Result<BatchRequest, DecodeError> {
        check_header(&mut buf, KIND_REQUEST)?;
        let device = take_varint(&mut buf)?;
        let count = take_varint(&mut buf)?;
        if count > MAX_FRAMES as u64 {
            return Err(DecodeError::BadField("frame count over cap"));
        }
        let mut frames = Vec::with_capacity(count as usize);
        for _ in 0..count {
            frames.push(Frame::decode_from(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(DecodeError::BadField("trailing bytes"));
        }
        Ok(BatchRequest { device, frames })
    }
}

impl BatchResponse {
    /// Encodes to the wire format.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_RESPONSE);
        put_varint(&mut buf, self.replies.len() as u64);
        for reply in &self.replies {
            reply.encode_into(&mut buf);
        }
        buf
    }

    /// Exact size [`encode`](BatchResponse::encode) will produce.
    pub fn encoded_len(&self) -> usize {
        3 + varint_len(self.replies.len() as u64)
            + self.replies.iter().map(Reply::encoded_len).sum::<usize>()
    }

    /// Decodes a full message; trailing bytes are an error.
    pub fn decode(mut buf: &[u8]) -> Result<BatchResponse, DecodeError> {
        check_header(&mut buf, KIND_RESPONSE)?;
        let count = take_varint(&mut buf)?;
        if count > MAX_FRAMES as u64 {
            return Err(DecodeError::BadField("reply count over cap"));
        }
        let mut replies = Vec::with_capacity(count as usize);
        for _ in 0..count {
            replies.push(Reply::decode_from(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(DecodeError::BadField("trailing bytes"));
        }
        Ok(BatchResponse { replies })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(components: Vec<f32>) -> FeatureVector {
        FeatureVector::from_vec(components).unwrap()
    }

    fn sample_request() -> BatchRequest {
        BatchRequest {
            device: 42,
            frames: vec![
                Frame::Lookup {
                    key: key(vec![0.5, 0.5001, -0.25, 1.5]),
                },
                Frame::Insert {
                    key: key(vec![1.0, 2.0]),
                    label: 7,
                    confidence: 0.93,
                },
                Frame::GossipAd {
                    key: key(vec![-3.0]),
                    label: 1_000_000,
                    confidence: 0.5,
                },
            ],
        }
    }

    fn sample_response() -> BatchResponse {
        BatchResponse {
            replies: vec![
                Reply::Hit(EdgeHit {
                    label: 7,
                    confidence: 0.93,
                    distance: 0.125,
                }),
                Reply::Miss,
                Reply::Accepted,
            ],
        }
    }

    #[test]
    fn request_round_trips_and_len_is_exact() {
        let req = sample_request();
        let wire = req.encode();
        assert_eq!(wire.len(), req.encoded_len());
        assert_eq!(BatchRequest::decode(&wire).unwrap(), req);
    }

    #[test]
    fn response_round_trips_and_len_is_exact() {
        let resp = sample_response();
        let wire = resp.encode();
        assert_eq!(wire.len(), resp.encoded_len());
        assert_eq!(BatchResponse::decode(&wire).unwrap(), resp);
    }

    #[test]
    fn empty_batch_round_trips() {
        let req = BatchRequest {
            device: 0,
            frames: vec![],
        };
        let wire = req.encode();
        assert_eq!(wire.len(), req.encoded_len());
        assert_eq!(BatchRequest::decode(&wire).unwrap(), req);
    }

    #[test]
    fn similar_components_compress() {
        // XOR-delta coding: a near-constant key (the common case for
        // consecutive video frames) must encode well under 4 bytes per
        // component.
        let dim = 64;
        let near_constant: Vec<f32> = (0..dim).map(|i| 0.5 + (i as f32) * 1e-6).collect();
        let frame = Frame::Lookup {
            key: key(near_constant),
        };
        assert!(
            frame.encoded_len() < 1 + 2 + dim * 4,
            "delta coding saved nothing: {} bytes for {dim} dims",
            frame.encoded_len()
        );
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        for msg in [sample_request().encode(), sample_response().encode()] {
            for cut in 0..msg.len() {
                let r = BatchRequest::decode(&msg[..cut]);
                let s = BatchResponse::decode(&msg[..cut]);
                assert!(r.is_err() && s.is_err(), "prefix of {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn rejects_bad_magic_version_tag_and_trailing() {
        let mut wire = sample_request().encode().to_vec();
        let original = wire.clone();
        wire[0] = 0xAB;
        assert_eq!(
            BatchRequest::decode(&wire),
            Err(DecodeError::BadMagic(0xAB))
        );
        wire = original.clone();
        wire[1] = 9;
        assert_eq!(BatchRequest::decode(&wire), Err(DecodeError::BadVersion(9)));
        wire = original.clone();
        wire[2] = 0x77;
        assert_eq!(BatchRequest::decode(&wire), Err(DecodeError::BadTag(0x77)));
        wire = original.clone();
        wire.push(0);
        assert_eq!(
            BatchRequest::decode(&wire),
            Err(DecodeError::BadField("trailing bytes"))
        );
        // A response decoder refuses a request (kind mismatch) and vice
        // versa.
        assert!(BatchResponse::decode(&original).is_err());
        assert!(BatchRequest::decode(&sample_response().encode()).is_err());
    }

    #[test]
    fn rejects_hostile_counts_and_values() {
        // Frame count over cap must fail before allocating.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_REQUEST);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, u64::MAX);
        assert_eq!(
            BatchRequest::decode(&buf),
            Err(DecodeError::BadField("frame count over cap"))
        );

        // Zero-dimension key.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_REQUEST);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 1);
        buf.put_u8(TAG_LOOKUP);
        put_varint(&mut buf, 0);
        assert_eq!(
            BatchRequest::decode(&buf),
            Err(DecodeError::BadField("key dimension zero"))
        );

        // NaN key component (bit pattern of f32::NAN survives the XOR
        // delta but not FeatureVector validation).
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_REQUEST);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 1);
        buf.put_u8(TAG_LOOKUP);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, u64::from(f32::NAN.to_bits()));
        assert_eq!(
            BatchRequest::decode(&buf),
            Err(DecodeError::BadField("key not finite"))
        );

        // NaN confidence on a hit.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(KIND_RESPONSE);
        put_varint(&mut buf, 1);
        buf.put_u8(TAG_HIT);
        put_varint(&mut buf, 3);
        buf.put_f64_le(f64::NAN);
        buf.put_f64_le(0.5);
        assert_eq!(
            BatchResponse::decode(&buf),
            Err(DecodeError::BadField("confidence not finite"))
        );
    }

    #[test]
    fn varint_round_trips_across_magnitudes() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut cursor: &[u8] = &buf;
            assert_eq!(take_varint(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 10 continuation bytes with payload bits beyond bit 63.
        let bad = [0xFFu8; 10];
        let mut cursor: &[u8] = &bad;
        assert_eq!(
            take_varint(&mut cursor),
            Err(DecodeError::BadField("varint overflow"))
        );
    }
}
