//! Hand-rolled LZ77 snapshot compression.
//!
//! The edge server periodically ships its whole cache snapshot to cold
//! clients (and to disk); snapshots are dominated by serialized feature
//! vectors whose bytes repeat heavily across entries, so a small greedy
//! LZ77 with a hash-table match finder recovers most of the win of a
//! real compressor without any external dependency.
//!
//! Wire format: `[MAGIC_Z, VERSION_Z]`, LEB128 uncompressed length,
//! then a token stream. A control byte with the top bit clear starts a
//! literal run of `ctrl + 1` bytes (1–128); a control byte with the top
//! bit set is a back-reference of length `(ctrl & 0x7F) + MIN_MATCH`
//! followed by an LEB128 distance (1 ≤ distance ≤ position).
//!
//! Decompression is total: corrupt input returns a typed
//! [`CompressError`], and the output buffer is bounded by the declared
//! length before anything is reserved.

use bytes::{BufMut, BytesMut};

/// First byte of a compressed snapshot.
pub const MAGIC_Z: u8 = 0xED;
/// Compressed-format version.
pub const VERSION_Z: u8 = 1;

/// Shortest back-reference worth emitting.
const MIN_MATCH: usize = 4;
/// Longest back-reference one token can carry.
const MAX_MATCH: usize = 127 + MIN_MATCH;
/// How far back a match may reach.
const WINDOW: usize = 64 * 1024;
/// Largest snapshot the edge tier exchanges, in bytes: the most a
/// decoder will agree to reconstruct, and the most a client will read
/// as a response body. One cap for both, so a body the client accepts
/// cannot expand past it inside `restore_blob`.
pub const MAX_SNAPSHOT: usize = 64 * 1024 * 1024;

/// Why a compressed blob failed to decompress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The input ended before the declared output was complete.
    Truncated,
    /// The first byte was not [`MAGIC_Z`].
    BadMagic(u8),
    /// The version byte was not [`VERSION_Z`].
    BadVersion(u8),
    /// A token was internally inconsistent (distance beyond the output
    /// written so far, declared length over the cap, output overrun).
    Corrupt(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadMagic(b) => write!(f, "bad snapshot magic 0x{b:02X}"),
            CompressError::BadVersion(b) => write!(f, "unsupported snapshot version {b}"),
            CompressError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl std::error::Error for CompressError {}

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

fn take_u8(buf: &mut &[u8]) -> Result<u8, CompressError> {
    match buf.split_first() {
        Some((&b, rest)) => {
            *buf = rest;
            Ok(b)
        }
        None => Err(CompressError::Truncated),
    }
}

fn take_varint(buf: &mut &[u8]) -> Result<u64, CompressError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let byte = take_u8(buf)?;
        let payload = u64::from(byte & 0x7F);
        if i == 9 && payload > 1 {
            return Err(CompressError::Corrupt("varint overflow"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CompressError::Corrupt("varint too long"))
}

/// Hashes the 4 bytes at `data[i..]` into the match-finder table.
fn hash4(data: &[u8], i: usize) -> usize {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&data[i..i + 4]);
    let v = u32::from_le_bytes(raw);
    // Fibonacci hashing; the table is 2^15 slots.
    (v.wrapping_mul(0x9E37_79B9) >> 17) as usize
}

/// Compresses `input`. Worst case (incompressible input) costs one
/// control byte per 128 literals plus the header — under 1% overhead.
pub fn compress(input: &[u8]) -> BytesMut {
    let mut out = BytesMut::with_capacity(input.len() / 2 + 16);
    out.put_u8(MAGIC_Z);
    out.put_u8(VERSION_Z);
    put_varint(&mut out, input.len() as u64);

    // Last position each 4-byte hash was seen at (+1 so 0 means "never").
    let mut table = vec![0usize; 1 << 15];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut BytesMut, from: usize, to: usize| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(128);
            out.put_u8((run - 1) as u8);
            out.put_slice(&input[start..start + run]);
            start += run;
        }
    };

    while i + MIN_MATCH <= input.len() {
        let slot = hash4(input, i);
        let candidate = table[slot];
        table[slot] = i + 1;
        let mut emitted = false;
        if candidate > 0 {
            let pos = candidate - 1;
            let distance = i - pos;
            if (1..=WINDOW).contains(&distance) {
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && input[pos + len] == input[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    flush_literals(&mut out, literal_start, i);
                    out.put_u8(0x80 | ((len - MIN_MATCH) as u8));
                    put_varint(&mut out, distance as u64);
                    // Seed the table through the match so later data can
                    // reference its interior.
                    let stop = (i + len).min(input.len().saturating_sub(MIN_MATCH - 1));
                    for j in (i + 1)..stop {
                        table[hash4(input, j)] = j + 1;
                    }
                    i += len;
                    literal_start = i;
                    emitted = true;
                }
            }
        }
        if !emitted {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len());
    out
}

/// Decompresses a blob produced by [`compress`].
pub fn decompress(mut input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let magic = take_u8(&mut input)?;
    if magic != MAGIC_Z {
        return Err(CompressError::BadMagic(magic));
    }
    let version = take_u8(&mut input)?;
    if version != VERSION_Z {
        return Err(CompressError::BadVersion(version));
    }
    let declared = take_varint(&mut input)?;
    if declared > MAX_SNAPSHOT as u64 {
        return Err(CompressError::Corrupt("declared length over cap"));
    }
    let declared = declared as usize;
    let mut out = Vec::with_capacity(declared.min(1 << 20));
    while out.len() < declared {
        let ctrl = take_u8(&mut input)?;
        if ctrl & 0x80 == 0 {
            let run = usize::from(ctrl) + 1;
            if input.len() < run {
                return Err(CompressError::Truncated);
            }
            if out.len() + run > declared {
                return Err(CompressError::Corrupt("literal run overruns output"));
            }
            out.extend_from_slice(&input[..run]);
            input = &input[run..];
        } else {
            let len = usize::from(ctrl & 0x7F) + MIN_MATCH;
            let distance = take_varint(&mut input)?;
            if distance == 0 || distance > out.len() as u64 {
                return Err(CompressError::Corrupt("back-reference before start"));
            }
            if out.len() + len > declared {
                return Err(CompressError::Corrupt("match overruns output"));
            }
            let distance = distance as usize;
            // Byte-at-a-time so overlapping matches (distance < len)
            // replicate, RLE-style.
            let start = out.len() - distance;
            for j in 0..len {
                let b = out[start + j];
                out.push(b);
            }
        }
    }
    if !input.is_empty() {
        return Err(CompressError::Corrupt("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let z = compress(data);
        assert_eq!(decompress(&z).unwrap(), data, "round-trip mismatch");
        z.len()
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_input_compresses() {
        let data: Vec<u8> = b"feature-vector-entry-".repeat(200);
        let z_len = round_trip(&data);
        assert!(
            z_len < data.len() / 4,
            "repetitive input only reached {z_len}/{} bytes",
            data.len()
        );
    }

    #[test]
    fn rle_style_overlap_round_trips() {
        // distance < length exercises the overlapping-copy path.
        let data = vec![7u8; 10_000];
        let z_len = round_trip(&data);
        assert!(z_len < 200, "constant input compressed to {z_len}");
    }

    #[test]
    fn incompressible_input_overhead_is_bounded() {
        // A linear congruential byte stream has no 4-byte repeats to
        // speak of; the output must stay within ~1% + header.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let z = compress(&data);
        assert!(z.len() < data.len() + data.len() / 64 + 16);
        assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_return_typed_errors() {
        let z = compress(b"the quick brown fox jumps over the lazy dog");
        // Bad magic / version.
        let mut bad = z.to_vec();
        bad[0] = 0x00;
        assert_eq!(decompress(&bad), Err(CompressError::BadMagic(0x00)));
        let mut bad = z.to_vec();
        bad[1] = 9;
        assert_eq!(decompress(&bad), Err(CompressError::BadVersion(9)));
        // Truncation at every prefix either errors or never panics.
        for cut in 0..z.len() {
            assert!(decompress(&z[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Trailing garbage.
        let mut bad = z.to_vec();
        bad.push(0xFF);
        assert!(decompress(&bad).is_err());
        // A back-reference before the start of output.
        let mut forged = BytesMut::new();
        forged.put_u8(MAGIC_Z);
        forged.put_u8(VERSION_Z);
        put_varint(&mut forged, 10);
        forged.put_u8(0x80); // match of MIN_MATCH
        put_varint(&mut forged, 5); // ...but nothing written yet
        assert_eq!(
            decompress(&forged),
            Err(CompressError::Corrupt("back-reference before start"))
        );
        // Hostile declared length fails before allocating.
        let mut forged = BytesMut::new();
        forged.put_u8(MAGIC_Z);
        forged.put_u8(VERSION_Z);
        put_varint(&mut forged, u64::MAX / 2);
        assert_eq!(
            decompress(&forged),
            Err(CompressError::Corrupt("declared length over cap"))
        );
    }

    #[test]
    fn one_byte_over_the_snapshot_cap_is_refused_before_allocating() {
        // A four-byte-header blob that declares MAX_SNAPSHOT + 1 bytes and
        // carries no tokens: refused on the declaration alone, where a
        // decoder that trusted it would reserve first and then report the
        // stream as truncated.
        let mut forged = BytesMut::new();
        forged.put_u8(MAGIC_Z);
        forged.put_u8(VERSION_Z);
        put_varint(&mut forged, MAX_SNAPSHOT as u64 + 1);
        assert!(forged.len() < 8);
        assert_eq!(
            decompress(&forged),
            Err(CompressError::Corrupt("declared length over cap"))
        );
        // At the cap itself the declaration is accepted and the missing
        // tokens are what fails.
        let mut at_cap = BytesMut::new();
        at_cap.put_u8(MAGIC_Z);
        at_cap.put_u8(VERSION_Z);
        put_varint(&mut at_cap, MAX_SNAPSHOT as u64);
        assert_eq!(decompress(&at_cap), Err(CompressError::Truncated));
    }
}
