//! The length-prefixed, checksummed frame layer under every lego-serve
//! stream.
//!
//! The `EvalRequest` / `EvalReport` codec in `lego-eval` describes one
//! self-contained payload; a socket carries *many* of them back to back.
//! Frames add the minimum structure a byte stream needs: a magic so a
//! desynchronized peer is detected immediately, a kind byte so control
//! frames can ride the same pipe as requests, a length prefix so the
//! receiver knows where the payload ends, and a 64-bit checksum so
//! corrupted payloads fail loudly instead of decoding into garbage.
//!
//! ```text
//! "LGF2" | kind u8 | len u32 LE | checksum u64 LE | payload (len bytes)
//! ```
//!
//! The checksum folds the payload a word at a time ([`checksum`]). The
//! magic's last byte is the format version, so a peer on an earlier format
//! (`"LGFR"`, byte-wise FNV-1a) is refused with `BAD_MAGIC`, not a
//! checksum mismatch.
//!
//! Every failure is a plain [`CodecError`] — the same error type the
//! payload codec uses — so one [`lego_eval::EvalError`] covers the whole
//! decode path and maps onto a stable wire status.

use lego_eval::codec::{Dec, Enc};
use lego_eval::CodecError;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame on a lego-serve stream.
pub const MAGIC: [u8; 4] = *b"LGF2";

/// Frame carrying an encoded [`lego_eval::EvalRequest`].
pub const KIND_REQUEST: u8 = 1;
/// Frame carrying a reply payload: `status u16 LE | body`.
pub const KIND_REPLY: u8 = 2;
/// Control frame asking the server to drain and exit (empty payload).
pub const KIND_SHUTDOWN: u8 = 3;

/// Fixed header size: magic + kind + len + checksum.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Default per-frame payload limit (16 MiB) — far above any zoo request,
/// low enough that a corrupted length prefix cannot make the server
/// allocate unbounded memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind: [`KIND_REQUEST`], [`KIND_REPLY`], or [`KIND_SHUTDOWN`].
    pub kind: u8,
    /// The payload bytes (already checksum-verified).
    pub payload: Vec<u8>,
}

/// Checksum of a payload: from the FNV-64 offset basis XOR-ed with the
/// length, each little-endian 8-byte word `w` (the last zero-padded) folds
/// in as `h = (h ^ w) * FNV prime; h ^= h >> 32`. Every step is a bijection
/// of `h`, so a change inside one word is always caught; without the
/// `h >> 32` fold, two bit flips in different words can cancel.
pub fn checksum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let tail = (!words.remainder().is_empty()).then_some(&tail[..]);
    words
        .chain(tail)
        .fold(0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64, |h, w| {
            let h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte word")))
                .wrapping_mul(0x100_0000_01b3);
            h ^ (h >> 32)
        })
}

/// Encodes one frame to bytes.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(HEADER_LEN + payload.len());
    e.bytes(&MAGIC);
    e.u8(kind);
    e.u32(payload.len() as u32);
    e.u64(checksum(payload));
    e.bytes(payload);
    e.into_bytes()
}

fn valid_kind(kind: u8) -> Result<u8, CodecError> {
    match kind {
        KIND_REQUEST | KIND_REPLY | KIND_SHUTDOWN => Ok(kind),
        tag => Err(CodecError::InvalidTag {
            what: "frame kind",
            tag,
        }),
    }
}

/// Parses a frame header into `(kind, payload length, checksum)`,
/// refusing a length over `max_len` before anything is allocated for it.
fn parse_header(header: &[u8; HEADER_LEN], max_len: usize) -> Result<(u8, usize, u64), CodecError> {
    let mut d = Dec::new(header);
    if d.bytes(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let kind = valid_kind(d.u8()?)?;
    let len = d.u32()? as usize;
    if len > max_len {
        return Err(CodecError::FrameTooLarge { len, max: max_len });
    }
    Ok((kind, len, d.u64()?))
}

fn verified(kind: u8, payload: Vec<u8>, expect: u64) -> Result<Frame, CodecError> {
    if checksum(&payload) != expect {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(Frame { kind, payload })
}

/// Decodes one frame from the front of `bytes`, returning the frame and
/// how many bytes it consumed. Trailing bytes are the next frame's
/// business and are not an error.
pub fn decode_frame(bytes: &[u8], max_len: usize) -> Result<(Frame, usize), CodecError> {
    let mut d = Dec::new(bytes);
    let header = d.bytes(HEADER_LEN)?.try_into().expect("HEADER_LEN bytes");
    let (kind, len, expect) = parse_header(header, max_len)?;
    let frame = verified(kind, d.bytes(len)?.to_vec(), expect)?;
    Ok((frame, HEADER_LEN + len))
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), CodecError> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Fills `buf` from `r`, distinguishing clean EOF at the first byte
/// (`Ok(false)`) from EOF mid-buffer (`Truncated`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, CodecError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) if at == 0 => return Ok(false),
            Ok(0) => {
                return Err(CodecError::Truncated {
                    at,
                    needed: buf.len() - at,
                })
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame from a stream. `Ok(None)` is a clean end of stream
/// (the peer closed between frames); EOF inside a frame is `Truncated`.
///
/// On [`CodecError::FrameTooLarge`] the header has been consumed but the
/// payload has not — callers that want to keep the connection alive can
/// [`discard`] the announced length and resynchronize on the next frame.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Frame>, CodecError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let (kind, len, expect) = parse_header(&header, max_len)?;
    // The length was just bounds-checked against the receiver's limit, so
    // this allocation is capped no matter what the wire claims.
    let mut payload = vec![0u8; len];
    if !read_exact_or_eof(r, &mut payload)? {
        return Err(CodecError::Truncated {
            at: HEADER_LEN,
            needed: len,
        });
    }
    verified(kind, payload, expect).map(Some)
}

/// Reads and throws away `len` bytes — how a server skips an oversized
/// payload after refusing it, keeping the stream frame-aligned.
pub fn discard(r: &mut impl Read, len: usize) -> Result<(), CodecError> {
    let copied = io::copy(&mut r.take(len as u64), &mut io::sink())?;
    if copied as usize != len {
        return Err(CodecError::Truncated {
            at: copied as usize,
            needed: len - copied as usize,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `read_frame` over the same bytes must fail with the variant
    /// `decode_frame` reported: one header parser, two ways in.
    fn assert_stream_fails_alike(bytes: &[u8], slice_err: &CodecError) {
        let stream_err = read_frame(&mut io::Cursor::new(bytes), DEFAULT_MAX_FRAME_LEN)
            .expect_err("the stream reader must refuse what the slice decoder refused");
        assert_eq!(
            std::mem::discriminant(&stream_err),
            std::mem::discriminant(slice_err),
            "stream {stream_err:?} vs slice {slice_err:?}"
        );
    }

    #[test]
    fn frames_round_trip_for_every_kind() {
        for kind in [KIND_REQUEST, KIND_REPLY, KIND_SHUTDOWN] {
            let payload = vec![kind; 37];
            let bytes = encode_frame(kind, &payload);
            let (frame, used) = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame, Frame { kind, payload });
        }
    }

    #[test]
    fn empty_payloads_are_legal() {
        let bytes = encode_frame(KIND_SHUTDOWN, &[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        let (frame, _) = decode_frame(&bytes, 0).unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_truncated_prefix_fails_cleanly() {
        // The never-trust-wire-lengths property, frame edition: every
        // strict prefix must error (never panic, never succeed), and the
        // error must say how many more bytes would be needed.
        let bytes = encode_frame(KIND_REQUEST, b"all the paper's tables");
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_LEN) {
                Err(err @ CodecError::Truncated { at, needed }) => {
                    assert!(at + needed <= bytes.len(), "cut {cut}");
                    assert!(needed > 0, "cut {cut}");
                    // A stream that ends before its first byte closed
                    // cleanly; every later cut is the same truncation.
                    if cut > 0 {
                        assert_stream_fails_alike(&bytes[..cut], &err);
                    }
                }
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = encode_frame(KIND_REQUEST, b"checksummed");
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let err = decode_frame(&bad, DEFAULT_MAX_FRAME_LEN)
                    .expect_err(&format!("flipping byte {i} by {flip:#04x} must not decode"));
                assert_stream_fails_alike(&bad, &err);
                match (i, err) {
                    (0..=3, CodecError::BadMagic) => {}
                    (4, CodecError::InvalidTag { what, .. }) => assert_eq!(what, "frame kind"),
                    // A corrupted length either overflows the limit or
                    // leaves the buffer short / checksum-misaligned.
                    (
                        5..=8,
                        CodecError::FrameTooLarge { .. }
                        | CodecError::Truncated { .. }
                        | CodecError::ChecksumMismatch,
                    ) => {}
                    (_, CodecError::ChecksumMismatch) => {}
                    (i, err) => panic!("byte {i} flipped by {flip:#04x}: unexpected {err:?}"),
                }
            }
        }
    }

    /// Payload bytes that differ within every word.
    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn every_one_and_two_bit_flip_changes_the_checksum() {
        for len in [64, 67] {
            let mut bytes = payload(len);
            let clean = checksum(&bytes);
            let bits = len * 8;
            let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
            for a in 0..bits {
                flip(&mut bytes, a);
                assert_ne!(checksum(&bytes), clean, "{len} B, bit {a}");
                for b in a + 1..bits {
                    flip(&mut bytes, b);
                    assert_ne!(checksum(&bytes), clean, "{len} B, bits {a} and {b}");
                    flip(&mut bytes, b);
                }
                flip(&mut bytes, a);
            }
        }
    }

    #[test]
    fn zero_payloads_of_every_length_have_distinct_checksums() {
        // The zero-padded tail must not make `[0; n]` and `[0; n + 1]`
        // collide: the length in the seed tells them apart.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=64 {
            assert!(seen.insert(checksum(&vec![0u8; len])), "length {len}");
        }
    }

    #[test]
    fn byte_wise_checksummed_frames_are_refused_by_their_magic() {
        let mut bytes = encode_frame(KIND_REQUEST, &payload(40));
        bytes[..4].copy_from_slice(b"LGFR");
        let err = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic), "{err:?}");
        assert_stream_fails_alike(&bytes, &err);
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let bytes = encode_frame(KIND_REQUEST, &[0u8; 64]);
        match decode_frame(&bytes, 63) {
            Err(CodecError::FrameTooLarge { len: 64, max: 63 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_reads_match_slice_decodes_and_resume_after_discard() {
        let a = encode_frame(KIND_REQUEST, b"first");
        let big = encode_frame(KIND_REQUEST, &[7u8; 128]);
        let b = encode_frame(KIND_REPLY, b"second");
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&big);
        stream.extend_from_slice(&b);

        let mut r = io::Cursor::new(stream);
        let first = read_frame(&mut r, 64).unwrap().unwrap();
        assert_eq!(first.payload, b"first");
        match read_frame(&mut r, 64) {
            Err(CodecError::FrameTooLarge { len, max: 64 }) => discard(&mut r, len).unwrap(),
            other => panic!("{other:?}"),
        }
        let second = read_frame(&mut r, 64).unwrap().unwrap();
        assert_eq!(second.payload, b"second");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_inside_a_frame_is_truncated_not_clean() {
        let bytes = encode_frame(KIND_REQUEST, b"cut short");
        let mut r = io::Cursor::new(&bytes[..bytes.len() - 3]);
        match read_frame(&mut r, DEFAULT_MAX_FRAME_LEN) {
            Err(CodecError::Truncated { .. }) => {}
            other => panic!("{other:?}"),
        }
    }
}
