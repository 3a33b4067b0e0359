//! The unified evaluation error: one public [`EvalError`] enum with a
//! stable [`StatusCode`] mapping.
//!
//! Earlier generations of this workspace reported failure three different
//! ways: [`CodecError`] from the wire codec, `SnapshotError` from the
//! explorer, and ad-hoc `Result<_, String>` / panics in the bench bins.
//! A network boundary forces the question of what a failure *is*, because
//! a server must answer with bytes, not a stack trace. `EvalError` is the
//! answer: every failure mode in the evaluation stack collapses into one
//! enum, and every variant maps onto a stable `u16` [`StatusCode`] that
//! `lego-serve` writes verbatim as the wire status byte-pair. The status
//! ranges are HTTP-shaped on purpose:
//!
//! | range | meaning                                             |
//! |-------|-----------------------------------------------------|
//! | `0`   | OK                                                  |
//! | `1xx` | malformed bytes (codec/frame decode failures)       |
//! | `2xx` | well-formed but semantically invalid request        |
//! | `3xx` | admission control (queue full, frame too large, …)  |
//! | `4xx` | transport I/O                                       |
//! | `5xx` | internal server failure                             |
//!
//! Codes are part of the wire contract: a code, once shipped, never
//! changes meaning.

use crate::codec::CodecError;
use lego_model::HwConfigError;
use std::fmt;

/// A stable `u16` status for one evaluation outcome, written verbatim as
/// the two-byte status field of a `lego-serve` reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// The request was evaluated; the reply body is an encoded report.
    pub const OK: StatusCode = StatusCode(0);

    // 1xx — the bytes themselves were bad.
    /// Payload ended before a field was complete.
    pub const TRUNCATED: StatusCode = StatusCode(100);
    /// Payload does not start with the evaluation-codec magic.
    pub const BAD_MAGIC: StatusCode = StatusCode(101);
    /// Codec version not understood by this build.
    pub const UNSUPPORTED_VERSION: StatusCode = StatusCode(102);
    /// Kind byte does not match what the decoder expected.
    pub const WRONG_KIND: StatusCode = StatusCode(103);
    /// An enum/option tag byte held an undefined value.
    pub const INVALID_TAG: StatusCode = StatusCode(104);
    /// A length-prefixed string was not valid UTF-8.
    pub const INVALID_UTF8: StatusCode = StatusCode(105);
    /// Well-formed data followed by garbage.
    pub const TRAILING_BYTES: StatusCode = StatusCode(106);
    /// A framed payload's checksum did not match its bytes.
    pub const CHECKSUM_MISMATCH: StatusCode = StatusCode(107);

    // 2xx — the bytes decoded, but the request makes no sense.
    /// The hardware configuration failed validation.
    pub const INVALID_HW: StatusCode = StatusCode(200);
    /// The workload has no layers.
    pub const EMPTY_WORKLOAD: StatusCode = StatusCode(201);
    /// The tile cap is not a positive layer count.
    pub const INVALID_TILE_CAP: StatusCode = StatusCode(202);
    /// A name (model, objective, …) matched nothing known.
    pub const UNKNOWN_NAME: StatusCode = StatusCode(203);
    /// Command-line / request usage error.
    pub const USAGE: StatusCode = StatusCode(204);
    /// A technology constant is negative or not finite, or the clock is
    /// not positive.
    pub const INVALID_TECH: StatusCode = StatusCode(205);
    /// A penalized objective's weight is negative or not finite, or a
    /// soft budget is not finite.
    pub const INVALID_OBJECTIVE: StatusCode = StatusCode(206);
    /// A layer has a dimension, stride, count or non-tensor element count
    /// that is not positive, or more operations or non-tensor elements
    /// than an `i64` counts.
    pub const INVALID_LAYER: StatusCode = StatusCode(207);

    // 3xx — the request was fine; the server declined to admit it.
    /// The bounded admission queue was full.
    pub const QUEUE_FULL: StatusCode = StatusCode(300);
    /// The frame announced a payload beyond the server's limit.
    pub const FRAME_TOO_LARGE: StatusCode = StatusCode(301);
    /// The server is draining and no longer admits work.
    pub const SHUTTING_DOWN: StatusCode = StatusCode(302);

    // 4xx — transport.
    /// Reading or writing bytes failed.
    pub const IO: StatusCode = StatusCode(400);

    // 5xx — the server itself broke.
    /// An internal invariant failed while evaluating.
    pub const INTERNAL: StatusCode = StatusCode(500);

    /// The code as the raw `u16` written on the wire.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// True iff this is [`StatusCode::OK`].
    #[must_use]
    pub fn is_ok(self) -> bool {
        self.0 == 0
    }

    /// Canonical reason phrase for a code (the range name for codes this
    /// build does not know by name).
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self.0 {
            0 => "ok",
            100 => "truncated payload",
            101 => "bad magic",
            102 => "unsupported codec version",
            103 => "wrong payload kind",
            104 => "invalid tag",
            105 => "invalid utf-8",
            106 => "trailing bytes",
            107 => "checksum mismatch",
            200 => "invalid hardware configuration",
            201 => "empty workload",
            202 => "invalid tile cap",
            203 => "unknown name",
            204 => "usage error",
            205 => "invalid technology model",
            206 => "invalid objective",
            207 => "invalid layer",
            300 => "queue full",
            301 => "frame too large",
            302 => "shutting down",
            400 => "i/o failure",
            500 => "internal error",
            108..=199 => "malformed payload",
            208..=299 => "invalid request",
            303..=399 => "not admitted",
            401..=499 => "transport failure",
            _ => "internal error",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.0, self.reason())
    }
}

/// Why the server refused to admit an otherwise well-formed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The bounded admission queue already held `capacity` requests.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The server is draining and no longer admits work.
    ShuttingDown,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests queued)")
            }
            Reject::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Every way the evaluation stack can fail, from bad bytes to a full
/// admission queue, with a stable wire [`StatusCode`] per variant.
#[derive(Debug)]
pub enum EvalError {
    /// The payload bytes could not be decoded (or written to disk).
    Codec(CodecError),
    /// The request's hardware configuration failed validation.
    Hw(HwConfigError),
    /// The request's workload has no layers to price.
    EmptyWorkload,
    /// The request's tile cap is not a positive layer count.
    InvalidTileCap(i64),
    /// A technology constant of the request is negative or not finite, or
    /// its clock is not positive; carries the offending value.
    InvalidTech(f64),
    /// A penalized objective's weight is negative or not finite, or a soft
    /// budget is not finite; carries the offending value.
    InvalidObjective(f64),
    /// A layer of the request's workload has a dimension, stride, count or
    /// non-tensor element count that is not positive, or more operations
    /// or non-tensor elements than an `i64` counts; carries the layer's
    /// index.
    InvalidLayer(usize),
    /// A name looked up against a registry matched nothing.
    Unknown {
        /// What kind of thing was being looked up.
        what: &'static str,
        /// The name that matched nothing.
        name: String,
    },
    /// The caller's arguments were malformed (bench-bin usage errors).
    Usage(String),
    /// The server declined to admit the request.
    Rejected(Reject),
    /// A transport read or write failed.
    Io(std::io::Error),
    /// A remote peer answered with a non-OK status frame.
    Remote {
        /// The wire status.
        code: StatusCode,
        /// The UTF-8 message carried in the reply body.
        message: String,
    },
    /// An internal invariant failed.
    Internal(String),
}

impl EvalError {
    /// The stable wire status for this failure.
    #[must_use]
    pub fn status(&self) -> StatusCode {
        match self {
            EvalError::Codec(e) => match e {
                CodecError::Truncated { .. } => StatusCode::TRUNCATED,
                CodecError::BadMagic => StatusCode::BAD_MAGIC,
                CodecError::UnsupportedVersion(_) => StatusCode::UNSUPPORTED_VERSION,
                CodecError::WrongKind { .. } => StatusCode::WRONG_KIND,
                CodecError::InvalidTag { .. } => StatusCode::INVALID_TAG,
                CodecError::InvalidUtf8 => StatusCode::INVALID_UTF8,
                CodecError::TrailingBytes(_) => StatusCode::TRAILING_BYTES,
                CodecError::ChecksumMismatch => StatusCode::CHECKSUM_MISMATCH,
                CodecError::FrameTooLarge { .. } => StatusCode::FRAME_TOO_LARGE,
                CodecError::Io(_) => StatusCode::IO,
            },
            EvalError::Hw(_) => StatusCode::INVALID_HW,
            EvalError::EmptyWorkload => StatusCode::EMPTY_WORKLOAD,
            EvalError::InvalidTileCap(_) => StatusCode::INVALID_TILE_CAP,
            EvalError::InvalidTech(_) => StatusCode::INVALID_TECH,
            EvalError::InvalidObjective(_) => StatusCode::INVALID_OBJECTIVE,
            EvalError::InvalidLayer(_) => StatusCode::INVALID_LAYER,
            EvalError::Unknown { .. } => StatusCode::UNKNOWN_NAME,
            EvalError::Usage(_) => StatusCode::USAGE,
            EvalError::Rejected(r) => match r {
                Reject::QueueFull { .. } => StatusCode::QUEUE_FULL,
                Reject::ShuttingDown => StatusCode::SHUTTING_DOWN,
            },
            EvalError::Io(_) => StatusCode::IO,
            EvalError::Remote { code, .. } => *code,
            EvalError::Internal(_) => StatusCode::INTERNAL,
        }
    }

    /// Reconstructs the error a remote peer reported: the status code it
    /// sent plus the UTF-8 message from the reply body.
    #[must_use]
    pub fn from_wire(code: StatusCode, message: String) -> EvalError {
        EvalError::Remote { code, message }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Codec(e) => write!(f, "{e}"),
            EvalError::Hw(e) => write!(f, "invalid hardware configuration: {e}"),
            EvalError::EmptyWorkload => write!(f, "workload has no layers"),
            EvalError::InvalidTileCap(v) => {
                write!(f, "tile cap must be a positive layer count, got {v}")
            }
            EvalError::InvalidTech(v) => write!(
                f,
                "technology constants must be finite and non-negative, with a positive clock; got {v}"
            ),
            EvalError::InvalidObjective(v) => write!(
                f,
                "penalty weights must be finite and non-negative, and soft budgets finite; got {v}"
            ),
            EvalError::InvalidLayer(i) => write!(
                f,
                "layer {i} needs positive dimensions, stride, count and non-tensor elements, and at most i64::MAX operations and non-tensor elements"
            ),
            EvalError::Unknown { what, name } => write!(f, "unknown {what} {name:?}"),
            EvalError::Usage(msg) => write!(f, "{msg}"),
            EvalError::Rejected(r) => write!(f, "{r}"),
            EvalError::Io(e) => write!(f, "i/o failed: {e}"),
            EvalError::Remote { code, message } => {
                if message.is_empty() {
                    write!(f, "remote status {code}")
                } else {
                    write!(f, "remote status {code}: {message}")
                }
            }
            EvalError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Codec(e) => Some(e),
            EvalError::Hw(e) => Some(e),
            EvalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for EvalError {
    fn from(e: CodecError) -> EvalError {
        EvalError::Codec(e)
    }
}

impl From<HwConfigError> for EvalError {
    fn from(e: HwConfigError) -> EvalError {
        EvalError::Hw(e)
    }
}

impl From<std::io::Error> for EvalError {
    fn from(e: std::io::Error) -> EvalError {
        EvalError::Io(e)
    }
}

impl From<Reject> for EvalError {
    fn from(r: Reject) -> EvalError {
        EvalError::Rejected(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_are_stable() {
        // The wire contract: these exact numbers, forever.
        assert_eq!(StatusCode::OK.as_u16(), 0);
        assert_eq!(StatusCode::TRUNCATED.as_u16(), 100);
        assert_eq!(StatusCode::BAD_MAGIC.as_u16(), 101);
        assert_eq!(StatusCode::UNSUPPORTED_VERSION.as_u16(), 102);
        assert_eq!(StatusCode::WRONG_KIND.as_u16(), 103);
        assert_eq!(StatusCode::INVALID_TAG.as_u16(), 104);
        assert_eq!(StatusCode::INVALID_UTF8.as_u16(), 105);
        assert_eq!(StatusCode::TRAILING_BYTES.as_u16(), 106);
        assert_eq!(StatusCode::CHECKSUM_MISMATCH.as_u16(), 107);
        assert_eq!(StatusCode::INVALID_HW.as_u16(), 200);
        assert_eq!(StatusCode::EMPTY_WORKLOAD.as_u16(), 201);
        assert_eq!(StatusCode::INVALID_TILE_CAP.as_u16(), 202);
        assert_eq!(StatusCode::UNKNOWN_NAME.as_u16(), 203);
        assert_eq!(StatusCode::USAGE.as_u16(), 204);
        assert_eq!(StatusCode::INVALID_TECH.as_u16(), 205);
        assert_eq!(StatusCode::INVALID_OBJECTIVE.as_u16(), 206);
        assert_eq!(StatusCode::INVALID_LAYER.as_u16(), 207);
        assert_eq!(StatusCode::QUEUE_FULL.as_u16(), 300);
        assert_eq!(StatusCode::FRAME_TOO_LARGE.as_u16(), 301);
        assert_eq!(StatusCode::SHUTTING_DOWN.as_u16(), 302);
        assert_eq!(StatusCode::IO.as_u16(), 400);
        assert_eq!(StatusCode::INTERNAL.as_u16(), 500);
    }

    #[test]
    fn every_codec_error_maps_into_the_1xx_or_4xx_range() {
        let cases: Vec<(CodecError, StatusCode)> = vec![
            (
                CodecError::Truncated { at: 0, needed: 1 },
                StatusCode::TRUNCATED,
            ),
            (CodecError::BadMagic, StatusCode::BAD_MAGIC),
            (
                CodecError::UnsupportedVersion(9),
                StatusCode::UNSUPPORTED_VERSION,
            ),
            (
                CodecError::WrongKind {
                    expected: 1,
                    found: 2,
                },
                StatusCode::WRONG_KIND,
            ),
            (
                CodecError::InvalidTag { what: "x", tag: 9 },
                StatusCode::INVALID_TAG,
            ),
            (CodecError::InvalidUtf8, StatusCode::INVALID_UTF8),
            (CodecError::TrailingBytes(3), StatusCode::TRAILING_BYTES),
            (CodecError::ChecksumMismatch, StatusCode::CHECKSUM_MISMATCH),
            (
                CodecError::FrameTooLarge { len: 10, max: 5 },
                StatusCode::FRAME_TOO_LARGE,
            ),
            (CodecError::Io(std::io::Error::other("x")), StatusCode::IO),
        ];
        for (err, want) in cases {
            assert_eq!(EvalError::from(err).status(), want);
        }
    }

    #[test]
    fn remote_round_trips_the_wire_status() {
        let err = EvalError::from_wire(StatusCode::QUEUE_FULL, "busy".into());
        assert_eq!(err.status(), StatusCode::QUEUE_FULL);
        assert!(err.to_string().contains("queue full"));
    }

    #[test]
    fn reason_covers_every_named_code_and_the_ranges() {
        assert_eq!(StatusCode::OK.reason(), "ok");
        assert_eq!(StatusCode(199).reason(), "malformed payload");
        assert_eq!(StatusCode(250).reason(), "invalid request");
        assert_eq!(StatusCode(399).reason(), "not admitted");
        assert_eq!(StatusCode(499).reason(), "transport failure");
        assert_eq!(StatusCode(999).reason(), "internal error");
    }
}
