//! Reply payload encoding: the status/body contract inside a
//! [`KIND_REPLY`](crate::frame::KIND_REPLY) frame.
//!
//! ```text
//! status u16 LE | body
//! ```
//!
//! Status `0` means the body is an encoded [`EvalReport`], byte-identical
//! to what an offline [`lego_eval::EvalSession`] would produce for the
//! same request. Any other status carries the stable
//! [`StatusCode`] from the unified error API, with a UTF-8 human-readable
//! message as the body — an evaluation failure is a *reply*, never a
//! dropped connection.

use lego_eval::codec::{Dec, Enc};
use lego_eval::{CodecError, EvalError, EvalReport, StatusCode};

/// Encodes a reply payload: status, then body.
pub fn encode_reply(status: StatusCode, body: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(2 + body.len());
    e.u16(status.as_u16());
    e.bytes(body);
    e.into_bytes()
}

/// An OK reply wrapping an already-encoded report.
pub fn encode_ok_reply(report_bytes: &[u8]) -> Vec<u8> {
    encode_reply(StatusCode::OK, report_bytes)
}

/// A status reply for a failed or refused request. The body is the
/// error's rendered message, so clients can show *why* without a lookup
/// table.
pub fn encode_status_reply(error: &EvalError) -> Vec<u8> {
    encode_reply(error.status(), error.to_string().as_bytes())
}

/// Splits a reply payload into its status and body.
pub fn decode_reply(payload: &[u8]) -> Result<(StatusCode, &[u8]), CodecError> {
    let status = StatusCode(Dec::new(payload).u16()?);
    Ok((status, &payload[2..]))
}

/// Interprets a reply payload from the client's side: an OK status hands
/// back the body (the raw report bytes of an evaluation; empty for a
/// shutdown acknowledgement), anything else becomes
/// [`EvalError::Remote`] carrying the wire status and message.
pub fn report_bytes_from_reply(payload: &[u8]) -> Result<Vec<u8>, EvalError> {
    let (status, body) = decode_reply(payload)?;
    if status.is_ok() {
        Ok(body.to_vec())
    } else {
        Err(EvalError::from_wire(
            status,
            String::from_utf8_lossy(body).into_owned(),
        ))
    }
}

/// [`report_bytes_from_reply`], decoded the rest of the way.
pub fn report_from_reply(payload: &[u8]) -> Result<EvalReport, EvalError> {
    let bytes = report_bytes_from_reply(payload)?;
    Ok(EvalReport::decode(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_replies_round_trip_report_bytes() {
        let body = b"pretend this is a report";
        let payload = encode_ok_reply(body);
        assert_eq!(report_bytes_from_reply(&payload).unwrap(), body);
    }

    #[test]
    fn status_replies_become_remote_errors() {
        let err = EvalError::Rejected(lego_eval::Reject::QueueFull { capacity: 8 });
        let payload = encode_status_reply(&err);
        match report_bytes_from_reply(&payload) {
            Err(EvalError::Remote { code, message }) => {
                assert_eq!(code, StatusCode::QUEUE_FULL);
                assert_eq!(message, err.to_string());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_payloads_are_truncated() {
        assert!(matches!(
            decode_reply(&[0]),
            Err(CodecError::Truncated { at: 0, needed: 1 })
        ));
    }
}
