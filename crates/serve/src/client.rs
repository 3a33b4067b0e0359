//! The blocking client half of the wire protocol.
//!
//! A [`Client`] wraps any `Read + Write` stream (TCP, Unix socket, or an
//! in-memory duplex in tests) and speaks frames: requests out, replies
//! in. Because the server answers in submission order, a client may
//! pipeline with [`send`](Client::send) / [`recv_report_bytes`](Client::recv_report_bytes)
//! pairs, or stay strictly synchronous with [`evaluate`](Client::evaluate).
//!
//! Server-side refusals surface as [`EvalError::Remote`] carrying the
//! stable wire status — a rejected request is an error *value*, and the
//! connection stays usable for the next request.

use crate::frame::{self, DEFAULT_MAX_FRAME_LEN, KIND_REPLY, KIND_REQUEST, KIND_SHUTDOWN};
use crate::wire;
use lego_eval::{CodecError, EvalError, EvalReport, EvalRequest, StatusCode};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A framed connection to a lego-serve endpoint.
pub struct Client<S> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Client::over(TcpStream::connect(addr)?))
    }
}

impl Client<UnixStream> {
    /// Connects over a Unix socket.
    pub fn connect_unix<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Client::over(UnixStream::connect(path)?))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn over(stream: S) -> Self {
        Client { stream }
    }

    /// Sends one request frame without waiting for its reply
    /// (pipelining: replies come back in submission order).
    pub fn send(&mut self, request: &EvalRequest) -> Result<(), EvalError> {
        frame::write_frame(&mut self.stream, KIND_REQUEST, &request.encode())?;
        Ok(())
    }

    /// Reads the next frame, which must be a reply, and returns its payload.
    fn recv_reply_payload(&mut self) -> Result<Vec<u8>, EvalError> {
        let frame = frame::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?
            .ok_or_else(|| EvalError::Io(io::Error::other("server closed the connection")))?;
        if frame.kind != KIND_REPLY {
            return Err(CodecError::InvalidTag {
                what: "frame kind",
                tag: frame.kind,
            }
            .into());
        }
        Ok(frame.payload)
    }

    /// Reads the next reply frame and splits it into status and body.
    pub fn recv_raw(&mut self) -> Result<(StatusCode, Vec<u8>), EvalError> {
        let payload = self.recv_reply_payload()?;
        let (status, body) = wire::decode_reply(&payload)?;
        Ok((status, body.to_vec()))
    }

    /// Reads the next reply; an OK status yields the raw encoded report
    /// bytes, any other status becomes [`EvalError::Remote`].
    pub fn recv_report_bytes(&mut self) -> Result<Vec<u8>, EvalError> {
        wire::report_bytes_from_reply(&self.recv_reply_payload()?)
    }

    /// One synchronous round trip, decoded.
    pub fn evaluate(&mut self, request: &EvalRequest) -> Result<EvalReport, EvalError> {
        Ok(EvalReport::decode(&self.evaluate_bytes(request)?)?)
    }

    /// One synchronous round trip, returning the reply's raw report
    /// bytes — what byte-identity checks compare against an offline
    /// `session.evaluate(request).encode()`.
    pub fn evaluate_bytes(&mut self, request: &EvalRequest) -> Result<Vec<u8>, EvalError> {
        self.send(request)?;
        self.recv_report_bytes()
    }

    /// Asks the server to drain and exit; resolves once the server
    /// acknowledges with an OK status.
    pub fn shutdown_server(&mut self) -> Result<(), EvalError> {
        frame::write_frame(&mut self.stream, KIND_SHUTDOWN, &[])?;
        self.recv_report_bytes().map(|_| ())
    }
}
