//! The `br-net` wire format: length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"BRN1"
//! 4       1     version = 1
//! 5       1     frame type (see [`Frame`])
//! 6       2     reserved, must be zero
//! 8       4     payload length, little-endian (max 1 MiB)
//! 12      N     payload
//! ```
//!
//! Payload primitives are little-endian integers, `f64` as its IEEE-754
//! bit pattern, and strings as a `u32` length prefix followed by UTF-8
//! bytes (max 64 KiB). Decoding is total: any byte sequence produces
//! either a [`Frame`] or a typed [`ProtocolError`] — never a panic and
//! never a partial read past a declared length.

use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"BRN1";
/// Protocol version carried in byte 4.
pub const VERSION: u8 = 1;
/// Header size in bytes (magic + version + type + reserved + length).
pub const HEADER_LEN: usize = 12;
/// Hard cap on the payload length field.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Hard cap on any length-prefixed string inside a payload.
pub const MAX_STRING: usize = 1 << 16;

pub use br_service::queue::Lane;

/// A lane's wire code. Pinned here, not derived from the queue's lane
/// index, so the protocol cannot drift with the service.
fn lane_code(lane: Lane) -> u8 {
    match lane {
        Lane::Interactive => 0,
        Lane::Batch => 1,
    }
}

fn lane_from_code(code: u8) -> Result<Lane, ProtocolError> {
    match code {
        0 => Ok(Lane::Interactive),
        1 => Ok(Lane::Batch),
        v => Err(ProtocolError::BadEnum {
            what: "lane",
            value: v,
        }),
    }
}

/// Why a request was refused with [`Frame::Reject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The client already has `quota` admitted-but-unfinished jobs.
    QuotaExceeded,
    /// The job spec failed to parse or to materialize.
    BadSpec,
    /// The server is draining and accepts no new work.
    Draining,
    /// The request's deadline passed before a worker picked it up.
    DeadlineExpired,
    /// A `Submit` arrived before the `Hello` handshake.
    NotReady,
    /// The job was admitted but execution failed.
    Failed,
}

impl RejectCode {
    /// Metric-label / display name.
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::QuotaExceeded => "quota",
            RejectCode::BadSpec => "bad_spec",
            RejectCode::Draining => "draining",
            RejectCode::DeadlineExpired => "deadline",
            RejectCode::NotReady => "not_ready",
            RejectCode::Failed => "failed",
        }
    }

    fn code(self) -> u8 {
        match self {
            RejectCode::QuotaExceeded => 1,
            RejectCode::BadSpec => 2,
            RejectCode::Draining => 3,
            RejectCode::DeadlineExpired => 4,
            RejectCode::NotReady => 5,
            RejectCode::Failed => 6,
        }
    }

    fn from_code(code: u8) -> Result<RejectCode, ProtocolError> {
        match code {
            1 => Ok(RejectCode::QuotaExceeded),
            2 => Ok(RejectCode::BadSpec),
            3 => Ok(RejectCode::Draining),
            4 => Ok(RejectCode::DeadlineExpired),
            5 => Ok(RejectCode::NotReady),
            6 => Ok(RejectCode::Failed),
            v => Err(ProtocolError::BadEnum {
                what: "reject code",
                value: v,
            }),
        }
    }
}

/// Per-step summary carried by [`Frame::ChainResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStepSummary {
    /// Step label from the chain program.
    pub label: String,
    /// Whether the step's reorganization plan came from the cache.
    pub cache_hit: bool,
    /// Whether the step's operand structures were first seen within the
    /// chain.
    pub fresh_structure: bool,
    /// Simulated end-to-end latency of the step, ms.
    pub total_ms: f64,
    /// Fill-in of the multiply: product nnz relative to the left operand,
    /// in permille.
    pub fill_in_permille: u64,
    /// `nnz` of the step output after post-ops.
    pub output_nnz: u64,
}

/// One protocol message. Client→server: `Hello`, `Submit`, `SubmitChain`,
/// `Release`, `Shutdown`, `Goodbye`. Server→client: everything else.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on every connection: identifies the client for quotas.
    Hello {
        /// Quota key; free-form, at most [`MAX_STRING`] bytes.
        client_id: String,
    },
    /// Handshake answer, echoing the server's admission parameters.
    HelloAck {
        /// Server protocol version.
        version: u8,
        /// Whether the worker gate is currently held (see `Release`).
        held: bool,
        /// Queue capacity above which submissions are shed.
        shed_threshold: u32,
        /// Per-client in-flight quota.
        quota: u32,
    },
    /// One job request. Exactly one response frame (`Result`, `Shed`, or
    /// `Reject`) answers each `Submit`.
    Submit {
        /// Client-chosen id, echoed in the response.
        request_id: u64,
        /// Priority lane.
        lane: Lane,
        /// Relative deadline in milliseconds; 0 = none.
        deadline_ms: u32,
        /// Job description in the job-file line format
        /// (e.g. `rmat=8,6 seed=1`); `repeat` must be 1.
        spec: String,
    },
    /// Successful completion of an admitted request.
    Result {
        /// Id from the `Submit`.
        request_id: u64,
        /// Job label derived from the spec.
        label: String,
        /// Index of the worker that executed the job.
        worker: u32,
        /// Whether the reorganization plan came from the cache.
        cache_hit: bool,
        /// Simulated end-to-end latency, ms.
        total_ms: f64,
        /// Achieved simulated GFLOPS.
        gflops: f64,
        /// `nnz(C)`.
        nnz_c: u64,
    },
    /// The request was load-shed: the queue was at the shed threshold.
    Shed {
        /// Id from the `Submit`.
        request_id: u64,
        /// Lane the request targeted.
        lane: Lane,
        /// Total queue depth observed at the admission decision.
        depth: u32,
        /// The configured shed threshold.
        threshold: u32,
    },
    /// The request was refused for a typed reason.
    Reject {
        /// Id from the `Submit`.
        request_id: u64,
        /// Why.
        code: RejectCode,
        /// Human-readable detail.
        message: String,
    },
    /// Opens the worker gate of a server started with `hold` (admission
    /// decisions before the release are a pure function of arrival order).
    Release,
    /// Begin graceful drain: stop accepting, finish queued and in-flight
    /// jobs, notify every connection, then exit.
    Shutdown,
    /// Broadcast to every open connection when a drain begins.
    DrainNotice {
        /// Human-readable detail.
        message: String,
    },
    /// Clean client-side close.
    Goodbye,
    /// Protocol-level failure; the server closes the connection after it.
    Error {
        /// What went wrong.
        message: String,
    },
    /// One chain request (a whole multi-step workload in one queue slot).
    /// Exactly one response frame (`ChainResult`, `Shed`, or `Reject`)
    /// answers each `SubmitChain`; the deadline covers the whole chain.
    SubmitChain {
        /// Client-chosen id, echoed in the response.
        request_id: u64,
        /// Priority lane.
        lane: Lane,
        /// Relative deadline in milliseconds for the *whole chain*; 0 =
        /// none.
        deadline_ms: u32,
        /// Chain description in the job-file line format
        /// (e.g. `chain=galerkin rmat=8,6 seed=1`); `repeat` must be 1.
        spec: String,
    },
    /// Successful completion of an admitted chain, with the per-step
    /// roll-up.
    ChainResult {
        /// Id from the `SubmitChain`.
        request_id: u64,
        /// Chain label derived from the spec.
        label: String,
        /// Index of the worker that executed the chain.
        worker: u32,
        /// Summed simulated latency across all steps, ms.
        total_ms: f64,
        /// `nnz` of the final step's output.
        nnz_c: u64,
        /// Per-step summaries, in program order.
        steps: Vec<ChainStepSummary>,
    },
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::Submit { .. } => 3,
            Frame::Result { .. } => 4,
            Frame::Shed { .. } => 5,
            Frame::Reject { .. } => 6,
            Frame::Release => 7,
            Frame::Shutdown => 8,
            Frame::DrainNotice { .. } => 9,
            Frame::Goodbye => 10,
            Frame::Error { .. } => 11,
            Frame::SubmitChain { .. } => 12,
            Frame::ChainResult { .. } => 13,
        }
    }

    /// Short display name of the frame type.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Submit { .. } => "submit",
            Frame::Result { .. } => "result",
            Frame::Shed { .. } => "shed",
            Frame::Reject { .. } => "reject",
            Frame::Release => "release",
            Frame::Shutdown => "shutdown",
            Frame::DrainNotice { .. } => "drain_notice",
            Frame::Goodbye => "goodbye",
            Frame::Error { .. } => "error",
            Frame::SubmitChain { .. } => "submit_chain",
            Frame::ChainResult { .. } => "chain_result",
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { client_id } => put_str(out, client_id),
            Frame::HelloAck {
                version,
                held,
                shed_threshold,
                quota,
            } => {
                out.push(*version);
                out.push(*held as u8);
                put_u32(out, *shed_threshold);
                put_u32(out, *quota);
            }
            Frame::Submit {
                request_id,
                lane,
                deadline_ms,
                spec,
            } => {
                put_u64(out, *request_id);
                out.push(lane_code(*lane));
                put_u32(out, *deadline_ms);
                put_str(out, spec);
            }
            Frame::Result {
                request_id,
                label,
                worker,
                cache_hit,
                total_ms,
                gflops,
                nnz_c,
            } => {
                put_u64(out, *request_id);
                put_str(out, label);
                put_u32(out, *worker);
                out.push(*cache_hit as u8);
                put_u64(out, total_ms.to_bits());
                put_u64(out, gflops.to_bits());
                put_u64(out, *nnz_c);
            }
            Frame::Shed {
                request_id,
                lane,
                depth,
                threshold,
            } => {
                put_u64(out, *request_id);
                out.push(lane_code(*lane));
                put_u32(out, *depth);
                put_u32(out, *threshold);
            }
            Frame::Reject {
                request_id,
                code,
                message,
            } => {
                put_u64(out, *request_id);
                out.push(code.code());
                put_str(out, message);
            }
            Frame::Release | Frame::Shutdown | Frame::Goodbye => {}
            Frame::DrainNotice { message } | Frame::Error { message } => put_str(out, message),
            Frame::SubmitChain {
                request_id,
                lane,
                deadline_ms,
                spec,
            } => {
                put_u64(out, *request_id);
                out.push(lane_code(*lane));
                put_u32(out, *deadline_ms);
                put_str(out, spec);
            }
            Frame::ChainResult {
                request_id,
                label,
                worker,
                total_ms,
                nnz_c,
                steps,
            } => {
                put_u64(out, *request_id);
                put_str(out, label);
                put_u32(out, *worker);
                put_u64(out, total_ms.to_bits());
                put_u64(out, *nnz_c);
                put_u32(out, steps.len() as u32);
                for step in steps {
                    put_str(out, &step.label);
                    out.push(step.cache_hit as u8);
                    out.push(step.fresh_structure as u8);
                    put_u64(out, step.total_ms.to_bits());
                    put_u64(out, step.fill_in_permille);
                    put_u64(out, step.output_nnz);
                }
            }
        }
    }

    fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut c = Cursor::new(payload);
        let frame = match frame_type {
            1 => Frame::Hello {
                client_id: c.get_str()?,
            },
            2 => Frame::HelloAck {
                version: c.get_u8()?,
                held: c.get_bool()?,
                shed_threshold: c.get_u32()?,
                quota: c.get_u32()?,
            },
            3 => Frame::Submit {
                request_id: c.get_u64()?,
                lane: lane_from_code(c.get_u8()?)?,
                deadline_ms: c.get_u32()?,
                spec: c.get_str()?,
            },
            4 => Frame::Result {
                request_id: c.get_u64()?,
                label: c.get_str()?,
                worker: c.get_u32()?,
                cache_hit: c.get_bool()?,
                total_ms: f64::from_bits(c.get_u64()?),
                gflops: f64::from_bits(c.get_u64()?),
                nnz_c: c.get_u64()?,
            },
            5 => Frame::Shed {
                request_id: c.get_u64()?,
                lane: lane_from_code(c.get_u8()?)?,
                depth: c.get_u32()?,
                threshold: c.get_u32()?,
            },
            6 => Frame::Reject {
                request_id: c.get_u64()?,
                code: RejectCode::from_code(c.get_u8()?)?,
                message: c.get_str()?,
            },
            7 => Frame::Release,
            8 => Frame::Shutdown,
            9 => Frame::DrainNotice {
                message: c.get_str()?,
            },
            10 => Frame::Goodbye,
            11 => Frame::Error {
                message: c.get_str()?,
            },
            12 => Frame::SubmitChain {
                request_id: c.get_u64()?,
                lane: lane_from_code(c.get_u8()?)?,
                deadline_ms: c.get_u32()?,
                spec: c.get_str()?,
            },
            13 => {
                let request_id = c.get_u64()?;
                let label = c.get_str()?;
                let worker = c.get_u32()?;
                let total_ms = f64::from_bits(c.get_u64()?);
                let nnz_c = c.get_u64()?;
                let count = c.get_u32()?;
                // No pre-allocation from the declared count: a hostile
                // count fails with Truncated on the first missing step.
                let mut steps = Vec::new();
                for _ in 0..count {
                    steps.push(ChainStepSummary {
                        label: c.get_str()?,
                        cache_hit: c.get_bool()?,
                        fresh_structure: c.get_bool()?,
                        total_ms: f64::from_bits(c.get_u64()?),
                        fill_in_permille: c.get_u64()?,
                        output_nnz: c.get_u64()?,
                    });
                }
                Frame::ChainResult {
                    request_id,
                    label,
                    worker,
                    total_ms,
                    nnz_c,
                    steps,
                }
            }
            v => return Err(ProtocolError::UnknownFrameType(v)),
        };
        c.finish()?;
        Ok(frame)
    }

    /// Serializes the frame to its full wire bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 32);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.frame_type());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&[0, 0, 0, 0]); // length placeholder
        self.encode_payload(&mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[8..12].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Parses one full frame from `bytes`. Fails on truncation, trailing
    /// bytes, and every malformed field — never panics.
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtocolError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtocolError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let (frame_type, len) = parse_header(&bytes[..HEADER_LEN])?;
        let total = HEADER_LEN + len;
        if bytes.len() < total {
            return Err(ProtocolError::Truncated {
                needed: total,
                have: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(ProtocolError::TrailingBytes {
                extra: bytes.len() - total,
            });
        }
        Frame::decode_payload(frame_type, &bytes[HEADER_LEN..total])
    }
}

/// Validates a 12-byte header, returning `(frame_type, payload_len)`.
fn parse_header(h: &[u8]) -> Result<(u8, usize), ProtocolError> {
    debug_assert_eq!(h.len(), HEADER_LEN);
    if h[0..4] != MAGIC {
        return Err(ProtocolError::BadMagic([h[0], h[1], h[2], h[3]]));
    }
    if h[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(h[4]));
    }
    if h[6] != 0 || h[7] != 0 {
        return Err(ProtocolError::NonzeroReserved);
    }
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if len as usize > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    Ok((h[5], len as usize))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Encoding oversized strings is a caller bug worth catching loudly in
    // tests, but truncation keeps the frame well-formed in release builds.
    debug_assert!(s.len() <= MAX_STRING, "string exceeds MAX_STRING");
    let bytes = &s.as_bytes()[..s.len().min(MAX_STRING)];
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn get_bool(&mut self) -> Result<bool, ProtocolError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtocolError::BadEnum {
                what: "bool",
                value: v,
            }),
        }
    }

    fn get_u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn get_str(&mut self) -> Result<String, ProtocolError> {
        let len = self.get_u32()?;
        if len as usize > MAX_STRING {
            return Err(ProtocolError::StringTooLong { len });
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Everything that can be wrong with received bytes. Decoding never panics
/// and never reads past a declared length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Version byte differs from [`VERSION`].
    UnsupportedVersion(u8),
    /// Frame-type byte matches no known frame.
    UnknownFrameType(u8),
    /// Reserved header bytes were nonzero.
    NonzeroReserved,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// Fewer bytes than a field (or the header) requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// Bytes left over after the last field.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A string length prefix exceeds [`MAX_STRING`].
    StringTooLong {
        /// The declared length.
        len: u32,
    },
    /// An enum discriminant (lane, reject code, bool) was out of range.
    BadEnum {
        /// Which field.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            ProtocolError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtocolError::NonzeroReserved => write!(f, "nonzero reserved header bytes"),
            ProtocolError::Oversized { len } => {
                write!(f, "payload length {len} exceeds max {MAX_PAYLOAD}")
            }
            ProtocolError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::StringTooLong { len } => {
                write!(f, "string length {len} exceeds max {MAX_STRING}")
            }
            ProtocolError::BadEnum { what, value } => {
                write!(f, "invalid {what} value {value}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A failure while reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error.
    Io(io::Error),
    /// The bytes violated the protocol.
    Protocol(ProtocolError),
    /// The peer closed mid-frame.
    UnexpectedEof,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Protocol(e) => write!(f, "protocol error: {e}"),
            FrameError::UnexpectedEof => write!(f, "connection closed mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        FrameError::Protocol(e)
    }
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed cleanly at a frame
/// boundary; closing mid-frame is [`FrameError::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let (frame_type, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(FrameError::UnexpectedEof);
        }
        filled += n;
    }
    Ok(Some(Frame::decode_payload(frame_type, &payload)?))
}

/// Fills `buf` completely. `Ok(false)` if the stream was already at EOF;
/// EOF after a partial read is [`FrameError::UnexpectedEof`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(FrameError::UnexpectedEof),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn all_frame_types_round_trip() {
        round_trip(Frame::Hello {
            client_id: "bench-client".into(),
        });
        round_trip(Frame::HelloAck {
            version: VERSION,
            held: true,
            shed_threshold: 8,
            quota: 32,
        });
        round_trip(Frame::Submit {
            request_id: u64::MAX,
            lane: Lane::Interactive,
            deadline_ms: 1500,
            spec: "rmat=6,4 seed=7".into(),
        });
        round_trip(Frame::Result {
            request_id: 3,
            label: "rmat-6-4".into(),
            worker: 1,
            cache_hit: true,
            total_ms: 12.5,
            gflops: 0.25,
            nnz_c: 12_345,
        });
        round_trip(Frame::Shed {
            request_id: 9,
            lane: Lane::Batch,
            depth: 8,
            threshold: 8,
        });
        round_trip(Frame::Reject {
            request_id: 4,
            code: RejectCode::QuotaExceeded,
            message: "quota 6 reached".into(),
        });
        round_trip(Frame::Release);
        round_trip(Frame::Shutdown);
        round_trip(Frame::DrainNotice {
            message: "draining".into(),
        });
        round_trip(Frame::Goodbye);
        round_trip(Frame::Error {
            message: "unexpected frame".into(),
        });
        round_trip(Frame::SubmitChain {
            request_id: 17,
            lane: Lane::Batch,
            deadline_ms: 30_000,
            spec: "chain=galerkin rmat=8,6 seed=1".into(),
        });
        round_trip(Frame::ChainResult {
            request_id: 17,
            label: "rmat-8-6:galerkin".into(),
            worker: 2,
            total_ms: 42.75,
            nnz_c: 9_876,
            steps: vec![
                ChainStepSummary {
                    label: "restrict".into(),
                    cache_hit: false,
                    fresh_structure: true,
                    total_ms: 10.5,
                    fill_in_permille: 1_500,
                    output_nnz: 4_321,
                },
                ChainStepSummary {
                    label: "restrict-refresh".into(),
                    cache_hit: true,
                    fresh_structure: false,
                    total_ms: 8.25,
                    fill_in_permille: 1_500,
                    output_nnz: 4_321,
                },
            ],
        });
        round_trip(Frame::ChainResult {
            request_id: 1,
            label: "empty".into(),
            worker: 0,
            total_ms: 0.0,
            nnz_c: 0,
            steps: vec![],
        });
    }

    #[test]
    fn chain_result_rejects_every_truncation() {
        let bytes = Frame::ChainResult {
            request_id: 5,
            label: "chain".into(),
            worker: 1,
            total_ms: 1.5,
            nnz_c: 10,
            steps: vec![ChainStepSummary {
                label: "s1".into(),
                cache_hit: true,
                fresh_structure: false,
                total_ms: 1.5,
                fill_in_permille: 1_000,
                output_nnz: 10,
            }],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Frame::decode(&bytes[..cut]),
                    Err(ProtocolError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        // A hostile step count with no step bytes is truncation, not OOM.
        let hostile = Frame::ChainResult {
            request_id: 5,
            label: "chain".into(),
            worker: 1,
            total_ms: 1.5,
            nnz_c: 10,
            steps: vec![],
        };
        let mut bytes = hostile.encode();
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn header_validation_is_typed() {
        let good = Frame::Goodbye.encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(
            Frame::decode(&bad),
            Err(ProtocolError::UnsupportedVersion(9))
        );
        let mut bad = good.clone();
        bad[5] = 200;
        assert_eq!(
            Frame::decode(&bad),
            Err(ProtocolError::UnknownFrameType(200))
        );
        let mut bad = good.clone();
        bad[6] = 1;
        assert_eq!(Frame::decode(&bad), Err(ProtocolError::NonzeroReserved));
        let mut bad = good;
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let bytes = Frame::Hello {
            client_id: "abc".into(),
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            Frame::decode(&extra),
            Err(ProtocolError::TrailingBytes { .. })
        ));
        // Mid-frame EOF on a stream is UnexpectedEof, not a clean None.
        let mut cursor = io::Cursor::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::UnexpectedEof)
        ));
    }

    #[test]
    fn bad_utf8_and_bad_enums_are_typed() {
        let mut bytes = Frame::Hello {
            client_id: "ab".into(),
        }
        .encode();
        let n = bytes.len();
        bytes[n - 1] = 0xff; // invalid UTF-8 continuation
        assert_eq!(Frame::decode(&bytes), Err(ProtocolError::BadUtf8));

        let mut bytes = Frame::Submit {
            request_id: 1,
            lane: Lane::Batch,
            deadline_ms: 0,
            spec: String::new(),
        }
        .encode();
        bytes[HEADER_LEN + 8] = 7; // lane byte
        assert_eq!(
            Frame::decode(&bytes),
            Err(ProtocolError::BadEnum {
                what: "lane",
                value: 7
            })
        );
    }
}
