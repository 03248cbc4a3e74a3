//! The TCP wire protocol: little-endian, length-prefixed frames.
//!
//! ```text
//! frame    := len:u32le body
//! body     := tag:u8 payload
//! HELLO    (0x01) := client_id:u64            → HELLO_OK (0x81) := client_id:u64 cores:u32
//! OPS      (0x02) := count:u32 { seq:u64 line:u64 kind:u8 }*
//!        → BATCH    (0x82) := count:u32 { seq:u64 shed:u8 issued:u64 complete:u64 comp[6]:u64 }*
//! ```
//!
//! A client id names one live session. The server closes the
//! connection without a HELLO_OK if the id is already held by a live
//! session (until its connection ends) or is at or above `1 << 32`,
//! the range of in-process session ids.
//!
//! One request, one response; a client pipelines by sending larger
//! OPS batches, not by overlapping frames. An OPS frame may carry at
//! most [`MAX_OPS`] ops, the most whose BATCH reply fits in
//! [`MAX_FRAME`]. The same listener also
//! answers plain `GET /metrics` and `GET /health`: the connection
//! handler sniffs the first 4 bytes, and `"GET "` read as a
//! little-endian u32 is 0x2054_4547 — far above [`MAX_FRAME`] — so an
//! HTTP request can never be mistaken for a binary frame.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use dve_sim::latency::{Component, LatencyBreakdown};
use dve_workloads::op::MemReq;

use crate::batcher::SubmittedOp;
use crate::epoch::Completion;

/// Upper bound on a frame body; protects both sides from a corrupt
/// length prefix.
pub const MAX_FRAME: u32 = 1 << 24;

/// Tag byte plus the u32 count that open every OPS and BATCH body.
const HEADER_BYTES: usize = 5;
/// Wire size of one op in an OPS body.
const OP_BYTES: usize = 17;
/// Wire size of one completion in a BATCH body.
const COMPLETION_BYTES: usize = 73;

/// The largest op count an OPS frame may carry. A completion costs
/// 73 B against an op's 17 B, so the reply, not the request, is the
/// binding limit: this is the most ops whose BATCH still fits in
/// [`MAX_FRAME`] (229,824).
pub const MAX_OPS: usize = (MAX_FRAME as usize - HEADER_BYTES) / COMPLETION_BYTES;

pub const TAG_HELLO: u8 = 0x01;
pub const TAG_OPS: u8 = 0x02;
pub const TAG_HELLO_OK: u8 = 0x81;
pub const TAG_BATCH: u8 = 0x82;

/// Reads one length-prefixed frame body.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; frame_len(len)?];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Validates a frame's length prefix before anything is sized by it.
fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    Ok(len as usize)
}

/// Reads one frame from a stream whose read timeout is an idle timeout.
///
/// A timeout before the frame's first byte is idleness: `Ok(None)`.
/// Once a byte has arrived, timeouts are retried until the frame is
/// complete, so a sender that pauses mid-frame cannot desynchronise the
/// stream; `abandon` is polled on each retry and, when it returns true,
/// the timeout is returned as the error. On a prompt sender this makes
/// the same `read` calls as [`read_frame`].
pub fn read_frame_after_idle(
    stream: &mut impl Read,
    abandon: impl Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let first = loop {
        match stream.read(&mut len) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(None),
            Err(e) => return Err(e),
        }
    };
    fill_retrying(stream, &mut len[first..], &abandon)?;
    let mut body = vec![0u8; frame_len(len)?];
    fill_retrying(stream, &mut body, &abandon)?;
    Ok(Some(body))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `read_exact` that retries timeouts until `abandon()` says stop.
fn fill_retrying(
    stream: &mut impl Read,
    mut buf: &mut [u8],
    abandon: &impl Fn() -> bool,
) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && !abandon() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one length-prefixed frame.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    assert!(!body.is_empty() && body.len() <= MAX_FRAME as usize);
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn take<const N: usize>(buf: &[u8], at: &mut usize) -> io::Result<[u8; N]> {
    let end = *at + N;
    let slice = buf
        .get(*at..end)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame"))?;
    *at = end;
    Ok(slice.try_into().unwrap())
}

fn take_u64(buf: &[u8], at: &mut usize) -> io::Result<u64> {
    Ok(u64::from_le_bytes(take::<8>(buf, at)?))
}

/// Reads a u32 item count and rejects any count the rest of `body`
/// cannot hold at `item_bytes` per item, so a client-chosen count never
/// sizes an allocation the frame does not back.
fn take_count(body: &[u8], at: &mut usize, item_bytes: usize) -> io::Result<usize> {
    let count = u32::from_le_bytes(take::<4>(body, at)?) as usize;
    if count > (body.len() - *at) / item_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("count {count} exceeds the {}-byte body", body.len()),
        ));
    }
    Ok(count)
}

/// Encodes a HELLO request.
pub fn encode_hello(client: u64) -> Vec<u8> {
    let mut b = vec![TAG_HELLO];
    b.extend_from_slice(&client.to_le_bytes());
    b
}

/// Body size of a HELLO frame: the tag and the client id.
const HELLO_BYTES: usize = 9;

/// Reads the body of a HELLO frame whose length prefix the caller has
/// already read, and returns the client id. A prefix other than the
/// 9-byte HELLO body is refused before any body byte is read.
pub fn read_hello(stream: &mut impl Read, prefix: [u8; 4]) -> io::Result<u64> {
    let expected_hello = || io::Error::new(io::ErrorKind::InvalidData, "expected HELLO");
    if u32::from_le_bytes(prefix) as usize != HELLO_BYTES {
        return Err(expected_hello());
    }
    let mut body = [0u8; HELLO_BYTES];
    stream.read_exact(&mut body)?;
    if body[0] != TAG_HELLO {
        return Err(expected_hello());
    }
    take_u64(&body, &mut 1)
}

/// Encodes a HELLO_OK response.
pub fn encode_hello_ok(client: u64, cores: u32) -> Vec<u8> {
    let mut b = vec![TAG_HELLO_OK];
    b.extend_from_slice(&client.to_le_bytes());
    b.extend_from_slice(&cores.to_le_bytes());
    b
}

/// Encodes an OPS request. `client` is not on the wire — the server
/// stamps ops with the session's registered id, so a session cannot
/// submit on another session's behalf.
pub fn encode_ops(ops: &[(u64, u64, MemReq)]) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER_BYTES + ops.len() * OP_BYTES);
    b.push(TAG_OPS);
    b.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for &(seq, line, req) in ops {
        b.extend_from_slice(&seq.to_le_bytes());
        b.extend_from_slice(&line.to_le_bytes());
        b.push(match req {
            MemReq::Read => 0,
            MemReq::Write => 1,
        });
    }
    b
}

/// Decodes an OPS request body (after the tag byte has been checked),
/// stamping each op with the session's `client` id. Rejects more than
/// [`MAX_OPS`] ops, whose reply could not be framed.
pub fn decode_ops(body: &[u8], client: u64) -> io::Result<Vec<SubmittedOp>> {
    let mut at = 1;
    let count = take_count(body, &mut at, OP_BYTES)?;
    if count > MAX_OPS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{count} ops exceed the {MAX_OPS}-op frame limit"),
        ));
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = take_u64(body, &mut at)?;
        let line = take_u64(body, &mut at)?;
        let req = match take::<1>(body, &mut at)?[0] {
            0 => MemReq::Read,
            1 => MemReq::Write,
            k => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad op kind {k}"),
                ))
            }
        };
        ops.push(SubmittedOp {
            client,
            seq,
            line,
            req,
            // Tenant priority is service policy, not client input: the
            // runner stamps it from the tenant mix at admission.
            priority: 0,
        });
    }
    Ok(ops)
}

/// Encodes a BATCH response.
pub fn encode_batch(completions: &[Completion]) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER_BYTES + completions.len() * COMPLETION_BYTES);
    b.push(TAG_BATCH);
    b.extend_from_slice(&(completions.len() as u32).to_le_bytes());
    for c in completions {
        b.extend_from_slice(&c.seq.to_le_bytes());
        b.push(c.shed as u8);
        b.extend_from_slice(&c.issued_at.to_le_bytes());
        b.extend_from_slice(&c.complete_at.to_le_bytes());
        for comp in Component::ALL {
            b.extend_from_slice(&c.breakdown.get(comp).to_le_bytes());
        }
    }
    b
}

/// Decodes a BATCH response body (tag already checked).
pub fn decode_batch(body: &[u8], client: u64) -> io::Result<Vec<Completion>> {
    let mut at = 1;
    let count = take_count(body, &mut at, COMPLETION_BYTES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = take_u64(body, &mut at)?;
        let shed = take::<1>(body, &mut at)?[0] != 0;
        let issued_at = take_u64(body, &mut at)?;
        let complete_at = take_u64(body, &mut at)?;
        let mut breakdown = LatencyBreakdown::default();
        for comp in Component::ALL {
            breakdown.add(comp, take_u64(body, &mut at)?);
        }
        out.push(Completion {
            client,
            seq,
            shed,
            issued_at,
            complete_at,
            breakdown,
        });
    }
    Ok(out)
}

/// Client side of the binary protocol — used by the TCP load
/// generator and tests.
///
/// The `client` id must be below `1 << 32` and not held by another
/// live session: the server refuses such a HELLO by closing the
/// connection, and [`TcpClient::connect`] returns the read error.
pub struct TcpClient {
    stream: TcpStream,
    client: u64,
    /// System core count reported by HELLO_OK.
    pub cores: u32,
}

impl TcpClient {
    /// Connects and performs the HELLO handshake.
    pub fn connect(addr: std::net::SocketAddr, client: u64) -> io::Result<TcpClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &encode_hello(client))?;
        let rsp = read_frame(&mut stream)?;
        let mut at = 1;
        if rsp.first() != Some(&TAG_HELLO_OK) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad HELLO_OK"));
        }
        let echoed = take_u64(&rsp, &mut at)?;
        let cores = u32::from_le_bytes(take::<4>(&rsp, &mut at)?);
        if echoed != client {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "id mismatch"));
        }
        Ok(TcpClient {
            stream,
            client,
            cores,
        })
    }

    /// Submits one batch of `(seq, line, req)` ops and blocks for the
    /// matching completions.
    pub fn submit(&mut self, ops: &[(u64, u64, MemReq)]) -> io::Result<Vec<Completion>> {
        write_frame(&mut self.stream, &encode_ops(ops))?;
        let rsp = read_frame(&mut self.stream)?;
        if rsp.first() != Some(&TAG_BATCH) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad BATCH"));
        }
        decode_batch(&rsp, self.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip() {
        let ops = vec![
            (0u64, 17u64, MemReq::Read),
            (1, 9000, MemReq::Write),
            (u64::MAX, u64::MAX, MemReq::Read),
        ];
        let body = encode_ops(&ops);
        assert_eq!(body[0], TAG_OPS);
        let decoded = decode_ops(&body, 7).unwrap();
        assert_eq!(decoded.len(), 3);
        for (d, (seq, line, req)) in decoded.iter().zip(&ops) {
            assert_eq!((d.client, d.seq, d.line, d.req), (7, *seq, *line, *req));
        }
    }

    #[test]
    fn batch_round_trip_preserves_breakdown() {
        let mut breakdown = LatencyBreakdown::default();
        breakdown.add(Component::Link, 50);
        breakdown.add(Component::Recovery, 3);
        let completions = vec![
            Completion {
                client: 7,
                seq: 12,
                shed: false,
                issued_at: 100,
                complete_at: 400,
                breakdown,
            },
            Completion {
                client: 7,
                seq: 13,
                shed: true,
                issued_at: 0,
                complete_at: 0,
                breakdown: LatencyBreakdown::default(),
            },
        ];
        let body = encode_batch(&completions);
        assert_eq!(decode_batch(&body, 7).unwrap(), completions);
    }

    #[test]
    fn frames_round_trip_and_reject_bad_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        let body = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(body, vec![1, 2, 3]);
        // Oversized length prefix is refused without allocating.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // "GET " sniffed as a length is out of range too (HTTP guard).
        assert!(u32::from_le_bytes(*b"GET ") > MAX_FRAME);
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let ops = vec![(1u64, 2u64, MemReq::Write)];
        let body = encode_ops(&ops);
        assert!(decode_ops(&body[..body.len() - 1], 1).is_err());
    }

    #[test]
    fn counts_the_body_cannot_hold_are_refused_before_allocating() {
        // A 5-byte body claiming u32::MAX items would otherwise reserve
        // ~137 GB of `SubmittedOp`s.
        let err = decode_ops(&[TAG_OPS, 0xff, 0xff, 0xff, 0xff], 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = decode_batch(&[TAG_BATCH, 0xff, 0xff, 0xff, 0xff], 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn max_ops_is_the_largest_count_whose_reply_fits_a_frame() {
        assert_eq!(
            encode_ops(&[(0, 0, MemReq::Read)]).len(),
            HEADER_BYTES + OP_BYTES
        );
        let one = Completion {
            client: 0,
            seq: 0,
            shed: false,
            issued_at: 0,
            complete_at: 0,
            breakdown: LatencyBreakdown::default(),
        };
        assert_eq!(encode_batch(&[one]).len(), HEADER_BYTES + COMPLETION_BYTES);
        let reply = |ops: usize| HEADER_BYTES + ops * COMPLETION_BYTES;
        assert!(reply(MAX_OPS) <= MAX_FRAME as usize);
        assert!(reply(MAX_OPS + 1) > MAX_FRAME as usize);

        // One op over the limit is a legal-length frame but is refused.
        let over = encode_ops(&vec![(0, 0, MemReq::Read); MAX_OPS + 1]);
        assert!(over.len() <= MAX_FRAME as usize);
        let err = decode_ops(&over, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let at_limit = encode_ops(&vec![(0, 0, MemReq::Read); MAX_OPS]);
        assert_eq!(decode_ops(&at_limit, 1).unwrap().len(), MAX_OPS);
    }
}
