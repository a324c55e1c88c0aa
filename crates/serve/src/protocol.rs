//! The serving wire protocol: length-prefixed frames over TCP.
//!
//! A frame is `[len: u32 LE][op: u8][body: len-1 bytes]` — `len` counts
//! the opcode byte plus the body and is capped at [`MAX_FRAME`], so a
//! garbage prefix can never convince a peer to buffer gigabytes.
//! Integers are little-endian throughout; floats travel as raw IEEE-754
//! bits ([`f64::to_bits`]), so results decode **bit-identical** to what
//! the executor produced — the property the serving determinism tests
//! assert end to end.
//!
//! Client → server: [`op::HELLO`] (tenant name; must be first),
//! [`op::QUERY`] (SQL text), [`op::STATS`], [`op::BYE`].
//! Server → client: [`op::GREETING`], [`op::RESULTS`], [`op::ERROR`]
//! (a typed [`MqoError`]: kind and stage survive the round trip),
//! [`op::STATS_REPLY`] (ordered `name → u64` counters).
//!
//! Protocol violations (oversized length, unknown opcode, truncated
//! body, non-UTF-8 text) surface as [`MqoErrorKind::Protocol`] errors
//! and tear down the **connection only** — never the serving front.

use std::io::{Read, Write};

use mqo_expr::Value;
use mqo_util::{ErrorStage, MqoError, MqoErrorKind};

/// Hard cap on a frame's `len` field (opcode + body), 64 MiB.
pub const MAX_FRAME: usize = 64 << 20;

/// Frame opcodes. Client ops are low, server ops have the high bit.
pub mod op {
    /// c→s: declare the tenant; must be the first frame.
    pub const HELLO: u8 = 0x01;
    /// c→s: submit a `;`-separated SQL statement list as one job.
    pub const QUERY: u8 = 0x02;
    /// c→s: request this tenant's + global counters.
    pub const STATS: u8 = 0x03;
    /// c→s: orderly goodbye.
    pub const BYE: u8 = 0x04;
    /// s→c: Hello accepted; body is a banner string.
    pub const GREETING: u8 = 0x81;
    /// s→c: per-query results for one job.
    pub const RESULTS: u8 = 0x82;
    /// s→c: a typed error (the job failed; the connection lives on
    /// unless the error was a protocol violation).
    pub const ERROR: u8 = 0x83;
    /// s→c: counters in reply to STATS.
    pub const STATS_REPLY: u8 = 0x84;
}

/// One query's result as carried on the wire: the label the planner
/// assigned, output column names, and the rows (ORDER BY already
/// applied server-side).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Query label (`q1..qN` within the job).
    pub label: String,
    /// Output column names, in schema order.
    pub columns: Vec<String>,
    /// Row values, bit-exact (floats travel as raw bits).
    pub rows: Vec<Vec<Value>>,
}

fn proto(site: &str, message: impl Into<String>) -> MqoError {
    MqoError::protocol(site, message)
}

/// Writes one frame. I/O failures map to [`MqoErrorKind::Protocol`]
/// errors at `site`.
///
/// # Errors
///
/// Fails if the frame exceeds [`MAX_FRAME`] or the write fails.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    body: &[u8],
    site: &str,
) -> Result<(), MqoError> {
    let len = body.len() + 1;
    if len > MAX_FRAME {
        return Err(proto(
            site,
            format!("outgoing frame of {len} bytes exceeds cap"),
        ));
    }
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&u32::try_from(len).unwrap_or(0).to_le_bytes());
    buf.push(opcode);
    buf.extend_from_slice(body);
    w.write_all(&buf)
        .and_then(|()| w.flush())
        .map_err(|e| proto(site, format!("connection write failed: {e}")))
}

/// Reads one frame, returning `(opcode, body)`. Issues three small
/// reads per frame, so hand it a buffered reader (one `BufReader` per
/// connection), not a bare socket.
///
/// # Errors
///
/// Fails on EOF, an oversized or empty length prefix, or a short read.
pub fn read_frame(r: &mut impl Read, site: &str) -> Result<(u8, Vec<u8>), MqoError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)
        .map_err(|e| proto(site, format!("connection closed or unreadable: {e}")))?;
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 {
        return Err(proto(site, "zero-length frame (missing opcode)"));
    }
    if len > MAX_FRAME {
        return Err(proto(
            site,
            format!("incoming frame of {len} bytes exceeds cap"),
        ));
    }
    let mut opcode = [0u8; 1];
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut opcode)
        .and_then(|()| r.read_exact(&mut body))
        .map_err(|e| proto(site, format!("truncated frame: {e}")))?;
    Ok((u8::from_le_bytes(opcode), body))
}

// ------------------------------------------------------------------
// Body encoding
// ------------------------------------------------------------------

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(u32::try_from(s.len()).unwrap_or(u32::MAX)).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

/// A bounds-checked cursor over a frame body; every read failure is a
/// typed protocol error anchored at the reader's `site`.
pub struct Wire<'a> {
    body: &'a [u8],
    pos: usize,
    site: &'a str,
}

impl<'a> Wire<'a> {
    /// A cursor over `body`, blaming `site` in decode errors.
    #[must_use]
    pub fn new(body: &'a [u8], site: &'a str) -> Self {
        Wire { body, pos: 0, site }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MqoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.body.len());
        let Some(end) = end else {
            return Err(proto(
                self.site,
                format!("truncated body: wanted {n} bytes at offset {}", self.pos),
            ));
        };
        let s = self.body.get(self.pos..end).unwrap_or(&[]);
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Fails on a truncated body.
    pub fn u32(&mut self) -> Result<u32, MqoError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Fails on a truncated body.
    pub fn u64(&mut self) -> Result<u64, MqoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, MqoError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| proto(self.site, "string field is not valid UTF-8"))
    }

    /// Reads one tagged [`Value`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or an unknown tag.
    pub fn value(&mut self) -> Result<Value, MqoError> {
        let tag = self.take(1)?.first().copied().unwrap_or(u8::MAX);
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let b = self.take(8)?;
                let mut a = [0u8; 8];
                a.copy_from_slice(b);
                Ok(Value::Int(i64::from_le_bytes(a)))
            }
            2 => {
                let b = self.take(8)?;
                let mut a = [0u8; 8];
                a.copy_from_slice(b);
                Ok(Value::Float(f64::from_bits(u64::from_le_bytes(a))))
            }
            3 => Ok(Value::Str(self.str()?.into())),
            t => Err(proto(self.site, format!("unknown value tag {t}"))),
        }
    }

    /// True when the whole body has been consumed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.body.len()
    }
}

/// Encodes a RESULTS body.
#[must_use]
pub fn encode_results(results: &[QueryResult]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, u32::try_from(results.len()).unwrap_or(u32::MAX));
    for r in results {
        put_str(&mut out, &r.label);
        put_u32(&mut out, u32::try_from(r.columns.len()).unwrap_or(u32::MAX));
        for c in &r.columns {
            put_str(&mut out, c);
        }
        put_u32(&mut out, u32::try_from(r.rows.len()).unwrap_or(u32::MAX));
        for row in &r.rows {
            for v in row {
                put_value(&mut out, v);
            }
        }
    }
    out
}

/// Decodes a RESULTS body.
///
/// # Errors
///
/// Fails with a protocol error on any truncation or bad tag.
pub fn decode_results(body: &[u8], site: &str) -> Result<Vec<QueryResult>, MqoError> {
    let mut w = Wire::new(body, site);
    let n = w.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let label = w.str()?;
        let n_cols = w.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            columns.push(w.str()?);
        }
        let n_rows = w.u32()? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(65_536));
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols.min(1024));
            for _ in 0..n_cols {
                row.push(w.value()?);
            }
            rows.push(row);
        }
        out.push(QueryResult {
            label,
            columns,
            rows,
        });
    }
    if !w.done() {
        return Err(proto(site, "trailing bytes after RESULTS body"));
    }
    Ok(out)
}

/// Encodes an ERROR body: kind, stage, site, detail, message — enough
/// to reconstruct the typed error *and* its caret render on the client.
#[must_use]
pub fn encode_error(e: &MqoError) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, e.kind.name());
    put_str(&mut out, &e.stage.to_string());
    put_str(&mut out, &e.site);
    put_str(&mut out, &e.detail);
    put_str(&mut out, &e.message);
    out
}

/// Decodes an ERROR body back into a typed [`MqoError`].
///
/// # Errors
///
/// Fails with a protocol error if the body itself is malformed,
/// including a kind or stage name the tables do not know.
pub fn decode_error(body: &[u8], site: &str) -> Result<MqoError, MqoError> {
    let mut w = Wire::new(body, site);
    let kind = w.str()?;
    let kind = MqoErrorKind::from_name(&kind)
        .ok_or_else(|| proto(site, format!("unknown error kind `{kind}`")))?;
    let stage = w.str()?;
    let stage = ErrorStage::from_name(&stage)
        .ok_or_else(|| proto(site, format!("unknown error stage `{stage}`")))?;
    let err_site = w.str()?;
    let detail = w.str()?;
    let message = w.str()?;
    Ok(MqoError::new(kind, stage, err_site, detail, message))
}

/// Encodes a STATS_REPLY body: ordered `(name, value)` counters.
#[must_use]
pub fn encode_stats(pairs: &[(String, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, u32::try_from(pairs.len()).unwrap_or(u32::MAX));
    for (k, v) in pairs {
        put_str(&mut out, k);
        put_u64(&mut out, *v);
    }
    out
}

/// Decodes a STATS_REPLY body.
///
/// # Errors
///
/// Fails with a protocol error on truncation.
pub fn decode_stats(body: &[u8], site: &str) -> Result<Vec<(String, u64)>, MqoError> {
    let mut w = Wire::new(body, site);
    let n = w.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = w.str()?;
        let v = w.u64()?;
        out.push((k, v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::QUERY, b"select 1;", "t").unwrap();
        let (opcode, body) = read_frame(&mut buf.as_slice(), "t").unwrap();
        assert_eq!(opcode, op::QUERY);
        assert_eq!(body, b"select 1;");
    }

    #[test]
    fn oversized_frame_rejected() {
        // Length prefix claims 1 GiB; the reader must refuse before
        // allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        buf.push(op::QUERY);
        let e = read_frame(&mut buf.as_slice(), "t").unwrap_err();
        assert_eq!(e.kind, MqoErrorKind::Protocol);
    }

    #[test]
    fn empty_and_truncated_frames_are_typed_errors() {
        let e = read_frame(&mut 0u32.to_le_bytes().as_slice(), "t").unwrap_err();
        assert!(e.message.contains("zero-length"), "{e}");
        let mut buf = Vec::new();
        write_frame(&mut buf, op::QUERY, b"select 1;", "t").unwrap();
        for cut in [2, 4, 7] {
            let e = read_frame(&mut &buf[..cut], "t").unwrap_err();
            assert_eq!(e.kind, MqoErrorKind::Protocol, "cut at {cut}");
        }
        assert!(read_frame(&mut &buf[..7], "t")
            .unwrap_err()
            .message
            .contains("truncated"));
    }

    /// A reader that hands out one byte per `read` call, as a slow
    /// peer's socket may.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(out.len()).min(1);
            let (head, rest) = self.0.split_at(n);
            out[..n].copy_from_slice(head);
            self.0 = rest;
            Ok(n)
        }
    }

    #[test]
    fn frame_arriving_one_byte_per_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::QUERY, b"select 1;", "t").unwrap();
        let mut r = std::io::BufReader::new(Trickle(&buf));
        let (opcode, body) = read_frame(&mut r, "t").unwrap();
        assert_eq!((opcode, body.as_slice()), (op::QUERY, &b"select 1;"[..]));
        assert!(read_frame(&mut r, "t").is_err(), "then EOF");
    }

    #[test]
    fn two_frames_in_one_buffer_stay_apart() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::QUERY, b"select 1;", "t").unwrap();
        write_frame(&mut buf, op::STATS, &[], "t").unwrap();
        write_frame(&mut buf, op::BYE, &[], "t").unwrap();
        // One buffered read swallows all three frames; each comes back
        // whole, with nothing of its neighbor.
        let mut r = std::io::BufReader::new(buf.as_slice());
        let (opcode, body) = read_frame(&mut r, "t").unwrap();
        assert_eq!((opcode, body.as_slice()), (op::QUERY, &b"select 1;"[..]));
        assert_eq!(read_frame(&mut r, "t").unwrap(), (op::STATS, Vec::new()));
        assert_eq!(read_frame(&mut r, "t").unwrap(), (op::BYE, Vec::new()));
    }

    #[test]
    fn results_round_trip_bit_exact() {
        let r = vec![QueryResult {
            label: "q1".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Value::Int(-7), Value::Float(0.1 + 0.2)],
                vec![Value::Null, Value::str("héllo")],
            ],
        }];
        let body = encode_results(&r);
        let back = decode_results(&body, "t").unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].label, "q1");
        assert_eq!(back[0].columns, ["a", "b"]);
        // Float bits must survive exactly, not just approximately.
        match (&r[0].rows[0][1], &back[0].rows[0][1]) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("expected floats, got {other:?}"),
        }
        match &back[0].rows[1][1] {
            Value::Str(s) => assert_eq!(&**s, "héllo"),
            other => panic!("expected str, got {other:?}"),
        }
    }

    #[test]
    fn error_round_trip_keeps_every_kind_and_stage() {
        for &kind in MqoErrorKind::ALL {
            for &stage in ErrorStage::ALL {
                let e = MqoError::new(kind, stage, "n3", "détail", "what went wrong");
                let back = decode_error(&encode_error(&e), "t").unwrap();
                assert_eq!(back.kind, kind);
                assert_eq!(back.stage, stage);
                assert_eq!(back.site, e.site);
                assert_eq!(back.detail, e.detail);
                assert_eq!(back.message, e.message);
            }
        }
    }

    #[test]
    fn unknown_error_names_are_protocol_errors() {
        let body = |kind: &str, stage: &str| {
            let mut out = Vec::new();
            for field in [kind, stage, "s", "d", "m"] {
                put_str(&mut out, field);
            }
            out
        };
        for (kind, stage) in [("no-such-kind", "plan"), ("plan-broken", "no-such-stage")] {
            let e = decode_error(&body(kind, stage), "t").unwrap_err();
            assert_eq!(e.kind, MqoErrorKind::Protocol);
            assert_eq!(e.site, "t");
        }
    }

    #[test]
    fn stats_round_trip() {
        let pairs = vec![("cache_hits".to_string(), 42u64), ("batches".into(), 7)];
        let back = decode_stats(&encode_stats(&pairs), "t").unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn truncated_body_is_a_typed_protocol_error() {
        let body = encode_results(&[QueryResult {
            label: "q1".into(),
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(1)]],
        }]);
        let cut = &body[..body.len() - 3];
        let e = decode_results(cut, "t").unwrap_err();
        assert_eq!(e.kind, MqoErrorKind::Protocol);
    }
}
