//! The TCP client for the serving protocol: a thin, blocking,
//! one-request-at-a-time wrapper used by `sql_repl --connect`, the CI
//! serving smoke, and the concurrency tests.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use mqo_util::MqoError;

use crate::protocol::{
    decode_error, decode_results, decode_stats, op, put_str, read_frame, write_frame, QueryResult,
};

/// A connected serving client. One outstanding request at a time;
/// server-side errors come back as typed [`MqoError`]s with their kind
/// and stage intact.
pub struct Client {
    /// Frames are read through the buffer and written straight to the
    /// socket inside it.
    conn: BufReader<TcpStream>,
    /// The greeting banner the server sent back on Hello.
    banner: String,
}

impl Client {
    /// Connects to `addr` and performs the Hello handshake as `tenant`.
    ///
    /// # Errors
    ///
    /// Fails with a typed protocol error if the connection or the
    /// handshake fails.
    pub fn connect(addr: &str, tenant: &str) -> Result<Client, MqoError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| MqoError::protocol("connect", format!("cannot reach {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            conn: BufReader::new(stream),
            banner: String::new(),
        };
        let mut body = Vec::new();
        put_str(&mut body, tenant);
        write_frame(client.conn.get_mut(), op::HELLO, &body, "hello")?;
        match read_frame(&mut client.conn, "hello")? {
            (op::GREETING, body) => {
                client.banner = String::from_utf8_lossy(&body).into_owned();
                Ok(client)
            }
            (op::ERROR, body) => Err(decode_error(&body, "hello")?),
            (other, _) => Err(MqoError::protocol(
                "hello",
                format!("expected Greeting, got opcode 0x{other:02x}"),
            )),
        }
    }

    /// [`Client::connect`] with retries — for racing a server that is
    /// still binding (CI spawns server and clients concurrently).
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error once `attempts` are exhausted.
    pub fn connect_retry(
        addr: &str,
        tenant: &str,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Client, MqoError> {
        let mut last = MqoError::protocol("connect", "no attempts made");
        for _ in 0..attempts.max(1) {
            match Client::connect(addr, tenant) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            std::thread::sleep(backoff);
        }
        Err(last)
    }

    /// The server's greeting banner.
    #[must_use]
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Submits a `;`-separated SQL statement list as one job and blocks
    /// for its results (bit-exact: floats travel as raw IEEE-754 bits).
    ///
    /// # Errors
    ///
    /// A typed [`MqoError`] — the server's own error for a failed job,
    /// or a protocol error if the connection broke.
    pub fn query(&mut self, sql: &str) -> Result<Vec<QueryResult>, MqoError> {
        let mut body = Vec::new();
        put_str(&mut body, sql);
        write_frame(self.conn.get_mut(), op::QUERY, &body, "query")?;
        match read_frame(&mut self.conn, "query")? {
            (op::RESULTS, body) => decode_results(&body, "query"),
            (op::ERROR, body) => Err(decode_error(&body, "query")?),
            (other, _) => Err(MqoError::protocol(
                "query",
                format!("expected Results or Error, got opcode 0x{other:02x}"),
            )),
        }
    }

    /// Fetches this tenant's and the global serving counters as ordered
    /// `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// A typed protocol error if the connection broke.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, MqoError> {
        write_frame(self.conn.get_mut(), op::STATS, &[], "stats")?;
        match read_frame(&mut self.conn, "stats")? {
            (op::STATS_REPLY, body) => decode_stats(&body, "stats"),
            (op::ERROR, body) => Err(decode_error(&body, "stats")?),
            (other, _) => Err(MqoError::protocol(
                "stats",
                format!("expected StatsReply, got opcode 0x{other:02x}"),
            )),
        }
    }

    /// Convenience: one named counter out of [`Client::stats`].
    ///
    /// # Errors
    ///
    /// A typed protocol error if the connection broke.
    pub fn stat(&mut self, name: &str) -> Result<u64, MqoError> {
        Ok(self
            .stats()?
            .into_iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| v))
    }

    /// Orderly goodbye; errors are ignored (the peer may already be
    /// gone).
    pub fn close(self) {
        drop(self);
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        write_frame(self.conn.get_mut(), op::BYE, &[], "bye").ok();
    }
}
