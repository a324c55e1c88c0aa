//! The TCP serving surface over a [`ServeFront`].
//!
//! One accept thread, one handler thread per connection. A connection
//! speaks the frame protocol of [`crate::protocol`]: `Hello(tenant)`
//! first, then any number of `Query`/`Stats` frames, then `Bye`. Job
//! failures (bad SQL, injected faults, budget violations) answer with
//! a typed `Error` frame and the connection **keeps serving** — only a
//! protocol violation or I/O failure tears the connection down, and
//! even that never touches the shared front: tenants are isolated by
//! construction.

use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use mqo_util::{MqoError, MqoErrorKind};

use crate::front::ServeFront;
use crate::protocol::{
    encode_error, encode_results, encode_stats, op, read_frame, write_frame, Wire,
};
use crate::{FrontTotals, TenantStats};

/// One accepted connection: a handle on its socket, so shutdown can
/// unblock a handler waiting for the peer's next frame, and its thread.
type Conn = (TcpStream, JoinHandle<()>);

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, closes and joins every connection, and shuts
/// the front down cleanly.
pub struct Server {
    front: Arc<ServeFront>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections over `front`.
    ///
    /// # Errors
    ///
    /// Fails with a typed error if the bind fails.
    pub fn start(front: ServeFront, addr: &str) -> Result<Server, MqoError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| MqoError::protocol("bind", format!("cannot bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| MqoError::protocol("bind", format!("no local addr: {e}")))?;
        let front = Arc::new(front);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let front = Arc::clone(&front);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(socket) = stream.try_clone() else {
                        continue;
                    };
                    let front = Arc::clone(&front);
                    let handle = std::thread::spawn(move || {
                        serve_connection(&front, &stream);
                        // `socket` keeps the descriptor open, so dropping
                        // `stream` would not hang up on the peer.
                        stream.shutdown(Shutdown::Both).ok();
                    });
                    let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                    // Release finished connections' descriptors.
                    conns.retain(|(_, h)| !h.is_finished());
                    conns.push((socket, handle));
                }
            })
        };
        Ok(Server {
            front,
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front being served (for in-process stats inspection).
    #[must_use]
    pub fn front(&self) -> &ServeFront {
        &self.front
    }

    /// Stops accepting, closes and joins every connection handler, and
    /// shuts the front down. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with a throwaway connection.
            TcpStream::connect(self.addr).ok();
        }
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        let handles: Vec<_> = self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for (socket, h) in handles {
            // A handler blocks reading the peer's next frame for as long
            // as the peer stays connected; closing the socket ends it.
            socket.shutdown(Shutdown::Both).ok();
            h.join().ok();
        }
        self.front.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Renders the front's counters for one tenant as ordered wire pairs.
fn stats_pairs(
    totals: &FrontTotals,
    tenant: &str,
    tenants: &BTreeMap<String, TenantStats>,
) -> Vec<(String, u64)> {
    let t = tenants.get(tenant).copied().unwrap_or_default();
    vec![
        ("tenant_batches".into(), t.batches),
        ("tenant_queries".into(), t.queries),
        ("tenant_cache_hits".into(), t.cache_hits),
        ("tenant_temps_built".into(), t.temps_built),
        ("tenant_admitted".into(), t.admitted),
        ("tenant_failed".into(), t.failed),
        ("total_batches".into(), totals.batches),
        ("total_queries".into(), totals.queries),
        ("total_cache_hits".into(), totals.cache_hits),
        ("total_temps_built".into(), totals.temps_built),
        ("total_plan_reuses".into(), totals.plan_reuses),
        ("total_admitted".into(), totals.admitted),
        ("total_evicted".into(), totals.evicted),
        ("total_rejected".into(), totals.rejected),
        ("total_degraded".into(), totals.degraded),
        ("total_failed".into(), totals.failed),
        ("total_rolled_back".into(), totals.rolled_back),
    ]
}

/// One connection's serve loop. Returning tears down only this
/// connection; the front and every other tenant are untouched.
fn serve_connection(front: &ServeFront, stream: &TcpStream) {
    stream.set_nodelay(true).ok();
    // Frames are read through the buffer (one `read` per frame, not
    // two) and written straight to the socket inside it.
    let mut conn = BufReader::new(stream);
    let site = "conn";

    // The contract starts with Hello.
    let tenant = match read_frame(&mut conn, site) {
        Ok((op::HELLO, body)) => match Wire::new(&body, site).str() {
            Ok(t) if !t.is_empty() => t,
            _ => {
                let e = MqoError::protocol(site, "Hello must carry a nonempty tenant name");
                write_frame(conn.get_mut(), op::ERROR, &encode_error(&e), site).ok();
                return;
            }
        },
        Ok(_) => {
            let e = MqoError::protocol(site, "first frame must be Hello");
            write_frame(conn.get_mut(), op::ERROR, &encode_error(&e), site).ok();
            return;
        }
        Err(_) => return,
    };
    let banner = format!("mqo-serve ready, tenant `{tenant}`");
    if write_frame(conn.get_mut(), op::GREETING, banner.as_bytes(), site).is_err() {
        return;
    }

    loop {
        let (opcode, body) = match read_frame(&mut conn, site) {
            Ok(f) => f,
            Err(_) => return, // peer gone or garbage: this conn only
        };
        match opcode {
            op::QUERY => {
                let sql = match Wire::new(&body, site).str() {
                    Ok(s) => s,
                    Err(e) => {
                        write_frame(conn.get_mut(), op::ERROR, &encode_error(&e), site).ok();
                        return;
                    }
                };
                match front.submit_sql(&tenant, &sql) {
                    Ok(results) => {
                        if write_frame(conn.get_mut(), op::RESULTS, &encode_results(&results), site)
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(e) => {
                        // Typed error to the client; the connection
                        // lives on unless the front is going away.
                        let fatal = e.kind == MqoErrorKind::Shutdown;
                        if write_frame(conn.get_mut(), op::ERROR, &encode_error(&e), site).is_err()
                            || fatal
                        {
                            return;
                        }
                    }
                }
            }
            op::STATS => {
                let (totals, tenants) = front.stats();
                let pairs = stats_pairs(&totals, &tenant, &tenants);
                if write_frame(conn.get_mut(), op::STATS_REPLY, &encode_stats(&pairs), site)
                    .is_err()
                {
                    return;
                }
            }
            op::BYE => {
                conn.get_mut().flush().ok();
                return;
            }
            other => {
                let e = MqoError::protocol(site, format!("unknown opcode 0x{other:02x}"));
                write_frame(conn.get_mut(), op::ERROR, &encode_error(&e), site).ok();
                return;
            }
        }
    }
}
