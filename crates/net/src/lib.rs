//! The shared JSON-line socket transport: endpoint addressing, listener
//! and connect plumbing, and newline framing.
//!
//! The framing is deliberately primitive — connection-per-request over
//! localhost TCP or a Unix socket, each side writing a single
//! newline-terminated JSON object. There is no pipelining, no session
//! state on the wire, and no partial-read protocol to get wrong: every
//! piece of durable state lives with the peers (the serving daemon's
//! in-memory engine), so a connection dying at ANY byte loses nothing
//! — the client simply retries.
//!
//! Message *types* stay with their owner (the serving daemon's
//! request/response enums live in `lrd-serve`, and the benchmark's
//! load generator speaks them too); this crate only owns the
//! bytes-on-a-socket layer.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Per-connection read/write timeout. Requests are tiny and local;
/// anything slower than this is a dead peer.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Hard cap on a protocol line. The largest legitimate message is a
/// few kilobytes, not megabytes.
pub const LINE_CAP: usize = 1 << 20;

/// Where a server listens: `host:port` TCP or `unix:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7077` (or `:0` to let the OS
    /// pick; [`Listener::local_endpoint`] reports the resolved port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:<path>` or `host:port`.
    pub fn parse(s: &str) -> Option<Endpoint> {
        if let Some(path) = s.strip_prefix("unix:") {
            (!path.is_empty()).then(|| Endpoint::Unix(PathBuf::from(path)))
        } else {
            s.contains(':').then(|| Endpoint::Tcp(s.to_string()))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A duplex protocol connection (TCP or Unix stream).
pub trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
#[cfg(unix)]
impl Conn for UnixStream {}

/// A server's listening socket, in nonblocking accept mode so a
/// single-threaded serve loop can interleave accepts with periodic
/// work (model ticks, idle refinement).
pub enum Listener {
    /// TCP on localhost.
    Tcp(TcpListener),
    /// Unix-domain socket; the path is removed again on drop.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds the endpoint. A stale Unix socket file from a killed
    /// server is removed first — the peers' durable state, not the
    /// socket, is authoritative. TCP rebinds the same port after a
    /// kill thanks to `SO_REUSEADDR` (set by the standard library on
    /// Unix).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-socket endpoints require a unix platform",
            )),
        }
    }

    /// The endpoint actually bound — resolves `:0` to the assigned
    /// port so orchestrators can advertise it to clients.
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "127.0.0.1:0".to_string()),
            ),
            #[cfg(unix)]
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// Accepts one pending connection, configured blocking with
    /// [`IO_TIMEOUT`] read/write deadlines. `WouldBlock` means no
    /// client is waiting — the serve loop sleeps briefly and does its
    /// periodic work.
    pub fn accept(&self) -> io::Result<Box<dyn Conn>> {
        fn configure<S>(stream: S) -> io::Result<S>
        where
            S: Conn + SetTimeouts,
        {
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(stream)
        }
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(configure(stream)?))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(configure(stream)?))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The socket-option subset shared by TCP and Unix streams.
pub trait SetTimeouts {
    /// See [`TcpStream::set_nonblocking`].
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// See [`TcpStream::set_read_timeout`].
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// See [`TcpStream::set_write_timeout`].
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

macro_rules! impl_set_timeouts {
    ($ty:ty) => {
        impl SetTimeouts for $ty {
            fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
                <$ty>::set_nonblocking(self, nonblocking)
            }
            fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
                <$ty>::set_read_timeout(self, dur)
            }
            fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
                <$ty>::set_write_timeout(self, dur)
            }
        }
    };
}
impl_set_timeouts!(TcpStream);
#[cfg(unix)]
impl_set_timeouts!(UnixStream);

/// Connects to a server with [`IO_TIMEOUT`] deadlines on connect,
/// read, and write.
pub fn connect(endpoint: &Endpoint) -> io::Result<Box<dyn Conn>> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve {addr}"))
            })?;
            let stream = TcpStream::connect_timeout(&resolved, IO_TIMEOUT)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(Box::new(stream))
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(Box::new(stream))
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix-socket endpoints require a unix platform",
        )),
    }
}

/// Writes one newline-terminated protocol line.
pub fn send_line(conn: &mut dyn Conn, line: &str) -> io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
}

/// Reads one newline-terminated protocol line, capped at [`LINE_CAP`].
pub fn recv_line(conn: &mut dyn Conn) -> io::Result<String> {
    let mut reader = BufReader::new(conn).take(LINE_CAP as u64 + 1);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.len() > LINE_CAP {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "protocol line exceeds cap",
        ));
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_round_trips() {
        let tcp = Endpoint::parse("127.0.0.1:7077").unwrap();
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:7077".to_string()));
        assert_eq!(Endpoint::parse(&tcp.to_string()), Some(tcp));
        let unix = Endpoint::parse("unix:/tmp/coord.sock").unwrap();
        assert_eq!(unix, Endpoint::Unix(PathBuf::from("/tmp/coord.sock")));
        assert_eq!(Endpoint::parse(&unix.to_string()), Some(unix));
        assert_eq!(Endpoint::parse("no-port-here"), None);
        assert_eq!(Endpoint::parse("unix:"), None);
    }

    #[test]
    fn lines_cross_a_real_socket() {
        // One request-response exchange over loopback TCP, the framing
        // every protocol in the tree uses.
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let endpoint = listener.local_endpoint();

        let server = std::thread::spawn(move || {
            // Nonblocking accept: poll until the client connects.
            let mut conn = loop {
                match listener.accept() {
                    Ok(conn) => break conn,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            };
            let line = recv_line(conn.as_mut()).unwrap();
            send_line(conn.as_mut(), "{\"kind\":\"pong\"}").unwrap();
            line
        });

        let mut conn = connect(&endpoint).unwrap();
        send_line(conn.as_mut(), "{\"kind\":\"ping\"}").unwrap();
        assert_eq!(recv_line(conn.as_mut()).unwrap(), "{\"kind\":\"pong\"}");
        assert_eq!(server.join().unwrap(), "{\"kind\":\"ping\"}");
    }

    #[test]
    fn oversized_line_is_rejected() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let endpoint = listener.local_endpoint();
        let server = std::thread::spawn(move || {
            let mut conn = loop {
                match listener.accept() {
                    Ok(conn) => break conn,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            };
            recv_line(conn.as_mut())
        });
        let mut conn = connect(&endpoint).unwrap();
        let oversized = "x".repeat(LINE_CAP + 1);
        send_line(conn.as_mut(), &oversized).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_endpoint_works_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("lrd-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("net.sock");
        let endpoint = Endpoint::Unix(sock.clone());
        // Leave a stale socket file: bind must clear it.
        std::fs::write(&sock, b"").unwrap();
        let listener = Listener::bind(&endpoint).unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = loop {
                match listener.accept() {
                    Ok(conn) => break conn,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            };
            let line = recv_line(conn.as_mut()).unwrap();
            send_line(conn.as_mut(), "ok").unwrap();
            line
            // Listener dropped here: socket file removed.
        });
        let mut conn = connect(&endpoint).unwrap();
        send_line(conn.as_mut(), "hello").unwrap();
        assert_eq!(recv_line(conn.as_mut()).unwrap(), "ok");
        assert_eq!(server.join().unwrap(), "hello");
        assert!(!sock.exists(), "socket file must be removed on drop");
    }
}
