//! The daemon: a thread-per-connection line-protocol server over TCP
//! or a Unix-domain socket.
//!
//! Address grammar follows the CLI: an address containing `:` is a TCP
//! `host:port`; anything else is a Unix-socket path. Each connection
//! gets its own thread reading newline-delimited requests; responses
//! are written back one line each. A request line longer than
//! [`MAX_REQUEST_BYTES`] gets one `request too large` error, the rest of
//! the line is discarded unbuffered and the connection is closed, so no
//! client can grow a connection's memory without limit. A `shutdown`
//! request sets the stop flag and wakes the accept loop with a dummy
//! connection, so the serve loop exits promptly without polling.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use crate::planner::{Control, PlannerService};
use crate::protocol::error_response;

/// Longest request line the daemon reads, excluding its newline. Real
/// requests are a few hundred bytes.
const MAX_REQUEST_BYTES: u64 = 64 * 1024;

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound planner daemon. Construct with [`Server::bind`], then call
/// [`Server::run`] to serve until a `shutdown` request arrives.
pub struct Server {
    listener: Listener,
    planner: Arc<PlannerService>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (TCP `host:port` if it contains `:`, otherwise a
    /// Unix-socket path). A stale socket file at the path is removed.
    pub fn bind(addr: &str, planner: PlannerService) -> io::Result<Server> {
        let listener = if addr.contains(':') {
            Listener::Tcp(TcpListener::bind(addr)?)
        } else {
            let path = PathBuf::from(addr);
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            Listener::Unix(UnixListener::bind(&path)?, path)
        };
        Ok(Server {
            listener,
            planner: Arc::new(planner),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address — the actual one, so binding TCP port 0 yields
    /// a connectable `host:port`.
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into()),
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// The planner behind this server.
    pub fn planner(&self) -> &PlannerService {
        &self.planner
    }

    /// Serves connections until a `shutdown` request. Connection
    /// threads are detached; in-flight handlers die with the process
    /// when the caller exits after `run` returns.
    pub fn run(self) -> io::Result<()> {
        let wake_addr = self.local_addr();
        loop {
            let stream: Box<dyn Conn> = match &self.listener {
                Listener::Tcp(l) => Box::new(l.accept()?.0),
                Listener::Unix(l, _) => Box::new(l.accept()?.0),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let planner = self.planner.clone();
            let shutdown = self.shutdown.clone();
            let wake = wake_addr.clone();
            thread::spawn(move || {
                if let Err(e) = serve_connection(&planner, stream, &shutdown, &wake) {
                    // Client hangups are routine; log and move on.
                    eprintln!("mist-service: connection error: {e}");
                }
            });
        }
        if let Listener::Unix(_, path) = &self.listener {
            std::fs::remove_file(path).ok();
        }
        Ok(())
    }
}

/// What both stream types offer: buffered reads via `try_clone`d
/// handles would complicate things, so the reader owns the stream and
/// writes go through the `BufReader::get_mut` escape hatch.
trait Conn: io::Read + io::Write + Send {
    /// Closes the write half, so the peer reads end-of-stream.
    fn close_write(&self) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn close_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

impl Conn for UnixStream {
    fn close_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

fn serve_connection(
    planner: &PlannerService,
    stream: Box<dyn Conn>,
    shutdown: &AtomicBool,
    wake_addr: &str,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // One byte past the limit: a line that fills the whole window
        // without its newline is too long.
        let n = (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // EOF: client closed the connection.
        }
        let too_large = n as u64 > MAX_REQUEST_BYTES && !line.ends_with('\n');
        if !too_large && line.trim().is_empty() {
            continue;
        }
        let (response, control) = if too_large {
            (error_response("request too large"), Control::Continue)
        } else {
            planner.handle_line(line.trim())
        };
        let stream = reader.get_mut();
        stream.write_all(response.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        if too_large {
            // Closing with unread input would reset the connection and
            // could discard the error before the client reads it: end
            // the stream first, then consume the rest of the line.
            stream.close_write()?;
            return skip_line(&mut reader);
        }
        if control == Control::Shutdown {
            shutdown.store(true, Ordering::SeqCst);
            wake(wake_addr);
            return Ok(());
        }
    }
}

/// Discards input through the end of the current line (or end of
/// stream) without buffering it.
fn skip_line(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

/// Unblocks the accept loop with a throwaway connection.
fn wake(addr: &str) {
    if addr.contains(':') {
        TcpStream::connect(addr).ok();
    } else {
        UnixStream::connect(addr).ok();
    }
}

/// One-shot client: connects to `addr`, sends `line`, returns the
/// single response line. Used by `mist-cli query` and the CI stage.
pub fn request(addr: &str, line: &str) -> io::Result<String> {
    let send = |mut stream: Box<dyn Conn>| -> io::Result<String> {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        if response.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without responding",
            ));
        }
        Ok(response.trim_end().to_owned())
    };
    if addr.contains(':') {
        send(Box::new(TcpStream::connect(addr)?))
    } else {
        send(Box::new(UnixStream::connect(addr)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;

    fn spawn(addr: &str) -> (String, thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind(addr, PlannerService::new(PlanCache::in_memory())).unwrap();
        let bound = server.local_addr();
        (bound, thread::spawn(move || server.run()))
    }

    #[test]
    fn tcp_ping_stats_shutdown() {
        let (addr, handle) = spawn("127.0.0.1:0");
        let pong = request(&addr, r#"{"cmd": "ping"}"#).unwrap();
        assert!(pong.contains("\"pong\""), "{pong}");
        let stats = request(&addr, r#"{"cmd": "stats"}"#).unwrap();
        assert!(stats.contains("\"entries\""), "{stats}");
        let bye = request(&addr, r#"{"cmd": "shutdown"}"#).unwrap();
        assert!(bye.contains("\"shutdown\""), "{bye}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn unix_socket_round_trip_and_cleanup() {
        let path =
            std::env::temp_dir().join(format!("mist-serve-test-{}.sock", std::process::id()));
        let path_str = path.display().to_string();
        let (addr, handle) = spawn(&path_str);
        assert_eq!(addr, path_str);
        let err = request(&addr, "not json").unwrap();
        assert!(
            err.contains("\"ok\": false") || err.contains("\"ok\":false"),
            "{err}"
        );
        let bye = request(&addr, r#"{"cmd": "shutdown"}"#).unwrap();
        assert!(bye.contains("\"shutdown\""), "{bye}");
        handle.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file must be cleaned up");
    }

    #[test]
    fn one_connection_can_issue_many_requests() {
        let (addr, handle) = spawn("127.0.0.1:0");
        let mut stream = TcpStream::connect(&addr).unwrap();
        for _ in 0..3 {
            stream.write_all(b"{\"cmd\": \"ping\"}\n").unwrap();
        }
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\""), "{line}");
        }
        drop(reader);
        drop(stream);
        request(&addr, r#"{"cmd": "shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_one_error_and_a_close() {
        let (addr, handle) = spawn("127.0.0.1:0");
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let sender = thread::spawn(move || {
            let mut line = vec![b'x'; 1 << 20];
            line.push(b'\n');
            writer.write_all(&line).unwrap();
        });
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, format!("{}\n", error_response("request too large")));
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");
        sender.join().unwrap();

        let pong = request(&addr, r#"{"cmd": "ping"}"#).unwrap();
        assert!(pong.contains("\"pong\""), "{pong}");
        request(&addr, r#"{"cmd": "shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn request_line_at_the_limit_is_served() {
        let (addr, handle) = spawn("127.0.0.1:0");
        // Padding whitespace keeps the request valid JSON at exactly
        // `MAX_REQUEST_BYTES`.
        let mut line = r#"{"cmd": "ping"}"#.to_owned();
        line.extend(std::iter::repeat_n(
            ' ',
            MAX_REQUEST_BYTES as usize - line.len(),
        ));
        let pong = request(&addr, &line).unwrap();
        assert!(pong.contains("\"pong\""), "{pong}");
        request(&addr, r#"{"cmd": "shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();
    }
}
