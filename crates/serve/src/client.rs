//! A minimal blocking client for the wire protocol, used by the smoke
//! driver, the integration tests, and scripted sessions.
//!
//! One [`Client`] wraps one TCP connection. Replies and stream records
//! share the connection, so the intended pattern is two connections: a
//! *control* connection where every request is answered by exactly one
//! reply line ([`Client::request`]), and a *subscriber* connection that
//! sends one `subscribe` and then reads stream records until EOF
//! ([`Client::recv`]).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::Value;

/// One line-delimited JSON connection to a `capuchin-serve` daemon.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon. The socket runs with `TCP_NODELAY`: each
    /// request is one write, so Nagle would only delay it.
    ///
    /// # Errors
    ///
    /// Propagates the connect/clone/socket-option error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one message (a single JSON object) as one line, newline
    /// included, in a single write.
    ///
    /// # Errors
    ///
    /// Propagates the socket write error.
    pub fn send(&mut self, msg: &Value) -> io::Result<()> {
        let mut line = serde_json::to_string(msg)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Reads the next message; `None` at EOF (the daemon closed the
    /// connection).
    ///
    /// # Errors
    ///
    /// Propagates the socket read error, or an `InvalidData` error when
    /// the line is not valid JSON.
    pub fn recv(&mut self) -> io::Result<Option<Value>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request and reads its reply — correct on a control
    /// connection (no subscription), where the daemon sends nothing
    /// unsolicited.
    ///
    /// # Errors
    ///
    /// Propagates send/recv errors; EOF before the reply is an
    /// `UnexpectedEof` error.
    pub fn request(&mut self, msg: &Value) -> io::Result<Value> {
        self.send(msg)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )
        })
    }
}

/// Builds a request object: `{"op": <op>, ...fields}`.
pub fn request(op: &str, fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("op".to_owned(), Value::Str(op.to_owned()))];
    entries.extend(fields);
    Value::Object(entries)
}
