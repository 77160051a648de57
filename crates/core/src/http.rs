//! Minimal HTTP/1.0 POST — the report-upload channel (§3, step 3).
//!
//! The Flash tool reported results "back to the server using an HTTP
//! POST request"; these conduits speak exactly enough HTTP/1.0 for that:
//! a request line, `Content-Length`, a blank line and the body.

use std::borrow::Cow;
use std::fmt::Display;
use std::io::Write;

use tlsfoe_netsim::{Conduit, IoCtx, Shared};

/// Bytes received on one connection, buffered only while a message
/// spans several data events. A message that arrives whole in one event
/// is parsed where it lies and never copied.
#[derive(Default)]
struct Inbox {
    buf: Vec<u8>,
}

impl Inbox {
    /// Offer everything received so far plus `data` to `complete`, which
    /// returns true once it has consumed a whole message. Until then the
    /// bytes are kept for the next event.
    fn receive(&mut self, data: &[u8], complete: impl FnOnce(&[u8]) -> bool) -> bool {
        if self.buf.is_empty() {
            if complete(data) {
                return true;
            }
            self.buf.extend_from_slice(data);
            false
        } else {
            self.buf.extend_from_slice(data);
            complete(&self.buf)
        }
    }
}

/// Offset just past the blank line that ends an HTTP header.
fn header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|at| at + 4)
}

/// Append a POST header for `path` announcing `content_length` bytes.
fn write_post_header(out: &mut Vec<u8>, path: &dyn Display, content_length: usize) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "POST {path} HTTP/1.0\r\nContent-Length: {content_length}\r\n\r\n");
}

/// Bytes set aside for the request line and header, enough for any
/// report path; a longer one costs one reallocation.
const HEADER_ROOM: usize = 128;

/// Client conduit: POSTs a body to a path on open, records whether a
/// `200` came back, closes.
pub struct HttpPostClient {
    /// Request line, header and body, framed once at construction.
    request: Vec<u8>,
    ok: Shared<bool>,
    response: Inbox,
}

impl HttpPostClient {
    /// Create a POST client; `ok` is set to true on a 200 response.
    pub fn new(path: &str, body: &[u8], ok: Shared<bool>) -> Self {
        Self::with_body(path, body.len(), ok, |out| out.extend_from_slice(body))
    }

    /// Create a POST client whose body `write_body` appends straight
    /// into the request buffer, which is sized up front for
    /// `content_length` body bytes. Should the writer append a different
    /// number of bytes, the request is re-framed with the true length.
    pub fn with_body(
        path: impl Display,
        content_length: usize,
        ok: Shared<bool>,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> Self {
        let mut request = Vec::with_capacity(HEADER_ROOM + content_length);
        write_post_header(&mut request, &path, content_length);
        request.reserve(content_length);
        let body_start = request.len();
        write_body(&mut request);
        let written = request.len() - body_start;
        if written != content_length {
            let body = request.split_off(body_start);
            request.clear();
            write_post_header(&mut request, &path, written);
            request.extend_from_slice(&body);
        }
        HttpPostClient { request, ok, response: Inbox::default() }
    }
}

impl Conduit for HttpPostClient {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        io.send(&std::mem::take(&mut self.request));
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let ok = &self.ok;
        let done = self.response.receive(data, |response| {
            if header_end(response).is_none() {
                return false;
            }
            if response.starts_with(b"HTTP/1.0 200") || response.starts_with(b"HTTP/1.1 200") {
                *ok.lock() = true;
            }
            true
        });
        if done {
            io.close();
        }
    }
}

/// Parse one complete POST: its path and exactly `Content-Length` body
/// bytes, both borrowed from `bytes`. None while the request is
/// incomplete, and for anything that is not a POST with a
/// `Content-Length`.
///
/// The header is read as UTF-8 with invalid sequences replaced, so a
/// corrupted header yields the same path text however it is framed; the
/// path is copied only in that case.
fn parse_post(bytes: &[u8]) -> Option<(Cow<'_, str>, &[u8])> {
    let header_end = header_end(bytes)?;
    let (path, content_length) = match String::from_utf8_lossy(bytes.get(..header_end)?) {
        Cow::Borrowed(header) => {
            let (path, len) = parse_post_header(header)?;
            (Cow::Borrowed(path), len)
        }
        Cow::Owned(header) => {
            let (path, len) = parse_post_header(&header)?;
            (Cow::Owned(path.to_string()), len)
        }
    };
    let body = bytes.get(header_end..header_end.checked_add(content_length)?)?;
    Some((path, body))
}

/// The path and `Content-Length` of a POST header.
fn parse_post_header(header: &str) -> Option<(&str, usize)> {
    let mut lines = header.lines();
    let mut parts = lines.next()?.split_whitespace();
    if parts.next()? != "POST" {
        return None;
    }
    let path = parts.next()?;
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    Some((path, content_length))
}

/// Server conduit: accumulates one POST, hands its path and body to the
/// handler, responds `200 OK`.
pub struct HttpPostServer<F: FnMut(&str, &[u8]) + Send> {
    handler: F,
    request: Inbox,
}

impl<F: FnMut(&str, &[u8]) + Send> HttpPostServer<F> {
    /// Create with a request handler, called with `(path, body)`.
    pub fn new(handler: F) -> Self {
        HttpPostServer { handler, request: Inbox::default() }
    }
}

impl<F: FnMut(&str, &[u8]) + Send> Conduit for HttpPostServer<F> {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let handler = &mut self.handler;
        let handled = self.request.receive(data, |request| match parse_post(request) {
            Some((path, body)) => {
                handler(&path, body);
                true
            }
            None => false,
        });
        if handled {
            io.send(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n");
            io.close();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tlsfoe_netsim::{Ipv4, Network, NetworkConfig};

    type Received = Shared<Vec<(String, Vec<u8>)>>;

    const SERVER: Ipv4 = Ipv4([203, 0, 113, 9]);

    /// A network whose port-80 server records every request it handles.
    fn recording_server() -> (Network, Received) {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let received: Received = Shared::new(Vec::new());
        net.listen(SERVER, 80, {
            let received = received.clone();
            Box::new(move |_| {
                let received = received.clone();
                Box::new(HttpPostServer::new(move |path: &str, body: &[u8]| {
                    received.lock().push((path.to_string(), body.to_vec()));
                }))
            })
        });
        (net, received)
    }

    #[test]
    fn post_roundtrip() {
        let (mut net, received) = recording_server();
        let ok = Shared::new(false);
        let client = HttpPostClient::new("/report?host=qq.com", b"PEM DATA HERE", ok.clone());
        net.dial_from(Ipv4([11, 0, 0, 1]), SERVER, 80, Box::new(client)).unwrap();
        net.run().unwrap();
        assert!(*ok.lock());
        let reqs = received.lock();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].0, "/report?host=qq.com");
        assert_eq!(reqs[0].1, b"PEM DATA HERE");
    }

    #[test]
    fn request_bytes_are_header_then_body() {
        let ok = Shared::new(false);
        let client = HttpPostClient::new("/r?a=1", b"body", ok.clone());
        assert_eq!(client.request, b"POST /r?a=1 HTTP/1.0\r\nContent-Length: 4\r\n\r\nbody");
        let written =
            HttpPostClient::with_body("/r?a=1", 4, ok, |out| out.extend_from_slice(b"body"));
        assert_eq!(written.request, client.request);
    }

    #[test]
    fn body_writer_that_misjudges_its_length_is_reframed() {
        for promised in [0, 3, 5, 1000] {
            let client = HttpPostClient::with_body("/r", promised, Shared::new(false), |out| {
                out.extend_from_slice(b"body")
            });
            assert_eq!(client.request, b"POST /r HTTP/1.0\r\nContent-Length: 4\r\n\r\nbody");
        }
    }

    /// Sends a fixed request one byte per frame, so the server sees one
    /// byte per `on_data`.
    struct Trickle(Vec<u8>);

    impl Conduit for Trickle {
        fn on_open(&mut self, io: &mut IoCtx<'_>) {
            for byte in &self.0 {
                io.send(std::slice::from_ref(byte));
            }
        }

        fn on_data(&mut self, _data: &[u8], _io: &mut IoCtx<'_>) {}
    }

    #[test]
    fn request_delivered_one_byte_per_event_is_handled_once() {
        let path = "/report?host=qq.com&imp=7";
        let body: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let client = HttpPostClient::new(path, &body, Shared::new(false));
        let request = client.request.clone();

        let (mut net, whole) = recording_server();
        net.dial_from(Ipv4([11, 0, 0, 1]), SERVER, 80, Box::new(client)).unwrap();
        net.run().unwrap();

        let (mut net, trickled) = recording_server();
        net.dial_from(Ipv4([11, 0, 0, 1]), SERVER, 80, Box::new(Trickle(request))).unwrap();
        net.run().unwrap();

        assert_eq!(whole.lock().len(), 1, "single-frame request handled once");
        assert_eq!(trickled.lock().len(), 1, "byte-at-a-time request handled exactly once");
        assert_eq!(*trickled.lock(), *whole.lock());
        assert_eq!(whole.lock()[0], (path.to_string(), body));
    }

    #[test]
    fn large_body_spans_records() {
        let (mut net, received) = recording_server();
        let ok = Shared::new(false);
        let body = vec![0x41u8; 100_000];
        let client = HttpPostClient::new("/r", &body, ok.clone());
        net.dial_from(Ipv4([11, 0, 0, 1]), SERVER, 80, Box::new(client)).unwrap();
        net.run().unwrap();
        assert!(*ok.lock());
        assert_eq!(received.lock()[0].1.len(), 100_000);
    }

    #[test]
    fn non_post_ignored() {
        assert!(parse_post(b"GET / HTTP/1.0\r\n\r\n").is_none());
    }

    #[test]
    fn missing_content_length_ignored() {
        assert!(parse_post(b"POST /r HTTP/1.0\r\n\r\nbody").is_none());
    }

    #[test]
    fn body_is_cut_at_content_length_and_waits_until_complete() {
        let (path, body) =
            parse_post(b"POST /r HTTP/1.0\r\nContent-Length: 2\r\n\r\nbody").unwrap();
        assert_eq!((path.as_ref(), body), ("/r", &b"bo"[..]));
        assert!(parse_post(b"POST /r HTTP/1.0\r\nContent-Length: 5\r\n\r\nbody").is_none());
    }

    #[test]
    fn overflowing_content_length_never_panics() {
        let huge = format!("POST /r HTTP/1.0\r\nContent-Length: {}\r\n\r\nbody", usize::MAX);
        assert!(parse_post(huge.as_bytes()).is_none());
    }

    #[test]
    fn invalid_utf8_in_header_is_read_lossily() {
        let (path, body) =
            parse_post(b"POST /r?host=\xff HTTP/1.0\r\nContent-Length: 1\r\n\r\nx").unwrap();
        assert_eq!(path, "/r?host=\u{fffd}");
        assert_eq!(body, b"x");
    }
}
