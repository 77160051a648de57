//! TLS handshake messages (cleartext subset).
//!
//! Everything the probe and every middlebox in the simulation exchanges:
//! ClientHello (with SNI — middleboxes use it for whitelist decisions,
//! §6.3), ServerHello, Certificate (the payload the whole study is
//! about), ServerHelloDone and Alert.

use std::borrow::Cow;

use crate::cipher::CipherSuite;
use crate::record::ProtocolVersion;
use crate::wire::{WireReader, WireWriter};
use crate::TlsError;

/// Handshake message type bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HandshakeType {
    /// ClientHello (1).
    ClientHello = 1,
    /// ServerHello (2).
    ServerHello = 2,
    /// Certificate (11).
    Certificate = 11,
    /// ServerHelloDone (14).
    ServerHelloDone = 14,
}

impl HandshakeType {
    fn from_u8(v: u8) -> Result<Self, TlsError> {
        match v {
            1 => Ok(HandshakeType::ClientHello),
            2 => Ok(HandshakeType::ServerHello),
            11 => Ok(HandshakeType::Certificate),
            14 => Ok(HandshakeType::ServerHelloDone),
            _ => Err(TlsError::Malformed("unknown handshake type")),
        }
    }
}

/// The SNI extension id.
pub const EXT_SERVER_NAME: u16 = 0x0000;

/// ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Offered protocol version.
    pub version: ProtocolVersion,
    /// 32 bytes of client randomness.
    pub random: [u8; 32],
    /// Session id (empty for fresh handshakes).
    pub session_id: Vec<u8>,
    /// Offered cipher suites, preference order. A client borrows its
    /// static offer; a decoded hello owns what it read.
    pub cipher_suites: Cow<'static, [CipherSuite]>,
    /// Server name indication, if offered.
    pub server_name: Option<Cow<'static, str>>,
}

impl ClientHello {
    /// Encode the handshake body (without the 4-byte handshake header)
    /// into `w`.
    fn encode_body(&self, w: &mut WireWriter) {
        let (maj, min) = self.version.bytes();
        w.u8(maj);
        w.u8(min);
        w.bytes(&self.random);
        w.vec8(&self.session_id);
        w.with_len16(|w| {
            for s in self.cipher_suites.iter() {
                w.u16(s.0);
            }
        });
        w.vec8(&[0]); // compression: null only
        if let Some(name) = &self.server_name {
            w.with_len16(|w| {
                // Extension: server_name.
                w.u16(EXT_SERVER_NAME);
                w.with_len16(|w| {
                    // ServerNameList.
                    w.with_len16(|w| {
                        w.u8(0); // name_type: host_name
                        w.vec16(name.as_bytes());
                    });
                });
            });
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let version = ProtocolVersion::from_bytes(r.u8()?, r.u8()?)?;
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?.to_vec();
        let suites_raw = r.vec16()?;
        if suites_raw.len() % 2 != 0 {
            return Err(TlsError::Malformed("odd cipher-suite vector"));
        }
        let cipher_suites = suites_raw
            .chunks_exact(2)
            .map(|c| CipherSuite(u16::from_be_bytes(c.try_into().unwrap_or([0, 0]))))
            .collect::<Vec<_>>()
            .into();
        let _compression = r.vec8()?;
        let mut server_name = None;
        if !r.is_done() {
            let exts = r.vec16()?;
            let mut er = WireReader::new(exts);
            while !er.is_done() {
                let ext_type = er.u16()?;
                let ext_body = er.vec16()?;
                if ext_type == EXT_SERVER_NAME {
                    let mut sr = WireReader::new(ext_body);
                    let list = sr.vec16()?;
                    let mut lr = WireReader::new(list);
                    let name_type = lr.u8()?;
                    let name = lr.vec16()?;
                    if name_type == 0 {
                        server_name = Some(String::from_utf8_lossy(name).into_owned().into());
                    }
                }
            }
        }
        Ok(ClientHello { version, random, session_id, cipher_suites, server_name })
    }
}

/// ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Selected protocol version.
    pub version: ProtocolVersion,
    /// 32 bytes of server randomness.
    pub random: [u8; 32],
    /// Session id assigned by the server.
    pub session_id: Vec<u8>,
    /// Selected cipher suite.
    pub cipher_suite: CipherSuite,
}

impl ServerHello {
    fn encode_body(&self, w: &mut WireWriter) {
        let (maj, min) = self.version.bytes();
        w.u8(maj);
        w.u8(min);
        w.bytes(&self.random);
        w.vec8(&self.session_id);
        w.u16(self.cipher_suite.0);
        w.u8(0); // compression: null
    }

    fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let version = ProtocolVersion::from_bytes(r.u8()?, r.u8()?)?;
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?.to_vec();
        let cipher_suite = CipherSuite(r.u16()?);
        let _compression = r.u8()?;
        // Extensions, if any, are ignored by the probe.
        Ok(ServerHello { version, random, session_id, cipher_suite })
    }
}

/// Certificate message: the DER chain, leaf first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateMsg {
    /// DER-encoded certificates, leaf first.
    pub chain: Vec<Vec<u8>>,
}

impl CertificateMsg {
    fn encode_body(&self, w: &mut WireWriter) {
        w.with_len24(|w| {
            for cert in &self.chain {
                w.vec24(cert);
            }
        });
    }

    fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let list = r.vec24()?;
        let mut lr = WireReader::new(list);
        let mut chain = Vec::new();
        while !lr.is_done() {
            chain.push(lr.vec24()?.to_vec());
        }
        Ok(CertificateMsg { chain })
    }
}

/// A complete handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMsg {
    /// ClientHello.
    ClientHello(ClientHello),
    /// ServerHello.
    ServerHello(ServerHello),
    /// Certificate.
    Certificate(CertificateMsg),
    /// ServerHelloDone.
    ServerHelloDone,
}

impl HandshakeMsg {
    /// Encode with the 4-byte handshake header (type + u24 length).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Encode into an existing writer: header plus body land in one
    /// buffer (the u24 length is backpatched), so multi-message flights
    /// and record-framed sends need no per-message scratch `Vec`.
    pub fn encode_into(&self, w: &mut WireWriter) {
        let ty = match self {
            HandshakeMsg::ClientHello(_) => HandshakeType::ClientHello,
            HandshakeMsg::ServerHello(_) => HandshakeType::ServerHello,
            HandshakeMsg::Certificate(_) => HandshakeType::Certificate,
            HandshakeMsg::ServerHelloDone => HandshakeType::ServerHelloDone,
        };
        w.u8(ty as u8);
        w.with_len24(|w| match self {
            HandshakeMsg::ClientHello(m) => m.encode_body(w),
            HandshakeMsg::ServerHello(m) => m.encode_body(w),
            HandshakeMsg::Certificate(m) => m.encode_body(w),
            HandshakeMsg::ServerHelloDone => {}
        });
    }
}

/// Streaming handshake-message reassembler. Feed it the payloads of
/// Handshake-type records (messages may span record boundaries).
///
/// A cursor over an append-only buffer, like
/// [`crate::record::RecordParser`]: popping a message advances `pos`
/// instead of `drain`ing (no per-message memmove), and the body is
/// decoded straight out of the buffer (no per-message copy).
#[derive(Debug, Default)]
pub struct HandshakeParser {
    buf: Vec<u8>,
    pos: usize,
}

/// Compaction threshold for the dead prefix of a handshake buffer
/// (matches the record layer's: one maximum record payload).
const COMPACT_AT: usize = 1 << 14;

impl HandshakeParser {
    /// New empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed a Handshake record payload.
    pub fn feed(&mut self, data: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete handshake message, if any.
    pub fn next_message(&mut self) -> Result<Option<HandshakeMsg>, TlsError> {
        if self.buf.len() - self.pos < 4 {
            return Ok(None);
        }
        let mut r = WireReader::new(self.buf.get(self.pos..).unwrap_or_default());
        let ty = HandshakeType::from_u8(r.u8()?)?;
        let len = r.u24()? as usize;
        if r.remaining() < len {
            return Ok(None);
        }
        let body = r.take(len)?;
        self.pos += 4 + len;
        let msg = match ty {
            HandshakeType::ClientHello => {
                HandshakeMsg::ClientHello(ClientHello::decode_body(body)?)
            }
            HandshakeType::ServerHello => {
                HandshakeMsg::ServerHello(ServerHello::decode_body(body)?)
            }
            HandshakeType::Certificate => {
                HandshakeMsg::Certificate(CertificateMsg::decode_body(body)?)
            }
            HandshakeType::ServerHelloDone => {
                if !body.is_empty() {
                    return Err(TlsError::Malformed("non-empty ServerHelloDone"));
                }
                HandshakeMsg::ServerHelloDone
            }
        };
        Ok(Some(msg))
    }
}

/// Alert levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AlertLevel {
    /// warning(1)
    Warning = 1,
    /// fatal(2)
    Fatal = 2,
}

/// The alerts the probe and servers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// Description code (0 = close_notify, 90 = user_canceled, …).
    pub description: u8,
}

impl Alert {
    /// close_notify — what the probe sends when aborting after
    /// Certificate (§3.2: "the handshake is aborted and the connection
    /// is closed").
    pub fn close_notify() -> Alert {
        Alert { level: AlertLevel::Warning, description: 0 }
    }

    /// user_canceled.
    pub fn user_canceled() -> Alert {
        Alert { level: AlertLevel::Warning, description: 90 }
    }

    /// Encode as a 2-byte alert payload.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.level as u8, self.description]
    }

    /// Encode as a complete TLS record — the 7 bytes
    /// `encode_records(Alert, version, &self.encode())` would produce,
    /// without any allocation. Alerts are the one message every session
    /// sends (the probe aborts with close_notify per §3.2), so the hot
    /// paths use this constant-size form.
    pub fn encode_record(&self, version: ProtocolVersion) -> [u8; 7] {
        let (maj, min) = version.bytes();
        [
            crate::record::ContentType::Alert as u8,
            maj,
            min,
            0,
            2,
            self.level as u8,
            self.description,
        ]
    }

    /// Decode from an Alert record payload.
    pub fn decode(data: &[u8]) -> Result<Alert, TlsError> {
        let (raw_level, description) = match data {
            [l, d] => (*l, *d),
            _ => return Err(TlsError::Malformed("alert payload length")),
        };
        let level = match raw_level {
            1 => AlertLevel::Warning,
            2 => AlertLevel::Fatal,
            _ => return Err(TlsError::Malformed("alert level")),
        };
        Ok(Alert { level, description })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_client_hello() -> ClientHello {
        ClientHello {
            version: ProtocolVersion::Tls10,
            random: [7u8; 32],
            session_id: vec![],
            cipher_suites: CipherSuite::default_client_offer().into(),
            server_name: Some("tlsresearch.byu.edu".into()),
        }
    }

    #[test]
    fn client_hello_roundtrip() {
        let ch = sample_client_hello();
        let enc = HandshakeMsg::ClientHello(ch.clone()).encode();
        let mut p = HandshakeParser::new();
        p.feed(&enc);
        let msg = p.next_message().unwrap().unwrap();
        assert_eq!(msg, HandshakeMsg::ClientHello(ch));
        assert!(p.next_message().unwrap().is_none());
    }

    #[test]
    fn client_hello_without_sni() {
        let mut ch = sample_client_hello();
        ch.server_name = None;
        let enc = HandshakeMsg::ClientHello(ch.clone()).encode();
        let mut p = HandshakeParser::new();
        p.feed(&enc);
        assert_eq!(p.next_message().unwrap().unwrap(), HandshakeMsg::ClientHello(ch));
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            version: ProtocolVersion::Tls10,
            random: [9u8; 32],
            session_id: vec![1, 2, 3, 4],
            cipher_suite: CipherSuite::RSA_AES_128_CBC_SHA,
        };
        let enc = HandshakeMsg::ServerHello(sh.clone()).encode();
        let mut p = HandshakeParser::new();
        p.feed(&enc);
        assert_eq!(p.next_message().unwrap().unwrap(), HandshakeMsg::ServerHello(sh));
    }

    #[test]
    fn certificate_chain_roundtrip() {
        let msg =
            CertificateMsg { chain: vec![vec![0x30, 0x01, 0xaa], vec![0x30, 0x02, 0xbb, 0xcc]] };
        let enc = HandshakeMsg::Certificate(msg.clone()).encode();
        let mut p = HandshakeParser::new();
        p.feed(&enc);
        assert_eq!(p.next_message().unwrap().unwrap(), HandshakeMsg::Certificate(msg));
    }

    #[test]
    fn empty_certificate_chain() {
        let msg = CertificateMsg { chain: vec![] };
        let enc = HandshakeMsg::Certificate(msg.clone()).encode();
        let mut p = HandshakeParser::new();
        p.feed(&enc);
        assert_eq!(p.next_message().unwrap().unwrap(), HandshakeMsg::Certificate(msg));
    }

    #[test]
    fn messages_span_feeds() {
        let enc = HandshakeMsg::ClientHello(sample_client_hello()).encode();
        let mut p = HandshakeParser::new();
        let (a, b) = enc.split_at(enc.len() / 2);
        p.feed(a);
        assert!(p.next_message().unwrap().is_none());
        p.feed(b);
        assert!(p.next_message().unwrap().is_some());
    }

    #[test]
    fn multiple_messages_in_one_feed() {
        let mut bytes = HandshakeMsg::ServerHello(ServerHello {
            version: ProtocolVersion::Tls10,
            random: [0u8; 32],
            session_id: vec![],
            cipher_suite: CipherSuite::RSA_AES_256_CBC_SHA,
        })
        .encode();
        bytes.extend(HandshakeMsg::Certificate(CertificateMsg { chain: vec![vec![1]] }).encode());
        bytes.extend(HandshakeMsg::ServerHelloDone.encode());
        let mut p = HandshakeParser::new();
        p.feed(&bytes);
        assert!(matches!(p.next_message().unwrap(), Some(HandshakeMsg::ServerHello(_))));
        assert!(matches!(p.next_message().unwrap(), Some(HandshakeMsg::Certificate(_))));
        assert_eq!(p.next_message().unwrap(), Some(HandshakeMsg::ServerHelloDone));
        assert_eq!(p.next_message().unwrap(), None);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut p = HandshakeParser::new();
        p.feed(&[99, 0, 0, 0]);
        assert!(p.next_message().is_err());
    }

    #[test]
    fn nonempty_hello_done_rejected() {
        let mut p = HandshakeParser::new();
        p.feed(&[14, 0, 0, 1, 0xff]);
        assert!(p.next_message().is_err());
    }

    #[test]
    fn alert_roundtrip() {
        for alert in [Alert::close_notify(), Alert::user_canceled()] {
            assert_eq!(Alert::decode(&alert.encode()).unwrap(), alert);
        }
        assert!(Alert::decode(&[1]).is_err());
        assert!(Alert::decode(&[3, 0]).is_err());
    }

    #[test]
    fn alert_record_matches_generic_framing() {
        use crate::record::{encode_records, ContentType};
        for alert in [
            Alert::close_notify(),
            Alert::user_canceled(),
            Alert { level: AlertLevel::Fatal, description: 48 },
        ] {
            for version in [ProtocolVersion::Ssl30, ProtocolVersion::Tls10, ProtocolVersion::Tls12]
            {
                assert_eq!(
                    alert.encode_record(version).as_slice(),
                    encode_records(ContentType::Alert, version, &alert.encode()).as_slice(),
                );
            }
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let msgs = [
            HandshakeMsg::ClientHello(sample_client_hello()),
            HandshakeMsg::Certificate(CertificateMsg { chain: vec![vec![0x30, 0x01, 0xaa]] }),
            HandshakeMsg::ServerHelloDone,
        ];
        let mut w = crate::wire::WireWriter::new();
        let mut concat = Vec::new();
        for m in &msgs {
            m.encode_into(&mut w);
            concat.extend(m.encode());
        }
        assert_eq!(w.finish(), concat);
    }
}
