//! Cipher-suite registry.
//!
//! The probe never negotiates keys, but it must offer a realistic suite
//! list (middleboxes have been observed fingerprinting ClientHellos) and
//! the analyzers want names for what servers/proxies select. The list is
//! the common 2014 browser/Flash offering.

/// A cipher suite identifier as it appears on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CipherSuite(pub u16);

impl CipherSuite {
    /// TLS_RSA_WITH_RC4_128_MD5
    pub const RSA_RC4_128_MD5: CipherSuite = CipherSuite(0x0004);
    /// TLS_RSA_WITH_RC4_128_SHA
    pub const RSA_RC4_128_SHA: CipherSuite = CipherSuite(0x0005);
    /// TLS_RSA_WITH_3DES_EDE_CBC_SHA
    pub const RSA_3DES_EDE_CBC_SHA: CipherSuite = CipherSuite(0x000a);
    /// TLS_RSA_WITH_AES_128_CBC_SHA
    pub const RSA_AES_128_CBC_SHA: CipherSuite = CipherSuite(0x002f);
    /// TLS_RSA_WITH_AES_256_CBC_SHA
    pub const RSA_AES_256_CBC_SHA: CipherSuite = CipherSuite(0x0035);
    /// TLS_RSA_WITH_AES_128_CBC_SHA256
    pub const RSA_AES_128_CBC_SHA256: CipherSuite = CipherSuite(0x003c);
    /// TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    pub const ECDHE_RSA_AES_128_CBC_SHA: CipherSuite = CipherSuite(0xc013);
    /// TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA
    pub const ECDHE_RSA_AES_256_CBC_SHA: CipherSuite = CipherSuite(0xc014);

    /// The suite list a 2014 Flash-era client offers, preference order.
    pub fn default_client_offer() -> &'static [CipherSuite] {
        &[
            Self::ECDHE_RSA_AES_256_CBC_SHA,
            Self::ECDHE_RSA_AES_128_CBC_SHA,
            Self::RSA_AES_256_CBC_SHA,
            Self::RSA_AES_128_CBC_SHA,
            Self::RSA_AES_128_CBC_SHA256,
            Self::RSA_3DES_EDE_CBC_SHA,
            Self::RSA_RC4_128_SHA,
            Self::RSA_RC4_128_MD5,
        ]
    }

    /// IANA-style name, if known.
    pub fn name(self) -> &'static str {
        match self.0 {
            0x0004 => "TLS_RSA_WITH_RC4_128_MD5",
            0x0005 => "TLS_RSA_WITH_RC4_128_SHA",
            0x000a => "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
            0x002f => "TLS_RSA_WITH_AES_128_CBC_SHA",
            0x0035 => "TLS_RSA_WITH_AES_256_CBC_SHA",
            0x003c => "TLS_RSA_WITH_AES_128_CBC_SHA256",
            0xc013 => "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
            0xc014 => "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
            _ => "UNKNOWN",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn default_offer_nonempty_and_distinct() {
        let offer = CipherSuite::default_client_offer();
        assert!(offer.len() >= 6);
        let mut ids: Vec<u16> = offer.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), offer.len(), "duplicate suite in offer");
    }

    #[test]
    fn names_resolve() {
        for suite in CipherSuite::default_client_offer() {
            assert_ne!(suite.name(), "UNKNOWN");
        }
        assert_eq!(CipherSuite(0xffff).name(), "UNKNOWN");
    }
}
