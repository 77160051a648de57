//! The reporting server.
//!
//! This is the server half of §3: it receives each client's concatenated
//! PEM upload, parses it, compares the captured leaf byte-for-byte with
//! the authoritative certificate for the probed host, geolocates the
//! reporting IP, and appends a [`MeasurementRecord`] to the columnar
//! [`Database`] (see [`crate::store`] for the storage design).
//!
//! Records keep a slim summary for matched (un-proxied) probes and the
//! full substitute evidence — including the raw DER chain — for
//! mismatches, which is what every downstream analyzer consumes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tlsfoe_netsim::net::DialInfo;
use tlsfoe_netsim::{Ipv4, Shared};
use tlsfoe_x509::{pem, Certificate};

use crate::hosts::{HostCatalog, HostCategory};
use crate::http::HttpPostServer;
use tlsfoe_geo::GeoDb;

pub use crate::store::{
    Database, MeasurementRecord, ProbeFailureRecord, RecordView, SubstituteInfo,
};

/// Upper bound on distinct `(host, body)` classifications the ingest
/// memo retains. Healthy runs sit far below it (`exp_million` measured
/// 39 distinct chains across 10⁶ impressions); a chaos run spraying
/// corrupted-but-parseable bodies stops *inserting* past the cap and
/// simply re-parses, so memory stays bounded and semantics unchanged.
const INGEST_MEMO_MAX: usize = 4096;

/// One memoized upload classification: the exact request bytes that
/// produced it (full-body equality guards against hash collisions) and
/// the parse-derived fields of the record it yields.
struct MemoEntry {
    host: &'static str,
    body: Vec<u8>,
    proxied: bool,
    substitute: Option<SubstituteInfo>,
}

/// Upload-body → parsed-classification memo.
///
/// Probes upload the PEM encoding of whatever chain they captured, and
/// distinct chains are rare (tens per run) while uploads number in the
/// millions — so the PEM decode + X.509 parse + leaf comparison that
/// [`ReportServer::ingest`] performs is overwhelmingly repeated work.
/// The memo keys on a word-at-a-time hash of `(host, body)` (see
/// [`IngestMemo::hash`]) with bucket entries compared by full body
/// equality (never hash-only), and stores exactly
/// the classification fields that are pure functions of `(host, body)`:
/// `proxied` and the substitute evidence. Per-upload fields (impression
/// ordinal, client IP, geolocation, attempts) are never memoized.
///
/// Malformed bodies are **not** cacheable: they produce no
/// classification, only a `malformed_uploads` bump, and memoizing them
/// could turn a later byte-identical-but-reparsed upload into a silent
/// drop. The regression tests below pin this down.
///
/// Measured worth of the key on a 2-core Xeon VM. One thread: 0.47–0.55
/// µs over a 1,872-byte two-certificate body, against 3.1–4.8 µs for
/// the byte-at-a-time FNV key it replaced. End to end, perfbench
/// `sessions` (seed 6011, 4 alternating pairs) with the FNV key put
/// back: `run_s` median 2.94 s, against 2.33 s with this one (4/4 pairs
/// faster). A prefix/suffix key would be cheaper still but weaker here:
/// substitute chains from one product share the PEM armour and their
/// trailing intermediate, so they would all land in one bucket.
#[derive(Default)]
struct IngestMemo {
    buckets: HashMap<u64, Vec<MemoEntry>>,
    entries: usize,
}

impl IngestMemo {
    /// Bucket key for `(host, body)`: seeded with the body length, then
    /// one rotate-xor-multiply step per 8-byte little-endian word of the
    /// host and of the body. The length seed keeps the host/body split
    /// unambiguous; a hit is still confirmed by full equality in
    /// [`IngestMemo::lookup`], so a collision costs a comparison, never
    /// a wrong record.
    fn hash(host: &str, body: &[u8]) -> u64 {
        let seed = (body.len() as u64).wrapping_mul(MEMO_MUL);
        mix_words(mix_words(seed, host.as_bytes()), body)
    }

    fn lookup(&self, host: &str, body: &[u8]) -> Option<(bool, Option<SubstituteInfo>)> {
        let bucket = self.buckets.get(&Self::hash(host, body))?;
        let e = bucket.iter().find(|e| e.host == host && e.body == body)?;
        Some((e.proxied, e.substitute.clone()))
    }

    fn insert(
        &mut self,
        host: &'static str,
        body: &[u8],
        proxied: bool,
        substitute: &Option<SubstituteInfo>,
    ) {
        if self.entries >= INGEST_MEMO_MAX {
            return;
        }
        self.entries += 1;
        self.buckets.entry(Self::hash(host, body)).or_default().push(MemoEntry {
            host,
            body: body.to_vec(),
            proxied,
            substitute: substitute.clone(),
        });
    }
}

/// Odd multiplier of the memo hash's word step (the FxHash constant).
const MEMO_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Fold `bytes` into `h` one 8-byte little-endian word at a time; the
/// last partial word is zero-extended.
fn mix_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
        h = (h.rotate_left(5) ^ w).wrapping_mul(MEMO_MUL);
    }
    let tail = words.remainder();
    if tail.is_empty() {
        return h;
    }
    let w = tail.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
    (h.rotate_left(5) ^ w).wrapping_mul(MEMO_MUL)
}

/// The reporting server: authoritative chains + geolocation + database.
pub struct ReportServer {
    authoritative: HashMap<&'static str, (Vec<u8>, &'static str, HostCategory)>,
    geo: GeoDb,
    db: Shared<Database>,
    /// See [`IngestMemo`]. The lock is uncontended in a batched run (the
    /// server is per-shard) and serializes concurrent uploads in a
    /// partitioned run, where every client partition reports into the
    /// one server partition.
    memo: Mutex<IngestMemo>,
}

impl ReportServer {
    /// Create for a host catalog.
    pub fn new(catalog: &HostCatalog, geo: GeoDb, db: Shared<Database>) -> ReportServer {
        let authoritative = catalog
            .hosts
            .iter()
            .filter_map(|h| {
                let leaf = h.chain.first()?;
                Some((h.name, (leaf.to_der().to_vec(), h.name, h.category)))
            })
            .collect();
        ReportServer { authoritative, geo, db, memo: Mutex::new(IngestMemo::default()) }
    }

    /// The shared database handle.
    pub fn db(&self) -> Shared<Database> {
        self.db.clone()
    }

    /// Process one upload: `path` is `/report?host=NAME[&imp=N][&att=N]`,
    /// `body` is the concatenated PEM chain the probe captured.
    ///
    /// An unparsable `imp=` or `att=` value marks the whole upload
    /// malformed: a client that cannot transmit its impression ordinal
    /// intact cannot be trusted to have transmitted the chain intact
    /// either, and silently coercing to a default would fabricate a
    /// record at ordinal 0 / attempt 1 that never happened.
    pub fn ingest(&self, client_ip: Ipv4, path: &str, body: &[u8]) {
        let mut host_name = None;
        let mut impression = 0u64;
        let mut attempts = 1u32;
        for pair in path.split('?').nth(1).unwrap_or("").split('&') {
            match pair.split_once('=') {
                Some(("host", v)) => host_name = Some(v),
                Some(("imp", v)) => match v.parse() {
                    Ok(imp) => impression = imp,
                    Err(_) => {
                        self.db.lock().note_malformed();
                        return;
                    }
                },
                Some(("att", v)) => match v.parse() {
                    Ok(att) => attempts = att,
                    Err(_) => {
                        self.db.lock().note_malformed();
                        return;
                    }
                },
                _ => {}
            }
        }
        let Some(host_name) = host_name else {
            self.db.lock().note_malformed();
            return;
        };
        let Some(&(ref auth_leaf, host, category)) = self.authoritative.get(host_name) else {
            self.db.lock().note_malformed();
            return;
        };
        // Fast path: the 2nd..Nth sighting of a `(host, body)` pair skips
        // PEM decode, X.509 parse and leaf comparison entirely — the
        // classification is a pure function of those bytes (see
        // [`IngestMemo`]); only the per-upload fields are computed fresh.
        let memoized = self.memo.lock().unwrap_or_else(|e| e.into_inner()).lookup(host, body);
        let (proxied, substitute) = match memoized {
            Some(hit) => hit,
            None => {
                let text = String::from_utf8_lossy(body);
                let chain = match pem::decode_certificates(&text) {
                    Ok(chain) => chain,
                    // Unparsable bodies are counted and dropped, never
                    // memoized: only successful classifications enter the
                    // memo.
                    Err(_) => {
                        self.db.lock().note_malformed();
                        return;
                    }
                };
                // An empty (certificate-free) body is malformed too.
                let Some((leaf, intermediates)) = chain.split_first() else {
                    self.db.lock().note_malformed();
                    return;
                };
                let leaf_der = leaf.to_der();
                let proxied = leaf_der != auth_leaf.as_slice();
                let substitute =
                    proxied.then(|| extract_substitute(leaf, leaf_der, intermediates, host));
                self.memo.lock().unwrap_or_else(|e| e.into_inner()).insert(
                    host,
                    body,
                    proxied,
                    &substitute,
                );
                (proxied, substitute)
            }
        };
        self.db.lock().push(MeasurementRecord {
            impression,
            client_ip,
            country: self.geo.lookup(client_ip),
            host,
            category,
            proxied,
            substitute,
            attempts,
        });
    }

    /// Build a netsim listener factory serving this report server over
    /// HTTP POST. The server is wrapped in `Arc` so every accepted
    /// connection shares the same database.
    pub fn listener(self: Arc<Self>) -> tlsfoe_netsim::net::ListenerFactory {
        Box::new(move |info: DialInfo| {
            let server = self.clone();
            Box::new(HttpPostServer::new(move |path: &str, body: &[u8]| {
                server.ingest(info.client, path, body);
            }))
        })
    }
}

/// Pull the analyzer-relevant fields out of a substitute chain.
///
/// `leaf_der` is the leaf's DER as already borrowed for the
/// authoritative comparison in `ingest` — passed in so the evidence copy
/// reuses it instead of re-borrowing `to_der()` per certificate walk.
fn extract_substitute(
    leaf: &Certificate,
    leaf_der: &[u8],
    intermediates: &[Certificate],
    host: &str,
) -> SubstituteInfo {
    let spki_bytes = leaf.tbs.spki.key.n.to_bytes_be();
    let mut chain_der = Vec::with_capacity(1 + intermediates.len());
    chain_der.push(leaf_der.to_vec());
    chain_der.extend(intermediates.iter().map(|c| c.to_der().to_vec()));
    SubstituteInfo {
        issuer_org: leaf.tbs.issuer.organization().map(str::to_string),
        issuer_cn: leaf.tbs.issuer.common_name().map(str::to_string),
        key_bits: leaf.key_bits(),
        sig_alg: leaf.signature_alg,
        subject_cn: leaf.tbs.subject.common_name().map(str::to_string),
        covers_host: leaf.matches_host(host),
        leaf_key_fp: tlsfoe_crypto::sha256::sha256(&spki_bytes),
        chain_der,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn setup() -> (Arc<ReportServer>, Shared<Database>, HostCatalog) {
        let catalog = HostCatalog::study2();
        let db = Shared::new(Database::new());
        let server = Arc::new(ReportServer::new(&catalog, GeoDb::allocate(1000), db.clone()));
        (server, db, catalog)
    }

    fn client() -> Ipv4 {
        // First address of the first country block.
        Ipv4([11, 0, 0, 0])
    }

    /// The char-at-a-time PEM encoder `pem::pem_encode_into` replaced
    /// (its byte-identity reference in `tlsfoe_x509::pem`'s tests).
    fn reference_pem(der: &[u8]) -> String {
        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut b64 = String::new();
        for chunk in der.chunks(3) {
            let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
            let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
            let triple = ((chunk[0] as u32) << 16) | (b1 << 8) | b2;
            b64.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
            b64.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
            b64.push(if chunk.len() > 1 {
                ALPHABET[(triple >> 6) as usize & 0x3f] as char
            } else {
                '='
            });
            b64.push(if chunk.len() > 2 { ALPHABET[triple as usize & 0x3f] as char } else { '=' });
        }
        let mut out = String::from("-----BEGIN CERTIFICATE-----\n");
        for line in b64.as_bytes().chunks(64) {
            out.push_str(std::str::from_utf8(line).unwrap());
            out.push('\n');
        }
        out + "-----END CERTIFICATE-----\n"
    }

    #[test]
    fn upload_bodies_of_every_catalog_chain_match_the_reference_encoder() {
        for catalog in [HostCatalog::study1(), HostCatalog::study2()] {
            for host in &catalog.hosts {
                let ders: Vec<Vec<u8>> = host.chain.iter().map(|c| c.to_der().to_vec()).collect();
                let mut body = Vec::new();
                for der in &ders {
                    pem::pem_encode_into(der, &mut body);
                }
                let reference: String = ders.iter().map(|der| reference_pem(der)).collect();
                assert_eq!(body, reference.as_bytes(), "{}", host.name);
                assert_eq!(pem::encode_certificates(&host.chain), reference, "{}", host.name);
                let expected_len: usize = ders.iter().map(|d| pem::pem_encoded_len(d.len())).sum();
                assert_eq!(body.len(), expected_len, "{}", host.name);
                assert_eq!(pem::pem_decode_all(&reference).unwrap(), ders, "{}", host.name);
            }
        }
    }

    #[test]
    fn matching_upload_recorded_unproxied() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.total(), 1);
        assert_eq!(db.proxied(), 0);
        let r = db.get(0);
        assert_eq!(r.host, "tlsresearch.byu.edu");
        assert!(r.country.is_some());
        assert!(r.substitute.is_none());
    }

    #[test]
    fn mismatching_upload_recorded_proxied_with_evidence() {
        let (server, db, catalog) = setup();
        // Upload qq.com's cert claiming it came from the authors' host.
        let body = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.proxied(), 1);
        let r = db.get(0);
        let sub = r.substitute.unwrap();
        assert_eq!(sub.issuer_org.as_deref(), Some("DigiCert Inc"));
        assert_eq!(sub.key_bits, 2048);
        assert!(!sub.covers_host, "qq.com cert must not cover byu host");
        assert_eq!(sub.chain_der.len(), 2);
    }

    #[test]
    fn garbage_uploads_counted_malformed() {
        let (server, db, _) = setup();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"not pem");
        server.ingest(client(), "/report?host=unknown.example", b"");
        server.ingest(client(), "/nonsense", b"");
        let db = db.lock();
        assert_eq!(db.total(), 0);
        assert_eq!(db.malformed_uploads(), 3);
    }

    #[test]
    fn truncated_pem_counted_malformed_every_time_and_never_memoized() {
        // Satellite regression: a truncated/garbled PEM body must bump
        // malformed_uploads on EVERY sighting — if a bad body ever
        // entered the ingest memo as a classification, the second upload
        // would fabricate a record (or silently drop) instead.
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain);
        // Truncate mid-base64: BEGIN without END → decode error.
        let truncated = good.as_bytes()[..good.len() / 2].to_vec();
        // Garble the base64 body but keep the armor → invalid character.
        let garbled = good.replace(|c: char| c.is_ascii_digit(), "!").into_bytes();
        for round in 1..=3u64 {
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &truncated);
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &garbled);
            assert_eq!(
                db.lock().malformed_uploads(),
                2 * round,
                "every sighting of a bad body must count malformed"
            );
            assert_eq!(db.lock().total(), 0, "bad bodies must never yield records");
        }
        // A PEM-free body (no BEGIN block at all) decodes to an empty
        // chain: also malformed, also never memoized.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"no pem here");
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"no pem here");
        assert_eq!(db.lock().malformed_uploads(), 8);
        // The good body still classifies fine afterwards.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", good.as_bytes());
        assert_eq!(db.lock().total(), 1);
        assert!(!db.lock().get(0).proxied);
    }

    #[test]
    fn memoized_ingest_identical_to_cold_parse() {
        // The memo's correctness contract: the 2nd..Nth sighting of a
        // body (the memo hit) must produce a record identical to what a
        // cold parse produces — including full substitute evidence — and
        // per-upload fields (impression, attempts, client IP) must stay
        // per-upload, never memoized.
        let (server, db, catalog) = setup();
        let sub = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=1", &sub);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // A cold server (fresh memo) parsing the same second upload.
        let cold_db = Shared::new(Database::new());
        let cold = ReportServer::new(&catalog, GeoDb::allocate(1000), cold_db.clone());
        cold.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // Same body under a DIFFERENT host is a different classification
        // (the authoritative leaf differs), so it must not hit the first
        // host's memo slot: qq.com's own chain is unproxied there.
        server.ingest(client(), "/report?host=qq.com&imp=9", &sub);
        let db = db.lock();
        let warm = db.get(1);
        assert_eq!(warm, cold_db.lock().get(0), "memo hit must equal cold parse");
        assert_eq!(warm.impression, 2);
        assert_eq!(warm.attempts, 3);
        assert_eq!(db.get(0).impression, 1, "per-upload fields must not leak across hits");
        assert_eq!(db.get(0).substitute, db.get(1).substitute);
        assert!(!db.get(2).proxied, "host must be part of the memo key");
    }

    #[test]
    fn memo_separates_equal_length_bodies_differing_in_one_byte() {
        // Bodies of one length that differ in a single byte at the start,
        // middle or end must each classify exactly as a cold server
        // classifies them, on first sight and on the memo hit after it.
        let (server, db, catalog) = setup();
        let path = "/report?host=tlsresearch.byu.edu&imp=4";
        let base = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), path, &base);
        let mut seen = 1;
        for at in [0, 1, base.len() / 2, base.len() - 2, base.len() - 1] {
            let mut body = base.clone();
            body[at] = if body[at] == b'A' { b'B' } else { b'A' };
            let cold_db = Shared::new(Database::new());
            ReportServer::new(&catalog, GeoDb::allocate(1000), cold_db.clone()).ingest(
                client(),
                path,
                &body,
            );
            let cold = cold_db.lock();
            for _ in 0..2 {
                let malformed = db.lock().malformed_uploads();
                server.ingest(client(), path, &body);
                let db = db.lock();
                assert_eq!(
                    db.malformed_uploads() - malformed,
                    cold.malformed_uploads(),
                    "byte {at}"
                );
                assert_eq!(db.total() as usize, seen + cold.total() as usize, "byte {at}");
                if cold.total() == 1 {
                    assert_eq!(db.get(seen), cold.get(0), "byte {at}");
                    seen += 1;
                }
            }
        }
        // The untouched body still hits its own classification.
        server.ingest(client(), path, &base);
        let db = db.lock();
        assert_eq!(db.get(db.total() as usize - 1), db.get(0));
    }

    #[test]
    fn impression_ordinal_parsed_from_upload_path() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=42", &body);
        server.ingest(client(), "/report?imp=7&host=tlsresearch.byu.edu", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.malformed_uploads(), 0);
        let imps: Vec<u64> = db.iter().map(|r| r.impression).collect();
        assert_eq!(imps, [42, 7, 0], "imp= must parse in any position, defaulting to 0");
    }

    #[test]
    fn unparsable_ordinals_counted_malformed_not_coerced() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        // An upload whose imp=/att= cannot parse must be dropped as
        // malformed, not recorded at a fabricated ordinal-0/attempt-1.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=banana", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=-3", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&att=", &body);
        server.ingest(
            client(),
            "/report?host=tlsresearch.byu.edu&imp=5&att=18446744073709551616",
            &body,
        );
        {
            let db = db.lock();
            assert_eq!(db.total(), 0, "no record may be fabricated from a garbled ordinal");
            assert_eq!(db.malformed_uploads(), 4);
        }
        // A parsable upload after the garbage still lands normally.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=5&att=2", &body);
        let db = db.lock();
        assert_eq!(db.total(), 1);
        assert_eq!(db.get(0).impression, 5);
        assert_eq!(db.get(0).attempts, 2);
    }

    #[test]
    fn geolocation_resolves_client_country() {
        let (server, db, catalog) = setup();
        let geo = GeoDb::allocate(1000);
        let us = tlsfoe_geo::countries::by_code("US").unwrap();
        let us_ip = geo.client_addr(us, 7);
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(us_ip, "/report?host=tlsresearch.byu.edu", &body);
        assert_eq!(db.lock().get(0).country, Some(us));
    }

    #[test]
    fn database_merge_and_rate() {
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        for _ in 0..99 {
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &good);
        }
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &bad);
        let mut merged = Database::new();
        merged.merge(std::mem::replace(&mut *db.lock(), Database::new()));
        assert_eq!(merged.total(), 100);
        assert_eq!(merged.proxied(), 1);
        assert!((merged.proxied_rate() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn jsonl_export_roundtrips_through_parser() {
        let (server, db, catalog) = setup();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &bad);
        let jsonl = db.lock().to_jsonl();
        let v = crate::json::Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("proxied").unwrap().as_bool(), Some(true));
        let sub = v.get("substitute").unwrap();
        assert_eq!(sub.get("issuer_org").unwrap().as_str(), Some("DigiCert Inc"));
        assert_eq!(v.get("host").unwrap().as_str(), Some("tlsresearch.byu.edu"));
    }

    #[test]
    fn write_jsonl_streams_identically_to_string_export() {
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=1", &good);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2", &bad);
        let db = db.lock();
        let mut streamed = Vec::new();
        db.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), db.to_jsonl());
        assert_eq!(db.to_jsonl().lines().count(), 2);
    }
}
