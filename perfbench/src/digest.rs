//! Output fingerprints: what the correctness checks compare across
//! processes (untraced vs traced, run vs `exp_all`, rep vs rep).

use std::io;

use tlsfoe_core::analysis;
use tlsfoe_core::report::Database;
use tlsfoe_core::study::StudyOutcome;

/// 64-bit FNV-1a over everything written to it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a of a text (the rendered paper).
pub fn text_digest(text: &str) -> String {
    let mut h = Fnv::default();
    h.update(text.as_bytes());
    h.hex()
}

/// Rows `tables::table_by_country` prints above "Other".
pub const COUNTRY_ROWS: usize = 20;

/// Countries that share one Table 3/7 ranking key, (proxied, total).
/// `analysis::by_country` ranks by that key alone and collects from a
/// hash map, so which of the tied countries is printed first (or at
/// all, at the top-[`COUNTRY_ROWS`] cut) follows the process's hash
/// seed: `exp_all` stdout differs from process to process there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tie {
    /// Title line of the table.
    pub title: &'static str,
    /// Proxied connections of every tied country.
    pub proxied: u64,
    /// Total connections of every tied country.
    pub total: u64,
    /// The tied countries' names, sorted.
    pub names: Vec<&'static str>,
}

impl Tie {
    /// One line for the log.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} countries tie at {} proxied / {} total ({}); their order follows hash-map iteration",
            self.title.split(':').next().unwrap_or(self.title),
            self.names.len(),
            self.proxied,
            self.total,
            self.names.join(", ")
        )
    }
}

/// The ties among the printed rows of the Table 3/7 that `title` heads,
/// rendered from `db`.
pub fn country_ties(db: &Database, title: &'static str) -> Vec<Tie> {
    let (rows, _, _) = analysis::by_country(db, usize::MAX);
    let mut ties: Vec<Tie> = Vec::new();
    for shown in rows.iter().take(COUNTRY_ROWS) {
        let key = (shown.proxied, shown.total);
        if ties.iter().any(|t| (t.proxied, t.total) == key) {
            continue;
        }
        let mut names: Vec<&'static str> = rows
            .iter()
            .filter(|r| (r.proxied, r.total) == key)
            .map(|r| r.country.map_or("?", analysis::country_name))
            .collect();
        if names.len() > 1 {
            names.sort_unstable();
            ties.push(Tie { title, proxied: key.0, total: key.1, names });
        }
    }
    ties
}

/// `text` with every Table 3/7 row that prints one of a tie's countries
/// naming the whole tie instead (`{A|B}`). Two renderings of the same
/// databases that chose differently among tied countries canonicalize
/// to the same text; any other difference survives. Fails if such a
/// table prints one country twice.
pub fn canonical_text(text: &str, ties: &[Tie]) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut table: Option<(&str, Vec<String>)> = None;
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        if ties.iter().any(|t| t.title == body) {
            table = Some((body, Vec::new()));
        } else if body.trim().is_empty() || body.trim_start().starts_with("Other") {
            table = None;
        }
        let Some((title, printed)) = &mut table else {
            out.push_str(line);
            continue;
        };
        let Some((rank, name, proxied, total, pct)) = country_row(body) else {
            out.push_str(line);
            continue;
        };
        if printed.contains(&name) {
            return Err(format!("{title} prints {name} twice"));
        }
        let tie = ties.iter().find(|t| {
            t.title == *title
                && (t.proxied, t.total) == (proxied, total)
                && t.names.contains(&name.as_str())
        });
        match tie {
            Some(t) => out.push_str(&format!(
                "  {rank:>4} {{{}}} {proxied} {total} {pct}\n",
                t.names.join("|")
            )),
            None => out.push_str(line),
        }
        printed.push(name);
    }
    Ok(out)
}

/// A ranked Table 3/7 row: rank, country name, proxied, total, percent.
fn country_row(line: &str) -> Option<(u64, String, u64, u64, &str)> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let [rank, name @ .., proxied, total, pct] = words.as_slice() else { return None };
    if name.is_empty() || !pct.ends_with('%') {
        return None;
    }
    Some((rank.parse().ok()?, name.join(" "), proxied.parse().ok()?, total.parse().ok()?, pct))
}

/// One digest over every study's campaigns and `Database`: the JSONL
/// export, the typed failure records, the malformed-upload count and the
/// shard failures, study by study in run order.
pub fn studies_digest(studies: &[StudyOutcome]) -> String {
    let mut h = Fnv::default();
    for s in studies {
        for c in &s.campaigns {
            h.update(
                format!("{}|{}|{}|{}\n", c.name, c.impressions, c.clicks, c.cost_usd).as_bytes(),
            );
        }
        s.db.write_jsonl(&mut h).expect("hashing cannot fail");
        for f in s.db.failures() {
            h.update(format!("{f:?}\n").as_bytes());
        }
        h.update(format!("malformed {}\n", s.db.malformed_uploads()).as_bytes());
        for f in &s.shard_failures {
            h.update(format!("{f:?}\n").as_bytes());
        }
    }
    h.hex()
}

/// Failure labels in tally order (`SessionError::label`).
pub const FAILURE_LABELS: [&str; 5] = ["timeout", "alert", "parse", "closed", "deadline"];

/// Measurement outcomes summed over studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Stored measurements.
    pub measured: u64,
    /// Typed probe failures, by [`FAILURE_LABELS`] index.
    pub failures: [u64; 5],
    /// Uploads the report server could not parse.
    pub malformed: u64,
    /// Measurements that needed more than one dial.
    pub retried: u64,
    /// Shards that abandoned their impression range.
    pub shard_failures: u64,
}

impl Tally {
    /// Sum the outcomes of `studies`.
    pub fn of(studies: &[StudyOutcome]) -> Tally {
        let mut t = Tally::default();
        for s in studies {
            t.measured += s.db.total();
            for f in s.db.failures() {
                if let Some(i) = FAILURE_LABELS.iter().position(|&l| l == f.error.label()) {
                    t.failures[i] += 1;
                }
            }
            t.malformed += s.db.malformed_uploads();
            t.retried += s.db.fold(0, |n, r| n + u64::from(r.attempts > 1));
            t.shard_failures += s.shard_failures.len() as u64;
        }
        t
    }

    /// Probes that ended without a measurement: typed failures plus
    /// malformed uploads.
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum::<u64>() + self.malformed
    }

    /// Share of probes with a verdict that produced a measurement.
    pub fn success_frac(&self) -> f64 {
        ratio(self.measured as f64, (self.measured + self.failed()) as f64)
    }

    /// A stable one-line rendering (compared across processes).
    pub fn line(&self) -> String {
        let mut out = format!("measured:{}", self.measured);
        for (label, n) in FAILURE_LABELS.iter().zip(self.failures) {
            out.push_str(&format!(" {label}:{n}"));
        }
        out.push_str(&format!(
            " malformed:{} retried:{} shard_failures:{}",
            self.malformed, self.retried, self.shard_failures
        ));
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TITLE: &str = "Table 3: Proxied connections by country (study 1)";

    fn table(rows: &[(&str, u64, u64)]) -> String {
        let mut out = format!("{TITLE}\n  Rank Country        Proxied      Total   Percent\n");
        for (i, (name, proxied, total)) in rows.iter().enumerate() {
            let pct = format!("{:.2}%", *proxied as f64 * 100.0 / *total as f64);
            out.push_str(&format!(
                "  {:>4} {name:<14} {proxied:>7} {total:>10}   {pct:>7}\n",
                i + 1
            ));
        }
        out.push_str("       Other                1         79     1.27%\n\nstudy 1: done\n");
        out
    }

    fn ties() -> Vec<Tie> {
        vec![Tie { title: TITLE, proxied: 1, total: 79, names: vec!["Chile", "Peru", "Togo"] }]
    }

    fn canonical(rows: &[(&str, u64, u64)]) -> Result<String, String> {
        canonical_text(&table(rows), &ties())
    }

    #[test]
    fn another_choice_among_tied_countries_is_the_same_text() {
        let a = canonical(&[("France", 9, 300), ("Peru", 1, 79), ("Chile", 1, 79)]);
        let b = canonical(&[("France", 9, 300), ("Togo", 1, 79), ("Peru", 1, 79)]);
        assert_eq!(a, b);
        assert!(a.expect("canonical").contains("{Chile|Peru|Togo} 1 79 1.27%"));
    }

    #[test]
    fn every_other_difference_survives() {
        let base = canonical(&[("France", 9, 300), ("Peru", 1, 79)]);
        for rows in [
            [("Spain", 9, 300), ("Peru", 1, 79)],
            [("France", 9, 301), ("Peru", 1, 79)],
            [("France", 9, 300), ("Peru", 2, 79)],
            [("France", 9, 300), ("Italy", 1, 79)],
        ] {
            assert_ne!(canonical(&rows), base, "{rows:?}");
        }
        let untied = table(&[("France", 9, 300)]);
        assert_eq!(canonical_text(&untied, &ties()).as_deref(), Ok(untied.as_str()));
    }

    #[test]
    fn a_country_printed_twice_is_refused() {
        let twice = canonical(&[("Peru", 1, 79), ("Peru", 1, 79)]);
        assert!(twice.is_err(), "{twice:?}");
    }
}
