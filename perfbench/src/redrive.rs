//! The traced driver: re-drives `run_study`'s orchestration from public
//! calls so every layer boundary gets a span.
//!
//! `run_study` is one call, so wrapping it cannot see per-session work.
//! [`Traced::study`] instead repeats what it does — ad delivery
//! (`Campaign::run`), the warm re-preparation, one `SessionRunner` per
//! shard fed by `sample_client`-derived profiles through
//! `enqueue_session`/`finish`, and `Database::merge` in shard order — and
//! times each call. The result must equal `run_study`'s byte for byte;
//! the benchmark checks that by digest on every traced run, so drift
//! between this copy and the real orchestration fails the run instead of
//! going unnoticed.
//!
//! Spans (name, start, end, parent, study and shard) are kept in memory
//! and written out at the end. Per-impression calls (client derivation
//! and non-driving `enqueue_session`) are too many to keep one span each:
//! they are summed per shard, and one `session.fill` span covers each
//! batch's worth of them between two drives.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use tlsfoe_adsim::{Campaign, Inventory};
use tlsfoe_core::hosts::{prewarm_key_specs, HostCatalog};
use tlsfoe_core::report::{Database, ReportServer};
use tlsfoe_core::session::SessionRunner;
use tlsfoe_core::study::{CampaignStats, ShardFailure, StudyConfig, StudyError, StudyOutcome};
use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_crypto::rsa::signature_count;
use tlsfoe_geo::countries::{by_code, CountryCode};
use tlsfoe_geo::GeoDb;
use tlsfoe_netsim::{LinkProfile, Shared};
use tlsfoe_population::keys;
use tlsfoe_population::model::{ClientProfile, PopulationModel, StudyEra};

use crate::alloc;
use crate::driver::Driver;
use crate::plan::build_catalog;

/// Per-country geo block size `run_study` allocates.
const GEO_BLOCK: u32 = 8_000_000;

/// Studies below this many impressions run on one thread in `run_study`.
const SERIAL_BELOW: usize = 256;

/// One traced interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the trace.
    pub id: u32,
    /// The enclosing span.
    pub parent: Option<u32>,
    /// Layer or phase name.
    pub name: &'static str,
    /// Study index within the run (run order).
    pub study: Option<u32>,
    /// Shard index within the study.
    pub shard: Option<u32>,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Sessions the span covers (`session.fill`, `session.drive`).
    pub items: u64,
}

/// Session-phase totals over every study of the run.
#[derive(Debug, Default)]
pub struct SessionTotals {
    /// Impressions delivered to the session phase.
    pub impressions: u64,
    /// Probes `enqueue_session` reported launched.
    pub probes: u64,
    /// Client/product derivation, summed over shards.
    pub derive_ns: u64,
    /// `enqueue_session` calls that did not drive, summed over shards.
    pub inject_ns: u64,
    /// Calls that drove the event loop (`enqueue_session` or `finish`).
    pub drive_ns: u64,
    /// Each drive's duration.
    pub drive_samples_ns: Vec<u64>,
    /// Network events processed.
    pub events: u64,
    /// Largest connection-side high-water mark of any shard network.
    pub sides_high_water: u64,
    /// Per study, the busiest shard's wall time; summed.
    pub busy_max_ns: u64,
    /// Time finished shards waited at the join, summed.
    pub idle_ns: u64,
    /// Derive + inject + drive time of each study's busiest shard (the
    /// session work on the critical path), summed.
    pub critical_ns: u64,
    /// Allocations during the shard phases.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// RSA signatures during the shard phases (lazy mints).
    pub signatures: u64,
}

/// The traced driver.
pub struct Traced {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    study: Option<u32>,
    studies: u32,
    /// Time per main-thread leaf layer, ns.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Session-phase totals.
    pub sessions: SessionTotals,
}

impl Default for Traced {
    fn default() -> Self {
        Traced {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            study: None,
            studies: 0,
            layer_ns: BTreeMap::new(),
            sessions: SessionTotals::default(),
        }
    }
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

impl Traced {
    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            study: self.study,
            shard: None,
            start_ns: since(self.epoch),
            end_ns: 0,
            items: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, returning its duration.
    fn close(&mut self, id: u32) -> u64 {
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = since(self.epoch);
        span.end_ns - span.start_ns
    }

    /// Time attributed to a layer: every main-thread leaf layer, plus the
    /// session work of each study's busiest shard.
    pub fn attributed_ns(&self) -> u64 {
        self.layer_ns.values().sum::<u64>() + self.sessions.critical_ns
    }

    /// Milliseconds spent in main-thread layer `name`.
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.layer_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, w: &mut impl Write) -> io::Result<()> {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"study\":{},\"shard\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.study),
                opt(s.shard),
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        Ok(())
    }

    /// `run_study` with a span per phase and per shard.
    fn redrive(&mut self, cfg: &StudyConfig) -> Result<StudyOutcome, StudyError> {
        let (campaigns, impressions) = self.layer("adsim.deliver", || deliver(cfg));
        let threads = cfg.threads.max(1);
        let serial = threads == 1 || impressions.len() < SERIAL_BELOW;
        let (catalog, model) = self.layer("study.prepare", || prepare(cfg, threads, serial));
        self.sessions.impressions += impressions.len() as u64;

        let chunk = impressions.len().div_ceil(threads).max(1);
        let (signatures, allocs) = (signature_count(), alloc::snapshot());
        let phase = self.open("shard.phase");
        let epoch = self.epoch;
        let shards: Vec<ShardRun> = if serial {
            vec![run_shard(cfg, &catalog, &model, &impressions, 0, 0, epoch)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = impressions
                    .chunks(chunk)
                    .enumerate()
                    .map(|(i, countries)| {
                        let (catalog, model) = (&catalog, &model);
                        s.spawn(move || {
                            run_shard(cfg, catalog, model, countries, (i * chunk) as u64, i, epoch)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard panicked")).collect()
            })
        };
        let joined = since(epoch);
        self.close(phase);
        let totals = &mut self.sessions;
        totals.signatures += signature_count() - signatures;
        let (n, bytes) = alloc::snapshot();
        totals.allocs += n - allocs.0;
        totals.alloc_bytes += bytes - allocs.1;

        let busiest = shards.iter().max_by_key(|s| s.end_ns - s.start_ns);
        if let Some(b) = busiest {
            totals.busy_max_ns += b.end_ns - b.start_ns;
            totals.critical_ns += b.derive_ns + b.inject_ns + b.drive_ns;
        }
        let mut dbs = Vec::with_capacity(shards.len());
        let mut shard_failures = Vec::new();
        for mut shard in shards {
            totals.idle_ns += joined - shard.end_ns;
            totals.probes += shard.probes;
            totals.derive_ns += shard.derive_ns;
            totals.inject_ns += shard.inject_ns;
            totals.drive_ns += shard.drive_ns;
            totals.drive_samples_ns.append(&mut shard.drive_samples_ns);
            totals.events += shard.events;
            totals.sides_high_water = totals.sides_high_water.max(shard.sides_high_water);
            let base = self.spans.len() as u32;
            for mut span in shard.spans {
                span.id += base;
                span.parent = Some(span.parent.map_or(phase, |p| p + base));
                span.study = self.study;
                self.spans.push(span);
            }
            dbs.push(shard.db);
            shard_failures.extend(shard.failure);
        }

        let db = self.layer("store.merge", || {
            let mut db = Database::new();
            for shard_db in dbs {
                db.merge(shard_db);
            }
            db
        });
        if shard_failures.len() as u64 > cfg.shard_fault_budget {
            return Err(StudyError::FaultBudget {
                failures: shard_failures,
                budget: cfg.shard_fault_budget,
            });
        }
        Ok(StudyOutcome { campaigns, db, shard_failures })
    }
}

impl Driver for Traced {
    fn study(&mut self, cfg: &StudyConfig) -> Result<StudyOutcome, StudyError> {
        let outer = self.study.replace(self.studies);
        self.studies += 1;
        let id = self.open("study");
        let result = self.redrive(cfg);
        self.close(id);
        self.study = outer;
        result
    }

    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        let ns = self.close(id);
        *self.layer_ns.entry(name).or_default() += ns;
        out
    }
}

/// `run_study`'s campaigns at the configured scale.
fn campaigns(cfg: &StudyConfig) -> Vec<Campaign> {
    let scale = cfg.scale.max(1) as f64;
    let shrink = |mut c: Campaign| {
        c.daily_budget_usd /= scale;
        c
    };
    match cfg.era {
        StudyEra::Study1 => vec![shrink(Campaign::study1())],
        StudyEra::Study2 => {
            let mut v = vec![shrink(Campaign::study2_global())];
            for (name, code) in [
                ("China", "CN"),
                ("Egypt", "EG"),
                ("Pakistan", "PK"),
                ("Russia", "RU"),
                ("Ukraine", "UA"),
            ] {
                let country = by_code(code).expect("targeted country registered");
                v.push(shrink(Campaign::study2_country(name, country)));
            }
            v
        }
    }
}

/// Ad delivery: Table 2 rows plus the impression stream's countries.
fn deliver(cfg: &StudyConfig) -> (Vec<CampaignStats>, Vec<CountryCode>) {
    let inventory = match cfg.era {
        StudyEra::Study1 => Inventory::study1_global(),
        StudyEra::Study2 => Inventory::study2_global(),
    };
    let mut rng = Drbg::new(cfg.seed).fork("adsim");
    let mut stats = Vec::new();
    let mut countries = Vec::new();
    for c in campaigns(cfg) {
        let out = c.run(&inventory, &mut rng);
        stats.push(CampaignStats {
            name: out.name.clone(),
            impressions: out.impressions.len() as u64,
            clicks: out.clicks,
            cost_usd: out.cost_usd,
        });
        countries.extend(out.impressions.iter().map(|i| i.country));
    }
    (stats, countries)
}

/// `run_study`'s own set-up, which after the benchmark's set-up only
/// hits warm caches: key warm, catalog, model, substitute pre-mint.
fn prepare(
    cfg: &StudyConfig,
    threads: usize,
    serial: bool,
) -> (Arc<HostCatalog>, Arc<PopulationModel>) {
    if cfg.warm_keys {
        let mut specs = prewarm_key_specs(cfg.baseline, cfg.era);
        specs.extend(keys::product_key_specs(cfg.era));
        keys::warm_keys(&specs, threads);
    }
    let catalog = Arc::new(build_catalog(cfg.baseline, cfg.era));
    let model = Arc::new(if cfg.private_substitute_cache {
        PopulationModel::with_private_cache(cfg.era, catalog.public_roots.clone())
    } else {
        PopulationModel::new(cfg.era, catalog.public_roots.clone())
    });
    if cfg.warm_substitutes && !serial {
        let hosts: Vec<&str> = catalog.hosts.iter().map(|h| h.name).collect();
        model.warm_substitutes(&hosts, threads);
    }
    (catalog, model)
}

/// Impression `idx`'s client profile and session RNG, derived from the
/// impression's global identity exactly as `run_study` derives it.
fn derive(
    cfg: &StudyConfig,
    model: &PopulationModel,
    geo: &GeoDb,
    idx: u64,
    country: CountryCode,
) -> (ClientProfile, Drbg) {
    let mut rng = Drbg::new(cfg.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
    let ip = geo.client_addr(country, (idx % u64::from(GEO_BLOCK)) as u32);
    let mut profile = if cfg.proxy_boost == 1.0 {
        model.sample_client(country, ip, &mut rng)
    } else {
        let rate = (model.proxy_rate(country) * cfg.proxy_boost).min(1.0);
        let product = rng.gen_bool(rate).then(|| model.sample_product(country, &mut rng));
        ClientProfile { country, ip, product }
    };
    if let Some(pid) = profile.product {
        if model.is_single_origin(pid) {
            profile.ip = geo.client_addr(country, 0);
        }
    }
    (profile, rng)
}

/// One shard's database, failure and timings.
struct ShardRun {
    db: Database,
    failure: Option<ShardFailure>,
    start_ns: u64,
    end_ns: u64,
    probes: u64,
    derive_ns: u64,
    inject_ns: u64,
    drive_ns: u64,
    drive_samples_ns: Vec<u64>,
    events: u64,
    sides_high_water: u64,
    /// Shard-local spans: index 0 is the shard itself, parents are local
    /// indices (`None` = the enclosing shard phase).
    spans: Vec<Span>,
}

impl ShardRun {
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64, items: u64) {
        let id = self.spans.len() as u32;
        let shard = self.spans[0].shard;
        let parent = Some(0);
        self.spans.push(Span { id, parent, name, study: None, shard, start_ns, end_ns, items });
    }

    fn drove(&mut self, start_ns: u64, end_ns: u64, items: u64) {
        self.drive_ns += end_ns - start_ns;
        self.drive_samples_ns.push(end_ns - start_ns);
        self.span("session.drive", start_ns, end_ns, items);
    }
}

/// `run_study`'s shard: one runner over a contiguous impression range,
/// with every derivation and `enqueue_session` call timed.
fn run_shard(
    cfg: &StudyConfig,
    catalog: &Arc<HostCatalog>,
    model: &PopulationModel,
    countries: &[CountryCode],
    base_index: u64,
    shard: usize,
    epoch: Instant,
) -> ShardRun {
    let start_ns = since(epoch);
    let root = Span {
        id: 0,
        parent: None,
        name: "shard",
        study: None,
        shard: Some(shard as u32),
        start_ns,
        end_ns: 0,
        items: countries.len() as u64,
    };
    let mut run = ShardRun {
        db: Database::new(),
        failure: None,
        start_ns,
        end_ns: 0,
        probes: 0,
        derive_ns: 0,
        inject_ns: 0,
        drive_ns: 0,
        drive_samples_ns: Vec::new(),
        events: 0,
        sides_high_water: 0,
        spans: vec![root],
    };

    let geo = GeoDb::allocate(GEO_BLOCK);
    let db = Shared::new(Database::new());
    let report = Arc::new(ReportServer::new(catalog, geo.clone(), db.clone()));
    let mut runner = SessionRunner::new(catalog.clone(), report)
        .with_batch_size(cfg.batch)
        .with_retry_policy(cfg.retry.clone());
    if cfg.era == StudyEra::Study1 && !cfg.baseline {
        runner = runner.with_authors_completion(0.617);
    }
    if cfg.faults.any() {
        runner
            .set_default_link(LinkProfile { faults: cfg.faults.clone(), ..LinkProfile::default() });
    }
    if let Some(cap) = cfg.max_net_events {
        runner.set_max_events(cap);
    }

    let mut fill_start = since(epoch);
    for (offset, &country) in countries.iter().enumerate() {
        let idx = base_index + offset as u64;
        let t0 = since(epoch);
        let (profile, mut rng) = derive(cfg, model, &geo, idx, country);
        let t1 = since(epoch);
        let pending = runner.pending_sessions();
        let result = runner.enqueue_session(model, &profile, &mut rng, idx, cfg.seed ^ idx);
        let t2 = since(epoch);
        run.derive_ns += t1 - t0;
        if result.is_ok() && runner.pending_sessions() == pending + 1 {
            run.inject_ns += t2 - t1;
        } else {
            run.span("session.fill", fill_start, t1, pending as u64);
            run.drove(t1, t2, pending as u64 + 1);
            fill_start = t2;
        }
        match result {
            Ok(probes) => run.probes += probes as u64,
            Err(error) => {
                run.failure =
                    Some(ShardFailure { shard, impression: idx, country: Some(country), error });
                break;
            }
        }
    }
    if run.failure.is_none() {
        let pending = runner.pending_sessions();
        let t1 = since(epoch);
        let result = runner.finish();
        let t2 = since(epoch);
        if pending > 0 {
            run.span("session.fill", fill_start, t1, pending as u64);
            run.drove(t1, t2, pending as u64);
        }
        if let Err(error) = result {
            let impression = base_index + countries.len() as u64;
            run.failure = Some(ShardFailure { shard, impression, country: None, error });
        }
    }
    run.events = runner.events_processed();
    run.sides_high_water = runner.sides_high_water() as u64;
    run.db = std::mem::replace(&mut *db.lock(), Database::new());
    run.end_ns = since(epoch);
    run.spans[0].end_ns = run.end_ns;
    run
}
