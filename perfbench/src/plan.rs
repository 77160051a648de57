//! What each workload runs: its pinned study configurations, and the key
//! specs and catalogs its set-up warms.

use tlsfoe_core::hosts::{prewarm_key_specs, HostCatalog};
use tlsfoe_core::session::RetryPolicy;
use tlsfoe_core::study::StudyConfig;
use tlsfoe_netsim::FaultProfile;
use tlsfoe_population::keys;
use tlsfoe_population::model::StudyEra;

/// Worker threads of every study, pinned so the load does not follow
/// the core count of whatever machine runs it.
pub const THREADS: usize = 2;

/// Sessions per event-loop drive (the repository default, pinned here so
/// a change of the default shows up as a code change, not a load change).
pub const BATCH: usize = 64;

/// Per-type fault probability on every client link of `chaos`.
pub const CHAOS_FAULT_RATE: f64 = 0.05;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full `exp_all` sequence in one cold process.
    Paper,
    /// Study 2 alone: the session drive does nearly all the measured work.
    Sessions,
    /// Study 1 with uniform link faults and the standard retry policy.
    Chaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Sessions, Workload::Chaos];

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Sessions => "sessions",
            Workload::Chaos => "chaos",
        }
    }

    /// Budget divisor of the workload's studies (smaller = more
    /// impressions).
    pub fn default_scale(self) -> u32 {
        match self {
            Workload::Paper => 60,
            Workload::Sessions => 32,
            Workload::Chaos => 20,
        }
    }
}

/// One workload at one seed and scale.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Root seed of every study (`StudyConfig::seed`).
    pub seed: u64,
    /// Budget divisor (`StudyConfig::scale`).
    pub scale: u32,
}

/// Pin every `StudyConfig` field the benchmark controls instead of
/// inheriting environment-dependent defaults (`threads` otherwise follows
/// the core count). The drive mode is left at the constructor's default.
fn pin(mut cfg: StudyConfig) -> StudyConfig {
    cfg.threads = THREADS;
    cfg.baseline = false;
    cfg.proxy_boost = 1.0;
    cfg.batch = BATCH;
    cfg.warm_keys = true;
    cfg.warm_substitutes = true;
    cfg.faults = FaultProfile::none();
    cfg.retry = RetryPolicy::disabled();
    cfg.private_substitute_cache = false;
    cfg.shard_fault_budget = 0;
    cfg.max_net_events = None;
    cfg
}

impl Plan {
    /// The workload at its default scale.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan { workload, seed, scale: workload.default_scale() }
    }

    /// Study 1 as `exp_all` runs it.
    pub fn study1(&self) -> StudyConfig {
        pin(StudyConfig::study1(self.scale, self.seed))
    }

    /// Study 2 as `exp_all` runs it.
    pub fn study2(&self) -> StudyConfig {
        pin(StudyConfig::study2(self.scale, self.seed))
    }

    /// The interception-boosted substitute-corpus study of an era.
    pub fn boosted(&self, era: StudyEra) -> StudyConfig {
        let mut cfg = match era {
            StudyEra::Study1 => self.study1(),
            StudyEra::Study2 => self.study2(),
        };
        cfg.proxy_boost = self.scale as f64;
        cfg
    }

    /// The Huang-style baseline half of the §8 comparison.
    pub fn baseline(&self) -> StudyConfig {
        let mut cfg = self.study1();
        cfg.baseline = true;
        cfg
    }

    /// The faulted study of `chaos`.
    pub fn chaos(&self) -> StudyConfig {
        let mut cfg = self.study1();
        cfg.faults = FaultProfile::uniform(CHAOS_FAULT_RATE);
        cfg.retry = RetryPolicy::standard();
        cfg
    }

    /// `(baseline, era)` of every host catalog the workload's studies
    /// build.
    pub fn catalogs(&self) -> Vec<(bool, StudyEra)> {
        match self.workload {
            Workload::Paper => {
                vec![(false, StudyEra::Study1), (false, StudyEra::Study2), (true, StudyEra::Study1)]
            }
            Workload::Sessions => vec![(false, StudyEra::Study2)],
            Workload::Chaos => vec![(false, StudyEra::Study1)],
        }
    }

    /// Every RSA key the workload touches, deduplicated: each catalog's
    /// CA and host keys plus its era's product roots and leaf pools, and
    /// for `paper` the keys its analyzers load (the negligence check's
    /// real-CA key and the audit's attacker key).
    pub fn key_specs(&self) -> Vec<(u64, usize)> {
        let mut specs = Vec::new();
        for (baseline, era) in self.catalogs() {
            specs.extend(prewarm_key_specs(baseline, era));
            specs.extend(keys::product_key_specs(era));
        }
        if self.workload == Workload::Paper {
            specs.push((keys::server_seed(9_999), 1024));
            specs.push((880_001, 1024));
        }
        specs.sort_unstable();
        specs.dedup();
        specs
    }
}

/// Build the host catalog `run_study` builds for `(baseline, era)`.
pub fn build_catalog(baseline: bool, era: StudyEra) -> HostCatalog {
    match (baseline, era) {
        (true, _) => HostCatalog::baseline(),
        (false, StudyEra::Study1) => HostCatalog::study1(),
        (false, StudyEra::Study2) => HostCatalog::study2(),
    }
}
