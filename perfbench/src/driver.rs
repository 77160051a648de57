//! The workloads, written once against a [`Driver`]: the untraced run
//! drives them through [`Plain`] (`run_study`, no timing), the traced run
//! through `redrive::Traced` (public-call re-drive, span per layer).

use std::fmt::Write as _;

use tlsfoe_core::baseline::BaselineComparison;
use tlsfoe_core::hosts::HostCatalog;
use tlsfoe_core::study::{run_study, StudyConfig, StudyError, StudyOutcome};
use tlsfoe_core::{analysis, audit, malware, negligence, tables};
use tlsfoe_crypto::rsa::signature_count;
use tlsfoe_mitigation::eval;
use tlsfoe_population::keys;
use tlsfoe_population::model::{PopulationModel, StudyEra};

use crate::digest::{country_ties, Tie};
use crate::plan::{build_catalog, Plan, Workload, THREADS};

/// How the workloads run their studies and mark their layers.
pub trait Driver {
    /// Run one complete study.
    fn study(&mut self, cfg: &StudyConfig) -> Result<StudyOutcome, StudyError>;

    /// Run `f` as one call into the layer `name`.
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The untraced driver: `run_study`, and layers cost nothing.
pub struct Plain;

impl Driver for Plain {
    fn study(&mut self, cfg: &StudyConfig) -> Result<StudyOutcome, StudyError> {
        run_study(cfg)
    }

    fn layer<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// What the set-up did.
#[derive(Debug, Clone, Copy)]
pub struct SetupStats {
    /// Distinct key specs warmed (= keys generated: the cache was cold).
    pub keys_generated: u64,
    /// RSA signatures spent pre-minting substitute chains.
    pub warm_signatures: u64,
}

/// Cold set-up before the first session, through the same public calls
/// `run_study` makes first: key generation for every spec the workload
/// touches, the host catalogs, and the substitute pre-mint for each
/// catalog's era. Fails unless the key cache was cold, i.e. unless the
/// cache misses grew by exactly the deduplicated spec count.
pub fn setup<D: Driver>(d: &mut D, plan: &Plan) -> Result<SetupStats, String> {
    let specs = plan.key_specs();
    let (_, misses) = keys::stats();
    d.layer("keys.warm", || keys::warm_keys(&specs, THREADS));
    let keys_generated = keys::stats().1 - misses;
    if keys_generated != specs.len() as u64 {
        return Err(format!(
            "key cache was not cold: {keys_generated} keys generated for {} specs",
            specs.len()
        ));
    }
    let catalogs: Vec<(StudyEra, HostCatalog)> = d.layer("hosts.catalog", || {
        plan.catalogs().into_iter().map(|(b, era)| (era, build_catalog(b, era))).collect()
    });
    let signatures = signature_count();
    d.layer("cache.warm", || {
        for (era, catalog) in &catalogs {
            let model = PopulationModel::new(*era, catalog.public_roots.clone());
            let hosts: Vec<&str> = catalog.hosts.iter().map(|h| h.name).collect();
            model.warm_substitutes(&hosts, THREADS);
        }
    });
    Ok(SetupStats { keys_generated, warm_signatures: signature_count() - signatures })
}

/// What a workload's measured phase produced.
#[derive(Debug)]
pub struct Finished {
    /// Every study, in run order.
    pub studies: Vec<StudyOutcome>,
    /// The rendered paper (`paper` only; empty otherwise).
    pub text: String,
}

impl Finished {
    /// Tied countries among the rendered paper's Table 3/7 rows (none
    /// without a paper).
    pub fn ties(&self) -> Vec<Tie> {
        match (self.text.is_empty(), self.studies.as_slice()) {
            (false, [s1, s2, ..]) => {
                let mut ties = country_ties(&s1.db, TABLE3);
                ties.extend(country_ties(&s2.db, TABLE7));
                ties
            }
            _ => Vec::new(),
        }
    }
}

/// Title lines of the by-country tables, whose tied rows
/// [`crate::digest::canonical_text`] names by the whole tie.
const TABLE3: &str = "Table 3: Proxied connections by country (study 1)";
const TABLE7: &str = "Table 7: Connections tested by country (study 2)";

/// The measured phase of `plan`'s workload.
pub fn measured<D: Driver>(d: &mut D, plan: &Plan) -> Result<Finished, StudyError> {
    match plan.workload {
        Workload::Paper => paper(d, plan),
        Workload::Sessions => {
            Ok(Finished { studies: vec![d.study(&plan.study2())?], text: String::new() })
        }
        Workload::Chaos => {
            Ok(Finished { studies: vec![d.study(&plan.chaos())?], text: String::new() })
        }
    }
}

/// The `exp_all` sequence: the same studies, analyzers and text, byte for
/// byte, with the scale, seed and threads pinned by `plan`.
fn paper<D: Driver>(d: &mut D, plan: &Plan) -> Result<Finished, StudyError> {
    let mut out = format!(
        "=== ALL EXPERIMENTS ===  (scale 1/{}, seed {}, paper: O'Neill et al., IMC 2016)\n",
        plan.scale, plan.seed
    );
    d.layer("analyze.tables", || writeln!(out, "{}", tables::table1())).expect("String write");

    let s1 = d.study(&plan.study1())?;
    let s2 = d.study(&plan.study2())?;
    d.layer("analyze.tables", || {
        writeln!(out, "{}", tables::table2(&s2))?;
        writeln!(out, "{}", tables::table_by_country(&s1.db, TABLE3))?;
        writeln!(
            out,
            "study 1: {} measurements, {} proxied ({:.2}%), {} countries with proxies\n",
            s1.db.total(),
            s1.db.proxied(),
            s1.db.proxied_rate() * 100.0,
            analysis::proxied_country_count(&s1.db)
        )?;
        writeln!(out, "{}", tables::table4(&s1.db))?;
        let title = "Table 5: Classification of claimed issuer (study 1)";
        writeln!(out, "{}", tables::table_classification(&s1.db, title))?;
        let title = "Table 6: Classification of claimed issuer (study 2)";
        writeln!(out, "{}", tables::table_classification(&s2.db, title))?;
        writeln!(out, "{}", tables::table_by_country(&s2.db, TABLE7))?;
        writeln!(
            out,
            "study 2: {} measurements, {} proxied ({:.2}%), {} countries with proxies\n",
            s2.db.total(),
            s2.db.proxied(),
            s2.db.proxied_rate() * 100.0,
            analysis::proxied_country_count(&s2.db)
        )?;
        writeln!(out, "{}", tables::table8(&s2.db))?;
        let min_total = (2000 / plan.scale as u64).max(50);
        let (heatmap, _csv) = tables::figure7(&s2.db, min_total);
        writeln!(out, "{heatmap}")
    })
    .expect("String write");

    let s1b = d.study(&plan.boosted(StudyEra::Study1))?;
    let s2b = d.study(&plan.boosted(StudyEra::Study2))?;
    let ca = keys::keypair(keys::server_seed(9_999), 1024);
    let refs = [("DigiCert Inc", &ca.public)];
    let neg = d.layer("analyze.negligence", || negligence::analyze(&s1b.db, &refs));
    let mal = d.layer("analyze.malware", || malware::analyze(&s2b.db, 5));
    d.layer("analyze.tables", || {
        writeln!(out, "{}", tables::negligence_report(&neg))?;
        writeln!(out, "{}", tables::malware_report(&mal))
    })
    .expect("String write");

    let model1 = d.layer("study.prepare", || {
        let catalog = HostCatalog::study1();
        PopulationModel::new(StudyEra::Study1, catalog.public_roots.clone())
    });
    let audit_rows =
        d.layer("analyze.audit", || audit::audit_catalog(&model1, audit::AUDITED_PRODUCTS));
    let (catalog2, model2) = d.layer("study.prepare", || {
        let catalog = HostCatalog::study2();
        let model = PopulationModel::new(StudyEra::Study2, catalog.public_roots.clone());
        (catalog, model)
    });
    let eval_rows =
        d.layer("mitigation.eval", || eval::evaluate(&model2, &catalog2.hosts[0].chain));
    d.layer("analyze.tables", || {
        writeln!(out, "{}", tables::audit_table(&audit_rows))?;
        writeln!(out, "{}", eval::render(&eval_rows))
    })
    .expect("String write");

    let cmp =
        BaselineComparison { ours: d.study(&plan.study1())?, huang: d.study(&plan.baseline())? };
    writeln!(
        out,
        "Baseline comparison (§8): ours {:.3}% vs Huang-style {:.3}% — ratio {:.2}x (paper: 0.41% vs 0.20%, ~2x)",
        cmp.our_rate() * 100.0,
        cmp.huang_rate() * 100.0,
        cmp.ratio()
    )
    .expect("String write");

    Ok(Finished { studies: vec![s1, s2, s1b, s2b, cmp.ours, cmp.huang], text: out })
}
