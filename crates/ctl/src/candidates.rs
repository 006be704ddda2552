//! Candidate reconfigurations the governor weighs each pressured epoch.
//!
//! The generator is deliberately small and closed-form: the three
//! canonical recipes ([`Plan::shared`], [`Plan::dedicated`],
//! [`Plan::by_class_of`]), a read-buffer shift on the class split, and a
//! targeted promotion of the tenant the current window says is suffering
//! most. Candidates that fail device-envelope validation (e.g. dedicated
//! WQs for more tenants than the envelope holds) simply drop out, and
//! plans structurally identical to the incumbent — or to an earlier
//! candidate — are deduped through [`Plan::diff`], so the twin never
//! burns cycles re-scoring the status quo.

use crate::controller::Observation;
use dsa_svc::plan::Plan;
use dsa_svc::service::DsaService;
use dsa_svc::tenant::QosClass;

/// Read buffers per engine left to the throughput group in the
/// read-buffer-shift candidate (paper guideline G6: read-buffer
/// allocation moves bandwidth between groups). Clamping the bulk group
/// this hard throttles bandwidth aggressors at the source, which is the
/// only lever that protects the latency class when the contention is in
/// the memory fabric rather than the engines.
const RBUF_CLAMP: u32 = 8;

/// The deduped candidate list for `svc` under the window observation
/// `obs`, in deterministic generation order. The incumbent itself is
/// never in the list.
pub fn candidates(svc: &DsaService, obs: &Observation) -> Vec<Plan> {
    let classes: Vec<QosClass> =
        (0..svc.tenant_count()).map(|i| svc.tenant_spec(i).class).collect();
    let mut raw = Vec::new();
    if let Ok(p) = Plan::shared() {
        raw.push(p);
    }
    if let Ok(p) = Plan::dedicated(classes.len()) {
        raw.push(p);
    }
    if let Ok(p) = Plan::by_class_of(&classes) {
        // The throughput pool is always the last group of the by-class
        // carve; starve its read buffers to throttle fabric aggressors.
        if let Ok(b) = p.with_read_buffers(p.device().groups.len() - 1, RBUF_CLAMP) {
            raw.push(b.with_label("by-class+rbuf"));
        }
        raw.push(p);
    }
    // Promote the worst-off throughput tenant into the latency wiring —
    // the shared→dedicated escape hatch for one noisy victim.
    if let Some(worst) = obs.worst_throughput_tenant {
        if worst < classes.len() {
            let mut promoted = classes.clone();
            promoted[worst] = QosClass::Latency;
            if let Ok(p) = Plan::by_class_of(&promoted) {
                raw.push(p.with_label(&format!("promote-t{worst}")));
            }
        }
    }
    let incumbent = svc.plan();
    let mut out: Vec<Plan> = Vec::new();
    for p in raw {
        if incumbent.diff(&p).is_empty() {
            continue;
        }
        if out.iter().all(|q| !q.diff(&p).is_empty()) {
            out.push(p);
        }
    }
    out
}
