//! First-class placement plans: validated, diffable, immutable WQ/group
//! layouts.
//!
//! A [`Plan`] is a validated [`DeviceConfig`] — the group carve (engines
//! and optional read-buffer allotment per group) and the WQ layout (size,
//! mode, owning group per WQ) — plus the tenant [`Wiring`] (which WQ each
//! tenant submits to). [`Plan::new`] is the one constructor: it checks
//! the layout against the DSA 1.0 envelope and the wiring against the
//! layout, so a plan never holds an invalid layout. Explicit layouts come
//! from [`AccelConfig::builder`](dsa_core::config::AccelConfig::builder);
//! the canonical recipes [`Plan::shared`], [`Plan::dedicated`], and
//! [`Plan::by_class_of`] reproduce the three historical layouts
//! bit-for-bit.
//!
//! Because a plan is a value, transitions are too: [`Plan::diff`]
//! yields a [`PlanDelta`] whose [`cost`](PlanDelta::cost) prices the
//! reconfiguration stall a live service pays to adopt the new layout —
//! the quantity the control plane's digital twin weighs against the
//! projected SLO win.
//!
//! [`PlanSpec`] is the roster-polymorphic recipe used where a plan is a
//! config knob: `Dedicated`/`Shared`/`ByClass` materialize against
//! the tenant roster at build time, `Fixed(plan)` pins an explicit
//! layout.

use crate::tenant::{QosClass, TenantSpec};
use dsa_core::config::AccelConfig;
use dsa_core::digest::{Digestible, Fnv1a};
use dsa_core::error::DsaError;
use dsa_device::config::{DeviceCaps, DeviceConfig, WqMode};
use dsa_sim::time::SimDuration;

/// How tenants are wired onto the plan's WQs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// Tenant `i` submits to `wqs[i % len]`. A single-element list pools
    /// everyone on one WQ; a list as long as the roster is a 1:1 map.
    ByIndex(Vec<usize>),
    /// Tenants are wired by QoS class, each class round-robining over its
    /// own WQ list in roster order.
    ByClass {
        /// WQs serving [`QosClass::Latency`] tenants.
        latency: Vec<usize>,
        /// WQs serving [`QosClass::Throughput`] tenants.
        throughput: Vec<usize>,
    },
}

/// A validated, immutable placement plan. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    label: String,
    device: DeviceConfig,
    wiring: Wiring,
}

impl Plan {
    /// A plan labelled `label` that lays the device out as `device` and
    /// wires tenants by `wiring`.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] when a wiring list is empty or names
    /// a WQ `device` lacks; [`DsaError::InvalidConfig`] when `device`
    /// violates the DSA 1.0 envelope.
    pub fn new(label: &str, device: DeviceConfig, wiring: Wiring) -> Result<Plan, DsaError> {
        let lists: &[&[usize]] = match &wiring {
            Wiring::ByIndex(list) => &[list],
            Wiring::ByClass { latency, throughput } => &[latency, throughput],
        };
        for list in lists {
            if list.is_empty() {
                return Err(DsaError::InvalidService {
                    reason: String::from("plan wiring lists no work queues"),
                });
            }
            if list.iter().any(|&wq| wq >= device.wqs.len()) {
                return Err(DsaError::InvalidService {
                    reason: String::from("plan wiring names a work queue the plan lacks"),
                });
            }
        }
        device.validate(&DeviceCaps::dsa1()).map_err(DsaError::InvalidConfig)?;
        Ok(Plan { label: String::from(label), device, wiring })
    }

    /// The canonical pooled layout: one group owning all 4 engines, one
    /// shared 128-entry WQ, every tenant wired to it. Maximum pooling,
    /// zero isolation.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity with the
    /// other recipes.
    pub fn shared() -> Result<Plan, DsaError> {
        let caps = DeviceCaps::dsa1();
        let device =
            AccelConfig::builder().group(caps.engines).shared_wq(caps.wq_total_entries).build()?;
        Plan::new("shared", device, Wiring::ByIndex(vec![0]))
    }

    /// The canonical isolated layout for `n` tenants (Fig. 9 "DWQ: N"):
    /// the 128 entries and 4 engines split evenly, one dedicated WQ per
    /// tenant, tenant `i` on WQ `i`.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when `n` exceeds the 8-WQ envelope.
    pub fn dedicated(n: usize) -> Result<Plan, DsaError> {
        let caps = DeviceCaps::dsa1();
        let n = n.max(1);
        let groups = n.min(caps.groups as usize);
        let size = (caps.wq_total_entries / n as u32).max(1);
        // The engines split as evenly as possible, earlier groups taking
        // the remainder.
        let (base, extra) = (caps.engines / groups as u32, caps.engines as usize % groups);
        let mut cfg = AccelConfig::builder();
        for g in 0..groups {
            cfg = cfg.group(base + u32::from(g < extra));
        }
        for t in 0..n {
            cfg = cfg.dedicated_wq_in(size, t % groups);
        }
        Plan::new("dedicated", cfg.build()?, Wiring::ByIndex((0..n).collect()))
    }

    /// The canonical QoS layout for a roster with these classes:
    /// latency tenants get dedicated WQs (half the entries, one engine
    /// per group, up to 3 groups), throughput tenants pool on one shared
    /// WQ behind the remaining engines. Falls back to the dedicated
    /// (all-latency) or shared (all-throughput) layout — still labelled
    /// `by-class`.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when the latency population exceeds
    /// the WQ envelope.
    pub fn by_class_of(classes: &[QosClass]) -> Result<Plan, DsaError> {
        let n = classes.len().max(1);
        let latency = classes.iter().filter(|c| **c == QosClass::Latency).count();
        if latency == n {
            return Ok(Plan::dedicated(n)?.with_label("by-class"));
        }
        if latency == 0 {
            return Ok(Plan::shared()?.with_label("by-class"));
        }
        let caps = DeviceCaps::dsa1();
        let dgroups = latency.min(caps.groups as usize - 1);
        let mut cfg = AccelConfig::builder();
        for _ in 0..dgroups {
            cfg = cfg.group(1);
        }
        cfg = cfg.group(caps.engines - dgroups as u32);
        let half = caps.wq_total_entries / 2;
        let dsize = (half / latency as u32).max(1);
        for t in 0..latency {
            cfg = cfg.dedicated_wq_in(dsize, t % dgroups);
        }
        // The shared WQ sits in the last group, after the dedicated WQs.
        cfg = cfg.shared_wq_in(half, dgroups);
        let wiring = Wiring::ByClass { latency: (0..latency).collect(), throughput: vec![latency] };
        Plan::new("by-class", cfg.build()?, wiring)
    }

    /// The same plan with a different display label (labels feed report
    /// summaries, not the device layout).
    pub fn with_label(mut self, label: &str) -> Plan {
        self.label = String::from(label);
        self
    }

    /// The same plan with group `g`'s per-engine read-buffer allotment
    /// set to `per_engine` — the control plane's cheapest candidate move
    /// (paper guideline G6: read-buffer allocation shifts bandwidth
    /// between groups without re-carving WQs).
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] when `g` is out of range;
    /// [`DsaError::InvalidConfig`] when the allotment violates the
    /// device's read-buffer envelope.
    pub fn with_read_buffers(&self, g: usize, per_engine: u32) -> Result<Plan, DsaError> {
        let mut device = self.device.clone();
        let Some(group) = device.groups.get_mut(g) else {
            return Err(DsaError::InvalidService {
                reason: format!("plan has no group {g} to re-buffer"),
            });
        };
        group.read_buffers_per_engine = Some(per_engine);
        Plan::new(&self.label, device, self.wiring.clone())
    }

    /// Short lowercase label for tables and digests.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The device layout: engine groups and WQs, in device order.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The tenant wiring rule.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// The WQ index each tenant of `specs` submits to under this plan's
    /// wiring.
    pub fn assign(&self, specs: &[TenantSpec]) -> Vec<usize> {
        let classes: Vec<QosClass> = specs.iter().map(|s| s.class).collect();
        self.assign_classes(&classes)
    }

    /// [`assign`](Self::assign) from bare QoS classes (the live service
    /// re-wires from tenant state, not specs).
    pub fn assign_classes(&self, classes: &[QosClass]) -> Vec<usize> {
        match &self.wiring {
            Wiring::ByIndex(list) => (0..classes.len()).map(|i| list[i % list.len()]).collect(),
            Wiring::ByClass { latency, throughput } => {
                let (mut lk, mut tk) = (0usize, 0usize);
                classes
                    .iter()
                    .map(|c| match c {
                        QosClass::Latency => {
                            let wq = latency[lk % latency.len()];
                            lk += 1;
                            wq
                        }
                        QosClass::Throughput => {
                            let wq = throughput[tk % throughput.len()];
                            tk += 1;
                            wq
                        }
                    })
                    .collect()
            }
        }
    }

    /// What changes when transitioning from `self` to `to`.
    pub fn diff(&self, to: &Plan) -> PlanDelta {
        let (from, into) = (&self.device, &to.device);
        let engines = |d: &DeviceConfig| d.groups.iter().map(|g| g.engines).collect::<Vec<_>>();
        let buffers = |d: &DeviceConfig| {
            d.groups.iter().map(|g| g.read_buffers_per_engine).collect::<Vec<_>>()
        };
        let mut resized = 0usize;
        let mut remoded = 0usize;
        for (a, b) in from.wqs.iter().zip(&into.wqs) {
            if a.mode != b.mode {
                remoded += 1;
            } else if a != b {
                resized += 1;
            }
        }
        PlanDelta {
            groups_changed: engines(from) != engines(into),
            read_buffers_changed: buffers(from) != buffers(into),
            wqs_added: into.wqs.len().saturating_sub(from.wqs.len()),
            wqs_removed: from.wqs.len().saturating_sub(into.wqs.len()),
            wqs_resized: resized,
            wqs_remoded: remoded,
            rewired: self.wiring != to.wiring,
        }
    }
}

impl Digestible for Plan {
    fn fold(&self, h: &mut Fnv1a) {
        h.write(self.label.as_bytes());
        h.write_u64(self.device.groups.len() as u64);
        for g in &self.device.groups {
            h.write_u64(u64::from(g.engines));
            match g.read_buffers_per_engine {
                Some(rb) => {
                    h.write_u64(1);
                    h.write_u64(u64::from(rb));
                }
                None => h.write_u64(0),
            }
        }
        h.write_u64(self.device.wqs.len() as u64);
        for w in &self.device.wqs {
            h.write_u64(u64::from(w.size));
            h.write_u64(u64::from(w.mode == WqMode::Shared));
            h.write_u64(w.group as u64);
        }
        match &self.wiring {
            Wiring::ByIndex(list) => {
                h.write_u64(0);
                h.write_u64(list.len() as u64);
                for &wq in list {
                    h.write_u64(wq as u64);
                }
            }
            Wiring::ByClass { latency, throughput } => {
                h.write_u64(1);
                for list in [latency, throughput] {
                    h.write_u64(list.len() as u64);
                    for &wq in list {
                        h.write_u64(wq as u64);
                    }
                }
            }
        }
    }
}

/// What changes between two plans — the input to transition costing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanDelta {
    /// The engine carve changed.
    pub groups_changed: bool,
    /// A group's read-buffer allotment changed.
    pub read_buffers_changed: bool,
    /// WQs present in the target but not the source.
    pub wqs_added: usize,
    /// WQs present in the source but not the target.
    pub wqs_removed: usize,
    /// WQs whose size or owning group changed.
    pub wqs_resized: usize,
    /// WQs whose shared/dedicated mode flipped.
    pub wqs_remoded: usize,
    /// The tenant wiring rule changed.
    pub rewired: bool,
}

impl PlanDelta {
    /// True when the plans are identical.
    pub fn is_empty(&self) -> bool {
        *self == PlanDelta::default()
    }

    /// True when the device itself must be reconfigured (anything beyond
    /// a pure re-wiring of tenants onto the same layout).
    pub fn structural(&self) -> bool {
        self.groups_changed
            || self.read_buffers_changed
            || self.wqs_added > 0
            || self.wqs_removed > 0
            || self.wqs_resized > 0
            || self.wqs_remoded > 0
    }

    /// The simulated stall adopting this delta costs: one device
    /// reconfiguration (drain + WQ re-enable) when structural, plus a
    /// per-moved-tenant re-wiring charge.
    pub fn cost(&self, costs: &TransitionCosts, moved: u64) -> SimDuration {
        let mut c = costs.rewire_per_tenant.saturating_mul(moved);
        if self.structural() {
            c += costs.reconfigure;
        }
        c
    }
}

/// Simulated prices of a plan transition, fed to
/// [`PlanDelta::cost`]. Defaults model a WQ drain + re-enable cycle
/// (microseconds, per the paper's configuration-latency observations)
/// and a portal remap per moved tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitionCosts {
    /// Flat charge for any structural device reconfiguration.
    pub reconfigure: SimDuration,
    /// Charge per tenant whose WQ wiring changed.
    pub rewire_per_tenant: SimDuration,
}

impl Default for TransitionCosts {
    fn default() -> TransitionCosts {
        TransitionCosts {
            reconfigure: SimDuration::from_us(5),
            rewire_per_tenant: SimDuration::from_ns(200),
        }
    }
}

/// A roster-polymorphic plan recipe. Config builders take
/// `impl Into<PlanSpec>` so both a recipe and a concrete [`Plan`] read
/// naturally at the call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanSpec {
    /// One dedicated WQ per tenant ([`Plan::dedicated`]).
    Dedicated,
    /// One shared WQ pooling everyone ([`Plan::shared`]).
    Shared,
    /// QoS split by tenant class ([`Plan::by_class_of`]).
    ByClass,
    /// An explicit pinned layout.
    Fixed(Plan),
}

impl PlanSpec {
    /// Materializes the recipe against a tenant roster.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when the materialized layout violates
    /// the device envelope for this roster.
    pub fn materialize(&self, specs: &[TenantSpec]) -> Result<Plan, DsaError> {
        match self {
            PlanSpec::Dedicated => Plan::dedicated(specs.len()),
            PlanSpec::Shared => Plan::shared(),
            PlanSpec::ByClass => {
                let classes: Vec<QosClass> = specs.iter().map(|s| s.class).collect();
                Plan::by_class_of(&classes)
            }
            PlanSpec::Fixed(plan) => Ok(plan.clone()),
        }
    }

    /// Short lowercase label for tables and digests.
    pub fn label(&self) -> &str {
        match self {
            PlanSpec::Dedicated => "dedicated",
            PlanSpec::Shared => "shared",
            PlanSpec::ByClass => "by-class",
            PlanSpec::Fixed(plan) => plan.label(),
        }
    }
}

impl From<Plan> for PlanSpec {
    fn from(plan: Plan) -> PlanSpec {
        PlanSpec::Fixed(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(classes: &[QosClass]) -> Vec<TenantSpec> {
        classes
            .iter()
            .enumerate()
            .map(|(i, c)| TenantSpec::new(&format!("t{i}"), 4 << 10, 1).with_class(*c))
            .collect()
    }

    #[test]
    fn recipes_wire_tenants_as_documented() {
        use QosClass::{Latency as L, Throughput as T};
        let shared = Plan::shared().unwrap();
        assert_eq!(shared.assign(&roster(&[T; 5])), vec![0; 5]);
        let dedicated = Plan::dedicated(6).unwrap();
        assert_eq!(dedicated.assign(&roster(&[T; 6])), vec![0, 1, 2, 3, 4, 5]);
        // Latency tenants take dedicated WQs in roster order; throughput
        // tenants pool on the appended shared WQ.
        let classes = [T, L, T, L];
        let by_class = Plan::by_class_of(&classes).unwrap();
        assert_eq!(by_class.device().wqs[2].mode, WqMode::Shared);
        assert_eq!(by_class.assign(&roster(&classes)), vec![2, 0, 2, 1]);
    }

    #[test]
    fn new_rejects_bad_wiring_and_layouts() {
        let one_swq = || AccelConfig::builder().group(4).shared_wq(64).build().unwrap();
        let empty =
            Plan::new("p", one_swq(), Wiring::ByClass { latency: vec![], throughput: vec![0] });
        assert!(matches!(empty, Err(DsaError::InvalidService { .. })), "got {empty:?}");
        let no_wqs = DeviceConfig { groups: one_swq().groups, wqs: vec![] };
        let no_wqs = Plan::new("p", no_wqs, Wiring::ByIndex(vec![0]));
        assert!(matches!(no_wqs, Err(DsaError::InvalidService { .. })), "got {no_wqs:?}");
        let mut five_engines = one_swq();
        five_engines.groups[0].engines = 5;
        let five_engines = Plan::new("p", five_engines, Wiring::ByIndex(vec![0]));
        assert!(matches!(five_engines, Err(DsaError::InvalidConfig(_))), "got {five_engines:?}");
    }

    #[test]
    fn diff_classifies_every_change() {
        let shared = Plan::shared().unwrap();
        let dedicated = Plan::dedicated(2).unwrap();
        assert!(shared.diff(&shared).is_empty());
        let d = shared.diff(&dedicated);
        assert!(d.groups_changed && d.rewired);
        assert_eq!(d.wqs_added, 1);
        assert_eq!(d.wqs_remoded, 1, "WQ 0 flips shared -> dedicated");
        let rb = shared.with_read_buffers(0, 8).unwrap();
        let d = shared.diff(&rb);
        assert!(d.read_buffers_changed && !d.groups_changed && !d.rewired);
        assert!(d.structural() && !d.is_empty());
    }

    #[test]
    fn delta_cost_prices_structure_and_moves() {
        let costs = TransitionCosts::default();
        let none = PlanDelta::default();
        assert_eq!(none.cost(&costs, 0), SimDuration::ZERO);
        assert_eq!(none.cost(&costs, 3), costs.rewire_per_tenant.saturating_mul(3));
        let structural = PlanDelta { groups_changed: true, ..PlanDelta::default() };
        assert_eq!(
            structural.cost(&costs, 2),
            costs.reconfigure + costs.rewire_per_tenant.saturating_mul(2)
        );
    }

    #[test]
    fn plan_spec_materializes_like_the_old_enum() {
        let specs = roster(&[QosClass::Latency, QosClass::Throughput]);
        assert_eq!(PlanSpec::Dedicated.materialize(&specs).unwrap(), Plan::dedicated(2).unwrap());
        assert_eq!(PlanSpec::Shared.materialize(&specs).unwrap(), Plan::shared().unwrap());
        let by_class = PlanSpec::ByClass.materialize(&specs).unwrap();
        assert_eq!(
            by_class,
            Plan::by_class_of(&[QosClass::Latency, QosClass::Throughput]).unwrap()
        );
        let fixed = PlanSpec::Fixed(by_class.clone());
        assert_eq!(fixed.materialize(&[]).unwrap(), by_class);
    }

    #[test]
    fn plan_digest_is_layout_sensitive() {
        let shared = Plan::shared().unwrap();
        let dedicated = Plan::dedicated(2).unwrap();
        assert_ne!(shared.digest64(), dedicated.digest64());
        assert_eq!(shared.digest64(), Plan::shared().unwrap().digest64());
        let rb = shared.with_read_buffers(0, 8).unwrap();
        assert_ne!(shared.digest64(), rb.digest64());
    }
}
