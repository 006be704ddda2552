//! Device configuration: groups, work queues, engines.
//!
//! DSA's "flexible group configuration" (paper §4.3) lets users partition
//! WQs and processing engines into groups, size and prioritize WQs, and
//! allocate read buffers. This module is the structural model plus the
//! validation rules `libaccel-config`/the IDXD driver enforce; the
//! ergonomic builder lives in `dsa-core::config`.

use std::fmt;

/// Hardware capability limits of one DSA instance (paper Table 2: 8 WQs,
/// 4 engines; the spec's 128 total WQ entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceCaps {
    /// Number of processing engines.
    pub engines: u32,
    /// Number of work queues.
    pub wqs: u32,
    /// Total WQ entry storage shared by all configured WQs.
    pub wq_total_entries: u32,
    /// Maximum descriptors per batch.
    pub max_batch: u32,
    /// Maximum transfer size per descriptor in bytes.
    pub max_transfer: u32,
    /// Maximum number of groups.
    pub groups: u32,
}

impl DeviceCaps {
    /// Sapphire Rapids DSA 1.0 capabilities.
    pub fn dsa1() -> DeviceCaps {
        DeviceCaps {
            engines: 4,
            wqs: 8,
            wq_total_entries: 128,
            max_batch: 1024,
            max_transfer: 1 << 31,
            groups: 4,
        }
    }
}

/// Work-queue dispatch mode (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WqMode {
    /// Dedicated: a single client submits with `MOVDIR64B`; software owns
    /// occupancy tracking.
    Dedicated,
    /// Shared: many clients submit with `ENQCMD`, which reports Retry when
    /// the queue is full.
    Shared,
}

/// Configuration of one work queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WqConfig {
    /// Queue depth in descriptors (its slice of the 128-entry storage).
    pub size: u32,
    /// Dedicated or shared.
    pub mode: WqMode,
    /// Arbitration priority, 1 (lowest) ..= 15 (highest).
    pub priority: u8,
    /// Index of the group this WQ belongs to.
    pub group: usize,
}

impl WqConfig {
    /// A dedicated WQ of `size` entries in `group` with mid priority.
    pub fn dedicated(size: u32, group: usize) -> WqConfig {
        WqConfig { size, mode: WqMode::Dedicated, priority: 8, group }
    }

    /// A shared WQ of `size` entries in `group` with mid priority.
    pub fn shared(size: u32, group: usize) -> WqConfig {
        WqConfig { size, mode: WqMode::Shared, priority: 8, group }
    }
}

/// Configuration of one group: how many engines it owns and (optionally) a
/// cap on read buffers per engine (§3.4/F3 QoS control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupConfig {
    /// Engines assigned to this group.
    pub engines: u32,
    /// Read-buffer entries each engine may use (`None` = hardware default).
    pub read_buffers_per_engine: Option<u32>,
}

impl GroupConfig {
    /// A group with `engines` engines and default read buffers.
    pub fn with_engines(engines: u32) -> GroupConfig {
        GroupConfig { engines, read_buffers_per_engine: None }
    }
}

/// Full device configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Groups, indexed by the `group` field of each WQ.
    pub groups: Vec<GroupConfig>,
    /// Work queues.
    pub wqs: Vec<WqConfig>,
}

impl DeviceConfig {
    /// The paper's default evaluation setup: one group with one dedicated
    /// 32-entry WQ and one engine ("a single PE for DSA", §4.1; QD 32).
    pub fn single_engine() -> DeviceConfig {
        DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(32, 0)],
        }
    }

    /// All four engines in one group behind one dedicated 128-entry WQ.
    pub fn full_device() -> DeviceConfig {
        DeviceConfig {
            groups: vec![GroupConfig::with_engines(4)],
            wqs: vec![WqConfig::dedicated(128, 0)],
        }
    }

    /// Validates against hardware capabilities, mirroring the IDXD driver's
    /// rejection rules.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, caps: &DeviceCaps) -> Result<(), ConfigError> {
        if self.groups.is_empty() {
            return Err(ConfigError::NoGroups);
        }
        if self.groups.len() > caps.groups as usize {
            return Err(ConfigError::TooManyGroups {
                configured: self.groups.len(),
                max: caps.groups,
            });
        }
        if self.wqs.is_empty() {
            return Err(ConfigError::NoWqs);
        }
        if self.wqs.len() > caps.wqs as usize {
            return Err(ConfigError::TooManyWqs { configured: self.wqs.len(), max: caps.wqs });
        }
        let engines: u32 = self.groups.iter().map(|g| g.engines).sum();
        if engines > caps.engines {
            return Err(ConfigError::TooManyEngines { configured: engines, max: caps.engines });
        }
        let entries: u32 = self.wqs.iter().map(|w| w.size).sum();
        if entries > caps.wq_total_entries {
            return Err(ConfigError::WqStorageExceeded {
                configured: entries,
                max: caps.wq_total_entries,
            });
        }
        for (i, wq) in self.wqs.iter().enumerate() {
            if wq.size == 0 {
                return Err(ConfigError::EmptyWq { wq: i });
            }
            if wq.priority == 0 || wq.priority > 15 {
                return Err(ConfigError::BadPriority { wq: i, priority: wq.priority });
            }
            let Some(group) = self.groups.get(wq.group) else {
                return Err(ConfigError::UnknownGroup { wq: i, group: wq.group });
            };
            if group.engines == 0 {
                return Err(ConfigError::GroupWithoutEngines { wq: i, group: wq.group });
            }
        }
        Ok(())
    }
}

/// Configuration rejection reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No groups configured.
    NoGroups,
    /// More groups than the device supports.
    TooManyGroups {
        /// Configured count.
        configured: usize,
        /// Hardware maximum.
        max: u32,
    },
    /// No work queues configured.
    NoWqs,
    /// More WQs than the device supports.
    TooManyWqs {
        /// Configured count.
        configured: usize,
        /// Hardware maximum.
        max: u32,
    },
    /// Groups claim more engines than exist.
    TooManyEngines {
        /// Configured count.
        configured: u32,
        /// Hardware maximum.
        max: u32,
    },
    /// WQ sizes exceed the shared entry storage.
    WqStorageExceeded {
        /// Configured total entries.
        configured: u32,
        /// Hardware maximum.
        max: u32,
    },
    /// A WQ has zero entries.
    EmptyWq {
        /// Offending WQ index.
        wq: usize,
    },
    /// A WQ priority is outside 1..=15.
    BadPriority {
        /// Offending WQ index.
        wq: usize,
        /// Offending priority.
        priority: u8,
    },
    /// A WQ references a group that does not exist.
    UnknownGroup {
        /// Offending WQ index.
        wq: usize,
        /// Referenced group.
        group: usize,
    },
    /// A WQ's group has no engines to process its work.
    GroupWithoutEngines {
        /// Offending WQ index.
        wq: usize,
        /// Referenced group.
        group: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoGroups => write!(f, "no groups configured"),
            ConfigError::TooManyGroups { configured, max } => {
                write!(f, "{configured} groups configured, device supports {max}")
            }
            ConfigError::NoWqs => write!(f, "no work queues configured"),
            ConfigError::TooManyWqs { configured, max } => {
                write!(f, "{configured} WQs configured, device supports {max}")
            }
            ConfigError::TooManyEngines { configured, max } => {
                write!(f, "groups claim {configured} engines, device has {max}")
            }
            ConfigError::WqStorageExceeded { configured, max } => {
                write!(f, "WQ sizes total {configured} entries, device has {max}")
            }
            ConfigError::EmptyWq { wq } => write!(f, "WQ {wq} has zero entries"),
            ConfigError::BadPriority { wq, priority } => {
                write!(f, "WQ {wq} priority {priority} outside 1..=15")
            }
            ConfigError::UnknownGroup { wq, group } => {
                write!(f, "WQ {wq} references unknown group {group}")
            }
            ConfigError::GroupWithoutEngines { wq, group } => {
                write!(f, "WQ {wq} is in group {group} which has no engines")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        let caps = DeviceCaps::dsa1();
        DeviceConfig::single_engine().validate(&caps).unwrap();
        DeviceConfig::full_device().validate(&caps).unwrap();
    }

    #[test]
    fn wq_storage_budget_enforced() {
        let caps = DeviceCaps::dsa1();
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(100, 0), WqConfig::dedicated(29, 0)],
        };
        assert_eq!(
            cfg.validate(&caps),
            Err(ConfigError::WqStorageExceeded { configured: 129, max: 128 })
        );
    }

    #[test]
    fn engine_budget_enforced() {
        let caps = DeviceCaps::dsa1();
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(3), GroupConfig::with_engines(2)],
            wqs: vec![WqConfig::dedicated(8, 0)],
        };
        assert!(matches!(cfg.validate(&caps), Err(ConfigError::TooManyEngines { .. })));
    }

    #[test]
    fn group_references_checked() {
        let caps = DeviceCaps::dsa1();
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(8, 3)],
        };
        assert!(matches!(cfg.validate(&caps), Err(ConfigError::UnknownGroup { .. })));
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1), GroupConfig::with_engines(0)],
            wqs: vec![WqConfig::dedicated(8, 1)],
        };
        assert!(matches!(cfg.validate(&caps), Err(ConfigError::GroupWithoutEngines { .. })));
    }

    #[test]
    fn degenerate_configs_rejected() {
        let caps = DeviceCaps::dsa1();
        assert_eq!(
            DeviceConfig { groups: vec![], wqs: vec![] }.validate(&caps),
            Err(ConfigError::NoGroups)
        );
        let cfg = DeviceConfig { groups: vec![GroupConfig::with_engines(1)], wqs: vec![] };
        assert_eq!(cfg.validate(&caps), Err(ConfigError::NoWqs));
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(0, 0)],
        };
        assert_eq!(cfg.validate(&caps), Err(ConfigError::EmptyWq { wq: 0 }));
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig { priority: 0, ..WqConfig::dedicated(8, 0) }],
        };
        assert!(matches!(cfg.validate(&caps), Err(ConfigError::BadPriority { .. })));
    }

    #[test]
    fn eight_wqs_allowed_nine_rejected() {
        let caps = DeviceCaps::dsa1();
        let wq = |_: usize| WqConfig::dedicated(8, 0);
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(4)],
            wqs: (0..8).map(wq).collect(),
        };
        cfg.validate(&caps).unwrap();
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(4)],
            wqs: (0..9).map(wq).collect(),
        };
        assert!(matches!(cfg.validate(&caps), Err(ConfigError::TooManyWqs { .. })));
    }

    #[test]
    fn error_display_nonempty() {
        let e = ConfigError::WqStorageExceeded { configured: 200, max: 128 };
        assert!(e.to_string().contains("200"));
    }
}
