//! Hypervisor and platform identities.

use core::fmt;

/// Hypervisor design archetype (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum HvType {
    /// Bare-metal hypervisor; I/O via a privileged service VM (Xen).
    Type1,
    /// Hosted hypervisor integrated with an OS kernel (KVM).
    Type2,
}

/// Hardware platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Platform {
    /// ARMv8 server (HP Moonshot m400 class).
    Arm,
    /// ARMv8.1 with VHE (§VI projection).
    ArmVhe,
    /// x86 server (Dell r320 class).
    X86,
}

/// The configurations the paper measures, plus the §VI projection and the
/// native baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum HvKind {
    /// Split-mode KVM on ARMv8.
    KvmArm,
    /// Xen on ARMv8.
    XenArm,
    /// KVM on x86 (VMX).
    KvmX86,
    /// Xen on x86 (VMX, HVM domains).
    XenX86,
    /// KVM on ARMv8.1 with VHE — the §VI architectural projection.
    KvmArmVhe,
    /// No hypervisor: bare-metal Linux, the normalization baseline.
    Native,
}

impl HvKind {
    /// The design archetype, or `None` for the native baseline.
    pub fn hv_type(self) -> Option<HvType> {
        match self {
            HvKind::KvmArm | HvKind::KvmX86 | HvKind::KvmArmVhe => Some(HvType::Type2),
            HvKind::XenArm | HvKind::XenX86 => Some(HvType::Type1),
            HvKind::Native => None,
        }
    }

    /// The platform this configuration runs on.
    pub fn platform(self) -> Platform {
        match self {
            HvKind::KvmArm | HvKind::XenArm | HvKind::Native => Platform::Arm,
            HvKind::KvmArmVhe => Platform::ArmVhe,
            HvKind::KvmX86 | HvKind::XenX86 => Platform::X86,
        }
    }

    /// The four measured configurations of Tables II and Figure 4, in the
    /// paper's column order.
    pub const MEASURED: [HvKind; 4] = [
        HvKind::KvmArm,
        HvKind::XenArm,
        HvKind::KvmX86,
        HvKind::XenX86,
    ];

    /// Every configuration, in declaration order.
    pub const ALL: [HvKind; 6] = [
        HvKind::KvmArm,
        HvKind::XenArm,
        HvKind::KvmX86,
        HvKind::XenX86,
        HvKind::KvmArmVhe,
        HvKind::Native,
    ];

    /// The configuration's CLI name (`kvm-arm`, `kvm-arm-vhe`, ...): the
    /// hypervisor half of a `<workload>-<hypervisor>` scenario name.
    pub fn slug(self) -> &'static str {
        match self {
            HvKind::KvmArm => "kvm-arm",
            HvKind::XenArm => "xen-arm",
            HvKind::KvmX86 => "kvm-x86",
            HvKind::XenX86 => "xen-x86",
            HvKind::KvmArmVhe => "kvm-arm-vhe",
            HvKind::Native => "native",
        }
    }

    /// The configuration whose [`HvKind::slug`] is `slug`, if any.
    pub fn from_slug(slug: &str) -> Option<HvKind> {
        HvKind::ALL.into_iter().find(|k| k.slug() == slug)
    }
}

impl fmt::Display for HvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HvKind::KvmArm => "KVM ARM",
            HvKind::XenArm => "Xen ARM",
            HvKind::KvmX86 => "KVM x86",
            HvKind::XenX86 => "Xen x86",
            HvKind::KvmArmVhe => "KVM ARM (VHE)",
            HvKind::Native => "Native",
        };
        f.pad(s)
    }
}

/// How virtual device interrupts are spread over VCPUs — the §V ablation
/// ("we verified this by distributing virtual interrupts across multiple
/// VCPUs").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum VirqPolicy {
    /// All device interrupts to VCPU0 — the measured default whose
    /// saturation causes the Apache/Memcached overheads.
    #[default]
    Vcpu0,
    /// Round-robin across all VCPUs (irqbalance-style).
    RoundRobin,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_and_platforms() {
        assert_eq!(HvKind::KvmArm.hv_type(), Some(HvType::Type2));
        assert_eq!(HvKind::XenArm.hv_type(), Some(HvType::Type1));
        assert_eq!(HvKind::XenX86.hv_type(), Some(HvType::Type1));
        assert_eq!(HvKind::Native.hv_type(), None);
        assert_eq!(HvKind::KvmArmVhe.platform(), Platform::ArmVhe);
        assert_eq!(HvKind::KvmX86.platform(), Platform::X86);
        assert_eq!(HvKind::Native.platform(), Platform::Arm);
    }

    #[test]
    fn measured_set_matches_table_ii_columns() {
        assert_eq!(HvKind::MEASURED.len(), 4);
        assert_eq!(HvKind::MEASURED[0].to_string(), "KVM ARM");
        assert_eq!(HvKind::MEASURED[3].to_string(), "Xen x86");
    }

    #[test]
    fn slugs_round_trip() {
        for kind in HvKind::ALL {
            assert_eq!(HvKind::from_slug(kind.slug()), Some(kind));
        }
        assert_eq!(HvKind::from_slug("riscv"), None);
    }

    #[test]
    fn default_virq_policy_is_single_vcpu() {
        assert_eq!(VirqPolicy::default(), VirqPolicy::Vcpu0);
    }
}
