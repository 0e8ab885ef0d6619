//! Exception causes and syndrome encoding.
//!
//! When "the hardware traps into EL2 giving control to the hypervisor"
//! (§II), the trap's cause is reported in `ESR_EL2` as an exception class
//! plus instruction-specific syndrome. The hypervisor models dispatch on
//! this value exactly as KVM's and Xen's trap handlers do.

use core::fmt;

/// Why an exception was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TrapCause {
    /// Synchronous exception described by a [`Syndrome`] (a hypercall or
    /// a stage-2 data abort).
    Sync(Syndrome),
    /// Asynchronous physical IRQ. With `HCR_EL2.IMO` set this is taken to
    /// EL2 even while the VM runs — "all physical interrupts are taken to
    /// EL2 when running in a VM" (§II).
    Irq,
}

impl TrapCause {
    /// The hypercall cause used by the Hypercall microbenchmark: `HVC #0`.
    pub const HYPERCALL: TrapCause = TrapCause::Sync(Syndrome::Hvc { imm: 0 });
}

/// Synchronous exception syndrome — the subset of `ESR_ELx` classes the
/// hypervisor models raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Syndrome {
    /// `HVC` instruction executed (hypercall from EL1).
    Hvc {
        /// The 16-bit immediate of the HVC instruction.
        imm: u16,
    },
    /// Stage-2 data abort: the VM touched an IPA with no (or insufficient)
    /// Stage-2 mapping. MMIO emulation (e.g. GIC distributor access) and
    /// demand paging both arrive this way.
    DataAbort {
        /// Faulting intermediate physical address.
        ipa: u64,
        /// `true` if the access was a write.
        write: bool,
    },
}

impl Syndrome {
    /// The architected exception-class (EC) value, ESR bits \[31:26\].
    pub fn exception_class(self) -> u8 {
        match self {
            Syndrome::Hvc { .. } => 0b010110,
            Syndrome::DataAbort { .. } => 0b100100,
        }
    }

    /// Encodes into an `ESR_ELx`-shaped value: EC in bits \[31:26\], IL set,
    /// and a model-defined ISS in the low 25 bits.
    pub fn encode(self) -> u64 {
        let ec = (self.exception_class() as u64) << 26;
        let il = 1 << 25;
        let iss: u64 = match self {
            Syndrome::Hvc { imm } => imm as u64,
            Syndrome::DataAbort { write, .. } => (write as u64) << 6,
        };
        ec | il | iss
    }

    /// Decodes the exception class from an `ESR_ELx` value.
    pub fn class_of(esr: u64) -> u8 {
        ((esr >> 26) & 0x3f) as u8
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Syndrome::Hvc { imm } => write!(f, "HVC #{imm}"),
            Syndrome::DataAbort { ipa, write } => {
                write!(
                    f,
                    "stage-2 data abort @{ipa:#x} ({})",
                    if *write { "W" } else { "R" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_classes_are_architected() {
        assert_eq!(Syndrome::Hvc { imm: 0 }.exception_class(), 0x16);
        assert_eq!(
            Syndrome::DataAbort {
                ipa: 0,
                write: false
            }
            .exception_class(),
            0x24
        );
    }

    #[test]
    fn encode_decode_class_round_trip() {
        for s in [
            Syndrome::Hvc { imm: 42 },
            Syndrome::DataAbort {
                ipa: 0x800_0000,
                write: true,
            },
        ] {
            let esr = s.encode();
            assert_eq!(Syndrome::class_of(esr), s.exception_class());
            assert_ne!(esr & (1 << 25), 0, "IL bit must be set");
        }
    }

    #[test]
    fn hvc_immediate_lands_in_iss() {
        let esr = Syndrome::Hvc { imm: 0xBEEF }.encode();
        assert_eq!(esr & 0xFFFF, 0xBEEF);
    }

    #[test]
    fn hypercall_constant_is_hvc_zero() {
        assert_eq!(
            TrapCause::HYPERCALL,
            TrapCause::Sync(Syndrome::Hvc { imm: 0 })
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Syndrome::Hvc { imm: 3 }.to_string(), "HVC #3");
        assert!(Syndrome::DataAbort {
            ipa: 0x1000,
            write: true
        }
        .to_string()
        .contains("0x1000"));
    }
}
