//! Interrupt identifiers.
//!
//! GIC interrupt IDs partition into software-generated interrupts (SGIs —
//! the IPIs at the heart of the Virtual IPI microbenchmark), private
//! peripheral interrupts (PPIs — notably the virtual timer), and shared
//! peripheral interrupts (SPIs — devices such as the 10 GbE NIC).

use core::fmt;

/// A GIC interrupt identifier (INTID).
///
/// # Examples
///
/// ```
/// use hvx_gic::IntId;
/// assert!(IntId::sgi(3).is_sgi());
/// assert!(IntId::VTIMER.is_ppi());
/// assert!(IntId::spi(42).is_spi());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct IntId(u32);

impl IntId {
    /// Highest modelled INTID (GICv2 supports up to 1020 SPIs).
    pub const MAX: u32 = 1019;

    /// The virtual timer PPI (INTID 27 on ARM Linux platforms). When the
    /// VM-programmed virtual timer fires "it raises a physical interrupt,
    /// which must be handled by the hypervisor and translated into a
    /// virtual interrupt" (§II).
    pub const VTIMER: IntId = IntId(27);

    /// Creates an SGI (IPI) identifier.
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    pub const fn sgi(n: u32) -> IntId {
        assert!(n <= 15, "SGIs are INTIDs 0-15");
        IntId(n)
    }

    /// Creates a PPI identifier from a PPI number `0..16` (INTIDs 16–31).
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    pub const fn ppi(n: u32) -> IntId {
        assert!(n <= 15, "PPIs are INTIDs 16-31");
        IntId(16 + n)
    }

    /// Creates an SPI identifier from an SPI number (INTIDs 32–1019).
    ///
    /// # Panics
    ///
    /// Panics if the resulting INTID exceeds [`IntId::MAX`].
    pub const fn spi(n: u32) -> IntId {
        assert!(32 + n <= IntId::MAX, "SPI INTID out of range");
        IntId(32 + n)
    }

    /// Builds from a raw INTID.
    ///
    /// # Panics
    ///
    /// Panics if `raw > IntId::MAX`.
    pub const fn from_raw(raw: u32) -> IntId {
        assert!(raw <= IntId::MAX, "INTID out of range");
        IntId(raw)
    }

    /// The raw INTID value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// `true` for software-generated interrupts (IPIs), INTIDs 0–15.
    pub const fn is_sgi(self) -> bool {
        self.0 < 16
    }

    /// `true` for private peripheral interrupts, INTIDs 16–31.
    pub const fn is_ppi(self) -> bool {
        self.0 >= 16 && self.0 < 32
    }

    /// `true` for shared peripheral interrupts, INTIDs 32+.
    pub const fn is_spi(self) -> bool {
        self.0 >= 32
    }

    /// `true` for interrupts private to a CPU (SGIs and PPIs).
    pub const fn is_private(self) -> bool {
        self.0 < 32
    }
}

impl fmt::Display for IntId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_sgi() {
            "SGI"
        } else if self.is_ppi() {
            "PPI"
        } else {
            "SPI"
        };
        write!(f, "{kind}{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert!(IntId::from_raw(0).is_sgi());
        assert!(IntId::from_raw(15).is_sgi());
        assert!(IntId::from_raw(16).is_ppi());
        assert!(IntId::from_raw(31).is_ppi());
        assert!(IntId::from_raw(32).is_spi());
        assert!(IntId::from_raw(1019).is_spi());
        assert!(IntId::from_raw(31).is_private());
        assert!(!IntId::from_raw(32).is_private());
    }

    #[test]
    fn constructors_map_to_intid_ranges() {
        assert_eq!(IntId::sgi(5).raw(), 5);
        assert_eq!(IntId::ppi(11).raw(), 27);
        assert_eq!(IntId::ppi(11), IntId::VTIMER);
        assert_eq!(IntId::spi(0).raw(), 32);
        assert_eq!(IntId::spi(43).raw(), 75);
    }

    #[test]
    #[should_panic(expected = "SGIs are INTIDs 0-15")]
    fn sgi_range_enforced() {
        let _ = IntId::sgi(16);
    }

    #[test]
    #[should_panic(expected = "SPI INTID out of range")]
    fn spi_range_enforced() {
        let _ = IntId::spi(1000);
    }

    #[test]
    fn display_names_kind() {
        assert_eq!(IntId::sgi(1).to_string(), "SGI1");
        assert_eq!(IntId::VTIMER.to_string(), "PPI27");
        assert_eq!(IntId::spi(43).to_string(), "SPI75");
    }
}
