//! Network packets and the physical wire.
//!
//! The study's I/O experiments run over 10 GbE between two machines
//! (§III: "using 10 Gb Ethernet was important, as many benchmarks were
//! unaffected by virtualization when run over 1 Gb Ethernet, because the
//! network itself became the bottleneck"). [`Wire`] models exactly that:
//! a configurable per-packet latency plus per-byte serialization cost, so
//! workloads can be run against both a 10 GbE wire (hypervisor-bound) and
//! a 1 GbE wire (network-bound) to reproduce that observation.

use bytes::Bytes;
use hvx_engine::{Cycles, Frequency};

/// A network packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Payload bytes.
    pub data: Bytes,
    /// Monotonic id for latency tracking across the simulated stack.
    pub id: u64,
}

impl Packet {
    /// Creates a packet with the given payload and id.
    pub fn new(id: u64, data: impl Into<Bytes>) -> Self {
        Packet {
            data: data.into(),
            id,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A point-to-point Ethernet link between the server under test and the
/// (native) client machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    /// Fixed one-way latency (propagation + switch + client NIC).
    pub latency: Cycles,
    /// Serialization cost per payload byte, in cycles (derived from link
    /// bandwidth and CPU frequency).
    pub cycles_per_byte: f64,
}

impl Wire {
    /// Builds a wire from link bandwidth and one-way latency in
    /// microseconds, at the observing CPU's frequency.
    ///
    /// # Examples
    ///
    /// ```
    /// use hvx_engine::Frequency;
    /// use hvx_vio::Wire;
    ///
    /// let w = Wire::from_link(10_000, 10.0, Frequency::ARM_M400);
    /// // 10 GbE at 2.4 GHz: 2400/1250 = 1.92 cycles per byte.
    /// assert!((w.cycles_per_byte - 1.92).abs() < 1e-9);
    /// ```
    pub fn from_link(mbit_per_s: u64, latency_us: f64, freq: Frequency) -> Self {
        let bytes_per_us = mbit_per_s as f64 / 8.0; // Mbit/s == bytes/us
        Wire {
            latency: Cycles::from_micros(latency_us, freq),
            cycles_per_byte: freq.cycles_per_micro() / bytes_per_us,
        }
    }

    /// One-way transfer time for a packet of `len` payload bytes.
    pub fn transfer_time(&self, len: usize) -> Cycles {
        self.latency + Cycles::new((len as f64 * self.cycles_per_byte).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_basics() {
        let p = Packet::new(7, &b"x"[..]);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.id, 7);
        assert!(Packet::new(0, Bytes::new()).is_empty());
    }

    #[test]
    fn wire_transfer_scales_with_size() {
        let w = Wire::from_link(10_000, 10.0, Frequency::ARM_M400);
        let one = w.transfer_time(1);
        let big = w.transfer_time(1500);
        assert!(big > one);
        // Latency floor: 10 us = 24,000 cycles at 2.4 GHz.
        assert_eq!(w.latency, Cycles::new(24_000));
        assert_eq!(one, Cycles::new(24_000 + 2));
    }

    #[test]
    fn slower_link_costs_more_per_byte() {
        let g10 = Wire::from_link(10_000, 10.0, Frequency::ARM_M400);
        let g1 = Wire::from_link(1_000, 10.0, Frequency::ARM_M400);
        assert!(g1.cycles_per_byte > 9.0 * g10.cycles_per_byte);
    }
}
