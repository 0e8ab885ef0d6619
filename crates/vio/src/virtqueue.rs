//! Virtio virtqueues — the shared rings between a guest driver and the
//! KVM host's device backend.
//!
//! "KVM ... has full access to the VM's memory and maintains shared
//! memory buffers in the Virtio rings, such that the network device can
//! DMA the data directly into a guest-visible buffer, resulting in
//! significantly less overhead" (§V). The queue carries *IPA pointers*
//! into guest memory: the guest posts buffers by IPA, and the backend —
//! because it shares the machine's Stage-2 view — translates and touches
//! those bytes directly. No copy, no grant.
//!
//! The descriptor table / available ring / used ring structure follows
//! the Virtio 1.0 split-ring layout, stored as typed structures rather
//! than raw guest bytes (a documented simplification; the *pointer
//! indirection* and *ownership handoff* semantics are what the paper's
//! analysis needs, and those are exact).

use crate::VioError;
use hvx_mem::Ipa;
use std::collections::VecDeque;

/// One descriptor: a guest buffer by IPA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical address of the buffer.
    pub addr: Ipa,
    /// Buffer length in bytes.
    pub len: u32,
    /// `true` if the *device* writes this buffer (RX); `false` if the
    /// device reads it (TX).
    pub device_writes: bool,
}

/// A chain of descriptors popped from the available ring, owned by the
/// device until pushed onto the used ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index (the token returned to the guest).
    pub head: u16,
    /// The buffers in chain order.
    pub buffers: Vec<Descriptor>,
}

impl DescChain {
    /// Total byte capacity of the chain.
    pub fn capacity(&self) -> u32 {
        self.buffers.iter().map(|d| d.len).sum()
    }
}

/// A split virtqueue.
///
/// # Examples
///
/// TX handoff: guest posts a buffer, device consumes it, guest reaps the
/// completion:
///
/// ```
/// use hvx_mem::Ipa;
/// use hvx_vio::{Descriptor, Virtqueue};
///
/// let mut vq = Virtqueue::new(256)?;
/// let head = vq.add_chain(&[Descriptor { addr: Ipa::new(0x9000), len: 64, device_writes: false }])?;
/// let chain = vq.pop_avail().expect("device sees the buffer");
/// assert_eq!(chain.head, head);
/// vq.push_used(chain, 0)?;
/// assert_eq!(vq.take_used()?.unwrap().0, head);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Virtqueue {
    size: u16,
    /// Descriptor table; `None` = free slot.
    table: Vec<Option<(Descriptor, Option<u16>)>>,
    free: Vec<u16>,
    avail: VecDeque<u16>,
    used: VecDeque<(u16, u32)>,
    /// Event suppression: when set, the guest asked not to be notified of
    /// used-ring updates (`VIRTQ_AVAIL_F_NO_INTERRUPT`).
    suppress_interrupts: bool,
}

impl Virtqueue {
    /// Creates a queue with `size` descriptors.
    ///
    /// # Errors
    ///
    /// [`VioError::BadQueueSize`] unless `size` is a power of two in
    /// `1..=32768` (the Virtio spec's constraint).
    pub fn new(size: u16) -> Result<Self, VioError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(VioError::BadQueueSize { size });
        }
        Ok(Virtqueue {
            size,
            table: vec![None; size as usize],
            free: (0..size).rev().collect(),
            avail: VecDeque::new(),
            used: VecDeque::new(),
            suppress_interrupts: false,
        })
    }

    /// Queue size in descriptors.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Free descriptors remaining.
    pub fn free_descriptors(&self) -> usize {
        self.free.len()
    }

    /// Guest-side: posts a chained buffer, returning the head index.
    ///
    /// # Errors
    ///
    /// [`VioError::QueueFull`] if the chain does not fit;
    /// [`VioError::EmptyChain`] for an empty chain.
    pub fn add_chain(&mut self, chain: &[Descriptor]) -> Result<u16, VioError> {
        if chain.is_empty() {
            return Err(VioError::EmptyChain);
        }
        if self.free.len() < chain.len() {
            return Err(VioError::QueueFull);
        }
        let indices: Vec<u16> = (0..chain.len()).map(|_| self.free.pop().unwrap()).collect();
        for (i, desc) in chain.iter().enumerate() {
            let next = indices.get(i + 1).copied();
            self.table[indices[i] as usize] = Some((*desc, next));
        }
        let head = indices[0];
        self.avail.push_back(head);
        Ok(head)
    }

    /// Device-side: takes the next available chain, transferring buffer
    /// ownership to the device.
    pub fn pop_avail(&mut self) -> Option<DescChain> {
        let head = self.avail.pop_front()?;
        let mut buffers = Vec::new();
        let mut cursor = Some(head);
        while let Some(idx) = cursor {
            let (desc, next) = self.table[idx as usize].expect("chained descriptor exists");
            buffers.push(desc);
            cursor = next;
        }
        Some(DescChain { head, buffers })
    }

    /// Number of chains the device has not yet consumed.
    pub fn avail_len(&self) -> usize {
        self.avail.len()
    }

    /// Device-side: returns a consumed chain with `written` bytes
    /// produced (0 for TX).
    ///
    /// # Errors
    ///
    /// [`VioError::BadDescriptor`] if the chain's head is not a live
    /// descriptor of this queue.
    pub fn push_used(&mut self, chain: DescChain, written: u32) -> Result<(), VioError> {
        // Free the chain's descriptors.
        let mut cursor = Some(chain.head);
        while let Some(idx) = cursor {
            let slot = self
                .table
                .get_mut(idx as usize)
                .ok_or(VioError::BadDescriptor { index: idx })?;
            let (_, next) = slot.take().ok_or(VioError::BadDescriptor { index: idx })?;
            self.free.push(idx);
            cursor = next;
        }
        self.used.push_back((chain.head, written));
        Ok(())
    }

    /// Guest-side: reaps one completion `(head, written)`.
    ///
    /// # Errors
    ///
    /// None currently; the `Result` reserves room for ring-corruption
    /// checks.
    #[allow(clippy::type_complexity)]
    pub fn take_used(&mut self) -> Result<Option<(u16, u32)>, VioError> {
        Ok(self.used.pop_front())
    }

    /// Completions the guest has not reaped.
    pub fn used_len(&self) -> usize {
        self.used.len()
    }

    /// Guest-side: sets used-ring interrupt suppression.
    pub fn set_suppress_interrupts(&mut self, suppress: bool) {
        self.suppress_interrupts = suppress;
    }

    /// Device-side: whether pushing used entries should raise a guest
    /// interrupt.
    pub fn interrupts_enabled(&self) -> bool {
        !self.suppress_interrupts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(addr: u64, len: u32, w: bool) -> Descriptor {
        Descriptor {
            addr: Ipa::new(addr),
            len,
            device_writes: w,
        }
    }

    #[test]
    fn queue_size_must_be_power_of_two() {
        assert!(Virtqueue::new(256).is_ok());
        assert!(matches!(
            Virtqueue::new(0),
            Err(VioError::BadQueueSize { size: 0 })
        ));
        assert!(matches!(
            Virtqueue::new(100),
            Err(VioError::BadQueueSize { size: 100 })
        ));
    }

    #[test]
    fn chain_round_trip_preserves_order_and_buffers() {
        let mut vq = Virtqueue::new(8).unwrap();
        let chain_in = [desc(0x1000, 10, false), desc(0x2000, 20, false)];
        let head = vq.add_chain(&chain_in).unwrap();
        assert_eq!(vq.avail_len(), 1);
        assert_eq!(vq.free_descriptors(), 6);
        let chain = vq.pop_avail().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.buffers, chain_in);
        assert_eq!(chain.capacity(), 30);
        vq.push_used(chain, 0).unwrap();
        assert_eq!(vq.take_used().unwrap(), Some((head, 0)));
        assert_eq!(vq.free_descriptors(), 8, "descriptors recycled");
    }

    #[test]
    fn multiple_chains_complete_fifo() {
        let mut vq = Virtqueue::new(8).unwrap();
        let h1 = vq.add_chain(&[desc(0x1000, 1, true)]).unwrap();
        let h2 = vq.add_chain(&[desc(0x2000, 1, true)]).unwrap();
        let c1 = vq.pop_avail().unwrap();
        let c2 = vq.pop_avail().unwrap();
        vq.push_used(c2, 5).unwrap();
        vq.push_used(c1, 7).unwrap();
        assert_eq!(vq.take_used().unwrap(), Some((h2, 5)));
        assert_eq!(vq.take_used().unwrap(), Some((h1, 7)));
        assert_eq!(vq.take_used().unwrap(), None);
    }

    #[test]
    fn exhaustion_and_refill() {
        let mut vq = Virtqueue::new(2).unwrap();
        vq.add_chain(&[desc(0x1000, 1, false), desc(0x2000, 1, false)])
            .unwrap();
        assert_eq!(
            vq.add_chain(&[desc(0x3000, 1, false)]),
            Err(VioError::QueueFull)
        );
        let chain = vq.pop_avail().unwrap();
        vq.push_used(chain, 0).unwrap();
        assert!(vq.add_chain(&[desc(0x3000, 1, false)]).is_ok());
    }

    #[test]
    fn empty_chain_rejected() {
        let mut vq = Virtqueue::new(2).unwrap();
        assert_eq!(vq.add_chain(&[]), Err(VioError::EmptyChain));
    }

    #[test]
    fn double_push_used_is_error() {
        let mut vq = Virtqueue::new(4).unwrap();
        vq.add_chain(&[desc(0x1000, 1, false)]).unwrap();
        let chain = vq.pop_avail().unwrap();
        vq.push_used(chain.clone(), 0).unwrap();
        assert!(matches!(
            vq.push_used(chain, 0),
            Err(VioError::BadDescriptor { .. })
        ));
    }

    #[test]
    fn interrupt_suppression_flag() {
        let mut vq = Virtqueue::new(2).unwrap();
        assert!(vq.interrupts_enabled());
        vq.set_suppress_interrupts(true);
        assert!(!vq.interrupts_enabled());
    }
}
