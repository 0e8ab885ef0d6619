//! Xen PV networking: netfront (DomU) and netback (Dom0) over grant
//! tables and shared rings.
//!
//! This is the I/O model whose costs dominate Xen's application results
//! in §V: "Xen does not support zero-copy I/O, but instead must map a
//! shared page between Dom0 and the VM using the Xen grant mechanism,
//! and must copy data between the memory buffer used for DMA in Dom0 and
//! the granted memory buffer from the VM."
//!
//! Every TX and RX therefore moves bytes **twice** through physical
//! memory (DMA buffer ↔ granted frame), in contrast to the vhost path of
//! [`crate::VhostNet`]. The historical map-based zero-copy approach,
//! abandoned on x86 for its TLB-shootdown cost (§V), has no data path
//! here: the zero-copy ablation (`hvx-suite`'s `ablations::zero_copy`)
//! prices its map and unmap as a constant plus an `hvx_mem::TlbModel`
//! shootdown plan.

use crate::{Packet, VioError};
use hvx_mem::{Access, DomId, GrantRef, GrantTable, Ipa, Pa, PhysMemory, Stage2Tables, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};

/// A transmit request on the shared ring: "send the bytes in my granted
/// frame".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRequest {
    /// Frontend-chosen request id.
    pub id: u16,
    /// Grant of the frame holding the payload.
    pub gref: GrantRef,
    /// Payload offset within the frame.
    pub offset: u16,
    /// Payload length.
    pub len: u32,
}

/// A receive request: "here is a granted frame you may fill".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxRequest {
    /// Frontend-chosen request id.
    pub id: u16,
    /// Writable grant of an empty frame.
    pub gref: GrantRef,
}

/// Completion of a transmit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxResponse {
    /// The completed request id.
    pub id: u16,
}

/// Completion of a receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxResponse {
    /// The completed request id.
    pub id: u16,
    /// Bytes written into the granted frame.
    pub len: u32,
}

/// The shared request/response rings of one vif (TX and RX pair).
#[derive(Debug, Clone, Default)]
pub struct XenNetRing {
    /// TX requests, frontend → backend.
    pub tx_req: VecDeque<TxRequest>,
    /// TX responses, backend → frontend.
    pub tx_rsp: VecDeque<TxResponse>,
    /// RX buffer offers, frontend → backend.
    pub rx_req: VecDeque<RxRequest>,
    /// RX completions, backend → frontend.
    pub rx_rsp: VecDeque<RxResponse>,
}

impl XenNetRing {
    /// Creates empty rings.
    pub fn new() -> Self {
        XenNetRing::default()
    }
}

/// The DomU-side driver: owns a pool of guest frames it cycles through
/// grants.
#[derive(Debug, Clone)]
pub struct NetFront {
    dom: DomId,
    tx_bufs: Vec<Ipa>,
    tx_free: Vec<usize>,
    tx_inflight: HashMap<u16, (usize, GrantRef)>,
    rx_inflight: HashMap<u16, (Ipa, GrantRef)>,
    next_id: u16,
}

impl NetFront {
    /// Creates a frontend for domain `dom` with the given page-aligned
    /// guest TX buffer pool.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is not page-aligned.
    pub fn new(dom: DomId, tx_bufs: Vec<Ipa>) -> Self {
        assert!(tx_bufs.iter().all(|b| b.is_page_aligned()));
        let tx_free = (0..tx_bufs.len()).rev().collect();
        NetFront {
            dom,
            tx_bufs,
            tx_free,
            tx_inflight: HashMap::new(),
            rx_inflight: HashMap::new(),
            next_id: 0,
        }
    }

    fn fresh_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// The owning domain.
    pub fn dom(&self) -> DomId {
        self.dom
    }

    /// Posts a payload for transmission: writes it into a pool frame
    /// (through the guest's own Stage-2 view), grants the frame read-only
    /// to Dom0, and pushes a TX request. Returns the request id. The
    /// caller then notifies the event channel.
    ///
    /// # Errors
    ///
    /// [`VioError::QueueFull`] when the pool is exhausted;
    /// [`VioError::BufferTooSmall`] for payloads over a page;
    /// translation/grant errors are propagated.
    pub fn post_tx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
        s2: &Stage2Tables,
        mem: &mut PhysMemory,
        payload: &[u8],
    ) -> Result<u16, VioError> {
        if payload.len() as u64 > PAGE_SIZE {
            return Err(VioError::BufferTooSmall {
                need: payload.len(),
                have: PAGE_SIZE as usize,
            });
        }
        let buf_idx = self.tx_free.pop().ok_or(VioError::QueueFull)?;
        let ipa = self.tx_bufs[buf_idx];
        let pa = s2.translate(ipa, Access::Write)?.pa;
        mem.write(pa, payload)?;
        let gref = grants.grant_access(DomId::DOM0, pa, true)?;
        let id = self.fresh_id();
        self.tx_inflight.insert(id, (buf_idx, gref));
        ring.tx_req.push_back(TxRequest {
            id,
            gref,
            offset: 0,
            len: payload.len() as u32,
        });
        Ok(id)
    }

    /// Reaps TX completions: ends each completed grant and recycles the
    /// frame. Returns the completed request ids.
    ///
    /// # Errors
    ///
    /// [`VioError::Grant`] if a grant is still mapped (backend bug).
    pub fn reap_tx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
    ) -> Result<Vec<u16>, VioError> {
        let mut done = Vec::new();
        while let Some(rsp) = ring.tx_rsp.pop_front() {
            if let Some((buf_idx, gref)) = self.tx_inflight.remove(&rsp.id) {
                grants.end_access(gref)?;
                self.tx_free.push(buf_idx);
            }
            done.push(rsp.id);
        }
        Ok(done)
    }

    /// Offers an empty guest frame as an RX buffer: grants it writable to
    /// Dom0 and pushes an RX request.
    ///
    /// # Errors
    ///
    /// Translation/grant errors are propagated.
    pub fn post_rx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
        s2: &Stage2Tables,
        buffer: Ipa,
    ) -> Result<u16, VioError> {
        let pa = s2.translate(buffer, Access::Write)?.pa;
        let gref = grants.grant_access(DomId::DOM0, pa, false)?;
        let id = self.fresh_id();
        self.rx_inflight.insert(id, (buffer, gref));
        ring.rx_req.push_back(RxRequest { id, gref });
        Ok(id)
    }

    /// Reaps RX completions: reads each filled frame through the guest's
    /// Stage-2 view and ends the grant. Returns the received payloads.
    ///
    /// # Errors
    ///
    /// Translation/grant/memory errors are propagated.
    pub fn reap_rx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
        s2: &Stage2Tables,
        mem: &mut PhysMemory,
    ) -> Result<Vec<Vec<u8>>, VioError> {
        let mut out = Vec::new();
        while let Some(rsp) = ring.rx_rsp.pop_front() {
            let (ipa, gref) = self
                .rx_inflight
                .remove(&rsp.id)
                .ok_or(VioError::BadDescriptor { index: rsp.id })?;
            let pa = s2.translate(ipa, Access::Read)?.pa;
            let mut data = vec![0u8; rsp.len as usize];
            mem.read(pa, &mut data)?;
            grants.end_access(gref)?;
            out.push(data);
        }
        Ok(out)
    }

    /// TX pool frames currently free.
    pub fn tx_free_count(&self) -> usize {
        self.tx_free.len()
    }

    /// RX buffers currently offered and unfilled.
    pub fn rx_posted_count(&self) -> usize {
        self.rx_inflight.len()
    }
}

/// The Dom0-side backend: bridges the shared rings to the physical NIC
/// through a bounce-buffer region in Dom0 memory.
#[derive(Debug, Clone)]
pub struct NetBack {
    /// Dom0 DMA bounce region (machine addresses).
    dma_base: Pa,
    dma_slots: usize,
    next_slot: usize,
    next_packet_id: u64,
}

impl NetBack {
    /// Creates a backend with `dma_slots` page-sized bounce buffers at
    /// `dma_base` in Dom0's machine memory.
    ///
    /// # Panics
    ///
    /// Panics if `dma_base` is not page-aligned or `dma_slots` is zero.
    pub fn new(dma_base: Pa, dma_slots: usize) -> Self {
        assert!(dma_base.is_page_aligned());
        assert!(dma_slots > 0);
        NetBack {
            dma_base,
            dma_slots,
            next_slot: 0,
            next_packet_id: 0,
        }
    }

    fn dma_slot(&mut self) -> Pa {
        let pa = Pa::new(self.dma_base.value() + (self.next_slot as u64) * PAGE_SIZE);
        self.next_slot = (self.next_slot + 1) % self.dma_slots;
        pa
    }

    /// Processes TX requests the standard (copying) way: for each
    /// request, **grant-copies** the payload from the granted DomU frame
    /// into a Dom0 DMA buffer, then hands the packet to the NIC. One copy
    /// per packet — the §V "more than 3 µs of additional latency" per
    /// copy.
    ///
    /// # Errors
    ///
    /// Grant/memory errors are propagated.
    pub fn process_tx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
        mem: &mut PhysMemory,
    ) -> Result<Vec<Packet>, VioError> {
        let mut out = Vec::new();
        while let Some(req) = ring.tx_req.pop_front() {
            let dma = self.dma_slot();
            grants.grant_copy(
                mem,
                req.gref,
                DomId::DOM0,
                req.offset as u64,
                dma,
                req.len as usize,
                false,
            )?;
            let mut data = vec![0u8; req.len as usize];
            mem.read(dma, &mut data)?;
            let id = self.next_packet_id;
            self.next_packet_id += 1;
            out.push(Packet::new(id, data));
            ring.tx_rsp.push_back(TxResponse { id: req.id });
        }
        Ok(out)
    }

    /// Delivers a received packet: the NIC has DMA'd it into a Dom0
    /// bounce buffer; netback grant-copies it into the next posted DomU
    /// RX frame and pushes a response. One copy per packet.
    ///
    /// # Errors
    ///
    /// [`VioError::NoRxBuffer`] when DomU posted no RX buffer;
    /// [`VioError::BufferTooSmall`] for over-page packets.
    pub fn deliver_rx(
        &mut self,
        ring: &mut XenNetRing,
        grants: &mut GrantTable,
        mem: &mut PhysMemory,
        packet: &Packet,
    ) -> Result<(), VioError> {
        if packet.len() as u64 > PAGE_SIZE {
            return Err(VioError::BufferTooSmall {
                need: packet.len(),
                have: PAGE_SIZE as usize,
            });
        }
        let req = ring.rx_req.pop_front().ok_or(VioError::NoRxBuffer)?;
        let dma = self.dma_slot();
        mem.write(dma, &packet.data)?; // NIC DMA into Dom0 buffer
        grants.grant_copy(mem, req.gref, DomId::DOM0, 0, dma, packet.len(), true)?;
        ring.rx_rsp.push_back(RxResponse {
            id: req.id,
            len: packet.len() as u32,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_mem::S2Perms;

    const DOMU: DomId = DomId(1);

    struct Rig {
        mem: PhysMemory,
        s2: Stage2Tables,
        grants: GrantTable,
        ring: XenNetRing,
        front: NetFront,
        back: NetBack,
    }

    fn rig() -> Rig {
        let mut s2 = Stage2Tables::new();
        // DomU RAM: IPA 0x8000_0000.. -> PA 0x10_0000.., 16 pages.
        s2.map_range(Ipa::new(0x8000_0000), Pa::new(0x10_0000), 16, S2Perms::RW)
            .unwrap();
        let tx_bufs = (0..4)
            .map(|i| Ipa::new(0x8000_0000 + i * PAGE_SIZE))
            .collect();
        Rig {
            mem: PhysMemory::new(1 << 22),
            s2,
            grants: GrantTable::new(64),
            ring: XenNetRing::new(),
            front: NetFront::new(DOMU, tx_bufs),
            back: NetBack::new(Pa::new(0x20_0000), 8),
        }
    }

    #[test]
    fn tx_path_copies_exactly_once_per_packet() {
        let mut r = rig();
        r.front
            .post_tx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem, b"xen-tx")
            .unwrap();
        assert_eq!(r.grants.copy_count(), 0);
        let pkts = r
            .back
            .process_tx(&mut r.ring, &mut r.grants, &mut r.mem)
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(&pkts[0].data[..], b"xen-tx");
        assert_eq!(r.grants.copy_count(), 1, "one grant copy per TX packet");
        let done = r.front.reap_tx(&mut r.ring, &mut r.grants).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(r.front.tx_free_count(), 4, "frame recycled");
        assert_eq!(r.grants.live_entries(), 0, "grant revoked");
    }

    #[test]
    fn rx_path_copies_exactly_once_per_packet() {
        let mut r = rig();
        let rx_buf = Ipa::new(0x8000_0000 + 8 * PAGE_SIZE);
        r.front
            .post_rx(&mut r.ring, &mut r.grants, &r.s2, rx_buf)
            .unwrap();
        let pkt = Packet::new(0, &b"xen-rx-payload"[..]);
        r.back
            .deliver_rx(&mut r.ring, &mut r.grants, &mut r.mem, &pkt)
            .unwrap();
        assert_eq!(r.grants.copy_count(), 1);
        let got = r
            .front
            .reap_rx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem)
            .unwrap();
        assert_eq!(got, vec![b"xen-rx-payload".to_vec()]);
        assert_eq!(r.front.rx_posted_count(), 0);
    }

    #[test]
    fn rx_without_posted_buffer_is_an_error() {
        let mut r = rig();
        let pkt = Packet::new(0, &b"drop-me"[..]);
        assert_eq!(
            r.back
                .deliver_rx(&mut r.ring, &mut r.grants, &mut r.mem, &pkt),
            Err(VioError::NoRxBuffer)
        );
    }

    #[test]
    fn tx_pool_exhaustion_backpressures() {
        let mut r = rig();
        for i in 0..4 {
            r.front
                .post_tx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem, &[i as u8])
                .unwrap();
        }
        assert_eq!(
            r.front
                .post_tx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem, b"x"),
            Err(VioError::QueueFull)
        );
        // Backend progress frees the pool.
        r.back
            .process_tx(&mut r.ring, &mut r.grants, &mut r.mem)
            .unwrap();
        r.front.reap_tx(&mut r.ring, &mut r.grants).unwrap();
        assert!(r
            .front
            .post_tx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem, b"x")
            .is_ok());
    }

    #[test]
    fn oversized_payloads_rejected() {
        let mut r = rig();
        let big = vec![0u8; PAGE_SIZE as usize + 1];
        assert!(matches!(
            r.front
                .post_tx(&mut r.ring, &mut r.grants, &r.s2, &mut r.mem, &big),
            Err(VioError::BufferTooSmall { .. })
        ));
        let pkt = Packet::new(0, big);
        assert!(matches!(
            r.back
                .deliver_rx(&mut r.ring, &mut r.grants, &mut r.mem, &pkt),
            Err(VioError::BufferTooSmall { .. })
        ));
    }
}
