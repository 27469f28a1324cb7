//! The transfer ledger of multi-node bootstrapping (paper §V).
//!
//! The blind rotations of distinct LWE ciphertexts have no data
//! dependencies, so HEAP distributes them over eight FPGAs: a *primary*
//! node scatters LWE batches to *secondaries*, every node runs its batch,
//! and results stream back to the primary for repacking. The dispatch
//! engine lives in `heap-runtime` (`Scheduler` over `ServiceNode`s); this
//! module holds the ledger its remote nodes record their socket traffic
//! in, so `heap-hw` can price the same bytes with the CMAC model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Ledger of inter-node ciphertext transfers, mirroring the primary →
/// secondary LWE scatter and secondary → primary RLWE gather that ride
/// HEAP's 100G CMAC links.
///
/// Counts ciphertexts *and* bytes. The `heap-runtime` remote backend
/// records the bytes actually written to and read from its TCP sockets,
/// so the ledger is a measurement the `heap-hw` CMAC model can be checked
/// against.
#[derive(Debug, Default)]
pub struct TransferLedger {
    lwe_sent: AtomicU64,
    rlwe_received: AtomicU64,
    lwe_bytes_sent: AtomicU64,
    rlwe_bytes_received: AtomicU64,
    // Control traffic (handshakes, pings, errors, stats): these frames
    // carry no ciphertexts but do ride the same links, so an exact
    // "measured socket bytes" figure must include them.
    control_frames_sent: AtomicU64,
    control_frames_received: AtomicU64,
    control_bytes_sent: AtomicU64,
    control_bytes_received: AtomicU64,
    // Key-distribution traffic (KeyOffer/KeyNeed/KeyUpload/KeyAck): kept
    // separate from both data and control so the §III-C key-traffic
    // reduction is directly measurable per category.
    key_frames_sent: AtomicU64,
    key_frames_received: AtomicU64,
    key_bytes_sent: AtomicU64,
    key_bytes_received: AtomicU64,
}

impl TransferLedger {
    /// LWE ciphertexts scattered from the primary.
    pub fn lwe_sent(&self) -> u64 {
        self.lwe_sent.load(Ordering::Relaxed)
    }

    /// RLWE ciphertexts gathered back to the primary.
    pub fn rlwe_received(&self) -> u64 {
        self.rlwe_received.load(Ordering::Relaxed)
    }

    /// Bytes of LWE payload scattered from the primary.
    pub fn lwe_bytes_sent(&self) -> u64 {
        self.lwe_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of accumulator payload gathered back to the primary.
    pub fn rlwe_bytes_received(&self) -> u64 {
        self.rlwe_bytes_received.load(Ordering::Relaxed)
    }

    /// Records a primary → secondary scatter of `count` LWE ciphertexts
    /// totalling `bytes` on the wire.
    pub fn record_scatter(&self, count: u64, bytes: u64) {
        self.lwe_sent.fetch_add(count, Ordering::Relaxed);
        self.lwe_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a secondary → primary gather of `count` accumulator
    /// ciphertexts totalling `bytes` on the wire.
    pub fn record_gather(&self, count: u64, bytes: u64) {
        self.rlwe_received.fetch_add(count, Ordering::Relaxed);
        self.rlwe_bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Control frames (Hello/Ping/Error/Stats/…) sent to secondaries.
    pub fn control_frames_sent(&self) -> u64 {
        self.control_frames_sent.load(Ordering::Relaxed)
    }

    /// Control frames received from secondaries.
    pub fn control_frames_received(&self) -> u64 {
        self.control_frames_received.load(Ordering::Relaxed)
    }

    /// Bytes of control frames sent to secondaries.
    pub fn control_bytes_sent(&self) -> u64 {
        self.control_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of control frames received from secondaries.
    pub fn control_bytes_received(&self) -> u64 {
        self.control_bytes_received.load(Ordering::Relaxed)
    }

    /// Key-distribution frames (KeyOffer/KeyUpload/…) sent to secondaries.
    pub fn key_frames_sent(&self) -> u64 {
        self.key_frames_sent.load(Ordering::Relaxed)
    }

    /// Key-distribution frames received from secondaries.
    pub fn key_frames_received(&self) -> u64 {
        self.key_frames_received.load(Ordering::Relaxed)
    }

    /// Bytes of key-distribution frames sent to secondaries.
    pub fn key_bytes_sent(&self) -> u64 {
        self.key_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of key-distribution frames received from secondaries.
    pub fn key_bytes_received(&self) -> u64 {
        self.key_bytes_received.load(Ordering::Relaxed)
    }

    /// All bytes sent (LWE payload + control + key distribution).
    pub fn total_bytes_sent(&self) -> u64 {
        self.lwe_bytes_sent() + self.control_bytes_sent() + self.key_bytes_sent()
    }

    /// All bytes received (accumulator payload + control + key
    /// distribution).
    pub fn total_bytes_received(&self) -> u64 {
        self.rlwe_bytes_received() + self.control_bytes_received() + self.key_bytes_received()
    }

    /// Records one outbound key-distribution frame of `bytes` total wire
    /// size.
    pub fn record_key_sent(&self, bytes: u64) {
        self.key_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.key_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one inbound key-distribution frame of `bytes` total wire
    /// size.
    pub fn record_key_received(&self, bytes: u64) {
        self.key_frames_received.fetch_add(1, Ordering::Relaxed);
        self.key_bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one outbound control frame of `bytes` total wire size.
    pub fn record_control_sent(&self, bytes: u64) {
        self.control_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.control_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one inbound control frame of `bytes` total wire size.
    pub fn record_control_received(&self, bytes: u64) {
        self.control_frames_received.fetch_add(1, Ordering::Relaxed);
        self.control_bytes_received
            .fetch_add(bytes, Ordering::Relaxed);
    }
}
