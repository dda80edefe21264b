//! Swap data-integrity layer: per-slot checksums, quarantine and tier
//! retirement policy (DESIGN.md §14).
//!
//! Real mobile flash and zram do not guarantee that a swapped page comes
//! back byte-for-byte: media wear and compressed-pool corruption return
//! *wrong* bytes with a successful completion status. The integrity layer
//! closes the loop end to end:
//!
//! * every slot store computes an FNV-1a checksum ([`slot_checksum`]) over
//!   the stored copy's identity token; a silently-corrupted store records a
//!   token that no longer matches,
//! * every fault-in, every zram→flash writeback (verify-before-retire) and
//!   the background scrubber recompute and compare — a mismatch is a
//!   *detection*, and detection is a deterministic comparison, never a
//!   second random draw,
//! * detections feed the recovery ladder in
//!   [`mm`](crate::mm::MemoryManager): corrupt file page →
//!   discard-and-refault; corrupt anon page → SIGBUS with
//!   conservation-preserving accounting; each detected slot → quarantine
//!   (permanently removed from the tier's capacity); quarantine saturation
//!   ([`IntegrityConfig::quarantine_threshold`]) → runtime tier retirement
//!   (a zram front falls back to flash-only mid-run; a retired flash back
//!   tier puts the device in degraded mode — no further swap stores).
//!
//! The layer is **off by default** and completely invisible when off: no
//! checksum is computed, no draw is consumed, no event is emitted — an
//! integrity-off run is bit-identical to a build that predates this module
//! (the golden-trace gate relies on this).

use serde::{Deserialize, Serialize};

/// Knobs for the integrity layer; the core crate's `DeviceConfig` carries
/// one in its `integrity` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Master switch. Off (the default) skips every checksum, draw and
    /// event — bit-identical to a build without the integrity layer.
    pub enabled: bool,
    /// Quarantined slots a tier tolerates before it is retired at runtime
    /// (front tier: fall back to flash-only; back tier: device degraded
    /// mode).
    pub quarantine_threshold: u32,
    /// Cold slots the background scrubber verifies per scrub pass. Zero
    /// disables the scrubber (detection then happens at fault-in and
    /// writeback only).
    pub scrub_batch_pages: u32,
    /// Reclaim ticks between scrub passes.
    pub scrub_interval_ticks: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            enabled: false,
            quarantine_threshold: 16,
            scrub_batch_pages: 64,
            scrub_interval_ticks: 4,
        }
    }
}

impl IntegrityConfig {
    /// The standard armed configuration: checksums on with the default
    /// quarantine and scrubber policy.
    pub fn checked() -> Self {
        IntegrityConfig { enabled: true, ..IntegrityConfig::default() }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.quarantine_threshold == 0 {
            return Err("integrity quarantine threshold must be at least 1 slot".into());
        }
        if self.scrub_interval_ticks == 0 {
            return Err("integrity scrub interval must be at least 1 tick".into());
        }
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The token a silent corruption flips into the stored copy: the recomputed
/// checksum can never equal the stored one, so verification detects every
/// injected corruption and nothing else (provably zero false positives).
pub const CORRUPTION_FLIP: u64 = 0xBAD0_DA7A_0000_0001;

/// FNV-1a checksum over a stored slot's identity token `(pid, page index,
/// store sequence)`. The sequence number distinguishes successive stores of
/// the same page, so a stale verify can never alias a fresh store.
pub fn slot_checksum(pid: u32, index: u64, seq: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in [pid as u64, index, seq] {
        for byte in chunk.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let config = IntegrityConfig::default();
        assert!(!config.enabled);
        assert!(config.validate().is_ok());
        assert!(IntegrityConfig::checked().enabled);
        assert!(IntegrityConfig::checked().validate().is_ok());
    }

    #[test]
    fn validation_only_bites_when_enabled() {
        let off = IntegrityConfig { quarantine_threshold: 0, ..IntegrityConfig::default() };
        assert!(off.validate().is_ok(), "disabled configs are never rejected");
        let on = IntegrityConfig { quarantine_threshold: 0, ..IntegrityConfig::checked() };
        assert!(on.validate().is_err());
        let on = IntegrityConfig { scrub_interval_ticks: 0, ..IntegrityConfig::checked() };
        assert!(on.validate().is_err());
        // A zero scrub batch is legal: it just turns the scrubber off.
        let on = IntegrityConfig { scrub_batch_pages: 0, ..IntegrityConfig::checked() };
        assert!(on.validate().is_ok());
    }

    #[test]
    fn checksums_are_stable_distinct_and_corruption_flips_them() {
        assert_eq!(slot_checksum(1, 2, 3), slot_checksum(1, 2, 3));
        assert_ne!(slot_checksum(1, 2, 3), slot_checksum(1, 2, 4));
        assert_ne!(slot_checksum(1, 2, 3), slot_checksum(1, 3, 3));
        assert_ne!(slot_checksum(2, 2, 3), slot_checksum(1, 2, 3));
        let clean = slot_checksum(7, 42, 9);
        assert_ne!(clean ^ CORRUPTION_FLIP, clean, "a corrupted store can never verify");
    }
}
