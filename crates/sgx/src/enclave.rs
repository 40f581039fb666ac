//! Enclave lifecycle, the trust boundary around protected state, and the
//! transition cost model.
//!
//! The simulation encodes the SGX programming model in the type system:
//! protected state of type `T` lives inside an [`Enclave<T>`] and can only be
//! reached through [`Enclave::ecall`], which checks the enclave status,
//! counts the transition and charges its simulated cost. Code outside the
//! closure passed to `ecall` can never obtain a reference to `T`, mirroring
//! the hardware guarantee that enclave memory is inaccessible to the host.

use crate::measurement::Measurement;
use cyclosa_crypto::hkdf;

/// Page size used for EPC accounting (SGX uses 4 KiB pages).
pub(crate) const PAGE_SIZE: usize = 4096;

// Cost model for enclave transitions and EPC paging, calibrated to
// published SGX measurements: an enclave transition (ecall or ocall) costs
// on the order of 8 µs, and an EPC page fault (swap through the SGX
// driver) costs tens of microseconds, which is why exceeding the ~93 MiB
// of usable EPC causes the "severe performance penalty" the paper cites.
// The CYCLOSA enclave is only 1.7 MB, so the deployment never pages.

/// Cost of entering the enclave (ns).
const ECALL_NS: u64 = 8_000;
/// Cost of leaving the enclave for an ocall (ns).
const OCALL_NS: u64 = 8_000;
/// Cost of servicing one EPC page fault (ns).
const PAGE_FAULT_NS: u64 = 25_000;
/// Usable EPC in bytes before paging starts.
const EPC_LIMIT_BYTES: usize = 93 * 1024 * 1024;
/// Per-byte cost of in-enclave processing (ns per byte), modelling the
/// MEE encryption overhead on memory traffic.
const PER_BYTE_NS: f64 = 0.25;

/// Simulated cost in nanoseconds of an ecall that touches `touched_bytes`
/// of enclave memory while the enclave currently holds `resident_bytes`
/// of protected data.
pub fn ecall_cost(touched_bytes: usize, resident_bytes: usize) -> u64 {
    let base = ECALL_NS as f64 + PER_BYTE_NS * touched_bytes as f64;
    base as u64 + paging_cost(touched_bytes, resident_bytes)
}

/// Simulated cost in nanoseconds of an ocall transferring
/// `transferred_bytes` out of the enclave.
pub fn ocall_cost(transferred_bytes: usize) -> u64 {
    (OCALL_NS as f64 + PER_BYTE_NS * transferred_bytes as f64) as u64
}

/// Expected paging cost: when the resident set exceeds the EPC limit,
/// each touched page misses with probability `1 - limit / resident`.
fn paging_cost(touched_bytes: usize, resident_bytes: usize) -> u64 {
    if resident_bytes <= EPC_LIMIT_BYTES || resident_bytes == 0 {
        return 0;
    }
    let miss_probability = 1.0 - EPC_LIMIT_BYTES as f64 / resident_bytes as f64;
    let touched_pages = touched_bytes.div_ceil(PAGE_SIZE) as f64;
    (touched_pages * miss_probability * PAGE_FAULT_NS as f64) as u64
}

/// Errors returned by enclave operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveError {
    /// An ecall was attempted before `initialize` was called.
    NotInitialized,
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::NotInitialized => write!(f, "enclave is not initialized"),
        }
    }
}

impl std::error::Error for EnclaveError {}

/// Counters describing the work an enclave has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionStats {
    /// Number of calls into the enclave.
    pub ecalls: u64,
    /// Number of calls out of the enclave.
    pub ocalls: u64,
    /// Total simulated time spent on transitions and paging, in ns.
    pub simulated_ns: u64,
    /// Current resident protected memory, in bytes.
    pub(crate) resident_bytes: usize,
    /// High-water mark of resident protected memory, in bytes.
    pub peak_resident_bytes: usize,
}

/// A simulated SGX platform (one physical machine with SGX support).
///
/// The platform owns the hardware root sealing key and the quoting key that
/// the (simulated) quoting enclave uses to sign quotes, and acts as the
/// factory for enclaves.
#[derive(Debug, Clone)]
pub struct Platform {
    platform_id: [u8; 16],
    root_seal_key: [u8; 32],
    quoting_key: [u8; 32],
}

impl Platform {
    /// Creates a platform whose keys are derived deterministically from a
    /// seed (each simulated machine uses a distinct seed).
    pub fn new(seed: u64) -> Self {
        let seed_bytes = seed.to_le_bytes();
        let root_seal_key = hkdf::derive_key(b"sgx-platform-seal", &seed_bytes, b"root seal key");
        let quoting_key = hkdf::derive_key(b"sgx-platform-quote", &seed_bytes, b"quoting key");
        Self {
            platform_id: hkdf::derive(b"sgx-platform-id", &seed_bytes, b"platform id"),
            root_seal_key,
            quoting_key,
        }
    }

    /// The platform's (public) identifier.
    pub(crate) fn platform_id(&self) -> [u8; 16] {
        self.platform_id
    }

    /// The key the quoting enclave uses to authenticate quotes. Shared with
    /// the attestation service at provisioning time (the EPID analogue).
    pub(crate) fn quoting_key(&self) -> [u8; 32] {
        self.quoting_key
    }

    /// Creates a new enclave holding `initial_state` as protected data.
    ///
    /// The returned enclave must be initialized before ecalls are
    /// accepted (a malicious host can
    /// simply never initialize it, which is one of the denial-of-service
    /// behaviours the paper acknowledges it cannot prevent).
    pub fn create_enclave<T>(&self, code_identity: &[u8], initial_state: T) -> Enclave<T> {
        let measurement = Measurement::from_code_identity(code_identity);
        let seal_key = hkdf::derive_key(
            &self.root_seal_key,
            measurement.as_bytes(),
            b"cyclosa sealing key v1",
        );
        Enclave {
            measurement,
            platform_id: self.platform_id,
            quoting_key: self.quoting_key,
            seal_key,
            initialized: false,
            stats: TransitionStats::default(),
            state: initial_state,
        }
    }
}

/// A simulated SGX enclave protecting a state value of type `T`.
#[derive(Debug)]
pub struct Enclave<T> {
    measurement: Measurement,
    platform_id: [u8; 16],
    quoting_key: [u8; 32],
    seal_key: [u8; 32],
    /// Whether `EINIT` has run: ecalls and ocalls are refused before.
    initialized: bool,
    stats: TransitionStats,
    state: T,
}

impl<T> Enclave<T> {
    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The hosting platform's identifier.
    pub(crate) fn platform_id(&self) -> [u8; 16] {
        self.platform_id
    }

    /// Transition statistics accumulated so far.
    pub fn stats(&self) -> TransitionStats {
        self.stats
    }

    /// The sealing key bound to this platform and measurement. Only the
    /// enclave itself (trusted code) should use it; it is exposed here for
    /// the sealing module and tests.
    pub(crate) fn seal_key(&self) -> [u8; 32] {
        self.seal_key
    }

    /// The platform quoting key (used by the attestation module).
    pub(crate) fn quoting_key(&self) -> [u8; 32] {
        self.quoting_key
    }

    /// Completes enclave initialization (the `EINIT` analogue).
    ///
    /// # Errors
    ///
    /// None: an enclave can always be initialized, and initializing it
    /// again changes nothing.
    pub fn initialize(&mut self) -> Result<(), EnclaveError> {
        self.initialized = true;
        Ok(())
    }

    /// Calls into the enclave: runs `body` with exclusive access to the
    /// protected state, charging the transition cost for an ecall touching
    /// `touched_bytes` of enclave memory.
    ///
    /// Returns the closure result together with the simulated cost in
    /// nanoseconds.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is not initialized.
    pub fn ecall<R>(
        &mut self,
        touched_bytes: usize,
        body: impl FnOnce(&mut T) -> R,
    ) -> Result<(R, u64), EnclaveError> {
        if !self.initialized {
            return Err(EnclaveError::NotInitialized);
        }
        let cost = ecall_cost(touched_bytes, self.stats.resident_bytes);
        self.stats.ecalls += 1;
        self.stats.simulated_ns += cost;
        let value = body(&mut self.state);
        Ok((value, cost))
    }

    /// Records a call out of the enclave transferring `transferred_bytes`
    /// (e.g. handing an encrypted message to the untrusted network stack)
    /// and returns its simulated cost in nanoseconds.
    pub fn ocall(&mut self, transferred_bytes: usize) -> Result<u64, EnclaveError> {
        if !self.initialized {
            return Err(EnclaveError::NotInitialized);
        }
        let cost = ocall_cost(transferred_bytes);
        self.stats.ocalls += 1;
        self.stats.simulated_ns += cost;
        Ok(cost)
    }

    /// Updates the EPC accounting to reflect the current size of the
    /// protected state. Trusted code calls this after growing or shrinking
    /// its in-enclave tables (e.g. the past-queries table).
    pub fn set_resident_bytes(&mut self, bytes: usize) {
        self.stats.resident_bytes = bytes;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Counter {
        value: u64,
    }

    fn make_enclave() -> Enclave<Counter> {
        let platform = Platform::new(42);
        platform.create_enclave(b"test-enclave", Counter::default())
    }

    #[test]
    fn ecall_requires_initialization() {
        let mut enclave = make_enclave();
        assert!(!enclave.initialized);
        assert_eq!(
            enclave.ecall(0, |c| c.value).unwrap_err(),
            EnclaveError::NotInitialized
        );
        enclave.initialize().unwrap();
        let (value, cost) = enclave
            .ecall(128, |c| {
                c.value += 1;
                c.value
            })
            .unwrap();
        assert_eq!(value, 1);
        assert!(cost >= ECALL_NS);
    }

    #[test]
    fn stats_track_transitions() {
        let mut enclave = make_enclave();
        enclave.initialize().unwrap();
        for _ in 0..5 {
            enclave.ecall(64, |c| c.value += 1).unwrap();
        }
        enclave.ocall(1024).unwrap();
        let stats = enclave.stats();
        assert_eq!(stats.ecalls, 5);
        assert_eq!(stats.ocalls, 1);
        assert!(stats.simulated_ns > 0);
    }

    #[test]
    fn paging_cost_kicks_in_above_epc_limit() {
        // CYCLOSA's 1.7 MB enclave: no paging.
        assert_eq!(paging_cost(4096, 1_700_000), 0);
        // Twice the EPC limit: about half the touched pages fault.
        let over = paging_cost(PAGE_SIZE * 100, EPC_LIMIT_BYTES * 2);
        let expected = (100.0 * 0.5 * PAGE_FAULT_NS as f64) as u64;
        let diff = over.abs_diff(expected);
        assert!(
            diff < PAGE_FAULT_NS,
            "paging cost {over} vs expected {expected}"
        );
    }

    #[test]
    fn resident_bytes_tracking_updates_peak() {
        let mut enclave = make_enclave();
        enclave.initialize().unwrap();
        enclave.set_resident_bytes(10_000);
        enclave.set_resident_bytes(5_000);
        assert_eq!(enclave.stats().resident_bytes, 5_000);
        assert_eq!(enclave.stats().peak_resident_bytes, 10_000);
    }

    #[test]
    fn platforms_have_distinct_identities_and_keys() {
        let a = Platform::new(1);
        let b = Platform::new(2);
        assert_ne!(a.platform_id(), b.platform_id());
        assert_ne!(a.quoting_key(), b.quoting_key());
        // Same seed reproduces the same platform.
        assert_eq!(Platform::new(1).platform_id(), a.platform_id());
    }

    #[test]
    fn same_code_identity_same_measurement_across_platforms() {
        let a = Platform::new(1).create_enclave(b"cyclosa", ());
        let b = Platform::new(2).create_enclave(b"cyclosa", ());
        assert_eq!(a.measurement(), b.measurement());
        // Seal keys are platform-bound, therefore different.
        assert_ne!(a.seal_key(), b.seal_key());
    }

    #[test]
    fn error_display() {
        assert!(EnclaveError::NotInitialized
            .to_string()
            .contains("initialized"));
    }
}
