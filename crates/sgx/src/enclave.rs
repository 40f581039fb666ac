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
pub const PAGE_SIZE: usize = 4096;

/// Cost model for enclave transitions and EPC paging.
///
/// Defaults are calibrated to published SGX measurements: an enclave
/// transition (ecall or ocall) costs on the order of 8 µs, and an EPC page
/// fault (swap through the SGX driver) costs tens of microseconds, which is
/// why exceeding the ~93 MiB of usable EPC causes the "severe performance
/// penalty" the paper cites. The CYCLOSA enclave is only 1.7 MB, so the
/// default deployment never pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of entering the enclave (ns).
    pub ecall_ns: u64,
    /// Cost of leaving the enclave for an ocall (ns).
    pub ocall_ns: u64,
    /// Cost of servicing one EPC page fault (ns).
    pub page_fault_ns: u64,
    /// Usable EPC in bytes before paging starts.
    pub epc_limit_bytes: usize,
    /// Per-byte cost of in-enclave processing (ns per byte), modelling the
    /// MEE encryption overhead on memory traffic.
    pub per_byte_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            ecall_ns: 8_000,
            ocall_ns: 8_000,
            page_fault_ns: 25_000,
            epc_limit_bytes: 93 * 1024 * 1024,
            per_byte_ns: 0.25,
        }
    }
}

impl CostModel {
    /// A cost model with no transition or paging costs, useful to isolate
    /// algorithmic costs in ablation benchmarks.
    pub fn free() -> Self {
        Self {
            ecall_ns: 0,
            ocall_ns: 0,
            page_fault_ns: 0,
            epc_limit_bytes: usize::MAX,
            per_byte_ns: 0.0,
        }
    }

    /// Simulated cost in nanoseconds of an ecall that touches
    /// `touched_bytes` of enclave memory while the enclave currently holds
    /// `resident_bytes` of protected data.
    pub fn ecall_cost(&self, touched_bytes: usize, resident_bytes: usize) -> u64 {
        let base = self.ecall_ns as f64 + self.per_byte_ns * touched_bytes as f64;
        base as u64 + self.paging_cost(touched_bytes, resident_bytes)
    }

    /// Simulated cost in nanoseconds of an ocall transferring
    /// `transferred_bytes` out of the enclave.
    pub fn ocall_cost(&self, transferred_bytes: usize) -> u64 {
        (self.ocall_ns as f64 + self.per_byte_ns * transferred_bytes as f64) as u64
    }

    /// Expected paging cost: when the resident set exceeds the EPC limit,
    /// each touched page misses with probability `1 - limit / resident`.
    pub fn paging_cost(&self, touched_bytes: usize, resident_bytes: usize) -> u64 {
        if resident_bytes <= self.epc_limit_bytes || resident_bytes == 0 {
            return 0;
        }
        let miss_probability = 1.0 - self.epc_limit_bytes as f64 / resident_bytes as f64;
        let touched_pages = touched_bytes.div_ceil(PAGE_SIZE) as f64;
        (touched_pages * miss_probability * self.page_fault_ns as f64) as u64
    }
}

/// Lifecycle status of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveStatus {
    /// Created but not yet initialized (no ecalls allowed).
    Created,
    /// Initialized and accepting ecalls.
    Initialized,
    /// Destroyed; all protected state has been discarded.
    Destroyed,
}

/// Errors returned by enclave operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveError {
    /// An ecall was attempted before `initialize` was called.
    NotInitialized,
    /// An operation was attempted on a destroyed enclave.
    Destroyed,
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::NotInitialized => write!(f, "enclave is not initialized"),
            EnclaveError::Destroyed => write!(f, "enclave has been destroyed"),
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
    pub resident_bytes: usize,
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
    cost: CostModel,
}

impl Platform {
    /// Creates a platform whose keys are derived deterministically from a
    /// seed (each simulated machine uses a distinct seed).
    pub fn new(seed: u64) -> Self {
        Self::with_cost_model(seed, CostModel::default())
    }

    /// Creates a platform with an explicit transition cost model.
    pub fn with_cost_model(seed: u64, cost: CostModel) -> Self {
        let seed_bytes = seed.to_le_bytes();
        let root_seal_key = hkdf::derive_key(b"sgx-platform-seal", &seed_bytes, b"root seal key");
        let quoting_key = hkdf::derive_key(b"sgx-platform-quote", &seed_bytes, b"quoting key");
        let id_full = hkdf::derive(b"sgx-platform-id", &seed_bytes, b"platform id", 16);
        let mut platform_id = [0u8; 16];
        platform_id.copy_from_slice(&id_full);
        Self {
            platform_id,
            root_seal_key,
            quoting_key,
            cost,
        }
    }

    /// The platform's (public) identifier.
    pub fn platform_id(&self) -> [u8; 16] {
        self.platform_id
    }

    /// The key the quoting enclave uses to authenticate quotes. Shared with
    /// the attestation service at provisioning time (the EPID analogue).
    pub fn quoting_key(&self) -> [u8; 32] {
        self.quoting_key
    }

    /// Creates a new enclave holding `initial_state` as protected data.
    ///
    /// The returned enclave is in the [`EnclaveStatus::Created`] state and
    /// must be initialized before ecalls are accepted (a malicious host can
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
            cost: self.cost,
            status: EnclaveStatus::Created,
            stats: TransitionStats::default(),
            state: Some(initial_state),
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
    cost: CostModel,
    status: EnclaveStatus,
    stats: TransitionStats,
    state: Option<T>,
}

impl<T> Enclave<T> {
    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The hosting platform's identifier.
    pub fn platform_id(&self) -> [u8; 16] {
        self.platform_id
    }

    /// Current lifecycle status.
    pub fn status(&self) -> EnclaveStatus {
        self.status
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
    /// Fails if the enclave has already been destroyed.
    pub fn initialize(&mut self) -> Result<(), EnclaveError> {
        match self.status {
            EnclaveStatus::Destroyed => Err(EnclaveError::Destroyed),
            _ => {
                self.status = EnclaveStatus::Initialized;
                Ok(())
            }
        }
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
    /// Fails if the enclave is not initialized or destroyed.
    pub fn ecall<R>(
        &mut self,
        touched_bytes: usize,
        body: impl FnOnce(&mut T) -> R,
    ) -> Result<(R, u64), EnclaveError> {
        match self.status {
            EnclaveStatus::Created => return Err(EnclaveError::NotInitialized),
            EnclaveStatus::Destroyed => return Err(EnclaveError::Destroyed),
            EnclaveStatus::Initialized => {}
        }
        let cost = self
            .cost
            .ecall_cost(touched_bytes, self.stats.resident_bytes);
        self.stats.ecalls += 1;
        self.stats.simulated_ns += cost;
        let state = self
            .state
            .as_mut()
            .expect("state present while initialized");
        let value = body(state);
        Ok((value, cost))
    }

    /// Records a call out of the enclave transferring `transferred_bytes`
    /// (e.g. handing an encrypted message to the untrusted network stack)
    /// and returns its simulated cost in nanoseconds.
    pub fn ocall(&mut self, transferred_bytes: usize) -> Result<u64, EnclaveError> {
        match self.status {
            EnclaveStatus::Created => return Err(EnclaveError::NotInitialized),
            EnclaveStatus::Destroyed => return Err(EnclaveError::Destroyed),
            EnclaveStatus::Initialized => {}
        }
        let cost = self.cost.ocall_cost(transferred_bytes);
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

    /// Destroys the enclave, dropping all protected state.
    pub fn destroy(&mut self) {
        self.status = EnclaveStatus::Destroyed;
        self.state = None;
        self.stats.resident_bytes = 0;
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
        assert_eq!(enclave.status(), EnclaveStatus::Created);
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
        assert!(cost >= CostModel::default().ecall_ns);
    }

    #[test]
    fn destroyed_enclave_rejects_everything() {
        let mut enclave = make_enclave();
        enclave.initialize().unwrap();
        enclave.destroy();
        assert_eq!(enclave.status(), EnclaveStatus::Destroyed);
        assert_eq!(
            enclave.ecall(0, |c| c.value).unwrap_err(),
            EnclaveError::Destroyed
        );
        assert_eq!(enclave.ocall(0).unwrap_err(), EnclaveError::Destroyed);
        assert_eq!(enclave.initialize().unwrap_err(), EnclaveError::Destroyed);
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
        let cost = CostModel::default();
        // CYCLOSA's 1.7 MB enclave: no paging.
        assert_eq!(cost.paging_cost(4096, 1_700_000), 0);
        // Twice the EPC limit: about half the touched pages fault.
        let over = cost.paging_cost(PAGE_SIZE * 100, cost.epc_limit_bytes * 2);
        let expected = (100.0 * 0.5 * cost.page_fault_ns as f64) as u64;
        let diff = over.abs_diff(expected);
        assert!(
            diff < cost.page_fault_ns,
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
    fn free_cost_model_charges_nothing() {
        let platform = Platform::with_cost_model(7, CostModel::free());
        let mut enclave = platform.create_enclave(b"x", Counter::default());
        enclave.initialize().unwrap();
        let (_, cost) = enclave.ecall(1 << 20, |c| c.value).unwrap();
        assert_eq!(cost, 0);
    }

    #[test]
    fn error_display() {
        assert!(EnclaveError::NotInitialized
            .to_string()
            .contains("initialized"));
        assert!(EnclaveError::Destroyed.to_string().contains("destroyed"));
    }
}
