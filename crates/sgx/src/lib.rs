//! A software simulation of Intel SGX trusted execution environments.
//!
//! The paper relies on SGX for three things (paper §II-B, §IV, §V-D):
//!
//! 1. **Confidentiality and integrity of relayed queries** — components that
//!    handle *other users'* queries run inside an enclave; the host of a
//!    relay node never sees them in plaintext.
//! 2. **Remote attestation** — nodes only exchange keys with genuine
//!    enclaves running a known CYCLOSA build, verified through quotes and
//!    the Intel Attestation Service (IAS).
//! 3. **A performance envelope** — enclave transitions (ecalls/ocalls) and
//!    EPC paging beyond the 128 MB limit have measurable costs that shape
//!    the throughput results (Fig. 8c).
//!
//! Real SGX hardware is not available in this reproduction environment, so
//! this crate provides a faithful *functional and cost* model of the pieces
//! CYCLOSA uses:
//!
//! * [`measurement`] — enclave identity (`MRENCLAVE`/`MRSIGNER` analogues).
//! * [`enclave`] — enclave lifecycle, a typed trust boundary around
//!   protected state, ecall/ocall accounting, EPC usage tracking and a
//!   calibrated cost model.
//! * [`sealing`] — sealing keys bound to platform and measurement.
//! * [`attestation`] — quotes, a simulated attestation service with a
//!   registry of known-good measurements, and helpers to bind quotes to the
//!   X25519 handshake of `cyclosa-crypto`.
//!
//! The trust boundary is enforced by the Rust type system rather than by
//! hardware: protected state can only be reached through [`enclave::Enclave::ecall`],
//! which records the transition and charges its cost. This preserves the
//! *shape* of the paper's security argument (what code can see which data)
//! and of its performance results, which is what the reproduction needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod enclave;
pub mod measurement;
pub mod sealing;
