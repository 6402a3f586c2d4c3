//! # mapro-packet — concrete packets and traffic generation
//!
//! The measurement substrate's traffic side: wire-format frames
//! (`headers`), the binding between catalog attributes and header fields
//! (`bind`), and deterministic trace generation (`trace`) matching the
//! paper's benchmark configuration (64-byte packets, weighted/Zipf flow
//! mixes, fixed seeds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bind;
pub(crate) mod headers;
pub(crate) mod trace;

pub use bind::{u64_to_mac, Binding};
pub use headers::{ipv4, ipv4_to_string, Frame, ParseError, MIN_FRAME};
pub use trace::{generate, FlowSpec, Popularity, Trace, TraceSpec};
