//! The TCP data plane: real HTTP/1.1 framing between [`SwiftClient`] and
//! the proxy tier.
//!
//! Until this module existed, proxy/object-server/storlet hops were
//! in-process calls — the reliability substrate (chaos, retries, breakers,
//! deadlines, hedging, tracing) had never met the failure modes that
//! dominate production object stores: connection resets, half-closed
//! sockets, partial frames, slow peers. The net module closes that gap
//! without changing a single request semantic:
//!
//! * [`wire`] — the HTTP/1.1 codec over the existing `Request`/`Response`
//!   types; every `x-scoop-*` header crosses byte-identically.
//! * [`server`] — accept loop in front of the cluster's router, starting a
//!   worker per live connection up to a cap, with keep-alive, slowloris
//!   guarding, and `Deadline`-derived socket windows.
//! * [`pool`] — the client transport: one `send` for every method and
//!   target, checkout/checkin, idle reaping, keep-alive reuse, and the
//!   wire→taxonomy error mapping.
//! * [`chaos`] — wire-level fault application (RST, partial+stall,
//!   slowloris, garbage frames, half-close) at the socket boundary, driven
//!   by the cluster's [`FaultInjector`].
//!
//! [`SwiftClient`]: crate::swift::SwiftClient
//! [`FaultInjector`]: crate::fault::FaultInjector

pub mod chaos;
pub mod pool;
pub mod server;
pub mod wire;

pub use pool::{HttpPool, PoolConfig, PoolSnapshot};
pub use server::{NetHandle, NetOptions, NetServer};
