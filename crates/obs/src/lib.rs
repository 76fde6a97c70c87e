//! Lock-free observability substrate for the REMI workspace.
//!
//! Three small pieces, designed to sit underneath every other crate:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]) — plain structs
//!   of relaxed atomics. A [`Histogram`] is a fixed array of 64 log2 buckets
//!   plus exact count/sum and a true max, so recording is a handful of
//!   relaxed RMWs (no locks, no allocation) and two histograms merge by
//!   bucket-wise addition in any order.
//! * **[`Registry`]** — a name → instrument table that renders the
//!   Prometheus text exposition format. Instruments are either created
//!   through the registry or created standalone (e.g. inside `remi-pool`,
//!   which depends on nothing else) and registered later; both end up as
//!   `Arc`s, so the hot path never touches the registry lock.
//! * **[`Span`]** + **[`Clock`]** — a request span reads an injected
//!   monotonic clock ([`MonoClock`] in production, [`FakeClock`] in tests)
//!   and splits elapsed time into named child phases, so a describe request
//!   decomposes into parse / admission / cache / mine / write.
//! * **[`Recorder`]** — the flight recorder: a bounded lock-free ring of
//!   structured events (static names, typed fields, severity, channel)
//!   that subsystems emit into allocation-free; `/v1/debug/events` and
//!   the slow-request/500 log tails read it back.
//!
//! Everything is nanosecond-denominated `u64`. The crate has no
//! dependencies beyond the vendored `parking_lot` shim (registry interior
//! mutability only) and is safe code throughout.

#![forbid(unsafe_code)]

mod clock;
mod events;
mod metrics;
mod registry;
mod span;

pub use clock::{Clock, FakeClock, MonoClock};
pub use events::{
    Channel, EventId, EventRecord, EventSpec, FieldKind, FieldSpec, FieldValue, Recorder, Severity,
    MAX_EVENT_FIELDS,
};
pub use metrics::{
    bucket_index, bucket_lower_edge, bucket_upper_edge, Counter, Gauge, Histogram,
    HistogramSnapshot, BUCKETS,
};
pub use registry::{series, Registry};
pub use span::{Span, SpanReport};
