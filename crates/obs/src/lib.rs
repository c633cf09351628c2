//! # spdkfac-obs
//!
//! Dependency-free instrumentation for the SPD-KFAC reproduction. The
//! paper's entire argument is *timeline arithmetic* — SPD-KFAC wins because
//! factor communication hides behind FF&BP and inversions are balanced
//! (Fig. 1/4/9) — so the real trainers must be able to *show* their
//! timeline, not just the simulator. This crate provides:
//!
//! - [`Span`] / [`Phase`]: one timeline slice, tagged with the paper's task
//!   categories. The simulator and the real trainers share this type, so a
//!   measured and a simulated timeline are directly comparable.
//! - [`Recorder`]: lock-cheap span recording. Each *track* (one per rank
//!   compute stream, one per rank communication thread) owns a private ring
//!   buffer behind its own mutex, so worker threads never contend. Spans are
//!   opened with RAII [`SpanGuard`]s against a shared monotonic epoch.
//! - [`MetricsRegistry`]: counters, gauges and fixed-bucket histograms with
//!   a typed [`MetricsSnapshot`] API.
//! - Exporters: [`chrome_trace`] (Chrome Tracing / Perfetto JSON, the one
//!   serializer used by both `sim::trace` and the real trainers),
//!   [`summary::render_summary`] (one-screen human table), and CSV rows
//!   ([`IterationBreakdown::csv_row`]) compatible with `bench::experiments`.
//! - [`IterationBreakdown`]: the Fig. 2 / Fig. 9 per-category attribution,
//!   computable from a simulated schedule (`spdkfac_sim::report`) or from a
//!   live [`Recorder`] via [`IterationBreakdown::from_recorder`].
//! - [`TrackLayout`]: the one statement of what every track is — its row
//!   name, its [`TrackKind`] and the rank that owns it — read alike by the
//!   Chrome trace, the summary and the causal / critical-path analysis.
//!
//! Everything here renders to strings and files (traces, reports, per-rank
//! trace files and post-mortem dumps); the crate opens no sockets. A
//! multi-process run is merged after it ends: each rank writes its
//! document ([`flight`]) and [`collect::align`] puts the files on one
//! clock.
//!
//! # Example
//!
//! ```
//! use spdkfac_obs::{Phase, Recorder};
//!
//! let rec = Recorder::new(2); // track 0 = compute, track 1 = comm
//! {
//!     let _g = rec.span(0, Phase::FfBp);
//!     // ... forward + backward ...
//! }
//! let spans = rec.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].phase, Phase::FfBp);
//! ```

pub mod breakdown;
pub mod causal;
pub mod collect;
pub mod critical;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod recorder;
pub mod ring;
pub mod summary;
pub mod table;
pub mod trace;

pub use breakdown::{attribute, IterationBreakdown};
pub use causal::CausalGraph;
pub use critical::{CriticalReport, RankAttribution};
pub use json::{escape_json, parse_json, validate_json, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use phase::Phase;
pub use recorder::{CollEdge, FlushCursor, Recorder, Span, SpanGuard, SpanMeta};
pub use table::Table;
pub use trace::{chrome_trace, chrome_trace_with_flows, FlowArrow, TrackKind, TrackLayout};
