//! Discrete-time simulator for the non-blocking datacenter switch fabric.
//!
//! The paper abstracts the datacenter network as one `m × m` non-blocking
//! switch: `m` unit-capacity ingress ports, `m` unit-capacity egress ports,
//! instantaneous internal transfer. A feasible per-slot schedule is a
//! *matching* between ingresses and egresses.
//!
//! * [`Demand`] is one coflow's demand: its nonzero flows in row-major
//!   order, what every instance holds;
//! * [`SparseDemand`] holds remaining demand over each coflow's nonzero
//!   port pairs — what the executor and the replay check drain, and what
//!   the engine's policies read by entry index;
//! * [`ScheduleTrace`] is the one schedule format: a list of [`Run`]s,
//!   each a matching held for `duration` slots, whose every [`Transfer`]
//!   `(ingress, egress, coflow)` moves one unit in each slot of the run;
//! * [`FaultSim`] is the one executor: it holds matchings (a matching held
//!   for `q` slots, each pair serving a priority list of coflows — the
//!   vehicle for grouping and backfilling) and replays planned traces
//!   under a [`FaultPlan`] (the empty plan for a clean run), run-length,
//!   against the plan compiled once into a [`FaultIndex`], and records
//!   exact completion slots and the executed trace as maximal stretches
//!   of identical slots;
//! * [`validate_trace`] is the one replay check: it replays a recorded
//!   trace against the original instance and the fault plan, run by run,
//!   and re-derives completion times independently;
//! * [`trace_stats`] measures fabric and per-port utilization;
//! * [`record_flights`] derives the bounded per-coflow flight-recorder
//!   event stream (release, first service, preemption, progress,
//!   fault-blocked service, completion) and per-port utilization series
//!   that the `coflow` diagnostics layer joins with the LP relaxation;
//! * [`render_timeline`] / [`render_svg_heatmap`] render text Gantt charts
//!   (with a collision-aware glyph legend) and SVG port heatmaps.

// Library code must justify every panic: unwraps/expects surface as clippy
// warnings (tests and benches are exempt via the cfg gate).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod demand;
pub mod fault;
pub mod recorder;
pub mod render;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod validate;

pub use demand::{Demand, DemandError, DemandView, EntryMemo, PortLoads, SparseDemand};
pub use fault::{
    AdversarialConfig, BlockedRun, BlockedUnits, FaultEvent, FaultIndex, FaultPlan, FaultSim,
    SimError, SlotOutcome,
};
pub use recorder::{
    record_flights, CoflowFlight, FlightEvent, FlightRecorder, PortSeries, RecorderConfig,
};
pub use render::{render_legend, render_svg_heatmap, render_timeline};
pub use snapshot::{FaultSimState, SnapshotError};
pub use stats::{trace_stats, TraceStats};
pub use trace::{Run, ScheduleTrace, Transfer};
pub use validate::{validate_trace, ValidationError};
