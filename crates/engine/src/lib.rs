//! # pim-engine — deterministic discrete-event simulation core
//!
//! The shared substrate under `pim-sim` (the chip simulator) and
//! `pim-dram` (the LPDDR3 timing model). Both used to advance time
//! with hand-rolled loops and raw `f64` bookkeeping; this crate
//! factors the common machinery into one place:
//!
//! * [`SimTime`] — a finite, non-negative, totally ordered timestamp
//!   newtype (no NaN can enter the event queue),
//! * [`EventQueue`] — a calendar queue ordered by `(time, sequence
//!   id)`, so same-time events process in schedule order and every
//!   run is bit-reproducible (the `reference-queue` feature keeps the
//!   retired binary heap alongside it as a test oracle),
//! * [`Engine`] — the clock + queue + a registry of [`Component`]s
//!   that react to events and schedule new ones, on one thread: every
//!   simulation, however many chips it models, runs on one engine,
//! * [`SimRng`] — a seeded xoshiro256** generator, the sole sanctioned
//!   randomness source inside a simulation.
//!
//! # Example
//!
//! ```
//! use pim_engine::{Component, Engine, EngineCtx, Event, SimTime};
//!
//! /// A component that echoes each event 1 ns later, up to 3 times.
//! struct Echo {
//!     heard: u32,
//! }
//!
//! impl Component<&'static str> for Echo {
//!     fn on_event(
//!         &mut self,
//!         event: Event<&'static str>,
//!         ctx: &mut EngineCtx<'_, &'static str>,
//!     ) {
//!         self.heard += 1;
//!         if self.heard < 3 {
//!             ctx.schedule_in(1.0, event.target, event.payload);
//!         }
//!     }
//!     fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
//!         self
//!     }
//! }
//!
//! let mut engine = Engine::new(42);
//! let echo = engine.add_component(Echo { heard: 0 });
//! engine.schedule(SimTime::ZERO, echo, "hello");
//! engine.run_until_idle();
//! assert_eq!(engine.now(), SimTime::from_ns(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod graph;
mod queue;
mod rng;
mod time;
mod traffic;

pub use engine::{Component, Engine, EngineCtx};
pub use graph::{ClaimKind, TaskGraph};
pub use queue::{Event, EventQueue};
pub use rng::SimRng;
pub use time::SimTime;
pub use traffic::{ArrivalGen, TrafficModel};

/// The address of a registered [`Component`] within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub usize);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "component#{}", self.0)
    }
}
