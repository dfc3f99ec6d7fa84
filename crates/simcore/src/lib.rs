//! Discrete-event simulation substrate for the TailGuard reproduction.
//!
//! This crate provides the three building blocks every simulation experiment
//! in the workspace is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock
//!   with total ordering and saturating arithmetic,
//! * [`Scheduler`] — a deterministic future-event list (a binary heap plus
//!   FIFO lanes for events scheduled in time order, popped in one
//!   `(time, sequence)` order); the caller pops it and owns the run loop,
//! * [`SimRng`] — a seedable, splittable random-number generator so that every
//!   experiment is exactly reproducible from a single `u64` seed.
//!
//! # Example
//!
//! A minimal M/D/1 queue simulated to completion: the caller pops the
//! scheduler and owns the run loop.
//!
//! ```
//! use tailguard_simcore::{Scheduler, SimDuration, SimTime};
//!
//! enum Ev { Arrive(u32), Depart }
//!
//! let service = SimDuration::from_micros(500);
//! let mut events = Scheduler::new();
//! events.schedule_at(SimTime::ZERO, Ev::Arrive(1));
//! let (mut in_system, mut served) = (0, 0);
//! while let Some(next) = events.pop() {
//!     let now = next.at();
//!     match next.event {
//!         Ev::Arrive(n) => {
//!             if n < 10 {
//!                 events.schedule_in(now, SimDuration::from_millis(1), Ev::Arrive(n + 1));
//!             }
//!             in_system += 1;
//!             if in_system == 1 {
//!                 events.schedule_in(now, service, Ev::Depart);
//!             }
//!         }
//!         Ev::Depart => {
//!             served += 1;
//!             in_system -= 1;
//!             if in_system > 0 {
//!                 events.schedule_in(now, service, Ev::Depart);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(served, 10);
//! ```

mod event;
mod rng;
mod time;

pub use event::{Scheduled, Scheduler};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
