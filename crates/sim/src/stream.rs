//! CUDA-style streams and events.
//!
//! A [`Stream`] is a FIFO queue of device work: operations enqueued on the
//! same stream execute in order, back to back; operations on different
//! streams overlap freely. An [`Event`] marks the completion time of one
//! enqueued operation and is used to express cross-stream dependencies, the
//! same way `cudaEventRecord`/`cudaStreamWaitEvent` are used by the real
//! Capuchin implementation (paper §5.4).
//!
//! Because every operation's duration is known analytically at enqueue time,
//! the simulation resolves each enqueue immediately: `enqueue` returns the
//! operation's start and end times and never blocks.

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Time};

/// Identifies one of the device's hardware queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// The single compute stream executing kernels.
    Compute,
    /// Device-to-host copy stream (swap-out direction).
    CopyOut,
    /// Host-to-device copy stream (swap-in direction).
    CopyIn,
}

impl StreamKind {
    /// All stream kinds, in display order.
    pub const ALL: [StreamKind; 3] = [StreamKind::Compute, StreamKind::CopyOut, StreamKind::CopyIn];
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StreamKind::Compute => "compute",
            StreamKind::CopyOut => "copy-out",
            StreamKind::CopyIn => "copy-in",
        };
        f.write_str(s)
    }
}

/// Completion marker for one enqueued operation.
///
/// An event is resolved at creation: [`Event::time`] is the simulated instant
/// the associated operation finishes. Waiting on an event simply means using
/// its time as a lower bound for a later operation's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Event {
    time: Time,
}

impl Event {
    /// An event that is already complete at the simulation epoch.
    pub const COMPLETED: Event = Event { time: Time::ZERO };

    /// Creates an event that completes at `time`.
    pub fn at(time: Time) -> Event {
        Event { time }
    }

    /// The instant this event completes.
    pub fn time(self) -> Time {
        self.time
    }

    /// Combines two events into one that completes when both have.
    pub fn join(self, other: Event) -> Event {
        Event {
            time: self.time.max(other.time),
        }
    }
}

/// Result of enqueuing one operation on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enqueued {
    /// When the operation starts executing on the device.
    pub start: Time,
    /// When the operation finishes; equal to `done.time()`.
    pub end: Time,
    /// Completion event, usable as a dependency for later operations.
    pub done: Event,
}

/// A FIFO device queue.
///
/// # Examples
///
/// ```
/// use capuchin_sim::{Duration, Event, Stream, StreamKind, Time};
///
/// let mut s = Stream::new(StreamKind::Compute);
/// let a = s.enqueue(Event::COMPLETED, Duration::from_micros(10));
/// let b = s.enqueue(Event::COMPLETED, Duration::from_micros(5));
/// // FIFO: b starts only when a ends.
/// assert_eq!(b.start, a.end);
/// assert_eq!(s.busy_until(), Time::from_micros(15));
/// ```
#[derive(Debug, Clone)]
pub struct Stream {
    kind: StreamKind,
    busy_until: Time,
    busy_total: Duration,
    ops_enqueued: u64,
}

impl Stream {
    /// Creates an idle stream.
    pub fn new(kind: StreamKind) -> Stream {
        Stream {
            kind,
            busy_until: Time::ZERO,
            busy_total: Duration::ZERO,
            ops_enqueued: 0,
        }
    }

    /// Which hardware queue this is.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// The instant the last enqueued operation finishes.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Total device-busy time accumulated on this stream.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Number of operations enqueued so far.
    pub fn ops_enqueued(&self) -> u64 {
        self.ops_enqueued
    }

    /// Enqueues an operation that may start once `after` completes and the
    /// stream is free, and runs for `dur`.
    pub fn enqueue(&mut self, after: Event, dur: Duration) -> Enqueued {
        self.enqueue_at(after.time(), dur)
    }

    /// Enqueues an operation with an explicit earliest start time.
    pub fn enqueue_at(&mut self, earliest: Time, dur: Duration) -> Enqueued {
        let start = earliest.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_total += dur;
        self.ops_enqueued += 1;
        Enqueued {
            start,
            end,
            done: Event::at(end),
        }
    }

    /// Blocks the stream until `t` (models a `cudaStreamWaitEvent` on an
    /// event completing at `t`). Later work cannot start before `t`.
    pub fn wait_until(&mut self, t: Time) {
        self.busy_until = self.busy_until.max(t);
    }

    /// Resets the stream to idle at the epoch, clearing statistics.
    pub fn reset(&mut self) {
        self.busy_until = Time::ZERO;
        self.busy_total = Duration::ZERO;
        self.ops_enqueued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut s = Stream::new(StreamKind::CopyOut);
        let a = s.enqueue(Event::COMPLETED, Duration::from_micros(7));
        let b = s.enqueue(Event::COMPLETED, Duration::from_micros(3));
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(s.busy_total(), Duration::from_micros(10));
        assert_eq!(s.ops_enqueued(), 2);
    }

    #[test]
    fn dependency_delays_start() {
        let mut s = Stream::new(StreamKind::Compute);
        let dep = Event::at(Time::from_micros(100));
        let op = s.enqueue(dep, Duration::from_micros(1));
        assert_eq!(op.start, Time::from_micros(100));
        assert_eq!(op.end, Time::from_micros(101));
    }

    #[test]
    fn idle_gap_not_counted_as_busy() {
        let mut s = Stream::new(StreamKind::Compute);
        s.enqueue(Event::at(Time::from_micros(50)), Duration::from_micros(2));
        assert_eq!(s.busy_total(), Duration::from_micros(2));
        assert_eq!(s.busy_until(), Time::from_micros(52));
    }

    #[test]
    fn wait_until_blocks_later_work() {
        let mut s = Stream::new(StreamKind::Compute);
        s.wait_until(Time::from_micros(30));
        let op = s.enqueue(Event::COMPLETED, Duration::from_micros(1));
        assert_eq!(op.start, Time::from_micros(30));
    }

    #[test]
    fn event_join_takes_later() {
        let a = Event::at(Time::from_micros(4));
        let b = Event::at(Time::from_micros(9));
        assert_eq!(a.join(b).time(), Time::from_micros(9));
    }

    #[test]
    fn reset_clears_state() {
        let mut s = Stream::new(StreamKind::CopyIn);
        s.enqueue(Event::COMPLETED, Duration::from_micros(5));
        s.reset();
        assert_eq!(s.busy_until(), Time::ZERO);
        assert_eq!(s.busy_total(), Duration::ZERO);
        assert_eq!(s.ops_enqueued(), 0);
    }
}
