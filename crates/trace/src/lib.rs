//! Structured tracing for the simulator: the observability layer.
//!
//! The paper's Discussion paragraphs (§2.3.3, §2.3.4) make quantitative
//! claims — message complexity per commit, round latency under faults,
//! cross-shard coordination cost — that `NetStats` counters alone cannot
//! explain: a counter says *how many*, never *why* or *when*. This crate
//! adds the missing causal record: a bounded, overwriting ring of
//! [`TraceEvent`]s emitted from the simulator's event loop, the six
//! consensus protocols, and the execution/sharding layers, feeding three
//! consumers:
//!
//! 1. a [`MetricsRegistry`] of per-protocol counters and log-scale
//!    latency histograms (round latency, commit latency, messages per
//!    commit),
//! 2. a Chrome `trace_event` JSON exporter ([`chrome`]) so any seeded
//!    run can be opened in `about:tracing` / Perfetto,
//! 3. a human-readable post-mortem dump ([`postmortem`]) written
//!    automatically when a chaos invariant trips.
//!
//! # Design constraints
//!
//! The simulator's hot path processes ~10M events/s and its golden-trace
//! tests pin delivery order bit-for-bit, so tracing must be *pure
//! observation*: no RNG draws, no allocation on the disabled path, no
//! effect on event scheduling. The disabled path is one guard:
//! [`enabled`] is an `#[inline]` thread-local flag check, and [`emit`]
//! takes a closure so the event value is never even constructed unless a
//! sink is installed (tracing is **off by default** — nothing is recorded
//! until [`install`] is called).
//!
//! The sink is thread-local because the simulator is single-threaded and
//! deterministic; independent simulations on different threads get
//! independent sinks for free.
//!
//! # Example
//!
//! ```
//! use pbc_trace::{TraceEvent, TraceSink};
//!
//! // Off by default: this emission is dropped (and never constructed).
//! pbc_trace::emit(1, || unreachable!("no sink installed"));
//!
//! // Install a bounded sink, run the workload, then take it back out.
//! pbc_trace::install(TraceSink::new(1024));
//! pbc_trace::emit(5, || TraceEvent::Commit { proto: "pbft", node: 0, seq: 0, digest: 42 });
//! pbc_trace::emit(9, || TraceEvent::Commit { proto: "pbft", node: 1, seq: 0, digest: 42 });
//! let sink = pbc_trace::uninstall().expect("sink was installed");
//!
//! assert_eq!(sink.total(), 2);
//! assert_eq!(sink.metrics().proto("pbft").expect("pbft traced").commits, 2);
//! // Export the window for chrome://tracing, or render it as text:
//! let json = pbc_trace::chrome::export(&sink.records());
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod postmortem;
pub mod sink;

pub use event::{TraceEvent, TraceRecord};
pub use metrics::{Histogram, MetricsRegistry, ProtoMetrics};
pub use sink::TraceSink;

use std::cell::{Cell, RefCell};

thread_local! {
    /// Fast-path flag mirrored from `TL_SINK.is_some()`: one thread-local
    /// `Cell` read on the hot path instead of a `RefCell` borrow.
    static TL_ON: Cell<bool> = const { Cell::new(false) };
    static TL_SINK: RefCell<Option<TraceSink>> = const { RefCell::new(None) };
}

/// True if a sink is installed on this thread. This is the hot-path
/// guard: a single inlined thread-local flag read, checked before any
/// event is constructed.
#[inline]
pub fn enabled() -> bool {
    TL_ON.with(|c| c.get())
}

/// Installs `sink` as this thread's trace sink, enabling tracing.
/// Replaces (and drops) any previously installed sink.
pub fn install(sink: TraceSink) {
    TL_SINK.with(|s| *s.borrow_mut() = Some(sink));
    TL_ON.with(|c| c.set(true));
}

/// Removes and returns this thread's sink, disabling tracing. Returns
/// `None` if tracing was not enabled.
pub fn uninstall() -> Option<TraceSink> {
    TL_ON.with(|c| c.set(false));
    TL_SINK.with(|s| s.borrow_mut().take())
}

/// Records one event at logical time `at`. The closure is only invoked
/// when a sink is installed, so on the disabled path this costs a single
/// inlined flag check and no allocation or field packing.
#[inline]
pub fn emit(at: u64, f: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    TL_SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.push(at, f());
        }
    });
}

/// Clones the most recent `n` records from the installed sink (oldest
/// first), or an empty vector if tracing is disabled. This is the
/// last-N-events window nemesis violation reports embed.
pub fn recent(n: usize) -> Vec<TraceRecord> {
    TL_SINK.with(|s| {
        s.borrow().as_ref().map_or_else(Vec::new, |sink| {
            let records = sink.records();
            let skip = records.len().saturating_sub(n);
            records[skip..].to_vec()
        })
    })
}

/// Clones the installed sink's metrics registry, or `None` if tracing is
/// disabled.
pub fn metrics_snapshot() -> Option<MetricsRegistry> {
    TL_SINK.with(|s| s.borrow().as_ref().map(|sink| sink.metrics().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises sink-owning tests: they all mutate the same
    /// thread-local and cargo may run them on one thread pool.
    fn with_sink<R>(cap: usize, f: impl FnOnce() -> R) -> (R, TraceSink) {
        install(TraceSink::new(cap));
        let r = f();
        let sink = uninstall().expect("installed above");
        (r, sink)
    }

    #[test]
    fn disabled_by_default_and_closure_not_called() {
        let _ = uninstall();
        assert!(!enabled());
        emit(1, || panic!("closure must not run while disabled"));
    }

    #[test]
    fn install_enables_and_uninstall_returns_events() {
        let ((), sink) = with_sink(16, || {
            assert!(enabled());
            emit(3, || TraceEvent::TimerFire { node: 1, id: 7 });
        });
        assert!(!enabled());
        assert_eq!(sink.total(), 1);
        assert_eq!(sink.records()[0].at, 3);
    }

    #[test]
    fn recent_returns_last_n_oldest_first() {
        let (window, _) = with_sink(64, || {
            for i in 0..10u64 {
                emit(i, || TraceEvent::TimerFire { node: 0, id: i });
            }
            recent(3)
        });
        let ats: Vec<u64> = window.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![7, 8, 9]);
    }

    #[test]
    fn metrics_snapshot_sees_live_counts() {
        let (snap, _) = with_sink(8, || {
            emit(1, || TraceEvent::Commit { proto: "raft", node: 0, seq: 0, digest: 1 });
            metrics_snapshot().expect("enabled")
        });
        assert_eq!(snap.proto("raft").expect("raft traced").commits, 1);
    }
}
