//! Lightweight nested spans.
//!
//! A span is opened with [`crate::Registry::span`] and closed when the
//! returned [`SpanGuard`] drops. Nesting is tracked per thread: a span opened
//! while another is live on the same thread gets a `/`-joined path
//! (`job/plan`).
//!
//! Closing a span increments the deterministic counter `br_span_total{path=}`
//! (one per completed span, independent of scheduling). If — and only if —
//! the registry has a [`crate::Clock`], the span duration is also observed
//! into the timing-flagged histogram `br_span_duration_ns{path=}`. Nothing
//! else is kept: a thread holds only the stack of its open spans, so a
//! long-running process retains no memory per completed span.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::registry::Registry;

/// The (path, enter timestamp) of each span open on one thread against
/// one registry, innermost last.
type SpanStack = Vec<(String, Option<u64>)>;

thread_local! {
    /// Keyed by registry id: span state is per (thread, registry).
    static SPAN_STACKS: RefCell<HashMap<u64, SpanStack>> = RefCell::new(HashMap::new());
}

/// RAII guard for an open span; closes the span on drop.
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    path: String,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(registry: &'a Registry, name: &str) -> SpanGuard<'a> {
        let start = registry.clock().map(|c| c.now_ns());
        let path = SPAN_STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            let stack = stacks.entry(registry.id()).or_default();
            let path = match stack.last() {
                Some((parent, _)) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push((path.clone(), start));
            path
        });
        SpanGuard { registry, path }
    }

    /// Full `/`-joined path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.registry.clock().map(|c| c.now_ns());
        let start = SPAN_STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            let stack = stacks.get_mut(&self.registry.id())?;
            // Guards normally drop in LIFO order; tolerate out-of-order drops
            // by removing the matching entry wherever it sits.
            let idx = stack.iter().rposition(|(p, _)| p == &self.path)?;
            stack.remove(idx).1
        });
        self.registry
            .counter(
                "br_span_total",
                "Completed spans by path.",
                &[("path", &self.path)],
            )
            .inc();
        if let (Some(s), Some(e)) = (start, end) {
            self.registry
                .timing_histogram(
                    "br_span_duration_ns",
                    "Wall-clock span durations (present only when a clock is installed).",
                    &[("path", &self.path)],
                )
                .observe(e.saturating_sub(s));
        }
    }
}
