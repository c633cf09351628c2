//! Stream-ordered task-graph timing: the one engine that prices the
//! simulator's cluster iterations and the fusion planner's candidate cuts.
//!
//! Tasks are issued to *resources* (GPU compute streams, the shared
//! network). A resource executes its tasks strictly in issue order; a task
//! additionally waits for its dependencies and an optional exact
//! earliest-start time. This matches CUDA stream semantics and Horovod's
//! single collective queue, and makes timing a single deterministic forward
//! pass over the issue order.

use std::ops::Range;

use spdkfac_obs::{Phase, SpanMeta};

/// Converts simulated spans into the shared observability span type (track =
/// resource id), for the shared exporters and breakdown attribution. Span
/// metadata (collective edge/seq/size/generation) is carried through, so the
/// causal analyzer resolves simulated collectives exactly like measured
/// ones.
pub fn to_obs_spans(spans: &[TaskSpan]) -> Vec<spdkfac_obs::Span> {
    spans
        .iter()
        .map(|s| spdkfac_obs::Span {
            track: s.resource,
            phase: s.phase,
            label: std::borrow::Cow::Borrowed(""),
            start: s.start,
            end: s.end,
            meta: s.meta,
        })
        .collect()
}

/// A task issued to a resource.
#[derive(Debug, Clone)]
pub struct Task {
    /// Resource the task occupies (index into the graph's resource set).
    pub resource: usize,
    /// Execution time (seconds). Any finite value: a fitted α-β line can
    /// price a small message below zero, and pricing takes it as given.
    pub duration: f64,
    /// The earliest time the task may start, if constrained. An executor
    /// that does not honour it must reject a task that sets it.
    pub earliest: Option<f64>,
    /// The task's span of the graph's dependency list ([`TaskGraph::deps`]).
    deps: Range<usize>,
    /// Breakdown category.
    pub phase: Phase,
    /// Collective metadata (edge/seq/size/generation) mirrored onto the
    /// produced span; default for compute tasks.
    pub meta: SpanMeta,
}

/// Computed schedule of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Resource the task ran on.
    pub resource: usize,
    /// Category.
    pub phase: Phase,
    /// Collective metadata inherited from the task.
    pub meta: SpanMeta,
}

/// An append-only task graph over a fixed set of resources; after
/// [`TaskGraph::clear`], re-issuing a graph of the same shape allocates
/// nothing.
///
/// # Example
///
/// ```
/// use spdkfac_obs::Phase;
/// use spdkfac_core::graph::TaskGraph;
///
/// let mut g = TaskGraph::new(2); // one GPU stream + one network
/// let a = g.push(0, 1.0, &[], Phase::FfBp);
/// let b = g.push(1, 0.5, &[a], Phase::GradComm); // comm waits for compute
/// let spans = g.simulate();
/// assert_eq!(spans[b].start, 1.0);
/// assert_eq!(spans[b].end, 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    deps: Vec<usize>,
    num_resources: usize,
}

impl TaskGraph {
    /// Creates a graph over `num_resources` resources.
    pub fn new(num_resources: usize) -> Self {
        TaskGraph {
            num_resources,
            ..TaskGraph::default()
        }
    }

    /// Removes every task, keeping the storage for the next ones.
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.deps.clear();
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Issues a task; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is out of range, `duration` is not finite, or
    /// any dependency id is not smaller than the new task's id.
    pub fn push(&mut self, resource: usize, duration: f64, deps: &[usize], phase: Phase) -> usize {
        self.push_meta(resource, duration, deps, phase, SpanMeta::default())
    }

    /// As [`TaskGraph::push`], attaching collective metadata that the
    /// produced span (and its observability conversion) will carry.
    ///
    /// # Panics
    ///
    /// As [`TaskGraph::push`].
    pub fn push_meta(
        &mut self,
        resource: usize,
        duration: f64,
        deps: &[usize],
        phase: Phase,
        meta: SpanMeta,
    ) -> usize {
        assert!(
            resource < self.num_resources,
            "resource {resource} out of range"
        );
        assert!(duration.is_finite(), "invalid duration {duration}");
        let id = self.tasks.len();
        for &d in deps {
            assert!(d < id, "dependency {d} must precede task {id}");
        }
        let from = self.deps.len();
        self.deps.extend_from_slice(deps);
        self.tasks.push(Task {
            resource,
            duration,
            earliest: None,
            deps: from..self.deps.len(),
            phase,
            meta,
        });
        id
    }

    /// Borrow the issued tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The ids task `id` waits for, each smaller than `id`.
    pub fn deps(&self, id: usize) -> &[usize] {
        &self.deps[self.tasks[id].deps.clone()]
    }

    /// Task `id` starts no earlier than `earliest`, a finite time ≥ 0 (or
    /// this panics).
    pub fn set_earliest(&mut self, id: usize, earliest: f64) {
        let valid = earliest.is_finite() && earliest >= 0.0;
        assert!(valid, "invalid earliest start {earliest}");
        self.tasks[id].earliest = Some(earliest);
    }

    /// Overrides the duration of task `id` (used by the simulator's
    /// communication-contention fixed point).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `duration` is not finite.
    pub fn set_duration(&mut self, id: usize, duration: f64) {
        assert!(duration.is_finite(), "invalid duration {duration}");
        self.tasks[id].duration = duration;
    }

    /// Runs the simulation: each task starts at
    /// `max(earliest start, dependency ends, resource free time)` in issue
    /// order.
    pub fn simulate(&self) -> Vec<TaskSpan> {
        let mut times = Vec::with_capacity(self.tasks.len());
        self.times_into(&mut times);
        let span = |(t, (start, end)): (&Task, _)| TaskSpan {
            start,
            end,
            resource: t.resource,
            phase: t.phase,
            meta: t.meta,
        };
        self.tasks.iter().zip(times).map(span).collect()
    }

    /// The `(start, end)` of every task, as [`TaskGraph::simulate`] times
    /// them, into `times` (replacing its contents).
    pub fn times_into(&self, times: &mut Vec<(f64, f64)>) {
        times.clear();
        let mut resource_free = vec![0.0f64; self.num_resources];
        for t in &self.tasks {
            let dep_ready = self.deps[t.deps.clone()]
                .iter()
                .map(|&d| times[d].1)
                .fold(t.earliest.unwrap_or(f64::NEG_INFINITY), f64::max);
            let start = dep_ready.max(resource_free[t.resource]);
            let end = start + t.duration;
            resource_free[t.resource] = end;
            times.push((start, end));
        }
    }

    /// Completion time of the whole graph (0 for an empty graph).
    pub fn makespan(&self) -> f64 {
        self.simulate().iter().map(|s| s.end).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_tasks_on_one_resource() {
        let mut g = TaskGraph::new(1);
        g.push(0, 1.0, &[], Phase::FfBp);
        g.push(0, 2.0, &[], Phase::FfBp);
        let s = g.simulate();
        assert_eq!(s[0].end, 1.0);
        assert_eq!(s[1].start, 1.0);
        assert_eq!(s[1].end, 3.0);
        assert_eq!(g.makespan(), 3.0);
    }

    #[test]
    fn parallel_resources_overlap() {
        let mut g = TaskGraph::new(2);
        g.push(0, 3.0, &[], Phase::FfBp);
        g.push(1, 2.0, &[], Phase::GradComm);
        let s = g.simulate();
        assert_eq!(s[0].start, 0.0);
        assert_eq!(s[1].start, 0.0);
        assert_eq!(g.makespan(), 3.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut g = TaskGraph::new(2);
        let a = g.push(0, 2.0, &[], Phase::FfBp);
        let b = g.push(1, 1.0, &[a], Phase::GradComm);
        let s = g.simulate();
        assert_eq!(s[b].start, 2.0);
    }

    #[test]
    fn cross_resource_diamond() {
        // c depends on both a (res 0) and b (res 1); d queues behind c.
        let mut g = TaskGraph::new(2);
        let a = g.push(0, 1.0, &[], Phase::FfBp);
        let b = g.push(1, 5.0, &[], Phase::GradComm);
        let c = g.push(0, 1.0, &[a, b], Phase::FactorComp);
        let d = g.push(0, 1.0, &[], Phase::FactorComp);
        let s = g.simulate();
        assert_eq!(s[c].start, 5.0);
        assert_eq!(s[d].start, 6.0); // stream order, even without deps
    }

    #[test]
    fn earliest_start_delays_a_task_exactly() {
        let mut g = TaskGraph::new(2);
        let a = g.push(0, 1.0, &[], Phase::FfBp);
        let b = g.push(1, 0.5, &[], Phase::FactorComm);
        g.set_earliest(b, 0.3);
        let c = g.push(1, 0.5, &[a], Phase::FactorComm);
        g.set_earliest(c, 0.1);
        let s = g.simulate();
        assert_eq!((s[b].start, s[b].end), (0.3, 0.8));
        // A dependency that ends later wins over the earliest start.
        assert_eq!(s[c].start, 1.0);
        // The time enters as given, not as a sum of durations.
        let mut g = TaskGraph::new(1);
        let t = g.push(0, 0.0, &[], Phase::FfBp);
        g.set_earliest(t, 0.3);
        assert_eq!(g.simulate()[t].start.to_bits(), 0.3f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "invalid earliest start")]
    fn a_negative_earliest_start_is_rejected() {
        let mut g = TaskGraph::new(1);
        let t = g.push(0, 1.0, &[], Phase::FfBp);
        g.set_earliest(t, -1.0);
    }

    #[test]
    fn zero_duration_tasks_are_fine() {
        let mut g = TaskGraph::new(1);
        let a = g.push(0, 0.0, &[], Phase::Update);
        let s = g.simulate();
        assert_eq!(s[a].start, s[a].end);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new(1);
        g.push(0, 1.0, &[0], Phase::FfBp);
    }

    #[test]
    fn makespan_monotone_in_durations() {
        // Longer tasks can never shorten the schedule (sanity property).
        let build = |scale: f64| {
            let mut g = TaskGraph::new(3);
            let mut prev = None;
            for i in 0..10 {
                let deps: Vec<usize> = prev.into_iter().collect();
                let id = g.push(i % 3, 1.0 * scale + i as f64 * 0.1, &deps, Phase::FfBp);
                prev = Some(id);
            }
            g.makespan()
        };
        assert!(build(2.0) >= build(1.0));
    }
}
