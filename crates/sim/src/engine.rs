//! A discrete-event scheduler for scenarios with interacting agents.
//!
//! The [`timeline`](crate::timeline) calculus covers resources driven by a
//! single logical producer. When *independent* agents interact — co-running
//! processes polluting a shared cache, the stages of a software pipeline —
//! a classic event loop is the right tool.
//!
//! The engine is generic over the message type `M` and a shared state `S`
//! (typically the memory-system model), so components never need interior
//! mutability or `Rc` cycles:
//!
//! ```
//! use dsa_sim::engine::{Component, Ctx, Engine};
//! use dsa_sim::time::SimDuration;
//!
//! struct Ticker { left: u32 }
//! impl Component<&'static str, u32> for Ticker {
//!     fn handle(&mut self, msg: &'static str, ctx: &mut Ctx<'_, &'static str>, total: &mut u32) {
//!         assert_eq!(msg, "tick");
//!         *total += 1;
//!         if self.left > 0 {
//!             self.left -= 1;
//!             ctx.send_self(SimDuration::from_ns(10), "tick");
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(0u32);
//! let id = eng.add(Ticker { left: 3 });
//! eng.post(dsa_sim::SimTime::ZERO, id, "tick");
//! eng.run();
//! assert_eq!(*eng.shared(), 4);
//! ```

use crate::sched::{CalendarScheduler, EventKey, Scheduler};
use crate::store::EventStore;
use crate::time::{SimDuration, SimTime};

/// Identifies a component registered with an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(usize);

impl ComponentId {
    /// The raw slab index (useful for labelling results).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index — for driving a [`Scheduler`]
    /// directly (property tests, benchmarks). Posting to an engine with an
    /// id it did not hand out panics at dispatch.
    pub fn from_index(index: usize) -> ComponentId {
        ComponentId(index)
    }
}

/// A simulated agent.
///
/// Implementations receive messages addressed to them together with a
/// scheduling context and exclusive access to the shared state `S`.
pub trait Component<M, S> {
    /// Handles one message delivered at `ctx.now()`.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>, shared: &mut S);
}

/// Scheduling context handed to [`Component::handle`].
pub struct Ctx<'a, M> {
    now: SimTime,
    me: ComponentId,
    outbox: &'a mut Vec<(SimTime, ComponentId, M)>,
    stop: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently executing.
    pub fn me(&self) -> ComponentId {
        self.me
    }

    /// Schedules `msg` for `target` after `delay`.
    pub fn send(&mut self, delay: SimDuration, target: ComponentId, msg: M) {
        self.outbox.push((self.now + delay, target, msg));
    }

    /// Schedules `msg` for the executing component itself after `delay`.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        let me = self.me;
        self.send(delay, me, msg);
    }

    /// Schedules `msg` for `target` at an absolute time (>= now).
    pub fn send_at(&mut self, at: SimTime, target: ComponentId, msg: M) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.outbox.push((at.max(self.now), target, msg));
    }

    /// Requests the engine to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// An event-dispatch observer: called for every delivered event with the
/// delivery time, the target component, and the message, *before* the
/// component handles it. The hook point tracing layers (e.g.
/// `dsa-telemetry`) use to annotate event-driven workloads without the
/// components knowing. For *causal* structure (which event scheduled
/// which), see the companion [`CauseObserver`].
pub type Observer<M> = Box<dyn FnMut(SimTime, ComponentId, &M)>;

/// One causal edge in the event DAG: event `child` was scheduled while
/// event `parent` was executing. Sequence numbers double as trace IDs —
/// they are assigned deterministically at scheduling time, so the same
/// run always yields the same edge set regardless of scheduler impl.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEdge {
    /// Sequence number of the event whose handler scheduled `child`;
    /// [`EXTERNAL`](CausalEdge::EXTERNAL) for messages posted from
    /// outside the simulation via [`Engine::post`].
    pub parent: u64,
    /// Sequence number of the newly scheduled event.
    pub child: u64,
    /// Simulated time at which the edge was created (the parent's
    /// execution instant; the post time for external edges).
    pub scheduled_at: SimTime,
    /// Simulated time at which `child` will fire.
    pub fire_at: SimTime,
    /// The component `child` is addressed to.
    pub target: ComponentId,
}

impl CausalEdge {
    /// The pseudo-parent of externally posted events. Real sequence
    /// numbers start at 1, so 0 is unambiguous.
    pub const EXTERNAL: u64 = 0;

    /// Queueing/transit latency of this hop: how long `child` sat
    /// scheduled before firing.
    pub fn hop_latency(&self) -> SimDuration {
        self.fire_at.saturating_duration_since(self.scheduled_at)
    }
}

/// A causal-edge observer: called once per scheduled event, at scheduling
/// time. Installed separately from [`Observer`] so existing dispatch
/// tracing keeps its signature; a run's replay digest is unaffected by
/// whether either observer is installed.
pub type CauseObserver = Box<dyn FnMut(CausalEdge)>;

/// The event loop.
///
/// Generic over the pending-event [`Scheduler`] `Q` (default:
/// [`CalendarScheduler`]). The reference
/// [`HeapScheduler`](crate::sched::HeapScheduler) can be swapped in via
/// [`with_scheduler`](Engine::with_scheduler) — the determinism tests diff
/// the two and assert bit-identical event streams.
pub struct Engine<M, S, Q: Scheduler<M> = CalendarScheduler> {
    // `None` marks the slot of the component currently executing — the
    // box is taken out for the duration of its `handle` call, which
    // sidesteps aliasing with `&mut self` without allocating a tombstone.
    components: Vec<Option<Box<dyn Component<M, S>>>>,
    sched: Q,
    // Pooled payload arena: schedulers move 20-byte keys, payloads stay
    // put here and slots recycle LIFO, so the steady-state loop never
    // allocates.
    store: EventStore<M>,
    // Reused across `run_until` calls so steady-state dispatch does not
    // allocate.
    outbox: Vec<(SimTime, ComponentId, M)>,
    shared: S,
    now: SimTime,
    seq: u64,
    events_processed: u64,
    observer: Option<Observer<M>>,
    cause_observer: Option<CauseObserver>,
    // Sequence number of the event currently being handled; EXTERNAL (0)
    // outside `run_until`, so `post` edges attribute to the outside world.
    current_cause: u64,
}

impl<M, S> Engine<M, S> {
    /// Creates an engine owning the shared state `shared`, scheduled by a
    /// [`CalendarScheduler`].
    pub fn new(shared: S) -> Self {
        Engine::with_scheduler(shared, CalendarScheduler::new())
    }
}

impl<M, S, Q: Scheduler<M>> Engine<M, S, Q> {
    /// Creates an engine with an explicit scheduler implementation.
    pub fn with_scheduler(shared: S, sched: Q) -> Self {
        Self {
            components: Vec::new(),
            sched,
            store: EventStore::new(),
            outbox: Vec::new(),
            shared,
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
            observer: None,
            cause_observer: None,
            current_cause: CausalEdge::EXTERNAL,
        }
    }

    /// Installs an observer invoked on every event dispatch (tracing,
    /// metrics). Replaces any previous observer.
    pub fn set_observer(&mut self, obs: impl FnMut(SimTime, ComponentId, &M) + 'static) {
        self.observer = Some(Box::new(obs));
    }

    /// Removes the observer, if any.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Installs a causal-edge observer: invoked once per scheduled event
    /// with the [`CausalEdge`] linking it to the event whose handler
    /// scheduled it. Replaces any previous cause observer. Purely
    /// passive — event ordering, sequence numbers, and replay digests are
    /// identical with or without one installed.
    pub fn set_cause_observer(&mut self, obs: impl FnMut(CausalEdge) + 'static) {
        self.cause_observer = Some(Box::new(obs));
    }

    /// Registers a component, returning its id.
    pub fn add(&mut self, c: impl Component<M, S> + 'static) -> ComponentId {
        self.components.push(Some(Box::new(c)));
        ComponentId(self.components.len() - 1)
    }

    /// Posts an initial message from outside the simulation.
    pub fn post(&mut self, at: SimTime, target: ComponentId, msg: M) {
        self.seq += 1;
        if let Some(obs) = &mut self.cause_observer {
            obs(CausalEdge {
                parent: CausalEdge::EXTERNAL,
                child: self.seq,
                scheduled_at: self.now,
                fire_at: at,
                target,
            });
        }
        let slot = self.store.alloc(at, self.seq, target, msg);
        self.sched.push(EventKey { time: at, seq: self.seq, slot }, &self.store);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared state accessor.
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Peak concurrent event population since construction — the size the
    /// pooled event arena grew to. Steady-state runs hold this flat.
    pub fn event_pool_high_water(&self) -> usize {
        self.store.high_water()
    }

    /// Runs until the event queue drains (or a component calls
    /// [`Ctx::stop`]). Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains, a component stops the engine, or the
    /// next event would be after `deadline` (that event stays queued).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let mut stop = false;
        while let Some(key) = self.sched.pop_before(deadline, &self.store) {
            debug_assert!(key.time >= self.now, "event queue went backwards");
            let (target, msg) = self.store.release(key.slot);
            self.now = key.time;
            self.events_processed += 1;
            self.current_cause = key.seq;
            if let Some(obs) = &mut self.observer {
                obs(key.time, target, &msg);
            }
            let idx = target.0;
            assert!(idx < self.components.len(), "message for unknown component {idx}");
            // Take the component out to sidestep aliasing with `self`.
            let Some(mut comp) = self.components[idx].take() else {
                unreachable!("component {idx} received a message while executing");
            };
            {
                let mut ctx =
                    Ctx { now: self.now, me: target, outbox: &mut self.outbox, stop: &mut stop };
                comp.handle(msg, &mut ctx, &mut self.shared);
            }
            self.components[idx] = Some(comp);
            for (time, target, msg) in self.outbox.drain(..) {
                self.seq += 1;
                if let Some(obs) = &mut self.cause_observer {
                    obs(CausalEdge {
                        parent: self.current_cause,
                        child: self.seq,
                        scheduled_at: self.now,
                        fire_at: time,
                        target,
                    });
                }
                let slot = self.store.alloc(time, self.seq, target, msg);
                self.sched.push(EventKey { time, seq: self.seq, slot }, &self.store);
            }
            if stop {
                break;
            }
        }
        self.current_cause = CausalEdge::EXTERNAL;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: Option<ComponentId>,
        rounds: u32,
    }

    impl Component<Msg, Vec<(f64, Msg)>> for Pinger {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>, log: &mut Vec<(f64, Msg)>) {
            log.push((ctx.now().as_ns_f64(), msg.clone()));
            match msg {
                Msg::Ping(n) => {
                    if let Some(peer) = self.peer {
                        ctx.send(SimDuration::from_ns(5), peer, Msg::Pong(n));
                    }
                }
                Msg::Pong(n) => {
                    if n + 1 < self.rounds {
                        if let Some(peer) = self.peer {
                            ctx.send(SimDuration::from_ns(5), peer, Msg::Ping(n + 1));
                        }
                    } else {
                        ctx.stop();
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_runs_in_order() {
        let mut eng = Engine::new(Vec::new());
        let a = eng.add(Pinger { peer: None, rounds: 3 });
        let b = eng.add(Pinger { peer: None, rounds: 3 });
        // wire peers (components are boxed; easiest is to rebuild)
        let mut eng = Engine::new(Vec::new());
        let a2 = eng.add(Pinger { peer: Some(b), rounds: 3 });
        let b2 = eng.add(Pinger { peer: Some(a), rounds: 3 });
        assert_eq!((a2, b2), (a, b));
        eng.post(SimTime::ZERO, a2, Msg::Ping(0));
        let end = eng.run();
        assert_eq!(end, SimTime::from_ns(25));
        let log = eng.shared();
        assert_eq!(log.len(), 6);
        assert_eq!(log[0].1, Msg::Ping(0));
        assert_eq!(log[5].1, Msg::Pong(2));
        // timestamps strictly non-decreasing
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn simultaneous_events_fifo() {
        struct Rec(u32);
        impl Component<u32, Vec<u32>> for Rec {
            fn handle(&mut self, msg: u32, _ctx: &mut Ctx<'_, u32>, log: &mut Vec<u32>) {
                log.push(self.0 * 100 + msg);
            }
        }
        let mut eng = Engine::new(Vec::new());
        let a = eng.add(Rec(1));
        let b = eng.add(Rec(2));
        eng.post(SimTime::from_ns(10), a, 1);
        eng.post(SimTime::from_ns(10), b, 2);
        eng.post(SimTime::from_ns(10), a, 3);
        eng.run();
        assert_eq!(eng.shared(), &vec![101, 202, 103]);
    }

    #[test]
    fn run_until_leaves_future_events() {
        struct Echo;
        impl Component<(), u32> for Echo {
            fn handle(&mut self, _: (), _ctx: &mut Ctx<'_, ()>, n: &mut u32) {
                *n += 1;
            }
        }
        let mut eng = Engine::new(0u32);
        let e = eng.add(Echo);
        eng.post(SimTime::from_ns(1), e, ());
        eng.post(SimTime::from_ns(100), e, ());
        eng.run_until(SimTime::from_ns(50));
        assert_eq!(*eng.shared(), 1);
        eng.run();
        assert_eq!(*eng.shared(), 2);
        assert_eq!(eng.events_processed(), 2);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    struct Chain {
        next: Option<ComponentId>,
    }
    impl Component<u32, Vec<u32>> for Chain {
        fn handle(&mut self, n: u32, ctx: &mut Ctx<'_, u32>, log: &mut Vec<u32>) {
            log.push(n);
            if let Some(next) = self.next {
                // send_at with an absolute time equal to now is legal.
                ctx.send_at(ctx.now(), next, n + 1);
            }
        }
    }

    #[test]
    fn send_at_now_delivers_in_fifo_order() {
        let mut eng = Engine::new(Vec::new());
        let c = eng.add(Chain { next: None });
        let b = eng.add(Chain { next: Some(c) });
        let a = eng.add(Chain { next: Some(b) });
        eng.post(SimTime::from_ns(5), a, 0);
        let end = eng.run();
        assert_eq!(eng.shared(), &vec![0, 1, 2]);
        assert_eq!(end, SimTime::from_ns(5), "zero-delay chain stays at one instant");
    }

    #[test]
    fn stop_halts_immediately_leaving_queue() {
        struct Stopper;
        impl Component<u32, u32> for Stopper {
            fn handle(&mut self, _: u32, ctx: &mut Ctx<'_, u32>, count: &mut u32) {
                *count += 1;
                ctx.stop();
            }
        }
        let mut eng = Engine::new(0u32);
        let s = eng.add(Stopper);
        eng.post(SimTime::from_ns(1), s, 1);
        eng.post(SimTime::from_ns(2), s, 2);
        eng.run();
        assert_eq!(*eng.shared(), 1, "stop() prevents the second delivery");
        // A later run resumes from the queue.
        eng.run();
        assert_eq!(*eng.shared(), 2);
    }

    #[test]
    fn observer_sees_every_dispatch_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut eng = Engine::new(Vec::new());
        let c = eng.add(Chain { next: None });
        let b = eng.add(Chain { next: Some(c) });
        let seen: Rc<RefCell<Vec<(u64, usize, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        eng.set_observer(move |t, id, msg: &u32| {
            sink.borrow_mut().push((t.as_ns_f64() as u64, id.index(), *msg));
        });
        eng.post(SimTime::from_ns(7), b, 1);
        eng.run();
        assert_eq!(
            *seen.borrow(),
            vec![(7, b.index(), 1), (7, c.index(), 2)],
            "observer fires once per delivered event, in dispatch order"
        );
        // Clearing the observer silences it without disturbing the run.
        eng.clear_observer();
        eng.post(SimTime::from_ns(9), c, 5);
        eng.run();
        assert_eq!(seen.borrow().len(), 2);
        assert_eq!(eng.shared().len(), 3);
    }

    #[test]
    fn cause_observer_links_child_events_to_their_parent() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut eng = Engine::new(Vec::new());
        let c = eng.add(Chain { next: None });
        let b = eng.add(Chain { next: Some(c) });
        let a = eng.add(Chain { next: Some(b) });
        let edges: Rc<RefCell<Vec<CausalEdge>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = edges.clone();
        eng.set_cause_observer(move |e| sink.borrow_mut().push(e));
        eng.post(SimTime::from_ns(5), a, 0);
        eng.run();
        let edges = edges.borrow();
        // Three events total: the external post plus two chained sends.
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].parent, CausalEdge::EXTERNAL);
        assert_eq!(edges[0].child, 1);
        assert_eq!(edges[0].target, a);
        // Each chained hop is caused by the event that scheduled it.
        assert_eq!(
            edges[1],
            CausalEdge {
                parent: 1,
                child: 2,
                scheduled_at: SimTime::from_ns(5),
                fire_at: SimTime::from_ns(5),
                target: b,
            }
        );
        assert_eq!((edges[2].parent, edges[2].child, edges[2].target), (2, 3, c));
        // Parents always precede children in sequence order.
        assert!(edges.iter().all(|e| e.parent < e.child));
    }

    #[test]
    fn cause_observer_does_not_perturb_the_run() {
        let run = |traced: bool| {
            let mut eng = Engine::new(Vec::new());
            let c = eng.add(Chain { next: None });
            let b = eng.add(Chain { next: Some(c) });
            if traced {
                eng.set_cause_observer(|_| {});
            }
            eng.post(SimTime::from_ns(5), b, 0);
            let end = eng.run();
            (end, eng.events_processed(), eng.shared().clone())
        };
        assert_eq!(run(false), run(true), "tracing must be invisible to the simulation");
    }

    #[test]
    fn hop_latency_measures_scheduling_delay() {
        let e = CausalEdge {
            parent: CausalEdge::EXTERNAL,
            child: 1,
            scheduled_at: SimTime::from_ns(10),
            fire_at: SimTime::from_ns(35),
            target: ComponentId::from_index(0),
        };
        assert_eq!(e.hop_latency(), SimDuration::from_ns(25));
    }

    #[test]
    fn me_identifies_the_running_component() {
        struct WhoAmI;
        impl Component<(), Vec<usize>> for WhoAmI {
            fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>, ids: &mut Vec<usize>) {
                ids.push(ctx.me().index());
            }
        }
        let mut eng = Engine::new(Vec::new());
        let a = eng.add(WhoAmI);
        let b = eng.add(WhoAmI);
        eng.post(SimTime::ZERO, b, ());
        eng.post(SimTime::ZERO, a, ());
        eng.run();
        assert_eq!(eng.shared(), &vec![b.index(), a.index()]);
    }
}
