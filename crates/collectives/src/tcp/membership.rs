//! The membership state machine behind [`RendezvousServer`](super::RendezvousServer):
//! which connection is which rank of which epoch.
//!
//! Pure: it owns no socket and reads no clock. The server feeds it one
//! decoded [`Registration`] (or nothing — a time step) with the current
//! `Instant` and writes out the [`Reply`]s it returns; `M` is whatever the
//! caller holds per member (the server: stream + ring address; tests: an id).
//! DESIGN §2.10 has the state × event table this implements.

use std::time::{Duration, Instant};

/// Largest world an assignment may name: servers refuse to found a bigger
/// group and decoders reject the frame before sizing anything by it.
pub const MAX_WORLD: usize = 1 << 16;

/// A non-blocking view of the rendezvous, answered to `POLL` requests and
/// exposed by [`RendezvousHandle`](super::RendezvousHandle) for in-process
/// launchers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStatus {
    /// Current membership epoch.
    pub epoch: u64,
    /// World size of the current epoch (0 before epoch 0 forms).
    pub world: usize,
    /// Joiners queued for the next epoch.
    pub pending: usize,
}

/// One decoded registration frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Registration {
    Hello { claim: Option<usize> },
    Rejoin { epoch: u64, old_rank: usize },
    Poll,
}

/// What the server must write, and to whom. Every member handed in is
/// handed back in exactly one reply.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Reply<M> {
    /// A formed epoch: `members[r]` is its rank `r`.
    Assign {
        epoch: u64,
        state_source: Option<usize>,
        members: Vec<M>,
    },
    Reject {
        members: Vec<M>,
        reason: String,
    },
    Status {
        to: M,
        status: ElasticStatus,
    },
}

#[derive(Debug)]
pub(super) struct Membership<M> {
    founding_world: usize,
    rejoin_window: Duration,
    one_epoch: bool,
    finished: bool,
    epoch: u64,
    /// 0 until epoch 0 forms.
    world: usize,
    /// Held until `founding_world` of them arrived, with their rank claims.
    founders: Vec<(Option<usize>, M)>,
    /// Joiners held for the next transition.
    pending: Vec<M>,
    /// Members of the current epoch that reported for the next one, with
    /// their current ranks.
    rejoined: Vec<(usize, M)>,
    /// Open from the first rejoin of a transition; absentees at its end
    /// are dead.
    window_ends: Option<Instant>,
}

impl<M> Membership<M> {
    /// A group founding at `founding_world` ranks. With `one_epoch` the
    /// machine is [`finished`](Self::finished) once the founders are
    /// answered — a fixed world.
    pub fn new(founding_world: usize, rejoin_window: Duration, one_epoch: bool) -> Self {
        Membership {
            founding_world,
            rejoin_window,
            one_epoch,
            finished: false,
            epoch: 0,
            world: 0,
            founders: Vec::new(),
            pending: Vec::new(),
            rejoined: Vec::new(),
            window_ends: None,
        }
    }

    pub fn status(&self) -> ElasticStatus {
        ElasticStatus {
            epoch: self.epoch,
            world: self.world,
            pending: self.pending.len(),
        }
    }

    /// When [`feed`](Self::feed) must next run even if nobody registers:
    /// the end of the open rejoin window. `None` — nothing is due.
    pub fn deadline(&self) -> Option<Instant> {
        self.window_ends
    }

    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Advances to `now`, with `arrival` if a registration was decoded.
    pub fn feed(&mut self, arrival: Option<(M, Registration)>, now: Instant) -> Vec<Reply<M>> {
        let mut replies = Vec::new();
        match arrival {
            None => {}
            Some((to, Registration::Poll)) => replies.push(Reply::Status {
                to,
                status: self.status(),
            }),
            Some((who, Registration::Rejoin { epoch, old_rank }))
                if self.world > 0 && epoch == self.epoch =>
            {
                if old_rank < self.world && self.rejoined.iter().all(|(r, _)| *r != old_rank) {
                    self.window_ends.get_or_insert(now + self.rejoin_window);
                    self.rejoined.push((old_rank, who));
                } else {
                    replies.push(Reply::Reject {
                        members: vec![who],
                        reason: format!(
                            "rejoin as rank {old_rank} of epoch {epoch}: out of range or \
                             already reported"
                        ),
                    });
                }
            }
            // A HELLO — or a rejoin that names no current epoch (a member
            // that missed a transition, or one older than this server),
            // demoted to one: it enters like a fresh member and takes the
            // handed-off state.
            Some((who, reg)) => {
                let claim = match reg {
                    Registration::Hello { claim } => claim,
                    _ => None,
                };
                if self.world > 0 {
                    self.pending.push(who);
                } else {
                    self.founders.push((claim, who));
                    replies.extend(self.found());
                }
            }
        }
        if self
            .window_ends
            .is_some_and(|end| self.rejoined.len() == self.world || now >= end)
        {
            replies.push(self.transition());
        }
        replies
    }

    /// Epoch 0, once every founder is held: claimed ranks first, the free
    /// ones in arrival order. A claim out of range or made twice rejects
    /// the whole founding — every rank of a mis-launched job learns it now.
    fn found(&mut self) -> Option<Reply<M>> {
        let n = self.founding_world;
        if self.founders.len() < n {
            return None;
        }
        self.finished = self.one_epoch;
        let mut taken = vec![false; n];
        for r in self.founders.iter().filter_map(|(claim, _)| *claim) {
            if r >= n || std::mem::replace(&mut taken[r], true) {
                return Some(Reply::Reject {
                    members: self.founders.drain(..).map(|(_, m)| m).collect(),
                    reason: format!("rank claim {r} is out of range or made twice in world {n}"),
                });
            }
        }
        let mut free = (0..n).filter(|&r| !taken[r]);
        let mut ranked: Vec<(usize, M)> = self
            .founders
            .drain(..)
            .map(|(claim, m)| (claim.or_else(|| free.next()).expect("a free rank each"), m))
            .collect();
        ranked.sort_by_key(|(r, _)| *r);
        self.world = n;
        Some(Reply::Assign {
            epoch: 0,
            state_source: None,
            members: ranked.into_iter().map(|(_, m)| m).collect(),
        })
    }

    /// The next epoch: survivors in old-rank order — the lowest becomes
    /// rank 0 and hands its state to everyone — then the queued joiners.
    /// A window only opens on a rejoin, so a survivor always exists.
    fn transition(&mut self) -> Reply<M> {
        self.rejoined.sort_by_key(|(old, _)| *old);
        let mut members: Vec<M> = self.rejoined.drain(..).map(|(_, m)| m).collect();
        members.append(&mut self.pending);
        self.epoch += 1;
        self.world = members.len();
        self.window_ends = None;
        Reply::Assign {
            epoch: self.epoch,
            state_source: Some(0),
            members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Registration::{Hello, Poll, Rejoin};
    use super::*;
    use proptest::prelude::*;

    const WINDOW: Duration = Duration::from_secs(5);
    const ANY: Registration = Hello { claim: None };

    /// A machine over connection ids, and the origin of its virtual clock
    /// (tests add to it; nothing here sleeps or opens a socket).
    fn machine(world: usize, one_epoch: bool) -> (Membership<u32>, Instant) {
        (Membership::new(world, WINDOW, one_epoch), Instant::now())
    }

    fn claim(rank: usize) -> Registration {
        Hello { claim: Some(rank) }
    }

    fn assign(epoch: u64, members: &[u32]) -> Vec<Reply<u32>> {
        vec![Reply::Assign {
            epoch,
            state_source: (epoch > 0).then_some(0),
            members: members.to_vec(),
        }]
    }

    fn status(epoch: u64, world: usize, pending: usize) -> ElasticStatus {
        ElasticStatus {
            epoch,
            world,
            pending,
        }
    }

    /// Founds epoch 0 with claim-less connections `0..world`.
    fn founded(world: u32) -> (Membership<u32>, Instant) {
        let (mut m, t) = machine(world as usize, false);
        for id in 0..world - 1 {
            assert_eq!(m.feed(Some((id, ANY)), t), vec![]);
        }
        let ranks: Vec<u32> = (0..world).collect();
        assert_eq!(m.feed(Some((world - 1, ANY)), t), assign(0, &ranks));
        (m, t)
    }

    #[test]
    fn claims_are_honoured_and_free_ranks_fill_in_arrival_order() {
        let (mut m, t) = machine(4, false);
        assert_eq!(m.feed(Some((10, claim(2))), t), vec![]);
        assert_eq!(m.feed(Some((11, ANY)), t), vec![]);
        assert_eq!(m.feed(Some((12, claim(0))), t), vec![]);
        assert_eq!((m.status(), m.deadline()), (status(0, 0, 0), None));
        // 11 arrived before 13: it takes the lower free rank.
        assert_eq!(m.feed(Some((13, ANY)), t), assign(0, &[12, 11, 10, 13]));
        assert_eq!((m.status(), m.deadline()), (status(0, 4, 0), None));
        assert!(!m.finished());
    }

    #[test]
    fn a_bad_claim_rejects_every_held_founder() {
        for bad in [[claim(1), ANY, claim(1)], [ANY, claim(3), ANY]] {
            let (mut m, t) = machine(3, false);
            assert_eq!(m.feed(Some((0, bad[0])), t), vec![]);
            assert_eq!(m.feed(Some((1, bad[1])), t), vec![]);
            match &m.feed(Some((2, bad[2])), t)[..] {
                [Reply::Reject { members, reason }] => {
                    assert_eq!(members, &[0, 1, 2]);
                    assert!(reason.contains("rank claim"), "{reason}");
                }
                other => panic!("expected one rejection of all three, got {other:?}"),
            }
            // Nothing was founded; a relaunched job can found the group.
            assert_eq!(m.status(), status(0, 0, 0));
            for id in 3..5 {
                assert_eq!(m.feed(Some((id, ANY)), t), vec![]);
            }
            assert_eq!(m.feed(Some((5, ANY)), t), assign(0, &[3, 4, 5]));
        }
    }

    #[test]
    fn the_window_expires_exactly_at_its_end_and_absentees_are_dead() {
        let (mut m, t) = founded(3);
        let opened = t + Duration::from_millis(40);
        let rejoin = Rejoin {
            epoch: 0,
            old_rank: 2,
        };
        assert_eq!(m.feed(Some((7, rejoin)), opened), vec![]);
        assert_eq!(m.deadline(), Some(opened + WINDOW));
        // A later rejoin does not move the deadline.
        let later = opened + Duration::from_secs(1);
        let rejoin = Rejoin {
            epoch: 0,
            old_rank: 1,
        };
        assert_eq!(m.feed(Some((8, rejoin)), later), vec![]);
        assert_eq!(m.deadline(), Some(opened + WINDOW));
        let just_before = opened + WINDOW - Duration::from_nanos(1);
        assert_eq!(m.feed(None, just_before), vec![]);
        // Rank 0 never reported: dead. Survivors keep their order.
        assert_eq!(m.feed(None, opened + WINDOW), assign(1, &[8, 7]));
        assert_eq!((m.status(), m.deadline()), (status(1, 2, 0), None));
    }

    #[test]
    fn survivors_are_re_ranked_by_old_rank_and_joiners_appended() {
        let (mut m, t) = founded(3);
        assert_eq!(m.feed(Some((20, claim(0))), t), vec![]); // claim ignored
        assert_eq!(m.feed(Some((21, ANY)), t), vec![]);
        assert_eq!(m.status(), status(0, 3, 2));
        for (id, old_rank) in [(30, 2), (31, 0)] {
            let rejoin = Rejoin { epoch: 0, old_rank };
            assert_eq!(m.feed(Some((id, rejoin)), t), vec![]);
        }
        // The last member reports: the epoch forms at once, window unspent.
        let rejoin = Rejoin {
            epoch: 0,
            old_rank: 1,
        };
        assert_eq!(
            m.feed(Some((32, rejoin)), t),
            assign(1, &[31, 32, 30, 20, 21])
        );
        assert_eq!((m.status(), m.deadline()), (status(1, 5, 0), None));
    }

    #[test]
    fn stale_rejoin_is_demoted_to_joiner() {
        let (mut m, t) = founded(2);
        let rejoin = |epoch, old_rank| Rejoin { epoch, old_rank };
        // Rank 0 rejoins alone → epoch 1 at world 1 when the window ends.
        assert_eq!(m.feed(Some((5, rejoin(0, 0))), t), vec![]);
        assert_eq!(m.feed(None, t + WINDOW), assign(1, &[5]));
        // The long-dead rank 1 reports for epoch 0: it missed a
        // transition, opens no window and queues for the next one.
        assert_eq!(m.feed(Some((6, rejoin(0, 1))), t + WINDOW), vec![]);
        assert_eq!((m.status(), m.deadline()), (status(1, 1, 1), None));
        assert_eq!(
            m.feed(Some((7, rejoin(1, 0))), t + WINDOW),
            assign(2, &[7, 6])
        );
    }

    #[test]
    fn rejoin_before_founding_is_demoted_to_a_claimless_founder() {
        let (mut m, t) = machine(2, false);
        let rejoin = Rejoin {
            epoch: 3,
            old_rank: 1,
        };
        assert_eq!(m.feed(Some((0, rejoin)), t), vec![]);
        assert_eq!(m.deadline(), None);
        assert_eq!(m.feed(Some((1, claim(0))), t), assign(0, &[1, 0]));
    }

    #[test]
    fn a_rejoin_naming_no_awaited_rank_is_rejected_alone() {
        let (mut m, t) = founded(2);
        let rejoin = |old_rank| Rejoin { epoch: 0, old_rank };
        assert_eq!(m.feed(Some((5, rejoin(1))), t), vec![]);
        for (id, old_rank) in [(6, 1), (7, 2)] {
            match &m.feed(Some((id, rejoin(old_rank))), t)[..] {
                [Reply::Reject { members, .. }] => assert_eq!(members, &[id]),
                other => panic!("expected {id} rejected alone, got {other:?}"),
            }
        }
        assert_eq!(m.feed(Some((8, rejoin(0))), t), assign(1, &[8, 5]));
    }

    #[test]
    fn poll_reports_pending_and_is_answered_at_once() {
        let (mut m, t) = founded(2);
        let polled = |m: &mut Membership<u32>| m.feed(Some((99, Poll)), t);
        let answer = |status| vec![Reply::Status { to: 99, status }];
        assert_eq!(polled(&mut m), answer(status(0, 2, 0)));
        assert_eq!(m.feed(Some((3, ANY)), t), vec![]);
        assert_eq!(polled(&mut m), answer(status(0, 2, 1)));
    }

    #[test]
    fn one_epoch_mode_is_finished_after_epoch_0() {
        let (mut m, t) = machine(2, true);
        assert_eq!(m.feed(Some((0, ANY)), t), vec![]);
        assert!(!m.finished());
        assert_eq!(m.feed(Some((1, ANY)), t), assign(0, &[0, 1]));
        assert!(m.finished());
        // A refused founding ends it too: the launch failed as a whole.
        let (mut m, t) = machine(2, true);
        m.feed(Some((0, claim(1))), t);
        assert!(matches!(
            m.feed(Some((1, claim(1))), t)[..],
            [Reply::Reject { .. }]
        ));
        assert!(m.finished());
    }

    #[derive(Debug, Clone)]
    enum Event {
        Register(Registration),
        /// A rejoin `back` epochs behind the current one.
        Rejoin {
            back: u64,
            old_rank: usize,
        },
        Step(Duration),
    }

    fn event() -> impl Strategy<Value = Event> {
        (0..10u32, 0..2u64, 0..5usize, 0..4000u64).prop_map(|(kind, back, rank, ms)| match kind {
            0 | 1 => Event::Register(ANY),
            2 => Event::Register(claim(rank)),
            3 => Event::Register(Poll),
            4..=7 => Event::Rejoin {
                back,
                old_rank: rank,
            },
            _ => Event::Step(Duration::from_millis(ms)),
        })
    }

    proptest! {
        #[test]
        fn any_event_sequence_keeps_the_membership_invariants(
            world in 1..5usize,
            events in proptest::collection::vec(event(), 0..80),
        ) {
            let (mut m, mut now) = machine(world, false);
            let mut answered = std::collections::HashSet::new();
            let mut next_epoch = 0;
            for (id, event) in (0u32..).zip(events) {
                let arrival = match event {
                    Event::Register(r) => Some((id, r)),
                    Event::Rejoin { back, old_rank } => Some((id, Rejoin {
                        epoch: m.status().epoch.saturating_sub(back),
                        old_rank,
                    })),
                    Event::Step(by) => {
                        now += by;
                        None
                    }
                };
                let registered = arrival.is_some() as usize;
                let held = |m: &Membership<u32>| m.founders.len() + m.pending.len() + m.rejoined.len();
                let before = held(&m) + registered;
                let mut replied = 0;
                for reply in m.feed(arrival, now) {
                    let to = match reply {
                        Reply::Assign { epoch, state_source, members } => {
                            // Epochs strictly monotone, ranks dense 0..world.
                            prop_assert_eq!(epoch, next_epoch);
                            next_epoch += 1;
                            prop_assert_eq!((m.status().epoch, m.status().world), (epoch, members.len()));
                            prop_assert!(!members.is_empty());
                            prop_assert_eq!(state_source, (epoch > 0).then_some(0));
                            members
                        }
                        Reply::Reject { members, .. } => members,
                        Reply::Status { to, .. } => vec![to],
                    };
                    // Answered exactly once — so never in two epochs.
                    for id in to {
                        replied += 1;
                        prop_assert!(answered.insert(id), "connection {} answered twice", id);
                    }
                }
                // Everyone handed in is held or was answered.
                prop_assert_eq!(before, held(&m) + replied);
                // A window is open iff someone waits in it, and not past its end.
                prop_assert_eq!(m.deadline().is_some(), !m.rejoined.is_empty());
                prop_assert!(m.deadline().is_none_or(|end| now < end));
                prop_assert!(m.rejoined.len() < m.world.max(1));
            }
        }
    }
}
