//! MaxProp (Burgess, Gallagher, Jensen & Levine, INFOCOM'06).
//!
//! An epidemic-family protocol for vehicular DTNs with three ingredients:
//!
//! 1. **Delivery likelihoods** — incrementally averaged meeting
//!    probabilities, flooded through the network, giving every node an
//!    estimated cost (sum of `1 − p` along the cheapest path) to every
//!    destination;
//! 2. **Transmission priority** — fresh (low hop-count) messages first, then
//!    ascending destination cost;
//! 3. **Acknowledgements** — delivery acks flood the network and purge
//!    delivered messages from buffers; the eviction policy drops
//!    highest-cost, most-travelled messages first.
//!
//! Simplification vs. the original (documented in DESIGN.md): the adaptive
//! hop-count threshold (derived from average transfer opportunity) is a
//! fixed configurable constant.

use crate::util::control_size;
use dtn_sim::{
    Buffer, ContactCtx, Message, MessageId, NodeCtx, NodeId, Router, SimTime, StampedRows,
    TransferPlan,
};
use std::any::Any;
use std::collections::HashSet;

/// MaxProp parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxPropConfig {
    /// Messages with fewer hops than this are prioritised by hop count and
    /// protected from eviction.
    pub hop_threshold: u32,
    /// Seconds for which the Dijkstra cost vector is reused before being
    /// recomputed (performance knob; likelihoods drift slowly).
    pub cost_refresh: f64,
}

impl Default for MaxPropConfig {
    fn default() -> Self {
        MaxPropConfig {
            hop_threshold: 7,
            cost_refresh: 60.0,
        }
    }
}

/// MaxProp router.
#[derive(Debug)]
pub struct MaxProp {
    me: NodeId,
    n: usize,
    cfg: MaxPropConfig,
    /// Own meeting-probability vector (normalised to sum 1).
    f: Vec<f64>,
    /// Latest known probability vector of every node, stamped with its
    /// freshness (`-1` = unknown). Rows are shared with the nodes they were
    /// adopted from or by, and never written while shared.
    est: StampedRows,
    /// Delivered-message ids learned so far (flooded acks).
    acked: HashSet<MessageId>,
    /// Cost-to-destination cache and when it was computed (`-∞` = never).
    cost: Vec<f64>,
    cost_valid: bool,
    cost_time: f64,
}

impl MaxProp {
    /// Creates a MaxProp router for `me` in a network of `n` nodes.
    pub fn new(me: NodeId, n: u32) -> Self {
        Self::with_config(me, n, MaxPropConfig::default())
    }

    /// Creates a MaxProp router with explicit parameters.
    pub fn with_config(me: NodeId, n: u32, cfg: MaxPropConfig) -> Self {
        let n = n as usize;
        let init = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
        let mut f = vec![init; n];
        f[me.idx()] = 0.0;
        MaxProp {
            me,
            n,
            cfg,
            f: f.clone(),
            est: StampedRows::new(n, 0.0),
            acked: HashSet::new(),
            cost: vec![f64::INFINITY; n],
            cost_valid: false,
            cost_time: f64::NEG_INFINITY,
        }
    }

    /// The ids this node knows to be delivered.
    pub fn acked(&self) -> &HashSet<MessageId> {
        &self.acked
    }

    /// Own meeting probability towards `peer`.
    pub fn meeting_probability(&self, peer: NodeId) -> f64 {
        self.f[peer.idx()]
    }

    /// Incremental averaging: bump the peer's slot by 1 and re-normalise.
    fn bump(&mut self, peer: NodeId) {
        self.f[peer.idx()] += 1.0;
        let sum: f64 = self.f.iter().sum();
        if sum > 0.0 {
            for v in &mut self.f {
                *v /= sum;
            }
        }
    }

    /// Dijkstra over the likelihood graph: cost of edge `u → v` is
    /// `1 − p_u(v)` using the latest known vector of `u`.
    fn recompute_costs(&mut self, now: SimTime) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct K(f64);
        impl Eq for K {}
        impl PartialOrd for K {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for K {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&o.0)
            }
        }

        self.est.set_row(self.me.idx(), &self.f, now.as_secs());
        for c in &mut self.cost {
            *c = f64::INFINITY;
        }
        self.cost[self.me.idx()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((K(0.0), self.me.0)));
        let mut visited = vec![false; self.n];
        while let Some(Reverse((K(d), u))) = heap.pop() {
            let ui = u as usize;
            if visited[ui] {
                continue;
            }
            visited[ui] = true;
            let vec_u: &[f64] = if ui == self.me.idx() {
                &self.f
            } else if self.est.stamp(ui) >= 0.0 {
                self.est.row(ui)
            } else {
                continue; // no likelihood info about u's links
            };
            for (v, &p) in vec_u.iter().enumerate().take(self.n) {
                if v == ui {
                    continue;
                }
                let nd = d + (1.0 - p);
                if nd < self.cost[v] {
                    self.cost[v] = nd;
                    heap.push(Reverse((K(nd), v as u32)));
                }
            }
        }
        self.cost_valid = true;
    }

    /// Cost to `dst` (∞ when unknown).
    pub fn cost_to(&self, dst: NodeId) -> f64 {
        self.cost[dst.idx()]
    }

    /// Priority key: lower sorts earlier in transmission order.
    fn priority(&self, hops: u32, dst: NodeId) -> (u32, f64) {
        if hops < self.cfg.hop_threshold {
            (hops, 0.0)
        } else {
            (u32::MAX, self.cost[dst.idx()])
        }
    }
}

impl Router for MaxProp {
    fn label(&self) -> &'static str {
        "MaxProp"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
        let peer_router = peer
            .as_any_mut()
            .downcast_mut::<MaxProp>()
            .expect("all nodes run MaxProp");
        self.bump(ctx.peer);

        // Likelihood flooding: adopt fresher vectors known to the peer,
        // including the peer's own (which is always freshest for itself, so
        // it is snapshotted from `f`, not taken from the peer's table).
        let now = ctx.now.as_secs();
        for i in 0..self.n {
            if i == ctx.peer.idx() {
                if now > self.est.stamp(i) {
                    self.est.set_row(i, &peer_router.f, now);
                }
            } else {
                self.est.adopt_row(&peer_router.est, i);
            }
        }
        // Ack merge and purge of known-delivered messages.
        for id in &peer_router.acked {
            self.acked.insert(*id);
        }
        let to_purge: Vec<MessageId> = ctx
            .buf
            .iter()
            .filter(|e| self.acked.contains(&e.msg.id))
            .map(|e| e.msg.id)
            .collect();
        ctx.purge.extend(to_purge);

        if ctx.now.as_secs() - self.cost_time > self.cfg.cost_refresh {
            self.recompute_costs(ctx.now);
            self.cost_time = ctx.now.as_secs();
        }
        // Vectors + ack ids exchanged.
        ctx.control_bytes(control_size(self.n + self.acked.len()));
    }

    fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
        // Deliverables first; delivery also generates an ack (in on_sent).
        if let Some(e) = ctx
            .buf
            .iter()
            .find(|e| e.msg.dst == ctx.peer && !ctx.sent.contains(&e.msg.id))
        {
            return Some(TransferPlan::forward(e.msg.id));
        }
        if !self.cost_valid {
            return None;
        }
        // Lowest priority key first among offerable, un-acked messages.
        ctx.buf
            .iter()
            .filter(|e| ctx.can_offer(e.msg.id) && !self.acked.contains(&e.msg.id))
            .min_by(|a, b| {
                let ka = self.priority(a.hops, a.msg.dst);
                let kb = self.priority(b.hops, b.msg.dst);
                ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
            })
            .map(|e| TransferPlan::copy(e.msg.id))
    }

    fn on_sent(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &Message,
        _action: dtn_sim::TransferAction,
        _to: NodeId,
        delivered: bool,
    ) {
        if delivered {
            self.acked.insert(msg.id);
        }
    }

    fn on_delivery_received(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        msg: &Message,
        _from: NodeId,
        _first: bool,
    ) {
        self.acked.insert(msg.id);
    }

    /// MaxProp eviction: highest-cost, most-travelled messages go first;
    /// fresh low-hop messages are protected longest.
    fn select_drops(&mut self, buf: &Buffer, incoming: &Message, _now: SimTime) -> Vec<MessageId> {
        let mut entries: Vec<(dtn_sim::BufferEntry, (u32, f64))> = buf
            .iter()
            .filter(|e| e.msg.id != incoming.id)
            .map(|e| (e, self.priority(e.hops, e.msg.dst)))
            .collect();
        // Reverse priority: worst (highest key) first.
        entries.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(b.1 .1.total_cmp(&a.1 .1)));
        entries.into_iter().map(|(e, _)| e.msg.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::prelude::*;

    #[test]
    fn bump_keeps_distribution_normalised() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.bump(NodeId(2));
        r.bump(NodeId(1));
        r.bump(NodeId(1));
        let sum: f64 = r.f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Incremental averaging is recency-weighted: the twice-met (and most
        // recently met) node 1 dominates, never-met node 3 trails.
        assert!(r.meeting_probability(NodeId(1)) > r.meeting_probability(NodeId(2)));
        assert!(r.meeting_probability(NodeId(2)) > r.meeting_probability(NodeId(3)));
        assert!(r.meeting_probability(NodeId(3)) > 0.0, "smoothing mass");
        assert_eq!(r.meeting_probability(NodeId(0)), 0.0, "never self");
    }

    /// A node's installed row is shared with every table that adopted it;
    /// the owner's later bumps and cost recomputations must leave the
    /// adopted copy as it was.
    #[test]
    fn adopted_row_survives_owner_bump_and_recompute() {
        let mut owner = MaxProp::new(NodeId(0), 4);
        owner.bump(NodeId(2));
        owner.recompute_costs(SimTime::secs(5.0));
        let snapshot = owner.f.clone();
        let mut holder = MaxProp::new(NodeId(3), 4);
        assert!(holder.est.adopt_row(&owner.est, 0));

        owner.bump(NodeId(1));
        owner.recompute_costs(SimTime::secs(100.0));
        assert_eq!(owner.est.row(0), owner.f.as_slice());
        assert_ne!(owner.f, snapshot);
        assert_eq!(holder.est.row(0), snapshot.as_slice());
        assert_eq!(holder.est.stamp(0), 5.0);
    }

    /// A single recent meeting outweighs several old ones — the documented
    /// recency property of MaxProp's incremental averaging.
    #[test]
    fn bump_is_recency_weighted() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.bump(NodeId(1));
        r.bump(NodeId(1));
        r.bump(NodeId(2));
        assert!(r.meeting_probability(NodeId(2)) > r.meeting_probability(NodeId(1)));
    }

    #[test]
    fn floods_and_delivers_like_epidemic() {
        let trace = ContactTrace::new(
            4,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0),
                Contact::new(1, 2, 30.0, 35.0),
                Contact::new(2, 3, 50.0, 55.0),
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 190.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(MaxProp::new(id, n))
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert!(stats.relayed >= 3);
    }

    /// Acks purge delivered messages from intermediate buffers.
    #[test]
    fn acks_purge_delivered_messages() {
        let trace = ContactTrace::new(
            4,
            400.0,
            vec![
                Contact::new(0, 1, 10.0, 15.0), // replicate 0→1
                Contact::new(1, 3, 30.0, 35.0), // deliver 1→3 (dst), 1 learns ack
                Contact::new(1, 2, 50.0, 55.0), // 2 learns ack... but 2 has no copy
                Contact::new(0, 2, 70.0, 75.0), // 2 tells 0? no—0 offers copy; 2 knows ack
                Contact::new(0, 1, 90.0, 95.0), // 1 tells 0 the ack → 0 purges
            ],
        );
        let wl = vec![MessageSpec {
            create_at: SimTime::secs(1.0),
            src: NodeId(0),
            dst: NodeId(3),
            size: 1000,
            ttl: 390.0,
        }];
        let stats = Simulation::new(&trace, wl, SimConfig::paper(0), |id, n| {
            Box::new(MaxProp::new(id, n))
        })
        .run();
        assert_eq!(stats.delivered, 1);
        assert!(
            stats.drops_protocol >= 1,
            "source copy should be purged by the flooded ack"
        );
    }

    #[test]
    fn eviction_prefers_travelled_costly_messages() {
        let mut r = MaxProp::new(NodeId(0), 4);
        r.cost = vec![0.0, 0.5, 1.5, 2.5];
        let mut buf = Buffer::new(10_000);
        let mk = |id: u32, dst: u32, hops: u32| BufferEntry {
            msg: Message {
                id: MessageId(id),
                src: NodeId(0),
                dst: NodeId(dst),
                size: 10,
                created: SimTime::ZERO,
                ttl: 100.0,
            },
            copies: 1,
            received_at: SimTime::ZERO,
            hops,
        };
        buf.insert(mk(0, 1, 0)).unwrap(); // fresh, low hops: protected
        buf.insert(mk(1, 2, 9)).unwrap(); // travelled, cost 1.5
        buf.insert(mk(2, 3, 9)).unwrap(); // travelled, cost 2.5: first victim
        let incoming = mk(9, 1, 0).msg;
        let order = r.select_drops(&buf, &incoming, SimTime::ZERO);
        assert_eq!(order[0], MessageId(2));
        assert_eq!(order[1], MessageId(1));
        assert_eq!(order[2], MessageId(0));
    }
}
