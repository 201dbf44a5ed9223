"""The scale plane: gossip heartbeats, ack trees and witness view installs.

One :class:`ScalePlane` per cohort of a group whose
:class:`~repro.config.ScaleConfig` arms any mechanism (the package
docstring describes the three).  The plane owns the gossip RNG and
fan-out, the ack tree's children and forwarding, a witness's view-change
vote and view install, and the primary's retransmission of those
installs; the witness set itself is computed once per group and
published as ``Cohort.witness_mids``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.config import ScaleConfig
from repro.core.cohort import Status
from repro.core.messages import AcceptMsg, BufferAckMsg, ImAliveMsg, WitnessInstallMsg
from repro.core.plane import Plane
from repro.core.viewstamp import ViewId
from repro.scale import AckTree


class ScalePlane(Plane):
    """Large-cohort mechanisms for one cohort."""

    def __init__(self, cohort, cfg: ScaleConfig, witnesses: FrozenSet[int], reads: bool):
        self.cohort = cohort
        self.cfg = cfg
        #: whether a reads plane is attached too (its lease grants ride
        #: the beacons to the primary)
        self.reads = reads
        cohort.witness_mids = witnesses
        self.gossip_rng = (
            cohort.runtime.sim.rng.fork(f"gossip/{cohort.address}")
            if cfg.gossip
            else None
        )
        #: this round's relayed liveness evidence, stamped on every beacon
        self.evidence: Tuple[Tuple[int, float], ...] = ()
        self._tree: Optional[AckTree] = None
        self._tree_key = None
        #: ack-tree interior: the subtree's latest (mid -> acked_ts)
        self.children: Dict[int, int] = {}
        self.children_viewid: Optional[ViewId] = None
        self.forward_armed = False
        #: primary: witnesses that have not confirmed the view install
        self.install_pending: Set[int] = set()

    def handlers(self):
        return {WitnessInstallMsg: (self.on_witness_install, False)}

    # -- gossip heartbeats ---------------------------------------------------

    def beacon_targets(self, targets: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        """Beacon a seeded-random fan-out of peers, carrying recent liveness
        evidence; the epidemic relay replaces the all-peers broadcast."""
        if self.gossip_rng is None:
            return targets
        cohort = self.cohort
        if self.cfg.gossip_fanout < len(targets):
            chosen = self.gossip_rng.sample(targets, self.cfg.gossip_fanout)
            if (
                self.reads
                and cohort.status is Status.ACTIVE
                and cohort.cur_view is not None
                and not cohort.is_primary
            ):
                primary = cohort.cur_view.primary
                if all(peer != primary for peer, _addr in chosen):
                    # Read-lease grants ride the beacon: the primary must
                    # keep hearing us directly even on rounds the epidemic
                    # fan-out happens to miss it.
                    chosen.append((primary, cohort.peer_address(primary)))
            targets = chosen
        self.evidence = self._fresh_evidence()
        if self.evidence:
            cohort.emit(
                "gossip_relay",
                targets=sorted(peer for peer, _addr in targets),
                evidence=len(self.evidence),
            )
        return targets

    def _fresh_evidence(self) -> Tuple[Tuple[int, float], ...]:
        """(mid, heard_at) pairs for peers heard within the horizon."""
        cohort = self.cohort
        horizon = self.cfg.evidence_horizon_intervals * cohort.config.im_alive_interval
        cutoff = cohort.sim.now - horizon
        evidence = []
        for peer, _addr in cohort.configuration:
            if peer == cohort.mymid:
                continue
            heard = cohort.detect.last_heard(peer)
            if heard > 0.0 and heard >= cutoff:
                evidence.append((peer, heard))
        return tuple(evidence)

    # -- piggybacked traffic ---------------------------------------------------

    def on_send(self, dest: int, msg) -> int:
        if type(msg) is ImAliveMsg:
            msg.evidence = self.evidence
        elif type(msg) is BufferAckMsg and self.cfg.ack_tree:
            dest, msg.agg = self._ack_route()
        return dest

    def on_receive(self, msg) -> bool:
        cohort = self.cohort
        if type(msg) is ImAliveMsg:
            # Relayed evidence.  Relay hops are excluded from the RTT
            # estimator by design; the interval EWMA is fed origin-time
            # deltas (see FailureDetector.heard_relayed).
            for peer, heard_at in msg.evidence:
                if peer != cohort.mymid and peer != msg.mid:
                    cohort.detect.heard_relayed(peer, heard_at)
            return False
        if type(msg) is not BufferAckMsg:
            return False
        if self.install_pending:
            # A witness confirmed its view install (acked_ts is 0; a
            # witness applies nothing) -- stop retransmitting to it.
            self.install_pending.discard(msg.mid)
        if (
            self.cfg.ack_tree
            and not cohort.is_primary
            and cohort.status is Status.ACTIVE
            and msg.viewid == cohort.cur_viewid
        ):
            # Ack-tree interior node: fold the child's subtree into ours
            # and forward upward after a coalescing delay.
            self._on_child_ack(msg)
            return True
        return False

    # -- ack trees -------------------------------------------------------------

    def _ack_tree(self) -> AckTree:
        """The fan-in tree for the current view, cached per view."""
        cohort = self.cohort
        key = (cohort.cur_viewid, cohort.cur_view.backups)
        if self._tree_key != key:
            self._tree = AckTree(
                cohort.cur_view.primary,
                cohort.storage_backups(cohort.cur_view.backups),
                self.cfg.ack_fanout,
            )
            self._tree_key = key
        return self._tree

    def _ack_route(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Destination and aggregated (mid, acked_ts) pairs for our ack."""
        cohort = self.cohort
        tree = self._ack_tree()
        pairs = {cohort.mymid: cohort.applied_ts}
        if self.children_viewid == cohort.cur_viewid:
            for mid, ts in self.children.items():
                if ts > pairs.get(mid, -1):
                    pairs[mid] = ts
        parent = tree.parent(cohort.mymid)
        if parent != cohort.cur_view.primary and cohort.detect.is_suspect(parent):
            # A dead interior node must not orphan its subtree: bypass it.
            parent = cohort.cur_view.primary
        return parent, tuple(sorted(pairs.items()))

    def _on_child_ack(self, msg: BufferAckMsg) -> None:
        """Fold a child's (aggregated) ack into ours and forward the merged
        subtree upward after ``ack_delay``."""
        cohort = self.cohort
        if cohort.cur_view is None:
            return
        if self.children_viewid != cohort.cur_viewid:
            self.children = {}
            self.children_viewid = cohort.cur_viewid
        pairs = msg.agg if msg.agg else ((msg.mid, msg.acked_ts),)
        for mid, ts in pairs:
            if mid == cohort.mymid:
                continue
            if ts > self.children.get(mid, -1):
                self.children[mid] = ts
        if self.forward_armed:
            return
        self.forward_armed = True
        epoch = cohort._epoch
        viewid = cohort.cur_viewid

        def forward() -> None:
            self.forward_armed = False
            if (
                cohort._epoch != epoch
                or cohort.status is not Status.ACTIVE
                or cohort.cur_viewid != viewid
                or cohort.is_primary
            ):
                return
            cohort.emit(
                "ack_tree", children=len(self.children), acked_ts=cohort.applied_ts
            )
            cohort.send_ack()

        cohort.set_timer(self.cfg.ack_delay, forward)

    # -- witnesses: votes and view installs ------------------------------------

    def on_accept(self, msg: AcceptMsg) -> None:
        """A witness votes -- its acceptance counts toward the majority and
        it joins the formed view -- but carries no viewstamp evidence: it
        holds no event buffer, so the formation conditions must be met by
        storage members alone (docs/SCALE.md)."""
        cohort = self.cohort
        if not cohort.is_witness:
            return
        cohort.emit("witness_vote", viewid=str(cohort.max_viewid))
        msg.crashed = False
        msg.viewstamp = None
        msg.was_primary = False
        msg.crash_viewid = None
        msg.view = cohort.cur_view
        msg.witness = True

    def on_witness_install(self, msg: WitnessInstallMsg) -> None:
        """A new primary announced its formed view to this witness.

        Witnesses receive no buffer traffic, so the newview record never
        reaches them; the activating primary sends an explicit
        ``WitnessInstallMsg`` instead and retransmits it from its heartbeat
        loop until the witness confirms.  The confirmation reuses
        ``BufferAckMsg(acked_ts=0)`` -- harmless to the buffer (a witness
        mid is not in its acked map) and idempotent under loss.
        """
        cohort = self.cohort
        if not cohort.is_witness:
            return
        if cohort.status is Status.ACTIVE and cohort.cur_viewid == msg.viewid:
            # Duplicate announcement: our ack was lost; just re-confirm.
            self._ack_witness_install(msg)
            return
        if msg.viewid < cohort.max_viewid or cohort.view_change.installing:
            return
        if cohort.status is Status.ACTIVE:
            # The announcement outran an invitation (or we missed the
            # round entirely); a formed view always supersedes.
            cohort.leave_active()
        cohort.max_viewid = msg.viewid
        cohort.status = Status.UNDERLING

        def join() -> None:
            # No state to install -- a witness holds no event buffer and
            # applies no records -- so joining is just the view flip.
            cohort.join_view(msg.viewid, msg.view)
            cohort.emit("newview_installed", viewid=str(msg.viewid), witness=True)
            cohort.metrics.incr(f"views_joined:{cohort.mygroupid}")
            self._ack_witness_install(msg)

        cohort.view_change.join_durably(msg.viewid, join)

    def _ack_witness_install(self, msg: WitnessInstallMsg) -> None:
        self.cohort.send_mid(
            msg.view.primary,
            BufferAckMsg(viewid=msg.viewid, acked_ts=0, mid=self.cohort.mymid),
        )

    def on_view_installed(self) -> None:
        """A new primary announces the formed view to its witnesses, which
        receive no buffer traffic; retransmitted each heartbeat until each
        confirms."""
        cohort = self.cohort
        if not cohort.is_primary or not cohort.witness_mids:
            return
        view = cohort.cur_view
        self.install_pending = {
            peer
            for peer in view.members
            if peer != cohort.mymid and peer in cohort.witness_mids
        }
        for peer in sorted(self.install_pending):
            cohort.send_mid(peer, WitnessInstallMsg(viewid=cohort.cur_viewid, view=view))

    def on_heartbeat(self) -> None:
        cohort = self.cohort
        if not self.install_pending or not cohort.is_active_primary:
            return
        pending = [
            peer for peer in sorted(self.install_pending) if peer in cohort.cur_view
        ]
        self.install_pending = set(pending)
        for peer in pending:
            cohort.send_mid(
                peer, WitnessInstallMsg(viewid=cohort.cur_viewid, view=cohort.cur_view)
            )

    def on_crash(self) -> None:
        # Volatile scale state dies with the process.
        self.children = {}
        self.children_viewid = None
        self.forward_armed = False
        self.install_pending = set()
