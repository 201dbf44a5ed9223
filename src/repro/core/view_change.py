"""The view change algorithm (paper section 4, Figure 5).

Roles:

- *view manager*: mints a viewid greater than any seen (paired with its own
  mid, so viewids are globally unique), invites every other cohort, collects
  normal/crashed acceptances, and attempts view formation when all have
  responded or a timeout expires.
- *underling*: accepted an invitation; waits (``await_view``) for an
  init-view message (it was chosen primary), a newview record through the
  buffer (it is a backup of the formed view), a higher invitation, or a
  timeout that promotes it to manager.

View formation rule (section 4): a majority of cohorts accepted, and

1. a majority accepted *normally*, or
2. ``crash_viewid < normal_viewid``, or
3. ``crash_viewid == normal_viewid`` and the primary of that view accepted
   normally (a primary always knows at least as much as any backup).

The cohort returning the largest viewstamp in a normal acceptance becomes
the new primary; the old primary of that view is preferred when possible
("since this causes minimal disruption").  All acceptors -- including
crashed ones, which the newview record will re-initialize -- join the view.

Two variations of the rule live in ``form_view``, both off for the paper's
configuration: condition 4 (``extended_formation_rule``, DESIGN.md D11),
and, with witnesses configured, condition 1 relaxed to storage coverage
(docs/SCALE.md).  Every other extension attaches through the plane hooks
(:mod:`repro.core.plane`): planes stamp this cohort's acceptance
(``on_accept``) and may defer the new primary's activation
(``activation_bound``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core import messages as m
from repro.core.cohort import Status
from repro.core.events import NewView
from repro.core.view import View, majority
from repro.core.viewstamp import ViewId, Viewstamp
from repro.detect import Backoff


class ViewChangeController:
    """Figure 5's state machine, hosted by a cohort."""

    def __init__(self, cohort):
        self.cohort = cohort
        self._responses: Dict[int, m.AcceptMsg] = {}
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
        self.installing = False
        self._manage_rounds = 0
        self._formed = False
        # Created lazily: form_view() is also exercised standalone with
        # fake cohorts that have no simulator attached.
        self._retry_backoff: Optional[Backoff] = None
        self._await_rng = None

    def _backoff(self) -> Backoff:
        if self._retry_backoff is None:
            cohort = self.cohort
            config = cohort.config
            self._retry_backoff = Backoff(
                config.view_retry_delay,
                cohort.runtime.sim.rng.fork(f"vc-backoff/{cohort.address}"),
                multiplier=config.backoff_multiplier,
                cap_factor=config.backoff_cap,
                jitter=config.backoff_jitter,
            )
        return self._retry_backoff

    def _jitter_rng(self):
        if self._await_rng is None:
            cohort = self.cohort
            self._await_rng = cohort.runtime.sim.rng.fork(
                f"vc-await/{cohort.address}"
            )
        return self._await_rng

    def reset(self) -> None:
        """Drop controller state after a crash (timers died with the node)."""
        self._responses = {}
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
        self.installing = False
        self._manage_rounds = 0
        self._formed = False
        if self._retry_backoff is not None:
            self._retry_backoff.reset()

    # ------------------------------------------------------------------
    # becoming a manager
    # ------------------------------------------------------------------

    def become_manager(self) -> None:
        cohort = self.cohort
        if not cohort.node.up:
            return
        if cohort.status is Status.ACTIVE:
            cohort.leave_active()
        if cohort.status is Status.VIEW_MANAGER:
            return  # already managing; the retry timer drives progress
        self._cancel_timers()
        cohort.status = Status.VIEW_MANAGER
        cohort.metrics.incr(f"view_changes_started:{cohort.mygroupid}")
        cohort.runtime.ledger.record_view_change_started(
            cohort.mygroupid, cohort.sim.now
        )
        cohort.emit("view_manager")
        self._make_invitations()

    def _make_invitations(self) -> None:
        """Figure 5: mint a new viewid, invite everyone, await responses."""
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER:
            return  # a stale retry timer fired after we stopped managing
        cohort.max_viewid = cohort.max_viewid.next_for(cohort.mymid)
        self._manage_rounds += 1
        self._formed = False
        self._responses = {cohort.mymid: self._own_acceptance()}
        for peer, address in cohort.configuration:
            if peer != cohort.mymid:
                cohort.send(
                    address,
                    m.InviteMsg(viewid=cohort.max_viewid, manager_mid=cohort.mymid),
                )
        self._invite_timer = cohort.set_timer(
            cohort.config.invite_timeout, self._attempt_formation
        )
        if cohort.config.adaptive_timeouts:
            self._arm_invite_retransmit()

    def _arm_invite_retransmit(self) -> None:
        """Mid-round invite re-sends: a dropped invite or accept must not
        stall the round for the whole ``invite_timeout``.  The period comes
        from the detector's learned RTO (a couple of round trips), bounded
        so a round sees at least one retransmission."""
        cohort = self.cohort
        rto = cohort.detect.group_rto()
        if rto is not None:
            period = max(cohort.config.min_timeout, 2.0 * rto)
        else:
            period = cohort.config.invite_timeout / 4.0
        period = min(period, cohort.config.invite_timeout / 2.0)
        self._retransmit_timer = cohort.set_timer(period, self._retransmit_invites)

    def _retransmit_invites(self) -> None:
        cohort = self.cohort
        self._retransmit_timer = None
        if cohort.status is not Status.VIEW_MANAGER or self._formed:
            return
        resent = 0
        for peer, address in cohort.configuration:
            if peer == cohort.mymid or peer in self._responses:
                continue
            if cohort.detect.is_suspect(peer):
                continue  # looks dead; formation will not wait for it either
            cohort.send(
                address,
                m.InviteMsg(viewid=cohort.max_viewid, manager_mid=cohort.mymid),
            )
            resent += 1
        if resent:
            cohort.metrics.incr(f"invite_retransmits:{cohort.mygroupid}", resent)
        self._arm_invite_retransmit()

    def _own_acceptance(self) -> m.AcceptMsg:
        """Figure 5 ``do_accept``'s reply: normal (current viewstamp) or
        crashed (stable viewid only); each plane then stamps it."""
        cohort = self.cohort
        if cohort.up_to_date:
            acceptance = m.AcceptMsg(
                viewid=cohort.max_viewid,
                mid=cohort.mymid,
                crashed=False,
                viewstamp=cohort.history.latest,
                was_primary=cohort.cur_view is not None
                and cohort.cur_view.primary == cohort.mymid,
                crash_viewid=None,
                view=cohort.cur_view,
            )
        else:
            acceptance = m.AcceptMsg(
                viewid=cohort.max_viewid,
                mid=cohort.mymid,
                crashed=True,
                viewstamp=None,
                was_primary=False,
                crash_viewid=cohort.cur_viewid,
            )
        for plane in cohort.planes:
            plane.on_accept(acceptance)
        return acceptance

    # ------------------------------------------------------------------
    # accepting invitations (do_accept)
    # ------------------------------------------------------------------

    def on_invite(self, msg: m.InviteMsg) -> None:
        cohort = self.cohort
        if msg.viewid < cohort.max_viewid:
            return  # "ignore the msg"
        if msg.viewid == cohort.max_viewid and cohort.status is not Status.UNDERLING:
            # Equal viewid: only re-accept while still awaiting that view.
            return
        self._do_accept(msg.viewid, msg.manager_mid)

    def _do_accept(self, viewid: ViewId, manager_mid: int) -> None:
        cohort = self.cohort
        if cohort.status is Status.ACTIVE:
            cohort.leave_active()
        cohort.max_viewid = viewid
        self._cancel_timers()
        self.installing = False
        cohort.status = Status.UNDERLING
        cohort.emit("invite_accepted", viewid=str(viewid), manager=manager_mid)
        cohort.send_mid(manager_mid, self._own_acceptance())
        self._arm_await_timer()

    def _arm_await_timer(self) -> None:
        cohort = self.cohort
        delay = cohort.config.underling_timeout
        if cohort.config.adaptive_timeouts and cohort.config.promotion_jitter > 0.0:
            # Spread promotions out so underlings of a dead manager do not
            # all become competing managers at the same instant.  Jitter
            # only ever *extends* the paper's "fairly long" timeout.
            delay *= 1.0 + cohort.config.promotion_jitter * self._jitter_rng().random()
        self._await_timer = cohort.set_timer(delay, self._await_timeout)

    def _await_timeout(self) -> None:
        if self.cohort.status is Status.UNDERLING:
            self.become_manager()

    # ------------------------------------------------------------------
    # collecting acceptances and forming the view
    # ------------------------------------------------------------------

    def on_accept(self, msg: m.AcceptMsg) -> None:
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER:
            return
        if msg.viewid != cohort.max_viewid:
            return  # acceptance of an older proposal of ours
        self._responses[msg.mid] = msg
        if len(self._responses) == cohort.config_size:
            self._attempt_formation()
            return
        # Section 4.1: the manager waits "to hear from all cohorts that the
        # 'I'm alive' messages indicate should reply" -- cohorts that look
        # dead are not waited for beyond this point.
        expected = {
            mid
            for mid, _addr in cohort.configuration
            if mid == cohort.mymid or not cohort.detect.is_suspect(mid)
        }
        if set(self._responses) >= expected:
            self._attempt_formation()

    def _attempt_formation(self) -> None:
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER or self._formed:
            return
        if self._invite_timer is not None:
            self._invite_timer.cancel()
            self._invite_timer = None
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        if self._retry_timer is not None:
            # A late acceptance can trigger another formation attempt while
            # a retry timer from a previous failure is still armed; without
            # cancelling it here the old timer fires alongside the new one
            # and mints two viewids back to back.
            self._retry_timer.cancel()
            self._retry_timer = None
        view = self.form_view(self._responses)
        if view is None:
            cohort.metrics.incr(f"view_formations_failed:{cohort.mygroupid}")
            if cohort.config.adaptive_timeouts:
                delay = self._backoff().next()
            else:
                delay = cohort.config.view_retry_delay
            self._retry_timer = cohort.set_timer(delay, self._make_invitations)
            return
        self._formed = True
        cohort.emit(
            "view_formed",
            viewid=str(cohort.max_viewid),
            primary=view.primary,
            members=sorted(view.members),
            config_size=cohort.config_size,
        )
        if self._retry_backoff is not None and self._retry_backoff.reset():
            cohort.metrics.incr(f"backoff_resets:{cohort.mygroupid}")
        responses = self._responses.values()
        activate_at = max(
            (plane.activation_bound(responses, view.primary) for plane in cohort.planes),
            default=0.0,
        )
        if view.primary == cohort.mymid:
            self._start_view(view, activate_at)
        else:
            cohort.send_mid(
                view.primary,
                m.InitViewMsg(
                    viewid=cohort.max_viewid, view=view, lease_bound=activate_at
                ),
            )
            cohort.status = Status.UNDERLING
            self._arm_await_timer()

    def form_view(self, responses: Dict[int, m.AcceptMsg]) -> Optional[View]:
        """Apply the section-4 formation rule; None when it cannot be met."""
        cohort = self.cohort
        n = cohort.config_size
        accepted = list(responses.values())
        if len(accepted) < majority(n):
            return None
        # Witness acceptances (repro.scale) count toward the majority and
        # join the formed view, but carry no viewstamp/crash evidence --
        # they are excluded from both evidence partitions.
        normals = [a for a in accepted if not a.crashed and not a.witness]
        crashed = [a for a in accepted if a.crashed and not a.witness]
        if not normals:
            return None
        normal_vs: Viewstamp = max(a.viewstamp for a in normals)
        # Condition 1.  With witnesses, force quorums are all-storage
        # (``majority(n)`` buffer-holding members counting the primary), so
        # a majority relaxes to *coverage*: enough storage members accepted
        # normally that they intersect every possible force quorum of every
        # view, hence no forced event can be missing from their joint state.
        if cohort.witness_mids:
            need = n - len(cohort.witness_mids) - majority(n) + 1
        else:
            need = majority(n)
        if len(normals) < need:
            if not crashed:
                return None
            normal_viewid = normal_vs.id
            crash_viewid = max(a.crash_viewid for a in crashed)
            same_view = crash_viewid == normal_viewid
            cond2 = crash_viewid < normal_viewid
            cond3 = same_view and any(
                a.was_primary and a.viewstamp.id == normal_viewid for a in normals
            )
            cond4 = (
                same_view
                and cohort.config.extended_formation_rule
                and self._backups_cover_forces(normals, normal_viewid)
            )
            if not (cond2 or cond3 or cond4):
                return None
        primary = self._choose_primary(normals, normal_vs)
        backups = tuple(
            sorted(a.mid for a in accepted if a.mid != primary)
        )
        return View(primary=primary, backups=backups)

    def _backups_cover_forces(self, normals, normal_viewid) -> bool:
        """Extended formation condition (beyond the paper; DESIGN.md D11).

        Every force in view V required acknowledgments from a sub-majority
        ``s`` of V's ``b`` backups, and buffer delivery is a cumulative
        prefix of the primary's log.  Therefore if at least ``b - s + 1``
        backups of V accepted normally, the set intersects every possible
        force quorum, and its max-viewstamp member's prefix contains every
        forced event -- it can safely seed the new view even though V's
        primary (which the paper's condition 3 insists on) is gone.
        """
        from repro.core.view import sub_majority

        members = [a for a in normals if a.viewstamp.id == normal_viewid]
        if not members:
            return False
        old_view = next((a.view for a in members if a.view is not None), None)
        if old_view is None or old_view.primary in {a.mid for a in members}:
            return False  # no membership info / condition 3 territory
        # Witnesses never ack buffer records, so force quorums were drawn
        # from the storage backups only (repro.scale).
        witnesses = self.cohort.witness_mids
        storage_backups = [b for b in old_view.backups if b not in witnesses]
        old_backups = [a for a in members if a.mid in storage_backups]
        needed = len(storage_backups) - sub_majority(self.cohort.config_size) + 1
        return len(old_backups) >= max(needed, 1)

    @staticmethod
    def _choose_primary(normals, normal_vs: Viewstamp) -> int:
        """Largest viewstamp wins; the old primary of that view if possible."""
        for acceptance in normals:
            if acceptance.was_primary and acceptance.viewstamp.id == normal_vs.id:
                return acceptance.mid
        candidates = [a.mid for a in normals if a.viewstamp == normal_vs]
        return min(candidates)

    # ------------------------------------------------------------------
    # starting the view (new primary path)
    # ------------------------------------------------------------------

    def on_init_view(self, msg: m.InitViewMsg) -> None:
        cohort = self.cohort
        if msg.viewid != cohort.max_viewid:
            return
        if cohort.status is Status.ACTIVE and cohort.cur_viewid == msg.viewid:
            return  # duplicate init for a view we already started
        self._start_view(msg.view, msg.lease_bound)

    def _start_view(self, view: View, activate_at: float) -> None:
        """Figure 5 ``start_view``: open the history entry, persist the
        viewid, then activate (``activate_as_primary`` builds the newview
        record and opens the buffer).

        Activation is deferred until ``activate_at``, the latest of the
        planes' activation bounds (:meth:`repro.core.plane.Plane.activation_bound`;
        0.0 for the paper's cohort).  The reads plane's bound is the
        expiry of the leases an old primary may still serve under: this
        primary committing a write any earlier would let a read miss it
        (docs/READS.md)."""
        cohort = self.cohort
        self._cancel_timers()
        viewid = cohort.max_viewid
        cohort.cur_view = view
        cohort.cur_viewid = viewid
        cohort.history.open_view(viewid)
        write = cohort.stable.write("cur_viewid", viewid)

        def activate() -> None:
            if cohort.max_viewid != viewid or not cohort.node.up:
                return  # preempted by a higher view while waiting
            cohort.activate_as_primary(viewid, view)

        def on_durable(future) -> None:
            if cohort.max_viewid != viewid or not cohort.node.up:
                return  # preempted by a higher view while writing
            if future.exception() is not None:
                # The viewid never became durable: activating anyway would
                # break the recovery protocol's reliance on stable
                # cur_viewid (section 4).  Refuse the view and retry.
                self._on_viewid_write_failed(viewid, future.exception())
                return
            now = cohort.sim.now
            if activate_at > now:
                # A bound is an expiry (valid strictly before it), so
                # waiting until exactly the bound suffices.
                cohort.emit("lease_wait", viewid=str(viewid), until=activate_at)
                cohort.metrics.incr(f"lease_waits:{cohort.mygroupid}")
                cohort.set_timer(activate_at - now, activate)
                return
            activate()

        write.add_done_callback(on_durable)

    def _on_viewid_write_failed(self, viewid: ViewId, error) -> None:
        """A ``cur_viewid`` stable write resolved to a failure (disk fault).

        The view must not be silently accepted: a manager re-enters the
        invitation round after a backoff (minting a fresh viewid), an
        underling keeps waiting so its await timer can promote it.  Either
        way the failure is counted and traced.
        """
        cohort = self.cohort
        cohort.metrics.incr(f"stable_write_failures:{cohort.mygroupid}")
        cohort.emit(
            "stable_write_failed",
            viewid=str(viewid),
            key="cur_viewid",
            error=str(error),
        )
        if cohort.status is Status.VIEW_MANAGER:
            cohort.metrics.incr(f"view_formations_failed:{cohort.mygroupid}")
            self._formed = False
            if cohort.config.adaptive_timeouts:
                delay = self._backoff().next()
            else:
                delay = cohort.config.view_retry_delay
            self._retry_timer = cohort.set_timer(delay, self._make_invitations)
            return
        # Underling: stay put; re-arm the await timer if _start_view's
        # timer sweep cancelled it, so silence still promotes us.
        if self._await_timer is None or not self._await_timer.active:
            self._arm_await_timer()

    # ------------------------------------------------------------------
    # underling: newview arriving through the buffer
    # ------------------------------------------------------------------

    def on_buffer_while_underling(self, msg: m.BufferMsg) -> None:
        cohort = self.cohort
        if msg.viewid != cohort.max_viewid or self.installing:
            return
        if not msg.records or msg.records[0][0] != 1:
            return  # need the start of the view; primary resends from ts 1
        first_ts, first_record = msg.records[0]
        if not isinstance(first_record, NewView):
            return
        viewid = msg.viewid
        self.join_durably(viewid, lambda: cohort.install_newview(viewid, first_record))

    def join_durably(self, viewid: ViewId, join: Callable[[], None]) -> None:
        """Durably write ``cur_viewid``, then *join* the view -- provided
        this cohort is still an underling awaiting *viewid* by then.

        Joining without a durable cur_viewid would make a later recovery
        report a stale crash_viewid, so a failed write keeps the cohort an
        underling (the await timer still promotes it).  ``installing`` is
        set while the write is outstanding."""
        cohort = self.cohort
        self.installing = True

        def on_durable(future) -> None:
            self.installing = False
            if cohort.max_viewid != viewid or not cohort.node.up:
                return
            if cohort.status is not Status.UNDERLING:
                return
            if future.exception() is not None:
                self._on_viewid_write_failed(viewid, future.exception())
                return
            self._cancel_timers()
            join()

        cohort.stable.write("cur_viewid", viewid).add_done_callback(on_durable)

    # ------------------------------------------------------------------

    def _cancel_timers(self) -> None:
        for timer in (
            self._invite_timer,
            self._await_timer,
            self._retry_timer,
            self._retransmit_timer,
        ):
            if timer is not None:
                timer.cancel()
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
