"""Lease and staleness bookkeeping for one cohort.

One :class:`ReadState` lives on each cohort of a reads-enabled group and
tracks both sides of the lease protocol plus the freshness of the
backup's applied prefix:

- *primary side*: ``grants`` maps each backup mid to the expiry of the
  newest grant received from it.  The lease is **valid** while the
  primary itself plus the backups with unexpired grants form a majority
  of the configuration -- the same majority rule view formation uses, so
  any view that forms while the lease is valid must include a grantor
  (or the primary itself), whose acceptance reports the promise.
- *backup side*: ``promises`` maps each grantee mid to the latest expiry
  this cohort has promised it.  Expired promises are pruned lazily;
  unexpired ones are attached to every view-change acceptance so the
  formation can compute the activation deferral bound.
- *freshness*: ``prefix_fresh_at`` is the last instant this cohort's
  applied prefix was known to match the primary's buffer timestamp
  (stamped when buffer application catches up, and refreshed by
  heartbeat-carried ``primary_ts`` while idle).  A stale-bounded read's
  staleness is ``now - prefix_fresh_at``.

Nothing here arms timers: validity is evaluated lazily against the
simulator clock, so a reads-enabled but idle group schedules exactly the
same events as a reads-disabled one.

Attached to a cohort (:meth:`ReadState.attach`), the state is also the
cohort's *reads plane* (:mod:`repro.core.plane`): grants ride the acks and
I'm-alive beacons a backup sends its primary, the primary's beacons carry
its buffer timestamp for freshness, :meth:`ReadState.serve` answers
``ReadMsg`` in place of the core's ``reads_disabled`` refusal, every
view-change acceptance carries its outstanding promises, and the
formation's activation bound is :func:`formation_lease_bound`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.cohort import Status
from repro.core.messages import (
    BufferAckMsg,
    BufferMsg,
    ImAliveMsg,
    ReadMsg,
    ReadReplyMsg,
)
from repro.core.plane import Plane
from repro.core.view import majority
from repro.core.viewstamp import Viewstamp

#: Grantee recorded by a crashed acceptor: its real promises (and their
#: grantees) died with its volatile state, so it conservatively reports a
#: full-duration promise to an unknown grantee, which every formation
#: must count against whatever primary it chooses.
CRASH_GRANTEE = -1


class ReadState(Plane):
    """Both sides of the lease protocol plus prefix freshness, per cohort;
    attached to one, also the cohort's reads plane."""

    def __init__(self, reads_config, config_size: int, clock, cohort=None):
        self.cfg = reads_config
        self.config_size = config_size
        self.clock = clock
        #: primary side: backup mid -> newest grant expiry received
        self.grants: Dict[int, float] = {}
        #: backup side: grantee mid -> latest promise expiry made
        self.promises: Dict[int, float] = {}
        #: last instant the applied prefix was known current
        self.prefix_fresh_at: float = clock()
        #: whether the last validity evaluation held (for grant/expire
        #: trace transitions)
        self.was_valid = False
        self.cohort = cohort

    @classmethod
    def attach(cls, cohort) -> "ReadState":
        """The reads plane of *cohort*, under its ``ProtocolConfig.reads``."""
        return cls(cohort.config.reads, cohort.config_size, lambda: cohort.sim.now, cohort)

    # -- backup side: making promises ----------------------------------

    def make_promise(self, grantee: int) -> float:
        """Record and return the expiry of a grant to *grantee*."""
        expiry = self.clock() + self.cfg.lease_duration
        if self.promises.get(grantee, 0.0) < expiry:
            self.promises[grantee] = expiry
        return expiry

    def promise_residue(self) -> None:
        """Replace all promises with a full-duration unknown-grantee bound.

        Used after recovery: volatile promise state is gone, and a promise
        made any time before the crash expires no later than
        ``now + lease_duration``.
        """
        self.promises = {CRASH_GRANTEE: self.clock() + self.cfg.lease_duration}

    def outstanding_promises(self) -> Tuple[Tuple[int, float], ...]:
        """Unexpired (grantee, expiry) pairs, pruning the expired ones."""
        now = self.clock()
        self.promises = {
            grantee: expiry
            for grantee, expiry in self.promises.items()
            if expiry > now
        }
        return tuple(sorted(self.promises.items()))

    # -- primary side: holding the lease --------------------------------

    def record_grant(self, mid: int, until: float) -> None:
        if self.grants.get(mid, 0.0) < until:
            self.grants[mid] = until

    def lease_valid(self, view) -> bool:
        """True iff self + unexpired grantors form a configuration majority.

        Only grants from current view members count: an excluded cohort's
        grant proves nothing about the views that can form without us.
        """
        now = self.clock()
        holders = 1 + sum(
            1
            for mid in view.backups
            if self.grants.get(mid, 0.0) > now
        )
        return holders >= majority(self.config_size)

    def lease_until(self, view) -> float:
        """The instant validity lapses if no further grant arrives (0.0
        when not currently valid): the k-th largest unexpired grant
        expiry, where self plus k grantors are a bare majority."""
        now = self.clock()
        needed = majority(self.config_size) - 1  # grantors beyond self
        expiries = sorted(
            (
                self.grants.get(mid, 0.0)
                for mid in view.backups
                if self.grants.get(mid, 0.0) > now
            ),
            reverse=True,
        )
        if needed <= 0:
            return float("inf")  # a 1-cohort group is its own majority
        if len(expiries) < needed:
            return 0.0
        return expiries[needed - 1]

    def reset_grants(self) -> None:
        self.grants = {}
        self.was_valid = False

    # -- staleness -------------------------------------------------------

    def mark_fresh(self) -> None:
        self.prefix_fresh_at = self.clock()

    def staleness(self) -> float:
        return self.clock() - self.prefix_fresh_at

    # -- the cohort's reads plane ------------------------------------------

    def handlers(self):
        return {ReadMsg: (self.serve, False)}

    def on_accept(self, msg) -> None:
        # Report outstanding promises so the formation can defer the new
        # primary past any lease an old one could still be serving under.
        msg.lease_promises = self.outstanding_promises()

    def activation_bound(self, responses: Iterable, primary: int) -> float:
        return formation_lease_bound(responses, primary)

    def on_send(self, dest: int, msg) -> int:
        cohort = self.cohort
        if cohort.status is not Status.ACTIVE:
            return dest
        if type(msg) is ImAliveMsg:
            if cohort.is_primary:
                # Stamp the buffer's high-water mark so idle backups can
                # confirm their applied prefix is current (freshness).
                if cohort.buffer is not None:
                    msg.primary_ts = cohort.buffer.timestamp
            elif dest == cohort.cur_view.primary:
                # Grant/renew the lease to our primary: the beacon doubles
                # as lease traffic (no extra messages).
                msg.lease_until = self.make_promise(dest)
        elif type(msg) is BufferAckMsg and dest == cohort.cur_view.primary:
            # Every ack renews the lease; under steady buffer traffic the
            # beacon grants are pure backup.  (Tree-routed acks skip the
            # grant: the primary would never see it.)
            msg.lease_until = self.make_promise(dest)
        return dest

    def on_receive(self, msg) -> bool:
        cohort = self.cohort
        if type(msg) is BufferMsg:
            if cohort.applied_ts >= msg.primary_ts:
                # Caught up to the primary's high-water mark as of this
                # send: the applied prefix is fresh (modulo one network
                # delay, which the staleness bound's documentation covers).
                self.mark_fresh()
        elif type(msg) is ImAliveMsg:
            if msg.viewid != cohort.cur_viewid:
                return False
            if msg.lease_until is not None and cohort.is_active_primary:
                self._note_grant(msg.mid, msg.lease_until)
            if (
                msg.primary_ts is not None
                and cohort.status is Status.ACTIVE
                and not cohort.is_primary
                and cohort.cur_view is not None
                and msg.mid == cohort.cur_view.primary
                and cohort.applied_ts >= msg.primary_ts
            ):
                # Our applied prefix matches the primary's buffer high-water
                # mark as of the beacon: the prefix is fresh now.
                self.mark_fresh()
        elif (
            type(msg) is BufferAckMsg
            and msg.lease_until is not None
            and msg.viewid == cohort.cur_viewid
            and cohort.is_active_primary
        ):
            self._note_grant(msg.mid, msg.lease_until)
        return False

    def _note_grant(self, mid: int, until: float) -> None:
        """Primary: a grant arrived piggybacked on ack/beacon traffic."""
        view = self.cohort.cur_view
        self.record_grant(mid, until)
        if not self.was_valid and self.lease_valid(view):
            self.was_valid = True
            self.cohort.emit(
                "lease_grant",
                viewid=str(self.cohort.cur_viewid),
                until=self.lease_until(view),
            )

    def on_view_installed(self) -> None:
        # A new view starts leaseless: grants must come from its backups.
        # The installed state is trivially fresh.
        self.reset_grants()
        self.mark_fresh()

    def on_leave_active(self) -> None:
        if self.was_valid:
            self.cohort.emit(
                "lease_expire", viewid=str(self.cohort.cur_viewid), reason="left_active"
            )
        self.reset_grants()

    def on_crash(self) -> None:
        self.reset_grants()

    def on_recover(self) -> None:
        # Promise state was volatile: report a conservative full-duration
        # residue at the next view change (a promise made just before the
        # crash could still be outstanding even if recovery was quick).
        self.promise_residue()

    def serve(self, msg: ReadMsg) -> None:
        """Answer a read: leased at the primary, stale-bounded at a backup."""
        cohort = self.cohort
        if cohort.status is not Status.ACTIVE or not cohort.up_to_date:
            cohort.reject_read(msg, "not_active")
            return
        if cohort.is_witness:
            # Witnesses hold no object state to serve (repro.scale).
            cohort.reject_read(msg, "not_active")
            return
        viewid = cohort.cur_viewid
        if cohort.is_primary:
            if not self.lease_valid(cohort.cur_view):
                if self.was_valid:
                    self.was_valid = False
                    cohort.emit("lease_expire", viewid=str(viewid), reason="expired")
                cohort.reject_read(msg, "no_lease")
                return
            # Linearizable local read: the lease guarantees no other
            # primary can have committed a newer value (docs/READS.md).
            obj = cohort.store.get(msg.uid) if msg.uid in cohort.store else None
            ts = cohort.buffer.timestamp if cohort.buffer is not None else 0
            cohort.emit("lease_read", viewid=str(viewid), uid=msg.uid)
            cohort.metrics.incr(f"lease_reads:{cohort.mygroupid}")
            self._reply(msg, obj, Viewstamp(viewid, ts), "lease", 0.0)
            return
        staleness = self.staleness()
        bound = msg.max_staleness
        if bound is None:
            bound = self.cfg.default_max_staleness
        if staleness > bound:
            cohort.reject_read(msg, "too_stale", staleness=staleness)
            return
        obj = cohort.store.get(msg.uid) if msg.uid in cohort.store else None
        cohort.emit("stale_read", viewid=str(viewid), uid=msg.uid, staleness=staleness)
        cohort.metrics.incr(f"backup_reads:{cohort.mygroupid}")
        self._reply(msg, obj, Viewstamp(viewid, cohort.applied_ts), "backup", staleness)

    def _reply(self, msg: ReadMsg, obj, viewstamp: Viewstamp, mode: str,
               staleness: float) -> None:
        cohort = self.cohort
        cohort.send(
            msg.reply_to,
            ReadReplyMsg(
                request_id=msg.request_id,
                uid=msg.uid,
                value=obj.base if obj is not None else None,
                viewstamp=viewstamp,
                mode=mode,
                staleness=staleness,
                groupid=cohort.mygroupid,
            ),
        )


def formation_lease_bound(
    responses: Iterable, chosen_primary: int
) -> float:
    """The activation deferral for a view formed from *responses*.

    The latest expiry among all reported lease promises made to anyone
    other than *chosen_primary*.  Promises to the chosen primary itself
    are harmless -- that cohort stopped serving when it accepted the
    invitation, and it is the one whose activation is being deferred.
    The unknown grantee (:data:`CRASH_GRANTEE`) never matches, so
    crashed acceptors always defer.
    """
    bound = 0.0
    for acceptance in responses:
        for grantee, expiry in getattr(acceptance, "lease_promises", ()):
            if grantee != chosen_primary and expiry > bound:
                bound = expiry
    return bound
