"""Simplified speculative execution engine.

A window of in-flight instructions stands in for a reorder buffer.
Loads execute the moment they issue; a load issues speculatively
whenever any older window entry has not finished executing (an
unresolved branch barrier, or a store, which only executes at commit).
There is no cycle-accurate pipeline: mispredictions are explicit
directives from a harness or trace, delivered as squash_from on the
barrier that opened the wrong path.

Squashing walks the discarded entries in program order.  Each executed
load either rides out the squash (its data came from an L1 hit, so the
fill revealed nothing new) or triggers a one-way downward invalidation
carrying the level its data came from.  The issuer never waits for
those invalidations; execution resumes as soon as they are sent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .hierarchy import Hierarchy


class EntryKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    BARRIER = "barrier"


_LOAD = EntryKind.LOAD
_STORE = EntryKind.STORE
_BARRIER = EntryKind.BARRIER


@dataclass(slots=True)
class WindowEntry:
    id: int
    kind: EntryKind
    addr: int | None
    domain: int | None
    spec_bit: int = 0
    source_level: int = 0       # where an executed load's data came from


@dataclass(slots=True)
class SquashReport:
    """Disposition of every load discarded by one squash.

    loads_squashed always equals the sum of the two outcome counts; a
    squashed load has always executed, because loads execute at issue.
    """
    loads_squashed: int = 0
    sfill_inv_sent: int = 0
    skipped_l1hit: int = 0


class WindowFullError(RuntimeError):
    pass


class SpecEngine:
    """Issue window over one memory hierarchy."""

    def __init__(self, hier: Hierarchy, capacity: int = 64,
                 clear_specbit_on_commit: bool = False):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.hier = hier
        self.capacity = capacity
        self.clear_specbit_on_commit = clear_specbit_on_commit
        self.window: list[WindowEntry] = []
        self._next_id = 0
        self._unexecuted = 0
        self.loads_squashed = 0

    # -- bookkeeping --
    def _make_room(self) -> None:
        """Eagerly commit the resolved head of a full window.  A barrier
        at the head stays put: its fate is the caller's directive, so a
        window full up to one is a driver bug."""
        while self.window and len(self.window) >= self.capacity:
            if self.window[0].kind is _BARRIER:
                raise WindowFullError(
                    "window full behind an unresolved barrier; squash or commit first")
            self._commit_head()

    def _commit_head(self) -> WindowEntry:
        entry = self.window.pop(0)
        kind = entry.kind
        if kind is _STORE:
            # stores execute only now, at commit, architecturally
            self.hier.store(entry.addr, entry.domain)
            self._unexecuted -= 1
        elif kind is _BARRIER:
            self._unexecuted -= 1
        elif self.clear_specbit_on_commit and entry.spec_bit:
            rec = self.hier.l1.find(entry.addr, entry.domain)
            if rec is not None:
                rec.spec_bit = 0
        return entry

    # -- issue --
    def issue_load(self, addr: int, domain: int) -> WindowEntry:
        window = self.window
        if len(window) >= self.capacity:
            self._make_room()
        spec = 1 if self._unexecuted else 0
        out = self.hier.load(addr, domain, spec)
        self._next_id = entry_id = self._next_id + 1
        entry = WindowEntry(entry_id, _LOAD, addr, domain, spec,
                            out.source_level)
        window.append(entry)
        return entry

    def issue_store(self, addr: int, domain: int) -> WindowEntry:
        window = self.window
        if len(window) >= self.capacity:
            self._make_room()
        self._next_id = entry_id = self._next_id + 1
        entry = WindowEntry(entry_id, _STORE, addr, domain)
        window.append(entry)
        self._unexecuted += 1
        return entry

    def issue_barrier(self) -> WindowEntry:
        """An unresolved older instruction (think: a branch whose
        outcome is pending).  Everything issued behind it is
        speculative until squash_from or resolve_to settles it."""
        self._make_room()
        self._next_id = entry_id = self._next_id + 1
        entry = WindowEntry(entry_id, _BARRIER, None, None)
        self.window.append(entry)
        self._unexecuted += 1
        return entry

    # -- resolution --
    def _position(self, entry_id: int) -> int:
        # replay and commit_all resolve the youngest entry; ids are
        # unique, so checking it first finds the same position
        window = self.window
        last = len(window) - 1
        if last >= 0 and window[last].id == entry_id:
            return last
        for i, e in enumerate(window):
            if e.id == entry_id:
                return i
        raise KeyError(f"entry {entry_id} not in window")

    def resolve_to(self, entry_id: int) -> None:
        """Commit every entry up to and including entry_id, in order.
        Barriers resolve (prediction was right) and stores execute as
        they commit."""
        pos = self._position(entry_id)
        for _ in range(pos + 1):
            self._commit_head()

    def commit_all(self) -> None:
        if self.window:
            self.resolve_to(self.window[-1].id)

    def squash_from(self, entry_id: int) -> SquashReport:
        """Discard entry_id and everything younger; the wrong path.

        Loads, all executed at issue, are examined in program order: an
        L1-hit load is skipped (its line was resident already), any other
        load sends one invalidation stamped with its data's source level.
        The hierarchy takes the window's invalidations as one squash.
        """
        pos = self._position(entry_id)
        doomed = self.window[pos:]
        del self.window[pos:]
        report = SquashReport()
        sent = []
        for entry in doomed:
            if entry.kind is not _LOAD:
                self._unexecuted -= 1      # a store or barrier never ran
                continue
            report.loads_squashed += 1
            self.loads_squashed += 1
            if entry.source_level == 1:
                report.skipped_l1hit += 1
            else:
                sent.append((entry.addr, entry.domain, entry.source_level))
        report.sfill_inv_sent = len(sent)
        self.hier.squash(sent)
        return report
