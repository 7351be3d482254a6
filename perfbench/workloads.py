"""Seeded inputs for the benchmark's three workloads.

Everything a run sends to the server is planned here, from the seed
alone, before the server starts:

* ``visits`` reuses the load generator's traffic models
  (:func:`repro.tools.loadgen.build_models`) and its per-user plans
  (:func:`repro.tools.loadgen.schedule`).  The expected screens come
  from :func:`repro.tools.sessioncheck.record_figures` plus a local
  replay of every model prefix, so every screen read during a visit
  has a known right answer.
* ``edit`` and ``edit_replicated`` stream a long series of input
  records per client.  The series is recorded through Help's own input
  entry points under a shadow journal and then replayed locally; the
  replay must reproduce the screen the recording saw at every point
  the client will read the screen, or planning fails.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.core.render import render_screen
from repro.journal.log import Journal
from repro.journal.record import Record
from repro.journal.recorder import apply_record, attach
from repro.metrics.counter import MetricsRegistry
from repro.tools import loadgen
from repro.tools.corpus import SRC_DIR
from repro.tools.install import build_system
from repro.tools.sessioncheck import record_figures

WIDTH, HEIGHT = 160, 60
# record_figures builds its worlds for build_system's default user;
# every session the benchmark attaches uses the same name, so a
# server screen and its locally recorded reference see the same world
UNAME = "rob"

# a returning user's wake is queued this many visits after its own
# visit, so the wake seldom has to wait for the drop to hibernate
WAKE_DELAY = 6

# edit traffic: relative weights of the gestures a user makes
EDIT_WEIGHTS = {"click": 30, "sweep": 18, "type": 14, "scroll": 12,
                "open": 8, "snarf": 8, "paste": 4, "close": 6}
EDIT_FILES = tuple(f"{SRC_DIR}/{name}" for name in (
    "help.c", "exec.c", "errs.c", "text.c", "dat.h", "ctrl.c", "file.c",
    "fns.h", "mkfile"))
EDIT_TYPED = ("word ", "x", "if(p) ", "\n")
# an edit client reads the screen after every 2..5 records
READ_GAP = (2, 6)


class PlanError(Exception):
    """The planned inputs failed their own local check."""


def parse_line(line: str) -> Record:
    """An ``input`` file line as the record the server will apply."""
    kind, _, payload = line.rstrip("\n").partition(" ")
    return Record(0, kind, payload)


def replay_screens(lines, at) -> list[str]:
    """Replay *lines* into a fresh world; the screen after each count
    of records in *at* (ascending, 0 = the freshly built world)."""
    system = build_system(width=WIDTH, height=HEIGHT, user=UNAME)
    want = iter(at)
    point = next(want, None)
    screens = []
    for done in range(len(lines) + 1):
        while point == done:
            screens.append(render_screen(system.help))
            point = next(want, None)
        if done < len(lines):
            apply_record(system.help, parse_line(lines[done]))
    if point is not None:
        raise PlanError(f"read point {point} is past the stream's end")
    return screens


# -- visits -------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """One traffic model and the screen after each prefix of it."""

    name: str
    lines: tuple[str, ...]
    screens: tuple[str, ...]   # screens[k]: after the first k records


@dataclass(frozen=True)
class Task:
    """One unit of visits traffic: a first visit, or a return (wake)."""

    kind: str                  # "visit" | "wake"
    plan: loadgen.UserPlan


def visit_models():
    """loadgen's traffic models, and each as a :class:`Model` checked
    against the screen record_figures recorded for it."""
    with MetricsRegistry("perfbench.plan").activate():
        traffic = loadgen.build_models()
        recorded = record_figures()
        models = {}
        for model in traffic:
            screens = replay_screens(model.lines,
                                     range(len(model.lines) + 1))
            if screens[-1] != recorded[model.name]["screen"]:
                raise PlanError(f"{model.name}: local replay does not "
                                f"reproduce the recorded screen")
            models[model.name] = Model(model.name, model.lines,
                                       tuple(screens))
    return traffic, models


def visit_tasks(plans) -> list[Task]:
    """Every plan's visit in order, each returning user's wake queued
    :data:`WAKE_DELAY` visits later (wakes that would fall past the
    end of the plan list are not made)."""
    tasks: list[Task] = []
    due: dict[int, list] = {}
    for index, plan in enumerate(plans):
        tasks.append(Task("visit", plan))
        tasks.extend(Task("wake", back) for back in due.pop(index, ()))
        if plan.wake:
            due.setdefault(index + WAKE_DELAY, []).append(plan)
    return tasks


# -- edit ---------------------------------------------------------------------


@dataclass(frozen=True)
class EditStream:
    """One client's input records and where it reads the screen."""

    lines: tuple[str, ...]
    reads: tuple[int, ...]     # record counts after which to read
    screens: tuple[str, ...]   # the expected screen at each read

    def crc(self) -> str:
        text = "".join(self.lines) + ",".join(map(str, self.reads))
        return f"{zlib.crc32(text.encode()) & 0xffffffff:08x}"


def _visible(h) -> list:
    return [(w, col, rect) for col in h.screen.columns for w in col.windows
            if (rect := col.win_rect(w)) is not None]


def _edit_step(h, rng: random.Random) -> None:
    """One user gesture, through Help's input entry points only, and
    only on windows that are on screen."""
    visible = _visible(h)
    if not visible:
        h.open_path(rng.choice(EDIT_FILES))
        return
    gesture = rng.choices(list(EDIT_WEIGHTS), list(EDIT_WEIGHTS.values()))[0]
    window, col, rect = rng.choice(visible)
    x = col.body_x0 + rng.randrange(max(1, col.text_width))
    y = rect.y0 + rng.randrange(rect.height)
    if gesture == "click":
        h.left_click(x, y)
    elif gesture == "sweep":
        h.sweep(x, y, min(x + rng.randrange(1, 12), col.rect.x1 - 1), y)
    elif gesture == "type":
        h.mouse_move(x, y)
        h.type_text(rng.choice(EDIT_TYPED))
    elif gesture == "scroll":
        h.scroll(window, rng.choice((-8, -3, 3, 8)))
    elif gesture == "open":
        h.open_path(rng.choice(EDIT_FILES))
    elif gesture == "snarf":
        h.exec_builtin("Snarf", window)
    elif gesture == "paste":
        h.exec_builtin("Paste", window)
    elif len(h.windows) > 6 and len(visible) > 2:
        h.close_window(window)


def edit_stream(seed: int, client: int, records: int) -> EditStream:
    """Record about *records* input records for one client, then prove
    a local replay reproduces every screen the client will read."""
    rng = random.Random(f"perfbench.edit:{seed}:{client}")
    with MetricsRegistry("perfbench.plan").activate():
        system = build_system(width=WIDTH, height=HEIGHT, user=UNAME)
        h = system.help
        journal = Journal()  # shadow: records in memory only
        attach(h, journal)
        lines: list[str] = []
        reads: list[int] = []
        recorded: list[str] = []
        seen = 0
        next_read = rng.randrange(*READ_GAP)
        while len(lines) < records:
            _edit_step(h, rng)
            for record in journal.records[seen:]:
                if record.applies:
                    lines.append(f"{record.kind} {record.payload}\n"
                                 if record.payload else f"{record.kind}\n")
            seen = len(journal.records)
            if len(lines) >= next_read or len(lines) >= records:
                reads.append(len(lines))
                recorded.append(render_screen(h))
                next_read = len(lines) + rng.randrange(*READ_GAP)
        replayed = replay_screens(lines, reads)
    for point, got, want in zip(reads, replayed, recorded):
        if got != want:
            raise PlanError(f"edit stream {seed}:{client}: local replay "
                            f"diverges from the recording by record {point}")
    return EditStream(tuple(lines), tuple(reads), tuple(replayed))
