"""The ``--jobs`` split: the share rule, and the worker processes' results,
failures and clean-up.

Tests that patch the search in this process and need the patch to reach a
worker rely on the ``fork`` start method, and are skipped under any other.
"""

import itertools
import multiprocessing
import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supkit import semantics
from supkit.cli import run
from supkit.models import EvalError
from supkit.semantics import (
    SearchBudgetError,
    SearchSpace,
    check_consequence,
    class_spec_for,
    shares,
)
from supkit.syntax import parse

fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="the patch reaches workers through fork")


def ref_shares(widths, jobs):
    """``semantics.shares`` as it was when the caller listed the blocks:
    the runs, as ``(first, stop)`` block numbers, of blocks given by their
    widths in model order."""
    total = sum(widths)
    runs, share, start = [[0, 0]], 0, 0
    for b, width in enumerate(widths):
        if jobs * start // total != share:
            share = jobs * start // total
            runs.append([b, b])
        runs[-1][1] = b + 1
        start += width
    return [tuple(run) for run in runs]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=12), st.integers(1, 6))
def test_shares_are_consecutive_runs_of_about_equal_size(widths, jobs):
    runs = ref_shares(widths, jobs)
    assert 1 <= len(runs) <= jobs
    assert runs[0][0] == 0 and runs[-1][1] == len(widths)
    assert all(first < stop for first, stop in runs)
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    total = sum(widths)
    for first, stop in runs:
        assert abs(sum(widths[first:stop]) - total / jobs) < max(widths)


R_PAIR = parse("(forall v. R(v,c1) sup R(c1,v)) -> exists v. (R(v,v) sup R(c1,c1))")


def _share_sizes(max_domain, jobs):
    space = SearchSpace.for_task([R_PAIR], max_domain=max_domain)
    widths = [width for _, _, width in space.blocks()]
    runs = shares(space, semantics.DEFAULT_BUDGET + 1, jobs)
    assert runs == ref_shares(widths, jobs)
    return [sum(widths[first:stop]) for first, stop in runs]


SPACES = [parse(text) for text in (
    "P(c1)", "R(v,c1) sup R(c1,v)", "P(c1) sup Q(c2)", "g(c1) = c2", "p0 sup p1 -> p2")]


def _drawn(blocks):
    """Blocks as ``(size, start, width)``; each draw builds its own layouts."""
    return [(len(layout.domain or ()), start, width) for layout, start, width in blocks]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPACES), st.integers(1, 3), st.sampled_from([1, 2, 3, 5, 7, 64]),
       st.integers(-1, 40), st.integers(2, 4))
def test_shares_are_those_of_the_listed_blocks(phi, max_domain, width, budget, jobs):
    """The runs worked out from the layouts' counts are the runs of the
    listed blocks, among the first ``budget + 1``, and each run's blocks are
    those of the list."""
    with mock.patch.object(semantics, "BLOCK_WIDTH", width):
        space = SearchSpace.for_task([phi], max_domain=max_domain)
        limit = max(budget, 0) + 1
        listed = _drawn(itertools.islice(space.blocks(), limit))
        runs = shares(space, limit, jobs)
        assert runs == ref_shares([width for _, _, width in listed], jobs)
        for first, stop in runs:
            assert _drawn(space.blocks(first, stop)) == listed[first:stop]


def test_shares_of_the_binary_relation_rung(started):
    # blocks of 2, 32 and 1,536 structures, then four of 65,536 at domain 4
    assert _share_sizes(3, 2) == [1570]
    assert _share_sizes(4, 2) == [132_642, 131_072]
    assert _share_sizes(4, 3) == [132_642, 65_536, 65_536]
    check_consequence([], R_PAIR, class_spec_for("all", [R_PAIR]),
                      SearchSpace.for_task([R_PAIR], max_domain=3), jobs=2)
    assert started == []   # one share holds every block: no process


# ---------------------------------------------------------------------------
# Workers: what they send back, how they fail, and that none outlives a call

# Valid, with 10 structures up to domain 2: one-model blocks give shares of
# 4, 3 and 3 models under --jobs 3 (blocks (1,0), (1,1), (2,0) ... (2,7)).
VALID = ("taut", "--formula", "P(c1) sup P(c1) -> P(c1)", "--max-domain", "2")
LAST_BLOCK = (2, 7, 1)


def _invoke(capsys, argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def one_model_blocks(monkeypatch):
    monkeypatch.setattr(semantics, "BLOCK_WIDTH", 1)


@pytest.fixture
def started(monkeypatch):
    """The worker processes started, recorded as they start."""
    processes = []

    class Recorded(multiprocessing.Process):
        def start(self):
            super().start()
            processes.append(self)

    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    return processes


def _all_ended(processes):
    return all(p.exitcode is not None for p in processes) and \
        not multiprocessing.active_children()


def _on_block(monkeypatch, block, action):
    """Run ``action`` in place of the search of the one-model block
    ``(size, start, 1)``, in whichever process searches it."""
    search_block = semantics._search_block

    def patched(b, *rest):
        if (len(b.layout.domain), b.start, b.width) == block:
            return action()
        return search_block(b, *rest)

    monkeypatch.setattr(semantics, "_search_block", patched)


@fork_only
@pytest.mark.parametrize("jobs", [2, 3])
def test_a_workers_error_is_raised_as_the_serial_search_raises_it(
        capsys, monkeypatch, one_model_blocks, started, jobs):
    def fail():
        raise EvalError("no evaluation of the last structure")

    _on_block(monkeypatch, LAST_BLOCK, fail)
    serial = _invoke(capsys, VALID)
    assert serial == (2, "", "error: no evaluation of the last structure\n")
    assert _invoke(capsys, VALID + ("--jobs", str(jobs))) == serial
    phi = parse(VALID[2])
    space = SearchSpace.for_task([phi], max_domain=2)
    with pytest.raises(EvalError, match="^no evaluation of the last structure$"):
        check_consequence([], phi, class_spec_for("all", [phi]), space, jobs=jobs)
    assert len(started) == 2 * (jobs - 1) and _all_ended(started)


@fork_only
@pytest.mark.parametrize("end, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=("exit", "killed"))
def test_a_worker_that_ends_without_a_result_is_an_input_error(
        capsys, monkeypatch, one_model_blocks, started, end, code):
    caller = os.getpid()
    _on_block(monkeypatch, LAST_BLOCK, lambda: end() if os.getpid() != caller else None)
    assert _invoke(capsys, VALID + ("--jobs", "2")) == (
        2, "", f"error: a search worker ended without a result (exit code {code})\n")
    assert len(started) == 1 and _all_ended(started)


def test_split_shares_keep_the_budget(one_model_blocks, started):
    phi = parse("(forall v. (P(v) sup Q(v))) -> exists v. (P(v) sup Q(v))")
    spec = class_spec_for("all", [phi])

    def search(jobs, budget=semantics.DEFAULT_BUDGET):
        return check_consequence([], phi, spec, SearchSpace.for_task([phi], max_domain=2),
                                 budget, jobs)

    serial = search(1)
    for jobs in (2, 3):
        assert search(jobs, serial.tables_checked).to_json() == serial.to_json()
        with pytest.raises(SearchBudgetError):
            search(jobs, serial.tables_checked - 1)
    assert len(started) == 6 and _all_ended(started)


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_budget_bounds_the_blocks_drawn(monkeypatch, one_model_blocks, started, jobs):
    """Each block's search sees a leaf table, so a scan stops within the
    first ``budget + 1`` blocks and no later block is drawn; each process
    draws only its own share's blocks, as it scans them, so a countermodel
    in the first stops this process's drawing."""
    drawn = []
    blocks = SearchSpace.blocks

    def spy(space, *bounds):
        for block in blocks(space, *bounds):
            drawn.append(block)
            yield block

    monkeypatch.setattr(SearchSpace, "blocks", spy)
    valid, refuted = parse("P(c1) sup P(c1) -> P(c1)"), parse("P(c1)")
    space = SearchSpace.for_task([valid], max_domain=3)   # 2 + 8 + 24 one-model blocks
    with pytest.raises(SearchBudgetError):
        check_consequence([], valid, class_spec_for("all", [valid]), space, 3, jobs)
    assert len(drawn) == 4 // jobs   # a worker draws the second share of two
    drawn.clear()
    verdict = check_consequence([], refuted, class_spec_for("all", [refuted]), space, 3, jobs)
    assert verdict.models_checked == 1 and not verdict.valid
    assert len(drawn) == 1


def _hang():
    time.sleep(90)


@fork_only
@pytest.mark.parametrize("way_out", ["countermodel", "budget", "worker-error", "interrupt"])
def test_no_worker_outlives_the_call(monkeypatch, one_model_blocks, started, way_out):
    """Each way out of the split search kills the workers still scanning, at
    once: here the last share's worker would scan for 90 seconds."""
    phi = parse("(forall v. P(v) sup Q(v)) -> forall v. P(v)")   # refuted by model 1
    if way_out in ("budget", "worker-error", "interrupt"):
        phi = parse("(forall v. P(v) sup Q(v)) -> exists v. (P(v) sup Q(v))")   # valid
    space = SearchSpace.for_task([phi], max_domain=2)   # 4 + 16 one-model blocks
    first_of_last, first_of_middle = (2, 10, 1), (2, 3, 1)   # of 3 shares
    budget = semantics.DEFAULT_BUDGET
    if way_out == "budget":
        # two leaf tables a block: the scan exceeds a budget of 5 in the
        # middle share of the 6 blocks it can reach, and the last starts at (2, 0)
        first_of_last, budget = (2, 0, 1), 5
    caller = os.getpid()
    _on_block(monkeypatch, first_of_last, _hang)
    if way_out == "worker-error":
        def fail():
            raise EvalError("the middle share fails")
        _on_block(monkeypatch, first_of_middle, fail)
    if way_out == "interrupt":
        def interrupt():
            if os.getpid() == caller:
                raise KeyboardInterrupt
        _on_block(monkeypatch, (1, 0, 1), interrupt)
    expected = {"countermodel": None, "budget": SearchBudgetError,
                "worker-error": EvalError, "interrupt": KeyboardInterrupt}[way_out]
    begun = time.monotonic()
    if expected is None:
        verdict = check_consequence([], phi, class_spec_for("all", [phi]), space, jobs=3)
        assert verdict.countermodel is not None and verdict.models_checked == 2
    else:
        with pytest.raises(expected):
            check_consequence([], phi, class_spec_for("all", [phi]), space, jobs=3,
                              budget=budget)
    assert time.monotonic() - begun < 30
    assert len(started) == 2 and _all_ended(started)
    assert started[-1].exitcode == -signal.SIGKILL   # killed, not awaited
