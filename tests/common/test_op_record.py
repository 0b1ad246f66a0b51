"""The Op record: helpers build what the checked constructor builds.

The ``read``/``write``/``lock``/``unlock`` helpers check their fields inline
and skip the constructor on valid input; these tests hold them to the
keyword constructor's result and to its ``ProgramError`` checks, and pin
the record's round trips (pickle, ``_replace``, an empty pack).
"""

import pickle

import pytest

from repro.common.coltrace import ColumnarTrace, kind_codes
from repro.common.errors import ProgramError
from repro.common.events import (
    Op,
    OpKind,
    Site,
    barrier,
    compute,
    lock,
    read,
    unlock,
    write,
)
from repro.fuzz.shrink import drop_thread
from repro.threads.program import ParallelProgram, ThreadProgram

SITE = Site("app.c", 10, "x")


def helper_and_keyword_pairs():
    return [
        (read(0x100, SITE), Op(kind=OpKind.READ, addr=0x100, size=4, site=SITE)),
        (
            read(0x101, SITE, size=1),
            Op(kind=OpKind.READ, addr=0x101, size=1, site=SITE),
        ),
        (write(0x104, SITE), Op(kind=OpKind.WRITE, addr=0x104, size=4, site=SITE)),
        (
            write(0x108, SITE, size=8),
            Op(kind=OpKind.WRITE, addr=0x108, size=8, site=SITE),
        ),
        (lock(0x200, SITE), Op(kind=OpKind.LOCK, addr=0x200, site=SITE)),
        (unlock(0x200, SITE), Op(kind=OpKind.UNLOCK, addr=0x200, site=SITE)),
        (
            barrier(3, 4),
            Op(kind=OpKind.BARRIER, addr=3, participants=4),
        ),
        (
            barrier(3, 4, SITE),
            Op(kind=OpKind.BARRIER, addr=3, participants=4, site=SITE),
        ),
        (compute(0), Op(kind=OpKind.COMPUTE)),
        (compute(9), Op(kind=OpKind.COMPUTE, cycles=9)),
    ]


class TestHelpersMatchConstructor:
    @pytest.mark.parametrize("built, keyword", helper_and_keyword_pairs())
    def test_equal_with_equal_hash(self, built, keyword):
        assert type(built) is Op
        assert built == keyword
        assert hash(built) == hash(keyword)
        assert tuple(built) == tuple(keyword)

    def test_positional_form_matches(self):
        assert Op(OpKind.WRITE, 0x10, 2, SITE) == write(0x10, SITE, size=2)

    def test_fields_read_back(self):
        op = write(0x108, SITE, size=8)
        assert (op.kind, op.addr, op.size, op.site) == (
            OpKind.WRITE,
            0x108,
            8,
            SITE,
        )
        assert op.cycles == 0 and op.participants == 0
        assert op.is_write and op.is_memory_access and not op.is_sync

    def test_immutable(self):
        op = read(0x100, SITE)
        with pytest.raises(AttributeError):
            op.addr = 0x200


BAD_HELPER_CALLS = [
    ("read size 0", lambda: read(0x100, SITE, size=0)),
    ("read size -4", lambda: read(0x100, SITE, size=-4)),
    ("write size 0", lambda: write(0x100, SITE, size=0)),
    ("read no site", lambda: read(0x100, None)),
    ("write no site", lambda: write(0x100, None)),
    ("lock no site", lambda: lock(0x200, None)),
    ("unlock no site", lambda: unlock(0x200, None)),
    ("barrier of 0", lambda: barrier(1, 0)),
    ("compute -1", lambda: compute(-1)),
]

BAD_KEYWORD_CALLS = [
    ("read size 0", dict(kind=OpKind.READ, addr=0, size=0, site=SITE)),
    ("write size -1", dict(kind=OpKind.WRITE, addr=0, size=-1, site=SITE)),
    ("read no site", dict(kind=OpKind.READ, addr=0, size=4)),
    ("write no site", dict(kind=OpKind.WRITE, addr=0, size=4)),
    ("lock no site", dict(kind=OpKind.LOCK, addr=0x200)),
    ("unlock no site", dict(kind=OpKind.UNLOCK, addr=0x200)),
    ("barrier of 0", dict(kind=OpKind.BARRIER, addr=1, participants=0)),
    ("compute -1", dict(kind=OpKind.COMPUTE, cycles=-1)),
]


class TestChecksFireWhenBuilt:
    @pytest.mark.parametrize(
        "make",
        [make for _, make in BAD_HELPER_CALLS],
        ids=[n for n, _ in BAD_HELPER_CALLS],
    )
    def test_helper_rejects(self, make):
        with pytest.raises(ProgramError):
            make()

    @pytest.mark.parametrize(
        "fields",
        [fields for _, fields in BAD_KEYWORD_CALLS],
        ids=[n for n, _ in BAD_KEYWORD_CALLS],
    )
    def test_keyword_rejects(self, fields):
        with pytest.raises(ProgramError):
            Op(**fields)

    def test_replace_rechecks(self):
        with pytest.raises(ProgramError):
            write(0x100, SITE)._replace(size=0)
        with pytest.raises(ProgramError):
            barrier(1, 2)._replace(participants=0)


class TestRoundTrips:
    @pytest.mark.parametrize("built, _", helper_and_keyword_pairs())
    def test_pickle(self, built, _):
        again = pickle.loads(pickle.dumps(built))
        assert type(again) is Op
        assert again == built and hash(again) == hash(built)
        assert again.kind is built.kind

    def test_unpickling_goes_through_the_checks(self):
        # An op is rebuilt by calling Op.__new__ on its fields, so a payload
        # carrying fields no program may hold fails on load, not later.
        unchecked = tuple.__new__(Op, (OpKind.WRITE, 0x100, 0, SITE, 0, 0))
        with pytest.raises(ProgramError):
            pickle.loads(pickle.dumps(unchecked))

    def test_replace(self):
        op = barrier(7, 3, SITE)
        changed = op._replace(participants=2)
        assert type(changed) is Op
        assert changed == barrier(7, 2, SITE)
        assert op.participants == 3

    def test_shrink_rewrites_barriers_through_replace(self):
        threads = [
            ThreadProgram(tid, [write(0x100 + 4 * tid, SITE), barrier(0, 3)])
            for tid in range(3)
        ]
        program = ParallelProgram(name="three", threads=threads)
        smaller = drop_thread(program, 2)
        assert smaller.num_threads == 2
        for thread in smaller.threads:
            assert thread.ops[-1] == barrier(0, 2)
            assert type(thread.ops[-1]) is Op


class TestPacking:
    def test_from_ops_accepts_no_ops(self):
        columns = ColumnarTrace.from_ops([], [], num_threads=2, label="empty")
        assert columns.n == 0 and len(columns.kind) == 0
        assert columns.sites == ()
        assert columns.to_events() == []

    def test_kind_codes_of_no_ops(self):
        assert kind_codes([]) == b""

    def test_from_ops_round_trips_every_kind(self):
        ops = [built for built, _ in helper_and_keyword_pairs()]
        columns = ColumnarTrace.from_ops(
            list(range(len(ops))), ops, num_threads=len(ops)
        )
        assert [event.op for event in columns.to_events()] == ops
        assert bytes(columns.kind) == kind_codes(ops)
        assert list(columns.is_write) == [int(op.is_write) for op in ops]
