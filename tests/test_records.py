"""The per-kernel records the engine builds: immutable, validated tuples.

``Event``, ``ProcessorView``, ``ScheduleEntry`` and ``Assignment`` are
``NamedTuple`` records.  Each keeps its fields, defaults, properties and
validation: keyword and positional construction agree, equality is by
value, attributes cannot be assigned, and a pickle round trip returns
an equal record.  Times are validated so that NaN is refused too.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro.core.events import Event, EventKind
from repro.core.lookup import LookupEntry, LookupTable
from repro.core.schedule import ScheduleEntry
from repro.core.system import Processor, ProcessorType
from repro.policies.base import Assignment, ProcessorView

GPU = Processor("gpu0", ProcessorType.GPU)

#: name → (class, every field by keyword, the defaulted fields' defaults)
RECORDS = {
    "event": (
        Event,
        {"time": 1.5, "kind": EventKind.KERNEL_COMPLETE, "payload": (3, "gpu0", 1)},
        {"payload": None},
    ),
    "view": (
        ProcessorView,
        {
            "processor": GPU,
            "busy": True,
            "free_at": 9.0,
            "queue_length": 2,
            "running_kernel": 4,
            "available": False,
        },
        {"available": True},
    ),
    "entry": (
        ScheduleEntry,
        {
            "kernel_id": 7,
            "kernel": "gemm",
            "data_size": 64,
            "processor": "gpu0",
            "ptype": "gpu",
            "ready_time": 1.0,
            "assign_time": 1.0,
            "transfer_start": 2.0,
            "exec_start": 3.0,
            "finish_time": 5.0,
            "used_alternative": True,
            "arrival_time": 0.5,
        },
        {"used_alternative": False, "arrival_time": 0.0},
    ),
    "assignment": (
        Assignment,
        {"kernel_id": 7, "processor": "gpu0", "queued": True, "alternative": True},
        {"queued": False, "alternative": False},
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


class TestRecords:
    def test_attribute_assignment_raises(self, record):
        cls, fields, _ = record
        r = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_keyword_equals_positional(self, record):
        cls, fields, _ = record
        assert cls(**fields) == cls(*fields.values())
        assert tuple(cls(**fields)) == tuple(fields.values())
        assert cls._fields == tuple(fields)

    def test_defaults_apply(self, record):
        cls, fields, defaults = record
        required = {k: v for k, v in fields.items() if k not in defaults}
        r = cls(**required)
        for name, value in defaults.items():
            assert getattr(r, name) == value
        assert cls(*required.values()) == r

    def test_equality_is_by_value(self, record):
        cls, fields, defaults = record
        a, b = cls(**fields), cls(**fields)
        assert a == b and a is not b and hash(a) == hash(b)
        changed = dict(fields)
        name = next(iter(defaults))
        changed[name] = defaults[name]
        assert cls(**changed) != a

    def test_pickle_round_trip(self, record):
        cls, fields, _ = record
        r = cls(**fields)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and type(back) is cls

    def test_repr_names_every_field(self, record):
        cls, fields, _ = record
        text = repr(cls(**fields))
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in text for name in fields)


class TestProperties:
    def test_processor_view(self):
        view = ProcessorView(GPU, False, 0.0, 0, None)
        assert (view.name, view.ptype, view.idle) == ("gpu0", ProcessorType.GPU, True)
        assert not view._replace(available=False).idle
        assert not view._replace(queue_length=1).idle

    def test_schedule_entry(self):
        e = ScheduleEntry(**RECORDS["entry"][1])
        assert e.transfer_time == 1.0
        assert e.exec_time == 2.0
        assert e.lambda_delay == 2.5
        assert e.queue_wait == 2.0
        assert e._asdict() == RECORDS["entry"][1]


class TestValidation:
    def entry(self, **changes):
        return ScheduleEntry(**{**RECORDS["entry"][1], **changes})

    def test_arrival_after_ready_keeps_its_message(self):
        with pytest.raises(
            ValueError, match=r"^kernel 7 arrives at 1.5 after becoming ready at 1.0$"
        ):
            self.entry(arrival_time=1.5)

    def test_inconsistent_timeline_keeps_its_message(self):
        with pytest.raises(
            ValueError,
            match=(
                r"^inconsistent timeline for kernel 7: ready=1.0 assign=1.0 "
                r"transfer=2.0 exec=3.0 finish=3.0$"
            ),
        ):
            self.entry(finish_time=3.0)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="inconsistent timeline"):
            self.entry()._replace(exec_start=6.0)
        with pytest.raises(ValueError, match="non-negative"):
            Event(1.0, EventKind.FAULT)._replace(time=-1.0)

    @pytest.mark.parametrize("time", [-0.5, math.nan])
    def test_event_refuses_negative_and_nan_time(self, time):
        with pytest.raises(ValueError, match="event time must be non-negative"):
            Event(time, EventKind.KERNEL_COMPLETE)

    @pytest.mark.parametrize("time_ms", [0.0, -1.0, math.nan])
    def test_lookup_entry_refuses_non_positive_and_nan_time(self, time_ms):
        with pytest.raises(ValueError, match="time_ms must be positive"):
            LookupEntry("k", 4, ProcessorType.CPU, time_ms)

    def test_lookup_json_refuses_a_nan_literal(self, tmp_path):
        path = tmp_path / "table.json"
        record = {"kernel": "k", "data_size": 4, "ptype": "cpu", "time_ms": 1.0}
        path.write_text(json.dumps([record]), encoding="utf-8")
        assert LookupTable.from_json(path).kernels == ("k",)
        path.write_text(json.dumps([{**record, "time_ms": math.nan}]), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="time_ms must be positive, got nan"):
            LookupTable.from_json(path)
