"""TaskSpec/TaskResult: validation, execution, digests, round-trips."""

import enum
import hashlib
import json
import math
from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ExperimentReport
from repro.parallel.task import (
    TaskSpec,
    canonicalize,
    execute_task,
    payload_digest,
    payload_to_report,
    report_to_payload,
    resolve_function,
    results_digest,
)

WORKERS = "tests.parallel.workers"


class TestTaskSpecValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id="", kind="function", target=f"{WORKERS}:echo")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id="t", kind="mystery", target="x:y")

    def test_rejects_missing_target(self):
        with pytest.raises(ValueError):
            TaskSpec(task_id="t", kind="experiment")

    def test_rejects_bad_timeout_and_retries(self):
        with pytest.raises(ValueError):
            TaskSpec(
                task_id="t", kind="experiment", target="F1", timeout_s=0.0
            )
        with pytest.raises(ValueError):
            TaskSpec(task_id="t", kind="experiment", target="F1", retries=-1)

    def test_kwargs_merges_seed(self):
        spec = TaskSpec(
            task_id="t",
            kind="function",
            target=f"{WORKERS}:seed_probe",
            params={"tag": "x"},
            seed=99,
        )
        assert spec.kwargs() == {"tag": "x", "seed": 99}


class TestExecuteTask:
    def test_function_mapping_payload(self):
        spec = TaskSpec(
            task_id="t",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"a": 1},
        )
        result = execute_task(spec)
        assert result.ok and result.payload == {"a": 1}
        assert result.payload_digest is not None

    def test_function_scalar_payload_wrapped(self):
        spec = TaskSpec(
            task_id="t",
            kind="function",
            target=f"{WORKERS}:double",
            params={"value": 21},
        )
        assert execute_task(spec).payload == {"value": 42}

    def test_seed_injection(self):
        spec = TaskSpec(
            task_id="t",
            kind="function",
            target=f"{WORKERS}:seed_probe",
            seed=31337,
        )
        assert execute_task(spec).payload["seed"] == 31337

    def test_exception_becomes_structured_error(self):
        spec = TaskSpec(
            task_id="t", kind="function", target=f"{WORKERS}:explode"
        )
        result = execute_task(spec)
        assert not result.ok
        assert result.payload is None
        assert "ValueError: boom" in result.error

    def test_bad_target_becomes_structured_error(self):
        spec = TaskSpec(
            task_id="t", kind="function", target="no.such.module:f"
        )
        result = execute_task(spec)
        assert not result.ok and "ModuleNotFoundError" in result.error

    def test_experiment_kind_runs_registry(self):
        spec = TaskSpec(
            task_id="T8", kind="experiment", target="T8", params={}
        )
        result = execute_task(spec)
        assert result.ok
        assert result.payload["experiment_id"] == "T8"
        assert result.payload["rows"]


class TestResolveFunction:
    def test_resolves(self):
        assert resolve_function(f"{WORKERS}:double")(value=2) == 4

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            resolve_function("not_a_dotted_name")

    def test_rejects_missing_attribute(self):
        with pytest.raises(AttributeError):
            resolve_function(f"{WORKERS}:nonexistent")


class TestDigests:
    def test_payload_digest_canonicalises_numpy_and_tuples(self):
        plain = {"rows": [[1, 2.5]], "n": 3}
        fancy = {"rows": ((np.int64(1), np.float64(2.5)),), "n": np.int32(3)}
        assert payload_digest(plain) == payload_digest(fancy)

    def test_payload_digest_sensitive_to_values(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})

    def test_canonicalize_is_json_safe(self):
        value = canonicalize({"x": (np.float64(1.5), np.int64(2))})
        assert value == {"x": [1.5, 2]}

    def test_results_digest_marks_errors(self):
        ok = execute_task(
            TaskSpec(
                task_id="a",
                kind="function",
                target=f"{WORKERS}:echo",
                params={"v": 1},
            )
        )
        bad = execute_task(
            TaskSpec(task_id="b", kind="function", target=f"{WORKERS}:explode")
        )
        with_error = results_digest([ok, bad])
        without = results_digest([ok])
        assert with_error != without
        assert results_digest([ok, bad]) == with_error


class TestCanonicalizeEdgeCases:
    """Regressions for the values ``json.dumps`` cannot carry verbatim:
    non-finite floats and numpy arrays must digest deterministically and
    round-trip through strict (``allow_nan=False``) JSON."""

    def test_nonfinite_floats_become_markers(self):
        assert canonicalize(float("nan")) == {"__nonfinite__": "nan"}
        assert canonicalize(float("inf")) == {"__nonfinite__": "inf"}
        assert canonicalize(float("-inf")) == {"__nonfinite__": "-inf"}

    def test_nonfinite_digests_are_stable_and_distinct(self):
        nan_digest = payload_digest({"x": float("nan")})
        assert nan_digest == payload_digest({"x": float("nan")})
        digests = {
            nan_digest,
            payload_digest({"x": float("inf")}),
            payload_digest({"x": float("-inf")}),
            payload_digest({"x": "nan"}),  # the string is not the float
            payload_digest({"x": 0.0}),
        }
        assert len(digests) == 5

    def test_nonfinite_survive_strict_json_round_trip(self):
        import json

        canonical = canonicalize({"x": [float("nan"), float("inf"), 1.0]})
        text = json.dumps(canonical, sort_keys=True, allow_nan=False)
        assert json.loads(text) == canonical

    def test_numpy_nonfinite_scalars_match_python_floats(self):
        assert payload_digest({"x": np.float64("nan")}) == payload_digest(
            {"x": float("nan")}
        )
        assert payload_digest({"x": np.float32("inf")}) == payload_digest(
            {"x": float("inf")}
        )

    def test_numpy_arrays_become_nested_lists(self):
        assert canonicalize(np.array([1, 2, 3])) == [1, 2, 3]
        assert canonicalize(np.array([[1.5, 2.5], [3.5, 4.5]])) == [
            [1.5, 2.5],
            [3.5, 4.5],
        ]

    def test_numpy_array_digest_matches_plain_list(self):
        assert payload_digest({"rows": np.arange(4)}) == payload_digest(
            {"rows": [0, 1, 2, 3]}
        )

    def test_numpy_array_with_nan_elements(self):
        value = canonicalize(np.array([1.0, float("nan")]))
        assert value == [1.0, {"__nonfinite__": "nan"}]

    def test_single_element_array_stays_a_list(self):
        # Regression: size-1 ndarrays used to scalarise via ``.item()``,
        # silently digesting ``[7]`` and ``7`` identically.
        assert canonicalize(np.array([7])) == [7]
        assert payload_digest({"x": np.array([7])}) != payload_digest(
            {"x": 7}
        )

    def test_zero_d_array_is_a_scalar(self):
        assert canonicalize(np.array(7)) == 7
        assert canonicalize(np.float64(2.5)) == 2.5

    def test_spec_digest_handles_numpy_params(self):
        from repro.parallel.task import spec_digest

        with_numpy = TaskSpec(
            task_id="a",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"values": np.array([1, 2]), "scale": np.float64(0.5)},
        )
        plain = TaskSpec(
            task_id="b",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"values": [1, 2], "scale": 0.5},
        )
        assert spec_digest(with_numpy) == spec_digest(plain)

    def test_payload_digest_never_emits_nonstandard_json(self):
        # Every non-finite spelling must go through the marker path; a
        # raw NaN reaching the encoder is a loud failure, not a silent
        # platform-dependent token.
        digest = payload_digest({"deep": {"list": [float("nan")]}})
        assert isinstance(digest, str) and len(digest) == 32


class TestSpecDigest:
    def test_excludes_task_id_and_scheduling(self):
        from repro.parallel.task import spec_digest, spec_identity

        base = TaskSpec(
            task_id="one",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"v": 1},
        )
        relabelled = TaskSpec(
            task_id="two",
            kind="function",
            target=f"{WORKERS}:echo",
            params={"v": 1},
            timeout_s=30.0,
            retries=5,
        )
        assert spec_digest(base) == spec_digest(relabelled)
        assert "task_id" not in spec_identity(base)

    def test_sensitive_to_work(self):
        from repro.parallel.task import spec_digest

        def spec(**kwargs):
            merged = {
                "task_id": "t",
                "kind": "function",
                "target": f"{WORKERS}:echo",
                "params": {"v": 1},
            }
            merged.update(kwargs)
            return TaskSpec(**merged)

        digests = {
            spec_digest(spec()),
            spec_digest(spec(params={"v": 2})),
            spec_digest(spec(seed=3)),
            spec_digest(spec(sanitize=True)),
            spec_digest(spec(target=f"{WORKERS}:double", params={"value": 1})),
        }
        assert len(digests) == 5


class TestReportRoundTrip:
    def test_round_trip_preserves_everything(self):
        report = ExperimentReport(
            experiment_id="T0",
            title="round trip",
            columns=("a", "b"),
            rows=[(1, 2.5), ("x", float("inf"))],
            claims={"c": (0, 0.1)},
            notes=["note"],
        )
        rebuilt = payload_to_report(report_to_payload(report))
        assert rebuilt.experiment_id == report.experiment_id
        assert rebuilt.title == report.title
        assert tuple(rebuilt.columns) == tuple(report.columns)
        assert rebuilt.rows == [(1, 2.5), ("x", float("inf"))]
        assert rebuilt.claims == {"c": (0, 0.1)}
        assert rebuilt.notes == ["note"]


# -- the exact-type canonicaliser against the chain it short-cuts ------------


def _reference_plain(value):
    """The canonicaliser as it was before exact-type dispatch: every
    value walks the numpy → sequence → Mapping → non-finite → repr chain."""
    if type(value).__module__.partition(".")[0] == "numpy":
        if getattr(value, "ndim", 0) > 0:
            return _reference_plain(value.tolist())
        if hasattr(value, "item"):
            return _reference_plain(value.item())
    if isinstance(value, (list, tuple)):
        return [_reference_plain(element) for element in value]
    if isinstance(value, Mapping):
        return {str(key): _reference_plain(sub) for key, sub in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"__nonfinite__": "nan"}
        return {"__nonfinite__": "inf" if value > 0 else "-inf"}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _reference_payload_digest(payload):
    canonical = json.dumps(
        _reference_plain(dict(payload)), sort_keys=True, allow_nan=False
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Count(int):
    pass


class _Ratio(float):
    pass


class _Label(str):
    pass


class _Opaque:
    def __repr__(self):
        return "<opaque>"


_NUMERIC_DTYPES = [
    np.bool_, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
]  # fmt: skip
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def _numpy_values(dtype):
    if dtype is np.bool_:
        elements = st.booleans()
    elif np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        elements = st.integers(min_value=int(info.min), max_value=int(info.max))
    else:
        elements = st.floats(
            allow_nan=True, allow_infinity=True, width=np.finfo(dtype).bits
        )
    scalars = elements.map(dtype)
    arrays = st.lists(elements, min_size=0, max_size=4).map(
        lambda items: np.array(items, dtype=dtype)
    )
    zero_d = elements.map(lambda item: np.array(item, dtype=dtype))
    grids = st.lists(elements, min_size=4, max_size=4).map(
        lambda items: np.array(items, dtype=dtype).reshape(2, 2)
    )
    return st.one_of(scalars, arrays, zero_d, grids)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=6),
    st.sampled_from(list(_Level)),
    st.integers().map(_Count),
    _FLOATS.map(_Ratio),
    st.text(max_size=6).map(_Label),
    st.builds(_Opaque),
    st.sampled_from(_NUMERIC_DTYPES).flatmap(_numpy_values),
)
_keys = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.none(),
    st.sampled_from(list(_Level)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(OrderedDict),
        st.dictionaries(_keys, children, max_size=4).map(MappingProxyType),
    )


_values = st.recursive(_leaves, _containers, max_leaves=25)


class TestExactTypeCanonicaliser:
    """Exact-type dispatch must change no canonical JSON and no digest."""

    @settings(max_examples=300, deadline=None)
    @given(value=_values)
    def test_matches_the_reference_chain(self, value):
        assert json.dumps(canonicalize(value), sort_keys=True) == json.dumps(
            _reference_plain(value), sort_keys=True
        )
        assert payload_digest({"v": value}) == _reference_payload_digest(
            {"v": value}
        )

    @settings(max_examples=200, deadline=None)
    @given(value=_values)
    def test_decoded_payload_hashes_to_its_digest(self, value):
        # A cache read hashes the payload exactly as it decodes it from
        # the entry a put wrote: canonical JSON, without re-canonicalising.
        from repro.parallel.task import _json_digest

        payload = {"v": value}
        decoded = json.loads(json.dumps(canonicalize(payload), sort_keys=True))
        assert _json_digest(decoded) == payload_digest(payload)

    def test_subclasses_and_enums_keep_their_spelling(self):
        value = {
            "level": _Level.HIGH,
            "count": _Count(3),
            "ratio": _Ratio(float("inf")),
            "label": _Label("x"),
            "opaque": _Opaque(),
        }
        assert canonicalize(value) == {
            "level": 2,
            "count": 3,
            "ratio": {"__nonfinite__": "inf"},
            "label": "x",
            "opaque": "<opaque>",
        }

    def test_decoded_nonstandard_tokens_do_not_hash(self):
        from repro.parallel.task import _json_digest

        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(ValueError):
                _json_digest(json.loads('{"x": [%s]}' % token))
