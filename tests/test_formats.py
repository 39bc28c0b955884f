"""Round-trip and parse-error properties of the graph, log and ordering
text and of the simulation config and experiment spec JSON.

Each text parse-error property inserts one malformed line into valid text
and expects a ParseError that names exactly that line; the JSON properties
break one key and expect a ValueError that names it.
"""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphelim.elimination import ORDERING_FUNCTIONS, load_ordering, save_ordering
from graphelim.experiment import ExperimentSpec
from graphelim.graph import ParseError, graph_from_text, graph_to_text
from graphelim.pruning import POLICY_NAMES
from graphelim.simulate import (
    Frame,
    ObservationLog,
    Region,
    SimConfig,
    Trajectory,
    Visibility,
    WorstCaseParams,
    from_json_object,
    log_from_text,
    log_to_text,
    to_json,
)

from helpers import random_graph_and_ordering


@st.composite
def contract_logs(draw):
    """Logs that meet the text contract: strictly increasing nonnegative
    frame indices, each landmark at most once per frame."""
    index = draw(st.integers(0, 5))
    frames = []
    for _ in range(draw(st.integers(0, 8))):
        lms = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
        frames.append(Frame(index, tuple(lms)))
        index += draw(st.integers(1, 4))
    return ObservationLog(tuple(frames))


def _insert(text: str, at: int, line: str) -> tuple[str, int]:
    """`text` with `line` inserted before line `at` (0-based), and the
    inserted line's 1-based number."""
    lines = text.splitlines()
    at = min(at, len(lines))
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n", at + 1


def _parse_error_line(parse, text: str) -> int:
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.line_no


# -- graph -----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_graph_text_roundtrip(rng):
    g, _ = random_graph_and_ordering(rng)
    text = graph_to_text(g)
    parsed = graph_from_text(text)
    assert graph_to_text(parsed) == text


@settings(max_examples=200, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    at=st.integers(0, 200),
    bad=st.sampled_from(
        ["V -1 POSE 1", "V 0 ROBOT 1", "V 0 POSE x", "V 0 POSE", "F -1 0",
         "F 0", "F 0 0 x", "E 0 1", "V 0 POSE 1 2"]
    ),
)
def test_graph_text_parse_error_names_line(rng, at, bad):
    g, _ = random_graph_and_ordering(rng)
    text, line_no = _insert(graph_to_text(g), at, bad)
    assert _parse_error_line(graph_from_text, text) == line_no


# -- log ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(log=contract_logs())
def test_log_text_roundtrip(log):
    assert log_from_text(log_to_text(log)) == log


@settings(max_examples=200, deadline=None)
@given(
    log=contract_logs(),
    at=st.integers(0, 60),
    bad=st.sampled_from(
        ["FRAME -1", "FRAME x", "FRAME", "OBS -3", "OBS 1.5", "OBS 1 2", "POSE 0"]
    ),
)
def test_log_text_parse_error_names_line(log, at, bad):
    text, line_no = _insert(log_to_text(log), at, bad)
    assert _parse_error_line(log_from_text, text) == line_no


@settings(max_examples=200, deadline=None)
@given(log=contract_logs(), pick=st.integers(0, 60))
def test_log_text_repeat_errors_name_line(log, pick):
    """Repeating a frame's header or one of its observations breaks the
    contract on the repeated line."""
    lines = log_to_text(log).splitlines()
    if not lines:
        return
    at = pick % len(lines)
    text, line_no = _insert("\n".join(lines), at + 1, lines[at])
    assert _parse_error_line(log_from_text, text) == line_no


# -- ordering ------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(ordering=st.lists(st.integers(0, 10**6), max_size=12))
def test_ordering_text_roundtrip(ordering):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ordering.txt"
        save_ordering(ordering, path)
        assert load_ordering(path) == ordering


@settings(max_examples=100, deadline=None)
@given(
    ordering=st.lists(st.integers(0, 50), max_size=12),
    at=st.integers(0, 12),
    bad=st.sampled_from(["x", "1.5", "1 2", "--3"]),
)
def test_ordering_text_parse_error_names_line(ordering, at, bad):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ordering.txt"
        save_ordering(ordering, path)
        text, line_no = _insert(path.read_text(encoding="utf-8"), at, bad)
        path.write_text(text, encoding="utf-8")
        assert _parse_error_line(load_ordering, path) == line_no


# -- simulation config and experiment spec JSON -------------------------------------


@st.composite
def sim_configs(draw):
    """Valid simulation configs; wavelength, range and field of view may be infinite."""
    positive = st.floats(0.01, 1e3, allow_nan=False)
    limit = positive | st.just(math.inf)
    return SimConfig(
        n_frames=draw(st.integers(2, 500)),
        trajectory=Trajectory(draw(st.floats(-50, 50)), draw(limit), draw(positive)),
        landmark_count=draw(st.integers(0, 200)),
        landmark_region=Region(
            -draw(positive), draw(positive), -draw(positive), draw(positive)
        ),
        visibility=Visibility(draw(limit), draw(limit)),
        min_obs_to_init=draw(st.integers(2, 5)),
        d_x=draw(st.integers(1, 6)),
        d_l=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=sim_configs())
def test_config_json_roundtrip_property(cfg):
    assert from_json_object(SimConfig, json.loads(to_json(cfg)), "simulation config") == cfg


# the keys of the config's top level ("") and of each nested object
_CONFIG_KEYS = {
    part: {f.name for f in fields(cls)}
    for part, cls in (
        ("", SimConfig), ("trajectory", Trajectory),
        ("landmark_region", Region), ("visibility", Visibility),
    )
}


@settings(max_examples=200, deadline=None)
@given(cfg=sim_configs(), part=st.sampled_from(sorted(_CONFIG_KEYS)), key=st.text(min_size=1))
def test_config_json_unknown_key_named(cfg, part, key):
    assume(key not in _CONFIG_KEYS[part])
    data = json.loads(to_json(cfg))
    (data[part] if part else data)[key] = 1
    with pytest.raises(ValueError) as err:
        from_json_object(SimConfig, data, "simulation config")
    assert repr(key) in str(err.value)


@st.composite
def specs(draw):
    """Valid experiment specs over a simulation or a worst case."""
    sim = wc = None
    if draw(st.booleans()):
        sim = draw(sim_configs())
    else:
        wc = WorstCaseParams(*(draw(st.integers(low, 50)) for low in (1, 0, 1, 1)))
    return ExperimentSpec(
        sim=sim,
        worst_case=wc,
        policies=tuple(draw(st.lists(st.sampled_from(POLICY_NAMES), unique=True))),
        rates=tuple(draw(st.lists(st.integers(1, 20), min_size=1, max_size=4, unique=True))),
        seeds=tuple(
            draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True))
        ),
        ordering=draw(st.sampled_from(sorted(ORDERING_FUNCTIONS))),
        oracle=draw(st.booleans()),
        frame_stride=draw(st.integers(1, 50)),
    )


@settings(max_examples=200, deadline=None)
@given(spec=specs())
def test_spec_json_roundtrip_property(spec):
    assert from_json_object(ExperimentSpec, json.loads(to_json(spec)), "spec") == spec


_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)}


@settings(max_examples=200, deadline=None)
@given(spec=specs(), key=st.text(min_size=1).filter(lambda k: k not in _SPEC_KEYS))
def test_spec_json_unknown_key_named(spec, key):
    data = json.loads(to_json(spec))
    data[key] = 1
    with pytest.raises(ValueError) as err:
        from_json_object(ExperimentSpec, data, "spec")
    assert repr(key) in str(err.value)


@settings(max_examples=200, deadline=None)
@given(
    spec=specs(),
    bad=st.sampled_from(
        [("oracle", "yes"), ("oracle", 1), ("oracle", None), ("rates", []),
         ("rates", [0]), ("rates", "4"), ("rates", [1.5]), ("seeds", []),
         ("seeds", [-1]), ("seeds", 3), ("frame_stride", 0), ("frame_stride", "2"),
         ("frame_stride", True), ("ordering", "alphabetical"), ("ordering", 3),
         ("policies", ["bogus"]), ("policies", "full")]
    ),
)
def test_spec_json_bad_value_names_field(spec, bad):
    field, value = bad
    data = json.loads(to_json(spec))
    data[field] = value
    with pytest.raises(ValueError, match=field):
        from_json_object(ExperimentSpec, data, "spec")
