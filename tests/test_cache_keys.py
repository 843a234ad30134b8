"""Cache keys and cache entries built from the task set's memoised JSON.

``ScenarioRequest.cache_key`` splices the task set's once-encoded canonical
text between the request's small top-level fields, and ``ResultCache.put``
writes that same text into the entry.  These tests pin the spliced text to
the plain ``json.dumps`` of the whole fingerprint for every registered
grid, keep the memo out of equality, hashing and pickles, check the entry
layout (old insertion-order entries still hit), and count the encoding work
of a warm sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from collections import Counter

import pytest

from repro.backends import load_all_backends
from repro.experiments.cache import ResultCache
from repro.experiments.engine import expand_experiment, run_experiment
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import experiment_names, load_all_experiments
from repro.experiments.runner import run_daris_scenario
from repro.rt.taskset import TaskSetSpec, mixed_taskset, table2_taskset
from repro.scheduler.config import DarisConfig

load_all_backends()
load_all_experiments()

TINY_HORIZON = 600.0
TINY_CONFIG = DarisConfig.mps_config(2, 2.0)


def _reference_key(request: ScenarioRequest) -> str:
    canonical = json.dumps(request.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", experiment_names())
def test_cache_key_is_the_digest_of_the_whole_fingerprint(name):
    for request in expand_experiment(name, quick=True, seeds=2).requests:
        assert request.cache_key() == _reference_key(request)


def test_replaced_seed_gets_its_own_key(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    request = ScenarioRequest(taskset, TINY_CONFIG, TINY_HORIZON, seed=1)
    key = request.cache_key()
    other = dataclasses.replace(request, seed=2)
    assert other.taskset is taskset  # shares the filled memo
    assert other.cache_key() != key
    assert other.cache_key() == _reference_key(other)
    assert request.cache_key() == key


def test_memo_is_invisible_to_equality_hashing_and_pickles(resnet18):
    filled = table2_taskset("resnet18", model=resnet18, scale=0.3)
    fresh = table2_taskset("resnet18", model=resnet18, scale=0.3)
    text = filled.canonical_json()
    assert "_canonical_json" in vars(filled) and "_canonical_json" not in vars(fresh)
    assert text == json.dumps(fresh.fingerprint(), sort_keys=True, separators=(",", ":"))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(filled))
    assert restored == filled and "_canonical_json" not in vars(restored)
    assert restored.canonical_json() == text


def _reachable(value):
    """Every dataclass instance reachable through fields and sequences."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for field in dataclasses.fields(value):
            yield from _reachable(getattr(value, field.name))


def test_everything_reachable_from_the_fingerprint_is_frozen(all_models):
    """The memo is only sound because no part of the task set can mutate."""
    reachable = list(_reachable(mixed_taskset(all_models)))
    for value in reachable:
        assert type(value).__dataclass_params__.frozen, type(value).__name__
    kinds = {type(value).__name__ for value in reachable}
    assert {"TaskSetSpec", "TaskSpec", "DnnModel", "DnnProfile", "StageSpec", "GpuSpec"} <= kinds


# ------------------------------------------------------------------ entries


@pytest.fixture(scope="module")
def stored(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    request = ScenarioRequest(taskset, TINY_CONFIG, TINY_HORIZON, seed=2)
    return request, run_daris_scenario(taskset, TINY_CONFIG, TINY_HORIZON, seed=2)


def test_new_entry_layout(tmp_path, stored):
    request, result = stored
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(request, result)
    key = request.cache_key()
    entry = json.loads(cache.path_for(key).read_text(encoding="utf-8"))
    assert list(entry) == ["entry_schema", "key", "fingerprint", "result"]
    assert entry["entry_schema"] == 1 and entry["key"] == key
    assert entry["fingerprint"] == request.fingerprint()
    assert entry["result"] == result.to_dict()


def _write_old_layout(cache: ResultCache, request: ScenarioRequest, result) -> int:
    """An entry exactly as ``put`` wrote it with ``json.dump`` (insertion order)."""
    key = request.cache_key()
    entry = {
        "entry_schema": 1,
        "key": key,
        "fingerprint": request.fingerprint(),
        "result": result.to_dict(),
    }
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(entry, handle, separators=(",", ":"))
    return path.stat().st_size


def test_old_insertion_order_entry_is_still_a_hit(tmp_path, stored):
    request, result = stored
    cache = ResultCache(tmp_path / "old")
    _write_old_layout(cache, request, result)
    served = cache.get(request)
    assert served is not None and cache.hits == 1 and cache.misses == 0
    assert served.metrics == result.metrics
    assert served.config == result.config and served.label == result.label


def test_entry_bytes_are_unchanged(tmp_path, stored):
    """Only the key order inside ``fingerprint`` moved, so sizes match."""
    request, result = stored
    old = ResultCache(tmp_path / "old")
    new = ResultCache(tmp_path / "new")
    old_size = _write_old_layout(old, request, result)
    new.put(request, result)
    assert new.size_bytes() == old.size_bytes() == old_size
    old_text = old.path_for(request.cache_key()).read_text(encoding="utf-8")
    new_text = new.path_for(request.cache_key()).read_text(encoding="utf-8")
    assert old_text != new_text and sorted(old_text) == sorted(new_text)


# ------------------------------------------------------------- work counter


def test_warm_sweep_encodes_each_task_set_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    cold = run_experiment("backends", quick=True, seeds=2, processes=1, cache=cache)
    assert cold.simulated > 0

    calls = Counter()
    original = TaskSetSpec.fingerprint

    def counting(self):
        calls[id(self)] += 1
        return original(self)

    monkeypatch.setattr(TaskSetSpec, "fingerprint", counting)
    warm = run_experiment("backends", quick=True, seeds=2, processes=1, cache=cache)
    assert warm.simulated == 0 and warm.cache_hits == cold.cache_misses
    assert calls and max(calls.values()) == 1
