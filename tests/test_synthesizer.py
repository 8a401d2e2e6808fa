"""Tests for the OptimalSynthesizer facade."""

import pytest

from repro.errors import DatabaseError, SizeLimitExceededError
from repro.store import map_database
from repro.synth.synthesizer import OptimalSynthesizer, default_cache_dir


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    synthesizer = OptimalSynthesizer(
        n_wires=4, k=4, max_list_size=3, cache_dir=cache
    )
    synthesizer.prepare()
    return synthesizer


class TestFacade:
    def test_synthesize_spec_string(self, synth):
        circuit = synth.synthesize("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
        assert circuit.gate_count == 4
        assert str(circuit) == "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)"

    def test_synthesize_value_list(self, synth):
        circuit = synth.synthesize([x ^ 1 for x in range(16)])
        assert circuit.gate_count == 1

    def test_size(self, synth):
        assert synth.size("[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]") == 4

    def test_size_or_bound(self, synth):
        size, exact = synth.size_or_bound(list(range(16)))
        assert (size, exact) == (0, True)
        hwb4 = "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]"
        bound, exact = synth.size_or_bound(hwb4)
        assert not exact and bound == synth.max_size + 1

    def test_search_outcome(self, synth):
        outcome = synth.search("[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]")
        assert outcome.size == 4

    def test_out_of_reach_raises(self, synth):
        with pytest.raises(SizeLimitExceededError):
            synth.synthesize("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]")

    def test_verify(self, synth):
        circuit = synth.synthesize("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
        assert synth.verify(circuit, "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
        assert not synth.verify(circuit, list(range(16)))

    def test_max_size(self, synth):
        assert synth.max_size == 7


class TestCaching:
    def test_cache_roundtrip(self, tmp_path):
        first = OptimalSynthesizer(k=3, max_list_size=2, cache_dir=tmp_path)
        first.prepare()
        assert [p.name for p in tmp_path.iterdir()] == ["db-n4-k3.rdb"]
        second = OptimalSynthesizer(k=3, max_list_size=2, cache_dir=tmp_path)
        second.prepare()
        assert second.database.reduced_counts() == [1, 4, 33, 425]

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        synth = OptimalSynthesizer(k=2, max_list_size=1, cache_dir=False)
        synth.prepare()
        assert list(tmp_path.iterdir()) == []

    def test_stale_cache_rebuilt(self, tmp_path):
        # A store that does not cover the requested k is rebuilt in place.
        shallow = OptimalSynthesizer(k=2, max_list_size=1, cache_dir=tmp_path)
        shallow.prepare()
        shallow.store_path.rename(tmp_path / "db-n4-k3.rdb")
        deeper = OptimalSynthesizer(k=3, max_list_size=1, cache_dir=tmp_path)
        deeper.prepare()
        assert deeper.database.k == 3
        assert map_database(deeper.store_path).k == 3

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_list_size_validation(self):
        with pytest.raises(DatabaseError):
            OptimalSynthesizer(k=3, max_list_size=4)

    def test_prepare_idempotent(self, synth):
        engine = synth.search_engine
        synth.prepare()
        assert synth.search_engine is engine
