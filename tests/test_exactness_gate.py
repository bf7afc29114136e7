"""``tools/exactness_gate.py`` reads a tree the same way every time, so
that two of its documents differ only where two trees compute different
numbers."""

import importlib.util
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_gate(monkeypatch):
    """The gate, imported as it runs: from the checkout root."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends src and perfbench
    spec = importlib.util.spec_from_file_location(
        "exactness_gate", os.path.join(REPO, "tools", "exactness_gate.py")
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_one_planted_configuration_repeats(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    assert len(gate.PLANTED_CONFIGS) == 32
    configs = gate.PLANTED_CONFIGS[:1]
    documents = [
        json.dumps(gate.planted_steps(str(tmp_path / run), configs), sort_keys=True)
        for run in ("first", "second")
    ]
    assert documents[0] == documents[1]
    (result,) = json.loads(documents[0]).values()
    steps = gate.PLANTED_STEPS_PER_PHASE * gate.POPULARITY.num_granularities
    assert len(result["losses"]) == steps
    assert all(float.fromhex(loss) > 0 for loss in result["losses"])
    assert len(result["tables"]) == 64


def test_planted_setup_repeats(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    assert set(gate.SETUP_GRAPHS) == {"gowalla", "planted"}
    graphs = {"planted": gate.SETUP_GRAPHS["planted"]}
    documents = [json.dumps(gate.setup(str(tmp_path / run), graphs), sort_keys=True)
                 for run in ("first", "second")]
    assert documents[0] == documents[1]
    result = json.loads(documents[0])["planted"]
    granularities = gate.POPULARITY.num_granularities
    assert len(result["matrices"]) == len(result["transposes"]) == granularities
    # A+I is symmetric: a transpose stores the same index arrays
    for matrix, transposed in zip(result["matrices"], result["transposes"]):
        assert matrix["row_offsets"] == transposed["row_offsets"]
        assert matrix["col_indices"] == transposed["col_indices"]
    assert len(result["hop_coverages"]) == gate.LayerSelectionConfig().max_hops
    assert all(0 <= float.fromhex(c) <= 1 for c in result["hop_coverages"].values())


def test_tie_section_repeats_for_every_worker_count(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    ds, matrices, _ = gate._graph(gate.gen.planted_lists, str(tmp_path))
    params = gate.init_parameters(ds.num_users, ds.num_items, gate.EMBED_DIM, gate.POPULARITY,
                                  gate.SEED)
    documents = [gate._tie_evaluation(params, matrices, gate.PLANTED_LAYERS, ds)
                 for _ in range(2)]
    assert documents[0] == documents[1]
    reports = documents[0]["reports"]
    assert set(reports) == {f"workers={w}" for w in gate.WORKERS}
    assert reports["workers=1"] == reports["workers=2"]
    assert [r["k"] for r in reports["workers=1"]] == list(gate.CUTOFFS)


def test_one_planted_configuration_is_the_same_at_one_and_three_cores(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    graph = gate.jmpgcf.graph
    configs = gate.PLANTED_CONFIGS[:1]
    documents = []
    for cores in (1, 3):
        monkeypatch.setattr(graph, "_cores", lambda: cores)
        monkeypatch.setattr(graph, "_pool", None)  # a pool of this many cores
        try:
            part = gate.planted_steps(str(tmp_path / f"cores{cores}"), configs)
        finally:
            if graph._pool is not None:
                graph._pool.shutdown()
        documents.append(json.dumps(part, sort_keys=True))
    assert documents[0] == documents[1]
