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
    assert len(gate.PLANTED_CONFIGS) == 16
    assert gate.PLANTED_CONFIGS[0] == (gate.SelectedLayers(3, 4), False, False)
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
    assert [(p.granularity_unit, p.max_granularity) for p in gate.SETUP_POPULARITIES] == [
        (0.1, 2), (0.1, 0), (0.24, 4)]
    for popularity in gate.SETUP_POPULARITIES:
        operators = result[f"c={popularity.granularity_unit} K={popularity.max_granularity}"]
        granularities = popularity.num_granularities
        assert len(operators["matrices"]) == len(operators["transposes"]) == granularities
        # A+I is symmetric: a transpose stores the same index arrays
        for matrix, transposed in zip(operators["matrices"], operators["transposes"]):
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


def test_cores_section_is_the_same_at_every_core_count(tmp_path, monkeypatch):
    """The first planted configuration's steps and a planted train() run's
    records repeat at 1, 2 and 3 cores, and the process's own core count
    and pool are put back."""
    gate = load_gate(monkeypatch)
    graph = gate.jmpgcf.graph
    cores, pool = graph._cores, graph._pool
    result = gate.cores(str(tmp_path))
    assert graph._cores is cores and graph._pool is pool
    assert list(result) == ["cores=1", "cores=2", "cores=3"]
    assert result["cores=1"] == result["cores=2"] == result["cores=3"]
    (steps,) = result["cores=1"]["steps"].values()
    assert len(steps["losses"]) == gate.PLANTED_STEPS_PER_PHASE * gate.POPULARITY.num_granularities
    records = result["cores=1"]["records"]
    assert [r["phase"] for r in records] == list(range(1, gate.POPULARITY.num_granularities + 1))
    assert all(f"recall@{gate.TOPK}" in r for r in records)


def test_hop_section_is_the_same_at_every_core_and_panel_count(tmp_path, monkeypatch):
    gate = load_gate(monkeypatch)
    graph = gate.jmpgcf.graph
    # the planted graph's hops are cut into many blocks at 2 and 3 cores
    monkeypatch.setattr(graph, "PARALLEL_WORK", 1 << 16)
    cores, pool, panel_rows = graph._cores, graph._pool, graph.PANEL_ROWS
    pattern, panels = graph._panel_pattern, []

    def counting(*args):
        made = pattern(*args)
        panels.append(len(made[0]))
        return made

    monkeypatch.setattr(graph, "_panel_pattern", counting)
    result = gate.hops(str(tmp_path), gate.gen.planted_lists)
    # the planted graph's 5,000 nodes make one panel, five of 1,000, and one
    assert panels == [1, 5, 1]
    assert graph._cores is cores and graph._pool is pool and graph.PANEL_ROWS == panel_rows
    cores = ["cores=1", "cores=2", "cores=3"]
    assert list(result) == [*cores, "panel_rows=1000", "panel_rows=70839"]
    granularities = gate.POPULARITY.num_granularities
    assert sorted(result["cores=1"]) == sorted(
        f"A_{k}{side}" for k in range(granularities) for side in ("", "^T"))
    for section in (result, result["panel_rows=1000"], result["panel_rows=70839"]):
        assert [section[count] for count in cores] == [result["cores=1"]] * 3


def test_rankings_hash_one_list_per_evaluable_user(tmp_path, monkeypatch):
    """The rankings hash a top-40 list per evaluable user, so that two
    items swapped in a list change the hash even where neither is a hit."""
    gate = load_gate(monkeypatch)
    ds, matrices, _ = gate._graph(gate.gen.planted_lists, str(tmp_path))
    params = gate.init_parameters(ds.num_users, ds.num_items, gate.EMBED_DIM, gate.POPULARITY,
                                  gate.SEED)
    out = gate.propagate(params, matrices, gate.PLANTED_LAYERS, retain_chain=False)
    got = gate._rankings(out, ds)
    assert got["users"] == sum(1 for items in ds.test if len(items))
    assert got == gate._rankings(out, ds)
    rank_user = gate.rank_user
    monkeypatch.setattr(gate, "rank_user",
                        lambda *args: rank_user(*args)[[*range(gate.RANKED - 2), -1, -2]])
    assert gate._rankings(out, ds)["top40"] != got["top40"]
