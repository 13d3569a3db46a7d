"""Knowledge-base planning, generation, noise, splits, and the file format."""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsakit import kb as kbmod, simulator
from tsakit.errors import (
    DegenerateKnowledgeBaseError,
    EquilibriumFailureError,
    FormatError,
    InvalidArgumentError,
)
from tsakit.kb import (
    NOISE_MAX,
    ScenarioPlan,
    default_load_levels,
    dispatch_shares,
    file_sha256,
    generate_kb,
    inject_noise,
    kb_from_text,
    kb_to_text,
    load_kb,
    save_kb,
    split,
)
from tsakit.network import reduce_to_generators, solve_equilibrium, solve_equilibrium_batch


# --- Plans --------------------------------------------------------------------


def test_default_levels_step_five_percent():
    levels = default_load_levels()
    assert levels == (0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3)


def test_default_plan_size():
    plan = ScenarioPlan(fault_buses=(2, 3, 4, 5, 6, 7, 8, 9))
    assert plan.n_planned == 10 * 5 * 8 == 400


def test_cells_iterate_bus_fastest():
    plan = ScenarioPlan(fault_buses=(7, 9), load_levels=(1.0, 1.2), dispatches_per_level=2)
    cells = list(plan.cells())
    assert len(cells) == plan.n_planned == 8
    assert [c[0] for c in cells] == list(range(8))
    assert cells[0] == (0, 1.0, 0, 7)
    assert cells[1] == (1, 1.0, 0, 9)
    assert cells[2] == (2, 1.0, 1, 7)
    assert cells[4] == (4, 1.2, 0, 7)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(fault_buses=()),
        dict(fault_buses=(7,), load_levels=(1.0, -0.5)),
        dict(fault_buses=(7,), dispatches_per_level=0),
        dict(fault_buses=(7,), fault_clearing_cycles=0),
        # repeated cells would share one scenario id
        dict(fault_buses=(7, 7)),
        dict(fault_buses=(7,), load_levels=(1.05, 1.049)),
        dict(fault_buses=(7,), load_levels=(float("nan"),)),
        dict(fault_buses=(7,), load_levels=(float("inf"),)),
        # counts are integers: no fractions, floats or booleans
        dict(fault_buses=(7,), dispatches_per_level=1.5),
        dict(fault_buses=(7,), dispatches_per_level=2.0),
        dict(fault_buses=(7,), dispatches_per_level=True),
        dict(fault_buses=(7,), fault_clearing_cycles=2.5),
        dict(fault_buses=(7,), fault_clearing_cycles=True),
        # the horizon is positive and finite
        dict(fault_buses=(7,), observation_horizon_s=0.0),
        dict(fault_buses=(7,), observation_horizon_s=-1.0),
        dict(fault_buses=(7,), observation_horizon_s=float("nan")),
        dict(fault_buses=(7,), observation_horizon_s=float("inf")),
    ],
)
def test_plan_rejects_bad_arguments(kwargs):
    with pytest.raises(InvalidArgumentError):
        ScenarioPlan(**kwargs)


def test_plan_accepts_numpy_integer_counts():
    plan = ScenarioPlan(
        fault_buses=(7, 9),
        load_levels=(1.0,),
        dispatches_per_level=np.int64(2),
        fault_clearing_cycles=np.int32(4),
    )
    assert plan.n_planned == 4


def test_dispatch_shares_form_a_distribution():
    shares = dispatch_shares(3, dispatch_seed=5)
    assert shares.shape == (3,)
    assert np.all(shares > 0)
    assert_allclose(shares.sum(), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(shares, dispatch_shares(3, dispatch_seed=5))
    assert not np.array_equal(shares, dispatch_shares(3, dispatch_seed=6))


# --- Measurement noise ----------------------------------------------------------


def test_zero_noise_is_identity(faulted_trajectory):
    assert inject_noise(faulted_trajectory, 0.0, seed=1) is faulted_trajectory


@pytest.mark.parametrize("bad", [-0.01, NOISE_MAX + 1e-9, 0.5, float("nan")])
def test_noise_level_bounds(faulted_trajectory, bad):
    with pytest.raises(InvalidArgumentError):
        inject_noise(faulted_trajectory, bad, seed=1)


def test_noise_is_bounded_and_multiplicative(faulted_trajectory):
    r = 0.05
    noisy = inject_noise(faulted_trajectory, r, seed=7)
    for name in ("delta", "omega_dev", "pe"):
        clean_ch = getattr(faulted_trajectory, name)
        noisy_ch = getattr(noisy, name)
        mask = np.abs(clean_ch) > 0
        rel = noisy_ch[mask] / clean_ch[mask] - 1.0
        assert np.max(np.abs(rel)) <= r
        assert np.any(np.abs(rel) > 0)
        # a zero measurement scaled by (1 + eps) stays exactly zero
        assert np.all(noisy_ch[~mask] == 0.0)


def test_noise_spares_model_constants(faulted_trajectory):
    noisy = inject_noise(faulted_trajectory, 0.03, seed=7)
    assert noisy.pm is faulted_trajectory.pm
    assert noisy.inertia is faulted_trajectory.inertia
    assert noisy.times_s is faulted_trajectory.times_s
    assert noisy.t0_index == faulted_trajectory.t0_index
    assert noisy.tcl_index == faulted_trajectory.tcl_index


def test_noise_is_seed_deterministic(faulted_trajectory):
    a = inject_noise(faulted_trajectory, 0.02, seed=3)
    b = inject_noise(faulted_trajectory, 0.02, seed=3)
    c = inject_noise(faulted_trajectory, 0.02, seed=4)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.pe, b.pe)
    assert not np.array_equal(a.delta, c.delta)


# --- Generation -------------------------------------------------------------------


def test_generation_covers_the_plan(small_kb, small_plan):
    assert small_kb.n_samples + len(small_kb.discarded) == small_plan.n_planned
    assert small_kb.feature_matrix.shape == (small_kb.n_samples, 23)
    assert not small_kb.feature_matrix.flags.writeable
    assert set(small_kb.labels) == {-1, 1}
    planned_ids = [f"lv{lv:.2f}/d{d}/b{b}" for _, lv, d, b in small_plan.cells()]
    assert list(small_kb.ids) == [sid for sid in planned_ids if sid not in small_kb.discarded]


def test_generation_is_reproducible(bundled_case, small_plan, small_kb):
    again = generate_kb(bundled_case, small_plan)
    assert kb_to_text(again) == kb_to_text(small_kb)


def test_master_seed_changes_dispatches(bundled_case, small_plan, small_kb):
    reseeded = generate_kb(bundled_case, dataclasses.replace(small_plan, master_seed=1))
    ours = small_kb.ids
    theirs = reseeded.ids
    assert set(ours) & set(theirs)  # the grid itself is unchanged
    common = sorted(set(ours) & set(theirs))
    a = dict(zip(ours, small_kb.feature_matrix))
    b = dict(zip(theirs, reseeded.feature_matrix))
    assert any(not np.array_equal(a[sid], b[sid]) for sid in common)


def test_labels_come_from_the_clean_trajectory(bundled_case, small_plan, small_kb):
    noisy = generate_kb(bundled_case, small_plan, noise_max_rel_error=0.05)
    assert noisy.noise_max_rel_error == 0.05
    assert noisy.ids == small_kb.ids
    assert np.array_equal(noisy.labels, small_kb.labels)
    assert not np.array_equal(noisy.feature_matrix, small_kb.feature_matrix)


def test_discarded_cells_are_accounted_for(bundled_case):
    plan = ScenarioPlan(
        fault_buses=(4, 7, 9),
        load_levels=(0.95, 1.15, 1.30),
        dispatches_per_level=2,
        master_seed=0,
    )
    kb = generate_kb(bundled_case, plan)
    assert len(kb.discarded) >= 1
    planned_ids = [f"lv{lv:.2f}/d{d}/b{b}" for _, lv, d, b in plan.cells()]
    assert sorted(kb.ids + kb.discarded) == sorted(planned_ids)


def _poison_cell(monkeypatch, position):
    """Give plan cell `position` an equilibrium that overflows in its first RK4 step."""
    real = kbmod.solve_equilibrium_batch

    def solve(*args):
        equilibrium, residual, failures = real(*args)  # one lane per cell, in plan order
        pm = equilibrium.pm.copy()
        pm[position] = [1e308, 0.0, -1e308]
        return dataclasses.replace(equilibrium, pm=pm), residual, failures

    monkeypatch.setattr(kbmod, "solve_equilibrium_batch", solve)


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("batch_cells", [kbmod.BATCH_CELLS, 1])
def test_a_diverged_cell_is_discarded_in_plan_order(bundled_case, monkeypatch, noise, batch_cells):
    # The plan of test_discarded_cells_are_accounted_for: lv1.30/d0/b4 has no
    # equilibrium.  Poisoning lv1.15/d0/b7 makes its lane go non-finite; with
    # one cell per batch that lane is a whole batch.
    plan = ScenarioPlan(
        fault_buses=(4, 7, 9), load_levels=(0.95, 1.15, 1.30), dispatches_per_level=2
    )
    clean = generate_kb(bundled_case, plan, noise_max_rel_error=noise)
    assert clean.discarded == ("lv1.30/d0/b4",)
    planned_ids = [f"lv{lv:.2f}/d{d}/b{b}" for _, lv, d, b in plan.cells()]
    poisoned_id = "lv1.15/d0/b7"
    monkeypatch.setattr(kbmod, "BATCH_CELLS", batch_cells)
    _poison_cell(monkeypatch, planned_ids.index(poisoned_id))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kb = generate_kb(bundled_case, plan, noise_max_rel_error=noise)
    assert kb.discarded == (poisoned_id, "lv1.30/d0/b4")
    keep = np.array([sid != poisoned_id for sid in clean.ids])
    assert kb.ids == tuple(sid for sid in clean.ids if sid != poisoned_id)
    assert kb.feature_matrix.tobytes() == clean.feature_matrix[keep].tobytes()
    assert kb.labels.tobytes() == clean.labels[keep].tobytes()
    assert kb.noise_max_rel_error == noise


@pytest.mark.parametrize("batch_cells", [kbmod.BATCH_CELLS, 1])
def test_each_network_of_a_plan_is_reduced_once(bundled_case, small_plan, monkeypatch, batch_cells):
    # L load levels, each intact and with each of F fault buses grounded:
    # L * (1 + F) distinct networks, each reduced once whatever the batch size.
    real = kbmod.reduce_to_generators
    calls = []

    def counted(case, load_scale=1.0, fault_bus=None):
        calls.append((load_scale, fault_bus))
        return real(case, load_scale, fault_bus=fault_bus)

    for module in (kbmod, simulator):
        monkeypatch.setattr(module, "reduce_to_generators", counted)
    monkeypatch.setattr(kbmod, "BATCH_CELLS", batch_cells)
    generate_kb(bundled_case, small_plan)
    levels, buses = small_plan.load_levels, (None, *small_plan.fault_buses)
    assert len(calls) == len(levels) * len(buses) == 8
    assert set(calls) == {(level, bus) for level in levels for bus in buses}


@pytest.mark.parametrize("order", ["plan", "reversed"])
def test_equilibrium_lanes_equal_lone_solves(bundled_case, order):
    # The plan of test_discarded_cells_are_accounted_for: lv1.30/d0/b4 has no
    # equilibrium.  Each lane of the batched solve is its lone solve, bytes
    # and failure alike, whatever its neighbours.
    plan = ScenarioPlan(
        fault_buses=(4, 7, 9), load_levels=(0.95, 1.15, 1.30), dispatches_per_level=2
    )
    cells = [(level, kbmod._stream_seed(0, k, 0)) for k, level, _, _ in plan.cells()]
    cells = cells if order == "plan" else cells[::-1]
    reduced = np.stack([reduce_to_generators(bundled_case, level) for level, _ in cells])
    pm = np.stack([kbmod.dispatch_pm(bundled_case, level, seed) for level, seed in cells])
    batch, residual, failures = solve_equilibrium_batch(bundled_case, reduced, pm)
    assert sum(f is not None for f in failures) == 1
    for b in range(len(cells)):
        try:
            lone = solve_equilibrium(bundled_case, reduced[b], pm[b])
        except EquilibriumFailureError as exc:
            assert (failures[b], residual[b]) == (str(exc), exc.residual)
            continue
        assert failures[b] is None
        assert batch.lanes(b).delta0.tobytes() == lone.delta0.tobytes()
        assert batch.lanes(b).pm.tobytes() == lone.pm.tobytes()


def test_generation_rejects_bad_noise(bundled_case, small_plan):
    with pytest.raises(InvalidArgumentError):
        generate_kb(bundled_case, small_plan, noise_max_rel_error=0.06)


def test_generation_rejects_unknown_fault_bus(bundled_case):
    plan = ScenarioPlan(fault_buses=(42,), load_levels=(1.0,), dispatches_per_level=1)
    with pytest.raises(InvalidArgumentError):
        generate_kb(bundled_case, plan)


def test_generation_needs_load_to_dispatch(pair_case):
    plan = ScenarioPlan(fault_buses=(1,), load_levels=(1.0,), dispatches_per_level=1)
    with pytest.raises(InvalidArgumentError):
        generate_kb(pair_case, plan)


def test_single_class_grid_is_refused(bundled_case):
    calm = ScenarioPlan(fault_buses=(4,), load_levels=(0.85,), dispatches_per_level=1)
    with pytest.raises(DegenerateKnowledgeBaseError):
        generate_kb(bundled_case, calm)


def test_unsolvable_grid_is_refused(bundled_case):
    hopeless = ScenarioPlan(fault_buses=(4,), load_levels=(3.0,), dispatches_per_level=1)
    with pytest.raises(DegenerateKnowledgeBaseError):
        generate_kb(bundled_case, hopeless)


# --- Splits -------------------------------------------------------------------------


def test_split_partitions_the_indices(small_kb):
    s = split(small_kb, n_train=10, seed=0)
    assert len(s.train_indices) == 10
    assert len(s.test_indices) == small_kb.n_samples - 10
    combined = np.concatenate([s.train_indices, s.test_indices])
    assert sorted(combined.tolist()) == list(range(small_kb.n_samples))


def test_split_is_seeded(small_kb):
    a = split(small_kb, n_train=9, seed=3)
    b = split(small_kb, n_train=9, seed=3)
    c = split(small_kb, n_train=9, seed=4)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


@pytest.mark.parametrize("n_train", [0, -1, 18, 50])
def test_split_bounds(small_kb, n_train):
    with pytest.raises(InvalidArgumentError):
        split(small_kb, n_train=n_train, seed=0)


# --- File format ----------------------------------------------------------------------


def test_text_round_trip_is_lossless(small_kb):
    text = kb_to_text(small_kb)
    clone = kb_from_text(text)
    assert kb_to_text(clone) == text
    assert clone.case_id == small_kb.case_id
    assert clone.plan == small_kb.plan
    assert clone.noise_max_rel_error == small_kb.noise_max_rel_error
    assert clone.discarded == small_kb.discarded
    assert np.array_equal(clone.labels, small_kb.labels)
    assert np.array_equal(clone.feature_matrix, small_kb.feature_matrix)
    assert clone.ids == small_kb.ids


def test_save_load_and_digest(small_kb, tmp_path):
    first = tmp_path / "kb_a.txt"
    second = tmp_path / "kb_b.txt"
    save_kb(small_kb, first)
    save_kb(small_kb, second)
    assert file_sha256(first) == file_sha256(second)
    expected = hashlib.sha256(first.read_bytes()).hexdigest()
    assert file_sha256(first) == expected

    loaded = load_kb(first)
    assert np.array_equal(loaded.feature_matrix, small_kb.feature_matrix)

    second.write_text(kb_to_text(loaded) + "\n")
    assert file_sha256(second) != expected


def test_blank_lines_are_tolerated(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    padded = "\n".join([lines[0], ""] + lines[1:]) + "\n"
    assert kb_from_text(padded).n_samples == small_kb.n_samples


def test_rejects_empty_document():
    with pytest.raises(FormatError):
        kb_from_text("")


def test_rejects_unparseable_header():
    with pytest.raises(FormatError) as excinfo:
        kb_from_text("not json\n")
    assert excinfo.value.line == 1


def test_rejects_unknown_format(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    header = json.loads(lines[0])
    header["format"] = 99
    with pytest.raises(FormatError, match="format"):
        kb_from_text("\n".join([json.dumps(header)] + lines[1:]))


def test_rejects_shuffled_feature_names(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    header = json.loads(lines[0])
    header["features"] = list(reversed(header["features"]))
    with pytest.raises(FormatError, match="feature order"):
        kb_from_text("\n".join([json.dumps(header)] + lines[1:]))


def test_rejects_incomplete_plan(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    header = json.loads(lines[0])
    del header["plan"]["master_seed"]
    with pytest.raises(FormatError, match="plan"):
        kb_from_text("\n".join([json.dumps(header)] + lines[1:]))


def test_bad_record_reports_its_line(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    lines[2] = "{broken"
    with pytest.raises(FormatError) as excinfo:
        kb_from_text("\n".join(lines))
    assert excinfo.value.line == 3


def test_rejects_wrong_feature_width(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    lines[1] = json.dumps({"id": "x", "label": 1, "features": [0.0] * 5})
    with pytest.raises(FormatError, match="5 features"):
        kb_from_text("\n".join(lines))


def test_rejects_out_of_alphabet_label(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    lines[1] = json.dumps({"id": "x", "label": 0, "features": [0.0] * 23})
    with pytest.raises(FormatError, match="label"):
        kb_from_text("\n".join(lines))


def test_rejects_record_missing_fields(small_kb):
    lines = kb_to_text(small_kb).splitlines()
    lines[1] = json.dumps({"label": 1, "features": [0.0] * 23})
    with pytest.raises(FormatError, match="incomplete"):
        kb_from_text("\n".join(lines))


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("discarded", "abc", "discarded"),
        ("discarded", ["lv1.05/d0/b7", 3], "discarded"),
        ("noise_max_rel_error", -3, "noise"),
        ("noise_max_rel_error", 0.06, "noise"),
    ],
    ids=["discarded-string", "discarded-non-string-id", "noise-negative", "noise-above-max"],
)
def test_rejects_header_values_no_writer_produces(small_kb, field, value, match):
    lines = kb_to_text(small_kb).splitlines()
    header = json.loads(lines[0])
    header[field] = value
    with pytest.raises(FormatError, match=match) as excinfo:
        kb_from_text("\n".join([json.dumps(header)] + lines[1:]))
    assert excinfo.value.line == 1


def test_rejects_header_without_records(small_kb):
    header = kb_to_text(small_kb).splitlines()[0]
    with pytest.raises(FormatError, match="no records"):
        kb_from_text(header + "\n\n")
