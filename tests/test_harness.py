from fractions import Fraction

import pytest

from smbmm import harness
from smbmm.errors import TooManyStragglers
from smbmm.harness import (
    DataSource,
    SmbmmRunConfig,
    SsmmRunConfig,
    StragglerModel,
    run_smbmm,
    run_ssmm,
    sweep,
)


def _ssmm_cfg(**over):
    base = dict(
        m=2, p=3, n=2, x_a=2, x_b=3, q=257, n_servers=30,
        rows=12, inner=12, cols=12, seed=5, variant="a",
        data=DataSource.random(7),
        stragglers=StragglerModel.random_count(5),
    )
    base.update(over)
    return SsmmRunConfig(**base)


def _smbmm_cfg(**over):
    base = dict(
        m=2, p=3, n=2, x_a=2, x_b=3, g=2, l=2, q=1009, n_servers=85,
        rows=12, inner=12, cols=12, seed=6, variant="a",
        data=DataSource.random(8),
        stragglers=StragglerModel.random_count(9),
    )
    base.update(over)
    return SmbmmRunConfig(**base)


def test_run_ssmm_worked_example_with_stragglers():
    record = run_ssmm(_ssmm_cfg())
    assert record.passed
    assert record.threshold == 25
    assert len(record.straggler_indices) == 5
    assert len(record.used) == 25
    assert not set(record.used) & set(record.straggler_indices)
    # realized download = K/(mn) in normalized units
    assert Fraction(record.realized_download, 12 * 12) == Fraction(25, 4)
    assert record.costs.upload_a == Fraction(30, 6)


def test_run_ssmm_too_many_stragglers():
    cfg = _ssmm_cfg(stragglers=StragglerModel.random_count(6))  # budget is 30-25=5
    with pytest.raises(TooManyStragglers):
        run_ssmm(cfg)


def test_run_ssmm_fixed_straggler_set():
    record = run_ssmm(_ssmm_cfg(stragglers=StragglerModel.fixed([0, 7, 29])))
    assert record.passed
    assert record.straggler_indices == (0, 7, 29)
    assert 0 not in record.responding


def test_run_smbmm_worked_example_with_stragglers():
    record = run_smbmm(_smbmm_cfg())
    assert record.passed
    assert record.threshold == 76
    assert len(record.straggler_indices) == 9
    assert record.costs.randomness == Fraction(15, 4)
    assert record.costs.randomness_count == 60
    assert len(record.products) == 4
    # normalized D, against M = G*L products
    assert Fraction(record.realized_download, 4 * 12 * 12) == Fraction(76, 16)


def test_run_smbmm_deterministic_given_seed():
    r1 = run_smbmm(_smbmm_cfg())
    r2 = run_smbmm(_smbmm_cfg())
    assert r1.products == r2.products
    assert r1.straggler_indices == r2.straggler_indices


def test_run_records_independent_of_straggler_set():
    # same data and noise, different erasures: identical products
    r1 = run_smbmm(_smbmm_cfg(stragglers=StragglerModel.fixed(range(9))))
    r2 = run_smbmm(_smbmm_cfg(stragglers=StragglerModel.fixed(range(76, 85))))
    assert set(r1.used) != set(r2.used)
    assert r1.products == r2.products


def test_sweep_single_cell_matches_single_run():
    cfg = _ssmm_cfg(stragglers=StragglerModel.none())
    records, csv_text = sweep([cfg], master_seed=11)
    assert len(records) == 1 and records[0].passed
    lines = csv_text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("cell,protocol,m,p,n")
    assert lines[0].split(",")[-1] == "wall_ms"


def test_sweep_grid_rows_and_error_recording():
    good = _ssmm_cfg(stragglers=StragglerModel.none())
    bad = _ssmm_cfg(stragglers=StragglerModel.random_count(6))
    records, csv_text = sweep([good, bad, good], master_seed=3)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 4
    assert records[1] is None
    assert "TooManyStragglers" in lines[2]
    assert records[0].passed and records[2].passed


def test_sweep_propagates_program_faults(monkeypatch):
    def broken(cfg):
        raise RuntimeError("program fault")

    monkeypatch.setattr(harness, "run_ssmm", broken)
    with pytest.raises(RuntimeError, match="program fault"):
        sweep([_ssmm_cfg()], master_seed=3)


def test_sweep_replay_byte_identical():
    cells = [_ssmm_cfg(stragglers=StragglerModel.none()),
             _ssmm_cfg(x_a=1, stragglers=StragglerModel.none())]
    records1, csv1 = sweep(cells, master_seed=21)
    records2, csv2 = sweep(cells, master_seed=21)
    assert csv1 == csv2
    assert [r.products for r in records1] == [r.products for r in records2]
    # a different master seed changes the underlying data but not the
    # summary columns, so only the record contents may differ
    records3, _ = sweep(cells, master_seed=22)
    assert [r.products for r in records1] != [r.products for r in records3]


def test_data_from_files(tmp_path):
    from smbmm.field import FieldConfig
    from smbmm.matrix import matmul_oracle, random_matrix, save_matrix
    from smbmm.rng import Stream
    fld = FieldConfig(257)
    a = random_matrix(4, 3, fld, Stream(1))
    b = random_matrix(3, 4, fld, Stream(2))
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix(a, pa)
    save_matrix(b, pb)
    cfg = _ssmm_cfg(
        m=2, p=3, n=2, x_a=1, x_b=1, q=257, n_servers=22,
        rows=4, inner=3, cols=4,
        data=DataSource.files([str(pa)], [str(pb)]),
        stragglers=StragglerModel.none(),
    )
    record = run_ssmm(cfg)
    assert record.passed
    assert record.products[0] == matmul_oracle(a, b)
