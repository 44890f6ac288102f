import numpy as np
import pytest

from spedgp import Dataset, InvalidInputError, load_dataset, save_dataset
from spedgp.dataio import (
    fmt,
    load_eval_dataset,
    read_designs,
    read_responses,
    read_specs,
    read_target,
    specs_sidecar_path,
    write_designs,
    write_json,
    write_prediction_csv,
    write_responses,
    write_specs,
    write_target,
)
from spedgp.design import SinusoidSpec, gen_sinusoid, sample_designs
from spedgp.spectral import StructureDesign

from .test_spectral import name_references


@pytest.fixture
def tiny(tmp_path):
    rng = np.random.default_rng(0)
    specs = sample_designs(4, seed=3)
    designs = [gen_sinusoid(s, 9) for s in specs]
    grid = np.linspace(0.01, 0.15, 5)
    Y = rng.uniform(0.5, 3.0, (4, 5))
    return tmp_path, specs, designs, grid, Y


def test_fmt_round_trips_exactly():
    for x in (0.1, 1 / 3, np.pi, 1e-300, 123456.789):
        assert float(fmt(x)) == x


class TestDesignsRoundTrip:
    def test_lossless(self, tiny):
        tmp, _, designs, _, _ = tiny
        path = tmp / "designs.csv"
        write_designs(path, designs)
        back = read_designs(path)
        assert len(back) == len(designs)
        for a, b in zip(designs, back):
            assert a.diameter == b.diameter
            np.testing.assert_array_equal(a.curve, b.curve)
            assert b.features is None

    def test_sidecar_attaches_features(self, tiny):
        tmp, specs, designs, _, _ = tiny
        path = tmp / "designs.csv"
        write_designs(path, designs)
        write_specs(specs_sidecar_path(path), [dsn.features for dsn in designs])
        back = read_designs(path)
        for spec, dsn in zip(specs, back):
            np.testing.assert_array_equal(dsn.features, spec.as_array())

    def test_sidecar_row_mismatch_rejected(self, tiny):
        tmp, _, designs, _, _ = tiny
        path = tmp / "designs.csv"
        write_designs(path, designs)
        write_specs(specs_sidecar_path(path), [dsn.features for dsn in designs[:-1]])
        with pytest.raises(InvalidInputError, match="spec rows"):
            read_designs(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text("diameter,x0,x1\n1.0,0.0,0.0\n")
        with pytest.raises(InvalidInputError, match="header"):
            read_designs(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text("d,x0,x1,x2\n1.0,0.0,0.0,0.0\n1.0,0.0\n")
        with pytest.raises(InvalidInputError, match="fields"):
            read_designs(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text("d,x0,x1\n1.0,0.0,zero\n")
        with pytest.raises(InvalidInputError, match="non-numeric value in row 0"):
            read_designs(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="missing"):
            read_designs(tmp_path / "nope.csv")


class TestSpecsRoundTrip:
    def test_lossless(self, tiny):
        tmp, specs, _, _, _ = tiny
        path = tmp / "s_specs.csv"
        write_specs(path, [spec.as_array() for spec in specs])
        back = read_specs(path)
        for a, b in zip(specs, back):
            assert (a.d, a.A, a.omega, a.phi) == (b.d, b.A, b.omega, b.phi)

    def test_sidecar_path(self):
        assert specs_sidecar_path("runs/designs.csv").name == "designs_specs.csv"
        with pytest.raises(InvalidInputError):
            specs_sidecar_path("designs.txt")


class TestResponses:
    def test_round_trip(self, tiny):
        tmp, _, _, grid, Y = tiny
        path = tmp / "responses.csv"
        write_responses(path, grid, Y)
        g2, Y2 = read_responses(path)
        np.testing.assert_array_equal(g2, grid)
        np.testing.assert_array_equal(Y2, Y)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_text("0.01,0.02\n1.0,2.0\n1.0\n")
        with pytest.raises(InvalidInputError, match="ragged"):
            read_responses(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_text("0.01,0.02\n1.0,oops\n")
        with pytest.raises(InvalidInputError, match="non-numeric stress in row 0"):
            read_responses(path)


class TestDataset:
    def test_save_load(self, tiny):
        tmp, _, designs, grid, Y = tiny
        ds = Dataset(designs=designs, responses=Y, grid=grid)
        save_dataset(tmp / "run", ds)
        back = load_dataset(tmp / "run")
        np.testing.assert_array_equal(back.responses, Y)
        np.testing.assert_array_equal(back.grid, grid)
        for a, b in zip(designs, back.designs):
            np.testing.assert_array_equal(b.features, a.features)

    def test_no_sidecar_without_features(self, tiny):
        # one design without provenance: no sidecar, and none comes back
        tmp, _, designs, grid, Y = tiny
        designs = designs[:-1] + [StructureDesign(designs[-1].diameter, designs[-1].curve)]
        save_dataset(tmp / "run", Dataset(designs=designs, responses=Y, grid=grid))
        assert not specs_sidecar_path(tmp / "run" / "designs.csv").exists()
        assert all(dsn.features is None for dsn in load_dataset(tmp / "run").designs)

    def test_eval_prefers_test_prefix(self, tiny):
        tmp, specs, designs, grid, Y = tiny
        ds = Dataset(designs=designs, responses=Y, grid=grid)
        save_dataset(tmp / "run", ds)
        save_dataset(tmp / "run", Dataset(designs=designs, responses=Y * 2,
                                          grid=grid), prefix="test_")
        back = load_eval_dataset(tmp / "run")
        np.testing.assert_array_equal(back.responses, Y * 2)

    def test_validation(self, tiny):
        _, _, designs, grid, Y = tiny
        with pytest.raises(InvalidInputError, match="design count"):
            Dataset(designs=designs[:-1], responses=Y, grid=grid)
        with pytest.raises(InvalidInputError, match="columns"):
            Dataset(designs=designs, responses=Y[:, :-1], grid=grid)
        bad = Y.copy()
        bad[0, 0] = -1.0
        with pytest.raises(InvalidInputError, match="positive"):
            Dataset(designs=designs, responses=bad, grid=grid)

    def test_responses_must_be_a_matrix(self, tiny):
        _, _, _, grid, _ = tiny
        with pytest.raises(InvalidInputError, match="matrix of runs"):
            Dataset(designs=[], responses=[], grid=grid)


class TestTarget:
    def test_round_trip(self, tmp_path):
        strain = np.linspace(0.01, 0.15, 7)
        stress = 2.0 * strain ** 1.2
        path = tmp_path / "target.csv"
        write_target(path, strain, stress)
        s2, v2 = read_target(path)
        np.testing.assert_array_equal(s2, strain)
        np.testing.assert_array_equal(v2, stress)

    def test_decreasing_strain_rejected(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("strain,stress\n0.05,1.0\n0.01,2.0\n")
        with pytest.raises(InvalidInputError, match="increasing"):
            read_target(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("strain,stress\n0.05,1.0\n")
        with pytest.raises(InvalidInputError, match="two strain"):
            read_target(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("strain,stress\n0.05,np.float64(1.0)\n0.08,2.0\n")
        with pytest.raises(InvalidInputError, match="non-numeric value in row 0"):
            read_target(path)

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("strain,stress\n0.05,1.0,9.9\n0.08,2.0\n")
        with pytest.raises(InvalidInputError, match="strain,stress pairs"):
            read_target(path)


class TestPredictionCsv:
    def test_blocks_lead_with_zero_row(self, tmp_path):
        grid = np.array([0.01, 0.05])
        rows = [(np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([1.5, 2.5]))]
        path = tmp_path / "pred.csv"
        write_prediction_csv(path, grid, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "design,strain,mean,lower,upper"
        assert lines[1] == "0,0.0,0.0,0.0,0.0"
        assert lines[2].startswith("0,0.01,1.0,")
        assert len(lines) == 1 + 1 + 2


class TestJson:
    def test_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 1, "a": [0.1]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_deterministic(self, tmp_path):
        write_json(tmp_path / "x.json", {"k": 0.1, "z": {"n": 2}})
        write_json(tmp_path / "y.json", {"z": {"n": 2}, "k": 0.1})
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()


def test_only_dataio_touches_files():
    # dataio._opened is the package's one open, and dataio its one JSON codec
    refs = name_references({"open", "read_text", "write_text", "loads", "dumps"})
    offenders = [ref for ref in refs if not ref.startswith("dataio.py:")]
    assert not offenders, f"file access outside dataio: {offenders}"
    assert sorted(ref.split()[-1] for ref in refs) == ["dumps", "loads", "open"], refs
