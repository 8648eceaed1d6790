"""File formats: bit-exact round trips, validation, golden fixtures."""

import json
import pathlib

import numpy as np
import pytest

from specfact.fileio import (
    dumps_document,
    read_factor,
    read_spectrum,
    write_factor,
    write_spectrum,
)
from specfact.laurent import MatrixPolynomial
from specfact.testgen import generate_boundary_instance, generate_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def random_factor(seed, r=3, m=4):
    rng = np.random.default_rng(seed)
    return MatrixPolynomial(rng.standard_normal((m + 1, r, r))
                            + 1j * rng.standard_normal((m + 1, r, r)))


class TestRoundTrips:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_factor_round_trip_is_bit_exact(self, seed, tmp_path):
        x = random_factor(seed)
        path = tmp_path / "x.factor"
        write_factor(path, x, algorithm="wilson", residual=1.25e-11,
                     warnings=["note"])
        back, metadata = read_factor(path)
        assert np.array_equal(back.coeffs, x.coeffs)
        assert metadata["algorithm"] == "wilson"
        assert metadata["residual"] == 1.25e-11
        assert metadata["warnings"] == ["note"]

    def test_spectrum_round_trip_is_bit_exact(self, tmp_path):
        bundle = generate_instance(3, 5, seed=31)
        path = tmp_path / "s.spectrum"
        write_spectrum(path, bundle.spectrum)
        back = read_spectrum(path)
        assert np.array_equal(back.coeffs, bundle.spectrum.coeffs)

    def test_write_is_deterministic(self, tmp_path):
        x = random_factor(7)
        a, b = tmp_path / "a", tmp_path / "b"
        write_factor(a, x, algorithm="bauer", residual=0.0)
        write_factor(b, x, algorithm="bauer", residual=0.0)
        assert a.read_bytes() == b.read_bytes()

    def test_refused_write_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "x.factor"
        write_factor(path, random_factor(0), algorithm="wilson")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="^file formats carry finite doubles only$"):
            write_factor(path, random_factor(1), residual=float("nan"))
        assert path.read_bytes() == before

    def test_unserializable_leaf_is_a_type_error(self):
        with pytest.raises(TypeError):
            dumps_document({"k": object()})

    def test_seventeen_digit_floats_survive(self):
        doc = {"value": [0.1 + 0.2, 1e-300, -0.0, 2.0**-1074]}
        import json
        parsed = json.loads(dumps_document(doc))
        for original, restored in zip(doc["value"], parsed["value"]):
            assert float(restored) == original


class TestSpectrumValidation:
    def test_non_hermitian_sigma0_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text('{"r": 2, "m": 0, "coeffs": {"0": '
                        '[[[0,0],[1,0]],[[0,0],[0,0]]]}}')
        with pytest.raises(ValueError, match="Hermitian symmetry"):
            read_spectrum(path)

    @pytest.mark.parametrize("document", [
        '{"r": 1, "m": 1, "coeffs": {"0": [[[5,0]]], "1": [[[2,0]]], "-1": [[[3,0]]]}}',
        '{"r": 1, "m": 2, "coeffs": {"-2": [[[0,0]]], "-1": [[[3,0]]], "0": [[[5,0]]], '
        '"1": [[[2,0]]], "2": [[[1,0]]]}}',
    ], ids=["one-pair", "first-of-two-pairs"])
    def test_negative_index_must_mirror(self, tmp_path, document):
        path = tmp_path / "bad.spectrum"
        path.write_text(document)
        with pytest.raises(ValueError, match="sigma_-1 disagrees with the conjugate transpose"):
            read_spectrum(path)

    # The given sigma_1, not its mirror's conjugate, is kept.
    @pytest.mark.parametrize("mirror", ["2", "2.0000000001"])
    def test_consistent_negative_index_accepted(self, tmp_path, mirror):
        path = tmp_path / "ok.spectrum"
        path.write_text('{"r": 1, "m": 1, "coeffs": {'
                        '"0": [[[5,0]]], "1": [[[2,1]]], "-1": [[[%s,-1]]]}}' % mirror)
        S = read_spectrum(path)
        assert S.coeffs[1, 0, 0] == 2 + 1j

    def test_negative_index_alone_supplies_mirror(self, tmp_path):
        path = tmp_path / "ok.spectrum"
        path.write_text('{"r": 1, "m": 1, "coeffs": {'
                        '"0": [[[5,0]]], "-1": [[[2,-1]]]}}')
        S = read_spectrum(path)
        assert S.coeffs[1, 0, 0] == 2 + 1j

    def test_index_out_of_band_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[5,0]]], "2": [[[1,0]]]}}')
        with pytest.raises(ValueError, match="outside"):
            read_spectrum(path)

    def test_wrong_matrix_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text('{"r": 2, "m": 0, "coeffs": {"0": [[[1,0]]]}}')
        with pytest.raises(ValueError, match="pairs"):
            read_spectrum(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text('{"r": 1, "coeffs": {}}')
        with pytest.raises(ValueError, match="missing required field"):
            read_spectrum(path)

    @pytest.mark.parametrize("field", ["r", "m"])
    @pytest.mark.parametrize("reader", [read_spectrum, read_factor])
    def test_boolean_dimension_rejected(self, tmp_path, reader, field):
        doc = {"r": 1, "m": 0, "coeffs": {"0": [[[1, 0]]]}}
        doc[field] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f": {field} must be a"):
            reader(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            read_spectrum(path)

    @pytest.mark.parametrize("metadata", ['{"note": 1}', "[]", '"text"'])
    def test_spectrum_file_ignores_a_metadata_member(self, tmp_path, metadata):
        path = tmp_path / "s.spectrum"
        path.write_text('{"r": 1, "m": 0, "coeffs": {"0": [[[2,0]]]}, "metadata": %s}'
                        % metadata)
        assert read_spectrum(path).coeffs.tolist() == [[[2]]]

    # 1e200 also overflows the polynomial's constructor, which runs after the check.
    @pytest.mark.parametrize("entry", ["1", "1e200"])
    def test_factor_metadata_must_be_an_object(self, tmp_path, entry):
        path = tmp_path / "x.factor"
        path.write_text('{"r": 1, "m": 0, "coeffs": {"0": [[[%s,0]]]}, "metadata": []}'
                        % entry)
        with pytest.raises(ValueError) as raised:
            read_factor(path)
        assert str(raised.value) == f"factor file {path}: metadata must be an object"

    def test_factor_file_rejects_negative_indices(self, tmp_path):
        path = tmp_path / "bad.factor"
        path.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[1,0]]], "-1": [[[1,0]]]}}')
        with pytest.raises(ValueError, match="outside"):
            read_factor(path)

    def test_nonfinite_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.spectrum"
        path.write_text('{"r": 1, "m": 0, "coeffs": {"0": [[[1e999,0]]]}}')
        with pytest.raises(ValueError, match="finite"):
            read_spectrum(path)


    @pytest.mark.parametrize("keys", [("0", "-0"), ("1", "01")])
    @pytest.mark.parametrize("reader", [read_spectrum, read_factor])
    def test_index_given_twice_rejected(self, tmp_path, reader, keys):
        # Both keys parse to one index; neither may silently win.
        coeffs = {"0": [[[1, 0]]], "1": [[[0.2, 0]]]}
        coeffs.update({key: [[[3, 0]]] for key in keys})
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"r": 1, "m": 1, "coeffs": coeffs}))
        index = int(keys[0])
        with pytest.raises(ValueError, match=f": coefficient index {index} is given twice$"):
            reader(path)

    @pytest.mark.parametrize("entry", [{"x": 1}, [[["a", 0]]], [[[1, 0], [1]]],
                                       [[["5", "0"]]], [[[1, True]]], [[[False, 0]]],
                                       [[[None, 0]]]],
                             ids=["object", "string", "ragged", "numeric-string", "true",
                                  "false", "null"])
    @pytest.mark.parametrize("reader", [read_spectrum, read_factor])
    def test_malformed_coefficient_names_file_and_index(self, tmp_path, reader, entry):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"r": 1, "m": 0, "coeffs": {"0": entry}}))
        with pytest.raises(ValueError, match=rf"^\w+ file {path}: coeffs\[0\]: expected "
                           r"numeric \[re, im\] pairs \("):
            reader(path)

    @pytest.mark.parametrize("read", [read_spectrum, lambda path: read_factor(path)[0]],
                             ids=["read_spectrum", "read_factor"])
    def test_declared_order_does_not_size_the_stack(self, tmp_path, read):
        # numpy refuses a (2^62 + 1)-long stack outright, so this allocates
        # nothing even where m sizes the stack; the stack follows the indices.
        path = tmp_path / "huge_m.json"
        path.write_text(json.dumps({"r": 1, "m": 2**62, "coeffs": {"0": [[[2, 0]]]}}))
        poly = read(path)
        assert poly.m == 0 and poly.coeffs[0, 0, 0] == 2


    @pytest.mark.parametrize("reader", [read_spectrum, read_factor])
    def test_empty_coefficients_rejected(self, tmp_path, reader):
        # Like m, the declared r must not size the stack.  numpy refuses a
        # 2^40 x 2^40 stack without allocating, so this allocates nothing even
        # where r sizes it.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"r": 2**40, "m": 0, "coeffs": {}}))
        with pytest.raises(ValueError, match=rf"^\w+ file {path}: coeffs holds no coefficient$"):
            reader(path)


class TestGoldenFixtures:
    """The committed fixture bytes are the format-stability contract."""

    def test_scalar_fixture_parses_to_expected_values(self):
        S = read_spectrum(FIXTURES / "scalar_basic.spectrum")
        assert S.r == 1 and S.m == 1
        assert S.coeffs[:, 0, 0].tolist() == [5.0, 2.0]
        x, metadata = read_factor(FIXTURES / "scalar_basic.truth")
        assert x.coeffs[:, 0, 0].tolist() == [2.0, 1.0]
        assert metadata["algorithm"] == "ground_truth"

    def test_bundle_fixture_bytes_reproduce(self, tmp_path):
        bundle = generate_instance(2, 3, seed=11, root_margin=0.2)
        write_spectrum(tmp_path / "s", bundle.spectrum)
        write_factor(tmp_path / "t", bundle.ground_truth,
                     algorithm="ground_truth", residual=0.0)
        assert (tmp_path / "s").read_bytes() == \
            (FIXTURES / "bundle_r2m3_seed11.spectrum").read_bytes()
        assert (tmp_path / "t").read_bytes() == \
            (FIXTURES / "bundle_r2m3_seed11.truth").read_bytes()

    def test_boundary_fixture_bytes_reproduce(self, tmp_path):
        bundle = generate_boundary_instance(2, 2, seed=19)
        write_spectrum(tmp_path / "s", bundle.spectrum)
        assert (tmp_path / "s").read_bytes() == \
            (FIXTURES / "boundary_r2m2_seed19.spectrum").read_bytes()

    def test_bundle_fixture_is_a_valid_pair(self):
        from specfact.verify import check_factorization
        S = read_spectrum(FIXTURES / "bundle_r2m3_seed11.spectrum")
        x, _ = read_factor(FIXTURES / "bundle_r2m3_seed11.truth")
        assert check_factorization(S, x) <= 1e-13
