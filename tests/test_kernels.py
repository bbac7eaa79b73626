"""Unit tests for the real kernel implementations."""

import numpy as np
import pytest

from repro.kernels import kernel_registry
from repro.kernels.base import Kernel, KernelRegistry
from repro.kernels.bfs import BFSKernel
from repro.kernels.cholesky import CholeskyKernel
from repro.kernels.dwarfs import DWARF_DESCRIPTIONS, Dwarf, dwarfs_of_application
from repro.kernels.gem import GEMKernel, gem_potential_reference
from repro.kernels.matinv import MatInvKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.nw import NeedlemanWunschKernel, nw_score_matrix_reference
from repro.kernels.srad import SRADKernel


class TestRegistry:
    def test_all_seven_kernels_registered(self):
        assert set(kernel_registry.names()) == {
            "matmul", "matinv", "cholesky", "nw", "bfs", "srad", "gem",
        }

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            kernel_registry.get("ghost")

    def test_duplicate_registration_rejected(self):
        reg = KernelRegistry()
        reg.register(MatMulKernel())
        with pytest.raises(ValueError):
            reg.register(MatMulKernel())

    def test_registry_contains_and_len(self):
        assert "bfs" in kernel_registry
        assert len(kernel_registry) == 7


class TestDwarfs:
    def test_thirteen_dwarfs(self):
        assert len(Dwarf) == 13
        assert len(DWARF_DESCRIPTIONS) == 13

    def test_kernel_dwarf_classification_matches_table5(self):
        assert kernel_registry.get("nw").dwarf is Dwarf.DYNAMIC_PROGRAMMING
        assert kernel_registry.get("bfs").dwarf is Dwarf.GRAPH_TRAVERSAL
        assert kernel_registry.get("srad").dwarf is Dwarf.STRUCTURED_GRIDS
        assert kernel_registry.get("gem").dwarf is Dwarf.N_BODY
        for name in ("cholesky", "matmul", "matinv"):
            assert kernel_registry.get(name).dwarf is Dwarf.DENSE_LINEAR_ALGEBRA

    def test_application_dwarfs_table1(self):
        assert dwarfs_of_application("backpropagation") == (
            Dwarf.DENSE_LINEAR_ALGEBRA,
            Dwarf.UNSTRUCTURED_GRIDS,
        )
        with pytest.raises(KeyError):
            dwarfs_of_application("ghost_app")


class TestSquareSide:
    def test_accepts_perfect_squares(self):
        assert Kernel.square_side(698_896) == 836  # the paper's own example

    def test_rejects_non_squares(self):
        with pytest.raises(ValueError):
            Kernel.square_side(698_897)


class TestMatMul:
    def test_correct_product_verifies(self, rng):
        k = MatMulKernel()
        inputs = k.prepare(64 * 64, rng)
        out = k.run(**inputs)
        assert np.allclose(out, inputs["a"] @ inputs["b"])
        assert k.verify(out, **inputs)

    def test_wrong_product_fails_verification(self, rng):
        k = MatMulKernel()
        inputs = k.prepare(64 * 64, rng)
        out = k.run(**inputs)
        assert not k.verify(out + 1.0, **inputs)
        assert not k.verify(out[:10], **inputs)


class TestMatInv:
    def test_inverse_verifies(self, rng):
        k = MatInvKernel()
        inputs = k.prepare(50 * 50, rng)
        out = k.run(**inputs)
        assert k.verify(out, **inputs)

    def test_garbage_fails(self, rng):
        k = MatInvKernel()
        inputs = k.prepare(50 * 50, rng)
        assert not k.verify(np.zeros((50, 50)), **inputs)


class TestCholesky:
    def test_factor_verifies(self, rng):
        k = CholeskyKernel()
        inputs = k.prepare(40 * 40, rng)
        out = k.run(**inputs)
        assert k.verify(out, **inputs)

    def test_output_is_upper_triangular_per_eq9(self, rng):
        k = CholeskyKernel()
        inputs = k.prepare(30 * 30, rng)
        u = k.run(**inputs)
        assert np.allclose(u, np.triu(u))
        assert np.allclose(u.T @ u, inputs["a"])

    def test_lower_factor_fails_verification(self, rng):
        k = CholeskyKernel()
        inputs = k.prepare(30 * 30, rng)
        u = k.run(**inputs)
        assert not k.verify(u.T, **inputs)  # lower-triangular variant


class TestNeedlemanWunsch:
    def test_matches_reference_dp(self, rng):
        k = NeedlemanWunschKernel()
        inputs = k.prepare(32 * 32, rng)
        out = k.run(**inputs)
        ref = nw_score_matrix_reference(
            inputs["seq1"], inputs["seq2"], k.match, k.mismatch, k.gap
        )
        assert np.array_equal(out, ref)
        assert k.verify(out, **inputs)

    def test_identical_sequences_score_perfectly(self):
        k = NeedlemanWunschKernel(match=2, mismatch=-1, gap=1)
        seq = np.array([0, 1, 2, 3, 0, 1], dtype=np.int8)
        out = k.run(seq1=seq, seq2=seq)
        assert out[-1, -1] == 2 * len(seq)

    def test_gap_only_alignment(self):
        k = NeedlemanWunschKernel(match=2, mismatch=-1, gap=1)
        a = np.array([0], dtype=np.int8)
        b = np.array([1], dtype=np.int8)
        # best of: mismatch (-1) vs two gaps (-2)
        assert k.run(seq1=a, seq2=b)[-1, -1] == -1

    def test_tampered_matrix_fails(self, rng):
        k = NeedlemanWunschKernel()
        inputs = k.prepare(16 * 16, rng)
        out = k.run(**inputs)
        out[5, 5] += 1
        assert not k.verify(out, **inputs)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            NeedlemanWunschKernel(gap=-1)


class TestBFS:
    def test_levels_verify(self, rng):
        k = BFSKernel()
        inputs = k.prepare(800, rng)
        out = k.run(**inputs)
        assert k.verify(out, **inputs)

    def test_source_is_level_zero_everything_reached(self, rng):
        k = BFSKernel()
        inputs = k.prepare(500, rng)
        out = k.run(**inputs)
        assert out[0] == 0
        # the generator chains all vertices, so everything is reachable
        assert np.all(out >= 0)

    def test_chain_graph_levels_are_distances(self):
        k = BFSKernel()
        n = 10
        out = k.run(src=np.arange(n - 1), dst=np.arange(1, n), n_nodes=n, source=0)
        assert np.array_equal(out, np.arange(n))

    def test_duplicate_edges_do_not_change_levels(self, rng):
        k = BFSKernel()
        inputs = k.prepare(300, rng)
        doubled = dict(
            inputs,
            src=np.concatenate([inputs["src"], inputs["src"]]),
            dst=np.concatenate([inputs["dst"], inputs["dst"]]),
        )
        assert np.array_equal(k.run(**doubled), k.run(**inputs))

    def test_unreachable_vertices_stay_unvisited(self):
        k = BFSKernel()
        inputs = {"src": np.array([0]), "dst": np.array([1]), "n_nodes": 3, "source": 0}
        out = k.run(**inputs)
        assert np.array_equal(out, [0, 1, -1])
        assert k.verify(out, **inputs)

    def test_corrupted_levels_fail(self, rng):
        k = BFSKernel()
        inputs = k.prepare(400, rng)
        out = k.run(**inputs)
        bad = out.copy()
        bad[bad == bad.max()] += 5  # skip levels
        assert not k.verify(bad, **inputs)

    def test_needs_positive_edges(self, rng):
        with pytest.raises(ValueError):
            BFSKernel().prepare(0, rng)


class TestSRAD:
    def test_output_verifies(self, rng):
        k = SRADKernel()
        inputs = k.prepare(64 * 64, rng)
        out = k.run(**inputs)
        assert k.verify(out, **inputs)

    def test_reduces_background_speckle(self, rng):
        k = SRADKernel(n_iterations=8)
        inputs = k.prepare(64 * 64, rng)
        out = k.run(**inputs)
        img = inputs["image"]
        q = 8
        cv_in = np.std(img[:q, :q]) / np.mean(img[:q, :q])
        cv_out = np.std(out[:q, :q]) / np.mean(out[:q, :q])
        assert cv_out < cv_in

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SRADKernel(n_iterations=0)
        with pytest.raises(ValueError):
            SRADKernel(time_step=0.5)

    def test_preserves_shape_and_finiteness(self, rng):
        k = SRADKernel()
        inputs = k.prepare(32 * 32, rng)
        out = k.run(**inputs)
        assert out.shape == (32, 32)
        assert np.all(np.isfinite(out))


class TestGEM:
    def test_matches_reference(self, rng):
        k = GEMKernel()
        inputs = k.prepare(900, rng)
        out = k.run(**inputs)
        ref = gem_potential_reference(
            inputs["atoms"], inputs["charges"], inputs["vertices"]
        )
        assert np.allclose(out, ref)
        assert k.verify(out, **inputs)

    def test_interaction_count_approximates_data_size(self, rng):
        k = GEMKernel()
        inputs = k.prepare(10_000, rng)
        n = len(inputs["atoms"]) * len(inputs["vertices"])
        assert 0.5 * 10_000 <= n <= 1.5 * 10_000

    def test_single_charge_coulomb_law(self):
        k = GEMKernel()
        atoms = np.array([[0.0, 0.0, 0.0]])
        charges = np.array([2.0])
        verts = np.array([[2.0, 0.0, 0.0]])
        out = k.run(atoms=atoms, charges=charges, vertices=verts)
        assert out[0] == pytest.approx(1.0)  # q/r = 2/2

    def test_blocked_equals_direct(self, rng):
        # The blocked pairwise evaluation must be exact, not approximate.
        k = GEMKernel()
        inputs = k.prepare(2_500, rng)
        out = k.run(**inputs)
        diff = inputs["vertices"][:, None, :] - inputs["atoms"][None, :, :]
        direct = (inputs["charges"] / np.sqrt((diff**2).sum(axis=2))).sum(axis=1)
        assert np.allclose(out, direct)


class TestExecuteHelper:
    def test_execute_runs_end_to_end(self, rng):
        out = MatMulKernel().execute(16 * 16, rng)
        assert out.shape == (16, 16)
