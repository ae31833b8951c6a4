"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GraphError,
            errors.VertexError,
            errors.StreamError,
            errors.MachineModelError,
            errors.ProfileError,
            errors.NotInForestError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_vertex_error_is_a_graph_error(self):
        assert issubclass(errors.VertexError, errors.GraphError)

    def test_one_except_catches_everything(self):
        """The documented catch-all contract."""
        from repro.adjacency.dynarr import DynArrAdjacency
        from repro.machine.spec import get_machine

        caught = 0
        for trigger in (
            lambda: DynArrAdjacency(3).insert(5, 0),
            lambda: get_machine("bogus"),
            lambda: errors.ProfileError("x") and None,
        ):
            try:
                trigger()
                raise errors.ProfileError("synthetic")
            except errors.ReproError:
                caught += 1
        assert caught == 3

    def test_library_does_not_leak_bare_exceptions(self):
        """API-boundary validation raises ReproError subclasses, not ValueError."""
        from repro.adjacency.csr import CSRGraph
        import numpy as np

        with pytest.raises(errors.ReproError):
            CSRGraph(2, np.array([0, 1]), np.array([0]))

    def test_all_exported(self):
        for name in errors.__all__:
            assert hasattr(errors, name)
