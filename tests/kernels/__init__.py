"""Tests for :mod:`repro.kernels` and for what picks a batch's path."""
