"""Tests for the kernel-tier knob and loop bodies (:mod:`repro.kernels`)."""
