"""Deterministic numerical core: tensors with reverse-mode differentiation,
transformer encoder, recurrent layers, optimizers, schedules and
checkpoints.  The finite-difference gradient checker is a test helper,
``tests/gradcheck.py``."""
