"""Deterministic numerical core: tensors with reverse-mode differentiation,
transformer encoder, recurrent layers, optimizers, schedules and the
finite-difference gradient checker."""
