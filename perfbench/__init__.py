"""Seeded benchmark of the repository (see README.md)."""
