"""Exact combinatorics of cyclic-group fixed loci in Calogero-Moser spaces."""

__version__ = "0.1.0"
