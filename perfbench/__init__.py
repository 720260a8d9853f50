"""Layered simulator benchmark (see README.md)."""
