"""Validation patterns and the distances they score with."""
