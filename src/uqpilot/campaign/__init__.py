"""Campaigns: the config document, the store, and the operations on both."""
