"""Worked model designs: endogenous quantile, single index, asset pricing."""
