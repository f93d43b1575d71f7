"""Holds only :mod:`repro.service.tenant`, a compatibility alias."""
