"""Tests for :func:`repro.obs.platform_key`, the machine class of a bench result."""

from __future__ import annotations

from repro.obs import platform_key

V3_PLATFORM = {
    "system": "Linux",
    "machine": "x86_64",
    "python": "3.11.8",
    "processor": "x86_64",
    "cpu_count": 8,
}


class TestPlatformKey:
    def test_v3_fingerprint(self):
        assert platform_key(V3_PLATFORM) == "Linux-x86_64-py3.11"

    def test_v2_platform_dict(self):
        legacy = {"system": "Darwin", "machine": "arm64", "python": "3.10.2"}
        assert platform_key(legacy) == "Darwin-arm64-py3.10"

    def test_missing_fields_degrade_gracefully(self):
        assert platform_key(None) == "unknown-unknown-py0.0"
        assert platform_key({"system": "Linux"}) == "Linux-unknown-py0.0"
