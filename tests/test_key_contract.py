"""Property tests for the cache-key / perf-knob contract.

The contract under test, driven off ``dataclasses.fields(FlowOptions)``
so a newly added field is covered automatically:

* every field NOT in PERF_KNOBS perturbs ``request_key`` — a semantic
  change can never be served a stale coalesced result;
* every field IN PERF_KNOBS leaves ``request_key`` unchanged — a knob
  flip can never force a spurious recompute;
* ``utilization`` (dead config before this audit existed) genuinely
  reaches flow-a die sizing and the physical stage key;
* the serve-side submittable list stays derived, not hand-listed;
* the per-stage option slices and PERF_KNOBS partition the fields, a
  stage cannot read outside its slice, and the keys built from the
  slices are byte-identical to the pinned digests.
"""

import hashlib
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest

from conftest import make_ripple_design

from repro.flow import flow as flow_module
from repro.flow.cache import CACHE_FORMAT_VERSION, StageCache
from repro.flow.flow import (
    STAGES,
    compute_stage,
    request_key,
    stage_keys,
)
from repro.flow.options import PERF_KNOBS, STAGE_OPTIONS, FlowOptions
from repro.place.grid import grid_for_netlist
from repro.serve.jobs import (
    _SUBMITTABLE_OPTIONS,
    _SUBMITTABLE_PERF_KNOBS,
    JobSpec,
    derive_request_key,
)


NETLIST = make_ripple_design()
CACHE = StageCache(enabled=False)
FIELD_NAMES = sorted(f.name for f in dataclass_fields(FlowOptions))


def perturbed(options, name):
    """A copy of ``options`` with field ``name`` changed to a new,
    still-valid value."""
    value = getattr(options, name)
    if name == "arch":
        return replace(options, arch="lut" if value != "lut" else "granular")
    if isinstance(value, bool):
        return replace(options, **{name: not value})
    if isinstance(value, int):
        return replace(options, **{name: value + 1})
    if isinstance(value, float):
        return replace(options, **{name: value * 2 + 0.125})
    raise AssertionError(
        f"no perturbation strategy for field {name!r} "
        f"({type(value).__name__}); extend perturbed()"
    )


class TestRequestKeyContract:
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_field_perturbs_key_iff_semantic(self, name):
        base = FlowOptions()
        before = request_key(CACHE, NETLIST, base)
        after = request_key(CACHE, NETLIST, perturbed(base, name))
        if name in PERF_KNOBS:
            assert after == before, (
                f"perf knob {name!r} changed request_key; a knob flip "
                f"would force a spurious recompute"
            )
        else:
            assert after != before, (
                f"semantic field {name!r} left request_key unchanged; "
                f"a stale coalesced result could be served"
            )

    def test_knob_set_names_real_fields(self):
        assert PERF_KNOBS <= set(FIELD_NAMES)

    def test_request_key_is_deterministic(self):
        base = FlowOptions()
        assert request_key(CACHE, NETLIST, base) == request_key(
            CACHE, NETLIST, FlowOptions()
        )


class TestUtilizationIsLive:
    def test_utilization_sizes_the_flow_a_die(self):
        relaxed = grid_for_netlist(NETLIST, utilization=0.5)
        packed = grid_for_netlist(NETLIST, utilization=0.9)
        assert relaxed.area_um2 > packed.area_um2

    def test_utilization_perturbs_physical_key_onward(self):
        base = FlowOptions()
        before = stage_keys(CACHE, NETLIST, base)
        after = stage_keys(
            CACHE, NETLIST, replace(base, utilization=0.55)
        )
        assert before["synthesis"] == after["synthesis"]
        for stage in ("physical", "route_a", "packing", "route_b"):
            assert before[stage] != after[stage], stage


class TestSubmittableDerivation:
    def test_submittable_options_follow_the_contract(self):
        expected = sorted(
            (set(FIELD_NAMES) - PERF_KNOBS - {"arch"}) | {"check"}
        )
        assert sorted(_SUBMITTABLE_OPTIONS) == expected
        assert set(_SUBMITTABLE_PERF_KNOBS) <= PERF_KNOBS

    def test_check_knob_is_resubmittable(self):
        # The regression this family exists for: 'check' is a perf
        # knob (excluded from keys) yet explicitly submittable.
        assert "check" in PERF_KNOBS
        assert "check" in _SUBMITTABLE_OPTIONS


#: Pinned ``stage_keys`` of the ripple design: the five keys at the
#: defaults, and per single-field ``perturbed()`` variant the sha256 of
#: the five keys concatenated.  Every existing cache entry is addressed
#: by these bytes; changing them requires a CACHE_FORMAT_VERSION bump.
PINNED_KEYS = {
    "lut": {
        "defaults": (
            "67a95fe4a8d6d0200c67e37c07d899de2b5871e7a5cae47857c7b7db60a55951",
            "f3ef0bd3a79958b37d7869e1d1d0268aac5c866f65e403b4f755484e7fa0aabc",
            "5a565fd262216857b9a48d13c6bf4f84281e368e26eef5aa5f5ea81198693d50",
            "6cf0e10fae83c9ca9f02a5a4d8279e3ea5b011271c9c2d0a8d9ff40eec1071c7",
            "7bb58084873c46658616933602583903f31032d8b1e4c99cc18ebab119c419b1",
        ),
        "arch":
            "cbe1174c3ae3326a09510685f2635affe33dc4505f5595b27cdbe22b78f192de",
        "check":
            "445747866479d12a91f98be82072e05d85aad0238667cbfc00231a6fb6dfb6f2",
        "jobs":
            "445747866479d12a91f98be82072e05d85aad0238667cbfc00231a6fb6dfb6f2",
        "observe":
            "445747866479d12a91f98be82072e05d85aad0238667cbfc00231a6fb6dfb6f2",
        "opt_effort":
            "8d89326997de68c4a90236a65eb9b82abe449a874cc7a29904a3a92ed64cdca4",
        "pack_headroom":
            "df28d631d621c69d34dcfef1d8010dfaf9c7150c60d87740683bfb5ca1baecdb",
        "pack_iterations":
            "d6cdb4d2a633b72495fb37ee84ce7ad298beca999d8afe47f95465a797ba6054",
        "period":
            "ff01c3e7b5623f269e8809174aa76fbdf1b7d6ac6afec3f0fffce30283dfb33b",
        "place_effort":
            "c623ec2c12aac991fe11bbc51c6185e3677060e768abc290ff3461b2f33e979c",
        "place_iterations":
            "9a87e4d3c008b39abd910e6a01609d4851da289e32849c062b16dd190c1e846b",
        "routing_bins_per_side":
            "b4c5d8037c3c6476893c7990608e1b8fe29b80de9d3083c318ab0a0d105035c7",
        "routing_tracks":
            "29c03d4cf51b5b08e39bb1ffbcebc0016abcb882298c4cfee9a9766a2069cace",
        "run_compaction":
            "c32036212b449de1184045988b78c5ff2c818b1612a674c70ab263336cfcf34a",
        "seed":
            "928c63f877e0b61e90cdbdf3702e7faa0f0110c4c568a4a8851ab0de91ee5408",
        "use_cache":
            "445747866479d12a91f98be82072e05d85aad0238667cbfc00231a6fb6dfb6f2",
        "utilization":
            "0b739a6c4ab6e877376006c0dddea28cff807854b5d782285761a293c7d0bab0",
    },
    "granular": {
        "defaults": (
            "63dd33a428001d74ea7f9216cd240ddd440af280a2af2197518b09d6fef019a4",
            "67b9cc2e989c092caaa4d6e6c5c1217dbc55967fb6a67f7b48b7c3416ae67ed4",
            "056e29cb80eae43c7831d6ad3bbec861703de55a708904c97c8d5ece4f4f485b",
            "bfb7b9862553b8f38453718e86bea7dcbda1145ac91751366d3c8898e03dd517",
            "95be0716e8ff36cc750c276c40940d3cb92936c95a73bd8dff557972e8266ebe",
        ),
        "arch":
            "445747866479d12a91f98be82072e05d85aad0238667cbfc00231a6fb6dfb6f2",
        "check":
            "cbe1174c3ae3326a09510685f2635affe33dc4505f5595b27cdbe22b78f192de",
        "jobs":
            "cbe1174c3ae3326a09510685f2635affe33dc4505f5595b27cdbe22b78f192de",
        "observe":
            "cbe1174c3ae3326a09510685f2635affe33dc4505f5595b27cdbe22b78f192de",
        "opt_effort":
            "b52631f781fb6f474b99636d87481ce6d1c9528da599ec0f5e8e267e01b2df6e",
        "pack_headroom":
            "9c7a58819a507aa0ce207da4c9cdddc2be173bee79c5f7d8e95dbc39f5638a94",
        "pack_iterations":
            "fc7491a4e3b568d804fc387df56881c4856362a2c1389e1f14aa4f14b2dfa95d",
        "period":
            "24a70672bc5c53f54c7bc3b35c0fa8d976a3bd111c19ad9dfef67c0cf5576c11",
        "place_effort":
            "7a0c890c783e0dfb860ecd5b8b9639f7a89752fd2cad42bd44ef5ea2f38854c3",
        "place_iterations":
            "f73734dc77bad94068b051327a8e8c9a1770f6554608f4186e5c8b4882618207",
        "routing_bins_per_side":
            "bfee349d7071a7cdbb293d0e5154c85ee1afe0568d52dce5c384c960d7fa1bf1",
        "routing_tracks":
            "b7767fc8655b36086ca677676ca12cc5dec37507c003afe4bbbf60830751c5c3",
        "run_compaction":
            "d6d39f0d9508f94afc632ebc534d6340ddfc6093adf83b582ab54b42ff739fdc",
        "seed":
            "511c33bcbc9957bfaed39ef1755d3e9e8a95f5fd211b402e331828e17c61fb0b",
        "use_cache":
            "cbe1174c3ae3326a09510685f2635affe33dc4505f5595b27cdbe22b78f192de",
        "utilization":
            "e7feaca6e35a40cb0ed6e1bb2f9b53165fff0b70f848f1156063f0052459a588",
    },
}


class TestStageSlices:
    @pytest.mark.parametrize("arch", ["lut", "granular"])
    def test_keys_match_pinned_digests(self, arch):
        assert CACHE_FORMAT_VERSION == 2
        base = FlowOptions(arch=arch)
        pinned = PINNED_KEYS[arch]
        keys = stage_keys(CACHE, NETLIST, base)
        assert tuple(keys[stage] for stage in STAGES) == pinned["defaults"]
        for name in FIELD_NAMES:
            keys = stage_keys(CACHE, NETLIST, perturbed(base, name))
            chain = "".join(keys[stage] for stage in STAGES)
            digest = hashlib.sha256(chain.encode()).hexdigest()
            assert digest == pinned[name], name

    def test_slices_and_knobs_partition_the_fields(self):
        assert list(STAGE_OPTIONS) == list(STAGES)
        sliced = {
            f.name
            for cls in STAGE_OPTIONS.values()
            for f in dataclass_fields(cls)
        }
        assert not sliced & PERF_KNOBS
        assert sliced | PERF_KNOBS == set(FIELD_NAMES)

    def test_stage_reading_outside_its_slice_raises(self, monkeypatch):
        def reads_seed(synthesis, packed, options):
            return options.seed

        monkeypatch.setattr(flow_module, "_flow_b_result", reads_seed)
        with pytest.raises(AttributeError, match="seed"):
            compute_stage("route_b", FlowOptions(), {
                "synthesis": None, "packing": None,
            })


class TestJsonNumbers:
    def test_int_for_float_field_becomes_float(self):
        options = FlowOptions.from_dict({"place_effort": 1, "seed": 3})
        assert repr(options.place_effort) == "1.0"
        assert type(options.seed) is int

    def test_int_and_float_submissions_share_request_key(self):
        def key(effort):
            return derive_request_key(JobSpec.from_payload({
                "design": "alu", "scale": 0.2,
                "options": {"place_effort": effort},
            }))

        assert key(1) == key(1.0)
        assert key(1) != key(0.5)
